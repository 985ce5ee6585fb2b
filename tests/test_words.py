import random

import pytest

from conicline import words
from conicline.errors import ParseError


def test_reduce_cancels_adjacent_inverses():
    assert words.reduce((1, 2, -2, 3)) == (1, 3)
    assert words.reduce((1, -1)) == ()
    assert words.reduce((1, 2, -2, -1)) == ()


def test_reduce_is_idempotent():
    w = (1, 2, -2, 2, -1, 1, 3)
    assert words.reduce(words.reduce(w)) == words.reduce(w)


def test_concat_reduces_across_the_seam():
    assert words.concat((1, 2), (-2, 3)) == (1, 3)


def test_inverse():
    assert words.inverse((1, 2, -3)) == (3, -2, -1)
    assert words.reduce(words.concat((1, 2, -3), words.inverse((1, 2, -3)))) == ()


def test_cyclic_reduce():
    assert words.cyclic_reduce((1, 2, -1)) == (2,)
    assert words.cyclic_reduce((-3, 1, 2, 3)) == (1, 2)


def test_cyclic_normal_form_rotation_invariant():
    w = (1, 2, 1, 2)
    for k in range(4):
        rotated = w[k:] + w[:k]
        assert words.cyclic_normal_form(rotated) == words.cyclic_normal_form(w)


def test_cyclic_normal_form_inversion_invariant():
    w = (1, 2, -1, 3)
    assert words.cyclic_normal_form(w) == words.cyclic_normal_form(
        words.inverse(w))


def _normal_form_by_all_rotations(w):
    """Reference: the least of all rotations of ``w`` and its inverse."""
    w = words.cyclic_reduce(w)
    if not w:
        return w
    return min(u[r:] + u[:r] for u in (w, words.inverse(w))
               for r in range(len(u)))


def test_cyclic_normal_form_matches_all_rotations():
    rng = random.Random(20261018)
    cases = [(), (1,), (-1,), (3,), (1, -1), (1, 2, -1)]
    cases += [(1, 2) * k for k in range(1, 8)]
    cases += [(1, -2, 1) * k for k in range(1, 5)]
    cases += [(1,) * k for k in range(1, 6)] + [(-2,) * k for k in range(1, 6)]
    for _ in range(3000):
        ngen = rng.randint(1, 3)
        unit = tuple(rng.choice((1, -1)) * rng.randint(1, ngen)
                     for _ in range(rng.randint(0, 8)))
        cases.append(unit * rng.choice((1, 1, 2, 3)))
    for w in cases:
        assert words.cyclic_normal_form(w) == \
            _normal_form_by_all_rotations(w), w
        # the least rotation itself, periodic words included
        assert words._least_rotation(w) == \
            min((w[r:] + w[:r] for r in range(len(w))), default=()), w


def test_cyclic_normal_form_computes_only_the_winning_rotation():
    # unless min(w) == -max(w), the least rotations of w and w^-1 start
    # with different letters and only one of them is computed
    rng = random.Random(20261020)
    ties = others = 0
    for _ in range(3000):
        ngen = rng.randint(1, 4)
        w = words.cyclic_reduce(tuple(
            rng.choice((1, -1)) * rng.randint(1, ngen)
            for _ in range(rng.randint(0, 16))))
        want = min(words._least_rotation(w),
                   words._least_rotation(words.inverse(w)))
        assert words.cyclic_normal_form(w) == want, w
        if w:
            ties += min(w) == -max(w)
            others += min(w) != -max(w)
    assert ties > 500 and others > 500


def _reduce_letter_by_letter(letters):
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def test_concat_matches_reducing_the_concatenation():
    rng = random.Random(20261021)
    cancelled = unreduced = 0
    for _ in range(3000):
        ngen = rng.randint(1, 3)
        parts = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.2 and parts:
                # cancels the part before it completely
                parts.append(words.inverse(words.reduce(parts[-1])))
            elif kind < 0.3:
                parts.append(())
            else:
                part = tuple(rng.choice((1, -1)) * rng.randint(1, ngen)
                             for _ in range(rng.randint(1, 8)))
                if kind < 0.6:
                    part = words.reduce(part)
                parts.append(part)
        want = _reduce_letter_by_letter([a for w in parts for a in w])
        assert words.concat(*parts) == want, parts
        assert words.concat(*map(list, parts)) == want, parts
        cancelled += bool(parts) and not want
        unreduced += any(w != words.reduce(w) for w in parts)
    assert cancelled > 100 and unreduced > 1000
    # a letter 0 is refused, even where it meets another 0
    for parts in [((1, 0),), ((0,), (0,)), ((1, 0), (0, -1))]:
        with pytest.raises(ValueError):
            words.concat(*parts)


def test_generators_and_max_generator():
    assert words.generators_of((1, -3, 2)) == {1, 2, 3}
    assert words.max_generator((1, -3, 2)) == 3
    assert words.max_generator(()) == 0


def test_substitute_letters():
    # send generator 1 to the word (2, 3), keep generator 2
    images = {1: (2, 3), 2: (2,)}
    out = words.substitute_letters((1, -1), images)
    assert words.reduce(out) == ()
    out = words.substitute_letters((1, 2), images)
    assert out == (2, 3, 2)


def test_parse_and_format_round_trip():
    for text in ["x1 x2^-1", "x1^3", "e", ""]:
        w = words.parse_word(text)
        assert words.parse_word(words.format_word(w)) == w


def test_parse_identity_spellings():
    assert words.parse_word("") == ()
    assert words.parse_word("e") == ()
    assert words.parse_word("1") == ()


def test_oversized_exponent_is_refused_before_its_letters(monkeypatch):
    # the bound is checked before a power's letters are reduced: the
    # reduction fails the test if it is ever called
    def never(letters):
        raise AssertionError(f"{len(letters)} letters were built")

    monkeypatch.setattr(words, "reduce", never)
    bound = words.MAX_EXPONENT
    for text in (f"x1^{bound + 1}", f"x2^-{bound + 1}", "x1^1000000000",
                 f"x1 s1^{bound + 1}"):
        with pytest.raises(ParseError, match=f"beyond {bound}"):
            words.parse_word(text, ("s1",))
    monkeypatch.undo()
    assert words.parse_word(f"x1^-{bound}") == (-1,) * bound


def test_format_collapses_powers():
    assert words.format_word((1, 1, 1)) == "x1^3"
    assert words.format_word((-2, -2)) == "x2^-2"
    assert words.format_word(()) == "e"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        words.parse_word("x1^")
    with pytest.raises(ParseError):
        words.parse_word("y%3")
    # a bare index is not a generator: "1" is the identity, "2" nothing
    for text in ("2", "1 1"):
        with pytest.raises(ParseError):
            words.parse_word(text)

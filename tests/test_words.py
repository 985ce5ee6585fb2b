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

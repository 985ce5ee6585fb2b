import pytest

from conicline import presentations, words
from conicline.errors import (ConiclineError, DefinitionContainsTarget,
                              MapsNotInverse, ParseError)
from conicline.presentations import (Presentation, TietzeMove, apply_move,
                                     format_presentation, parse_presentation,
                                     replay)
from conicline.van_kampen import parse_sweep

CONIC = Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1)])


def test_relators_are_reduced_and_cyclically_reduced():
    p = Presentation(2, [(1, -1, 2, 2), (1, 2, -1)])
    assert all(r == tuple(r) for r in p.relators)
    assert (2, 2) in p.relators
    assert (2,) in p.relators


def test_immutable():
    with pytest.raises(AttributeError):
        CONIC.ngen = 3


def test_substitute_eliminates_generator():
    # x2 := x1^-1 turns (x1 x2)^2 into the trivial word
    p = Presentation(2, [(1, 2, 1, 2)])
    q = p.substitute(2, (-1,))
    assert q.ngen == 1
    assert all(2 not in {abs(l) for l in r} for r in q.relators)


def test_substitute_rejects_self_reference():
    p = Presentation(2, [(1, 2)])
    with pytest.raises(DefinitionContainsTarget):
        p.substitute(2, (2, 1))


def test_trace_replays():
    p = CONIC.add_relators([(1, 2, 1, 2)]).remove_relator(0)
    replayed = replay(CONIC, p.trace[len(CONIC.trace):])
    assert replayed.relators == p.relators
    assert replayed.ngen == p.ngen


def test_format_parse_round_trip():
    for p in [CONIC, Presentation(3, []), Presentation(1, [(1, 1)])]:
        q = parse_presentation(format_presentation(p))
        assert q.ngen == p.ngen
        assert q.relators == p.relators


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_presentation("relators only\nx1 x2\n")


def test_parse_refuses_generator_names():
    with pytest.raises(ParseError, match="names:"):
        parse_presentation("gens: 2\nnames: a b\na b\n")


def test_replace_relator_reduces_and_range_checks_the_new_word():
    q = CONIC.replace_relator(0, (2, 1, 1, -1, -1, 1, -2))
    assert q.relators == ((1,), CONIC.relators[1])
    with pytest.raises(ConiclineError, match="beyond 2"):
        CONIC.replace_relator(0, (3,))
    with pytest.raises(ValueError):
        CONIC.replace_relator(0, (1, 0))


def test_remove_and_replace_keep_the_other_relators():
    p = Presentation(2, [(1, 2, 1, 2), (2, 2), (1, -2)])
    q = p.remove_relator(1).replace_relator(0, (1,), "why")
    assert q.relators == ((1,), (1, -2))
    assert q.trace == p.trace + (TietzeMove("remove_relator", (1, "")),
                                 TietzeMove("replace_relator",
                                            (0, (1,), "why")))
    assert replay(p, q.trace) == q


def test_every_move_kind_replays_to_an_equal_presentation():
    p = Presentation(4, [(1, 2, 1, 2), (2, 1, 2, 1), (4, -3, -1), (3, 3)])
    swap = {1: (2,), 2: (1,), 3: (3,)}
    q = (p.add_relators([(3, 1, -3, -1)], "extra")
         .remove_relator(3, "why")
         .replace_relator(0, (1, 2, 1, 2, 3, -3), "same word")
         .substitute(4, (1, 3))
         .change_generators(swap, swap))
    assert {m.kind for m in q.trace} == set(presentations._MOVES)
    r = replay(p, q.trace)
    assert r == q and r.trace == q.trace


@pytest.mark.parametrize("new_in_old, old_in_new", [
    ({1: (1,), 2: (2,)}, {1: (1,), 2: (3,)}),   # a word over uncovered x3
    ({1: (1,), 5: (2,)}, {1: (1,), 2: (2,)}),   # keys not 1..ngen
    ({1: (1,), 2: (2,)}, {1: (1,), 3: (2,)}),   # keys not 1..ngen
])
def test_change_generators_refuses_maps_that_do_not_cover(new_in_old,
                                                          old_in_new):
    with pytest.raises(MapsNotInverse):
        Presentation(2, [(1, 2)]).change_generators(new_in_old, old_in_new)


def _substitute_in_two_passes(p, g, definition):
    """Reference: substitute the definition, then shift generators above g."""
    images = {h: (h,) for h in range(1, p.ngen + 1)}
    images[g] = definition
    shift = {h: (h,) if h < g else (h - 1,)
             for h in range(1, p.ngen + 1) if h != g}
    return Presentation(p.ngen - 1, [
        words.substitute_letters(words.substitute_letters(r, images), shift)
        for r in p.relators])


def test_substitute_matches_the_two_pass_reference():
    # x2 := x3^-1 x4 x1: a middle generator defined over higher ones; the
    # first relator only reduces cyclically after the substitution
    p = Presentation(4, [(2, 1, 3), (1, 2, 4, 2), (4, -3, 2, 2), (3, 4)])
    definition = (-3, 4, 1)
    q = p.substitute(2, definition)
    assert q == _substitute_in_two_passes(p, 2, definition)
    assert q.relators[0] == (3, 1, 1)
    assert q.trace == (TietzeMove("eliminate", (2, definition)),)


def test_apply_move_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="add_generator"):
        apply_move(CONIC, TietzeMove("add_generator", ((1, 2),)))


def _sweep_before_braid_rows(text):
    return parse_sweep(text + "s1\ns1^-1\n")


def _sweep_before_table_rows(text):
    return parse_sweep(text + "1 2 1\n1 2 2 s1\n")


# The two body-form rows keep the ids of the factorization and table
# readers that parse_sweep replaced, so their test names stay stable.
@pytest.mark.parametrize("parse, key, what", [
    (parse_presentation, "gens", "presentation"),
    (parse_sweep, "strands", "factorization or table"),
    pytest.param(_sweep_before_braid_rows, "strands", "factorization",
                 id="parse_factorization-strands-factorization"),
    pytest.param(_sweep_before_table_rows, "strands", "table",
                 id="parse_mt_table-strands-table"),
])
@pytest.mark.parametrize("text", ["x1 x2\n", "{key}: two\n", "{key} 2\n",
                                  "# {key}: 2\n"])
def test_text_formats_refuse_a_bad_header(parse, key, what, text):
    with pytest.raises(ParseError, match=what):
        parse(text.format(key=key))


def test_oversized_header_count_is_refused_before_the_rows(monkeypatch):
    # the bound is checked before any row is read: the word parser fails
    # the test if it is ever called
    def never(text, names=None):
        raise AssertionError(f"row {text!r} was read")

    monkeypatch.setattr(words, "parse_word", never)
    bound = presentations.MAX_HEADER_COUNT
    for n in (bound + 1, 1000000000):
        for parse, key in ((parse_presentation, "gens"),
                           (parse_sweep, "strands")):
            with pytest.raises(ParseError, match=f"above {bound}"):
                parse(f"{key}: {n}\nx1\n")
    monkeypatch.undo()
    assert parse_presentation(f"gens: {bound}\n").ngen == bound
    assert parse_sweep(f"strands: {bound}\ns1\n").strands == bound

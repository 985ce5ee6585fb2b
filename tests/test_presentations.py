import pytest

from conicline.errors import DefinitionContainsTarget, ParseError
from conicline.presentations import (Presentation, format_presentation,
                                     parse_presentation, replay)

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


def test_add_generator_then_remove_is_tietze_trivial():
    p = CONIC.add_generator((1, 2))
    assert p.ngen == 3
    # the defining relator pins the new generator to x1 x2
    q = p.substitute(3, (1, 2))
    assert q.ngen == 2
    nonempty = {r for r in q.relators if r}
    assert nonempty <= set(CONIC.relators)


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


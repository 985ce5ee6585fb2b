import random

import pytest

from conicline import braids, words
from conicline.braids import (BraidWord, action_equal, artin_apply,
                              full_twist, half_twist, standard_gbase)
from conicline.catalog import CONIC_PAIR_TABLE
from conicline.errors import (BadPair, BudgetExceeded, ParseError,
                              StrandMismatch)
from conicline.invariants import abelianization, compare, invariant_bundle
from conicline.presentations import Presentation
from conicline.tietze import simplify
from conicline.van_kampen import (Factor, Factorization, MTRow, assemble,
                                  format_factorization, parse_sweep, present)


def test_factorization_strand_check():
    with pytest.raises(StrandMismatch):
        Factorization(3, (BraidWord(2, (1,)),))


def test_assemble_identity_deltas():
    rows = [MTRow(1, (1, 2), 1, BraidWord(3)),
            MTRow(2, (2, 3), 1, BraidWord(3))]
    f = assemble(rows, 3)
    assert action_equal(f.factors[0].expanded(), half_twist(3, 1, 2))
    assert action_equal(f.factors[1].expanded(), half_twist(3, 2, 3))


def test_assemble_conjugates_by_delta_history():
    d = BraidWord(3, (1,))
    rows = [MTRow(1, (1, 2), 1, d),
            MTRow(2, (2, 3), 1, BraidWord(3))]
    f = assemble(rows, 3)
    expected = d.inverse() * half_twist(3, 2, 3) * d
    assert action_equal(f.factors[1].expanded(), expected)


def test_assemble_bad_pair():
    with pytest.raises(BadPair):
        assemble([MTRow(1, (2, 1), 1, BraidWord(3))], 3)


def test_present_branch_point():
    f = Factorization(2, (BraidWord(2, (1,)),))
    p = present(f, projective=False)
    s = simplify(p).presentation
    # one branch point identifies the two generators: the free group Z
    assert invariant_bundle(s) == invariant_bundle(Presentation(1, []))


def test_present_projective_adds_big_loop_relator():
    f = Factorization(2, (BraidWord(2, (1,)),))
    p = present(f, projective=True)
    classes = {words.cyclic_normal_form(r) for r in p.relators}
    assert words.cyclic_normal_form((2, 1)) in classes


def test_full_twist_factorization_gives_torus_relations():
    # sigma1^4 as a single factor on two strands: the tangency group
    f = Factorization(2, (BraidWord(2, (1, 1, 1, 1)),))
    p = present(f, projective=False)
    s = simplify(p).presentation
    expected = Presentation(2, [(1, 2, 1, 2, -1, -2, -1, -2)])
    assert invariant_bundle(s) == invariant_bundle(expected)


def test_factorization_text_round_trip():
    f = Factorization(3, (BraidWord(3, (1, -2)), BraidWord(3, (2, 2))))
    g = parse_sweep(format_factorization(f))
    assert g.strands == f.strands
    assert g.factors == f.factors


def test_mt_table_text_round_trip():
    rows = [MTRow(1, (1, 2), 1, BraidWord(3, (2, -1))),
            MTRow(2, (2, 3), 4, BraidWord(3))]
    f = parse_sweep("strands: 3\n1 2 1 s2 s1^-1\n2 3 4 e\n")
    assert f == assemble(rows, 3)


def test_mt_table_parse_rejects_garbage():
    with pytest.raises(ParseError, match="bad table row"):
        parse_sweep("strands: 3\n1 two 1 e\n")


def test_table_and_its_written_factorization_read_alike():
    f = parse_sweep(CONIC_PAIR_TABLE)
    g = parse_sweep(format_factorization(f))
    assert [b.expanded() for b in g.factors] == \
        [b.expanded() for b in f.factors]
    # the written file has no conjugators, so it presents the relators of
    # the expanded words: a different presentation of the same group
    v = compare(present(g, projective=True), present(f, projective=True))
    assert v.kind == "equivalent"


@pytest.mark.parametrize("n", [0, -1])
def test_parse_sweep_refuses_fewer_than_one_strand(n):
    with pytest.raises(ParseError, match="'strands:' count"):
        parse_sweep(f"strands: {n}\n")


def test_product_of_assembled_factors_for_conic_pair_is_full_twist():
    f = parse_sweep(CONIC_PAIR_TABLE)
    prod = BraidWord(f.strands)
    for factor in f.factors:
        prod = prod * factor.expanded()
    assert action_equal(prod, full_twist(f.strands, 1, f.strands))


def test_growing_base_is_refused_before_its_images_are_built(monkeypatch):
    # s1 s2 on three strands builds images of 5, then 7 letters, with no
    # cancellation: the bound is checked before each letter's images
    b = BraidWord(3, (1, 2))
    base = standard_gbase(3)
    assert sum(map(len, artin_apply(b, base))) == 7
    monkeypatch.setattr(braids, "MAX_BASE_LETTERS", 7)
    assert sum(map(len, artin_apply(b, base))) == 7

    def never(*parts):
        raise AssertionError("an image was built")

    monkeypatch.setattr(braids, "MAX_BASE_LETTERS", 4)
    monkeypatch.setattr(words, "concat", never)
    with pytest.raises(BudgetExceeded, match="exceed 4 letters"):
        artin_apply(b, base)
    monkeypatch.undo()
    # twenty factors s1 s2^-1 ask for images that grow about sevenfold per
    # two factors; the default bound refuses them
    text = "strands: 3\n" + " ".join(["s1 s2^-1"] * 20) + "\n"
    with pytest.raises(BudgetExceeded, match=f"{braids.MAX_BASE_LETTERS}"):
        present(parse_sweep(text))


def _expanded(f):
    """``f`` with each factor written out as the word ``h^-1 L h``."""
    return Factorization(f.strands, [b.expanded() for b in f.factors])


@pytest.mark.parametrize("k, letters", [(7, 1515), (8, 3955)])
def test_table_with_a_long_delta_presents_and_simplifies(k, letters):
    # the second row's factor is u^-1 s1 u with u = (s1 s2^-1)^k
    f = parse_sweep("strands: 3\n1 2 1 " + " ".join(["s1 s2^-1"] * k)
                    + "\n1 2 1\n")
    # the expanded words' base images pass MAX_BASE_LETTERS
    with pytest.raises(BudgetExceeded):
        present(_expanded(f), projective=True)
    p = present(f, projective=True)
    assert sum(map(len, p.relators)) == letters
    res = simplify(p)
    assert not res.exhausted
    # u permutes the strands by a 3-cycle, so the two half-twists
    # identify all three generators in H1, and x3 x2 x1 = e
    assert abelianization(res.presentation) == \
        abelianization(Presentation(1, [(1, 1, 1)]))


def test_pair_path_keeps_the_expanded_paths_abelianization():
    # pins the convention: substituting the images under h, not under
    # h^-1, turns this table's H1 = Z + Z/2 into Z/4
    f = parse_sweep(CONIC_PAIR_TABLE)
    assert any(b.conjugator.letters for b in f.factors)
    assert abelianization(present(f, projective=True)) == \
        abelianization(present(_expanded(f), projective=True))


def test_pair_path_and_expanded_path_present_one_group():
    # conjugators short enough that the expanded words' images fit
    # MAX_BASE_LETTERS; local half-twist powers of degree 1, 2 and 4
    rng = random.Random(1801)
    for _ in range(60):
        n = rng.randint(3, 4)
        factors = []
        for _ in range(rng.randint(1, 3)):
            h = BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(rng.randint(0, 6))])
            a = rng.randint(1, n - 1)
            b = rng.randint(a + 1, n)
            factors.append(Factor(h, half_twist(n, a, b)
                                  ** rng.choice((1, 2, 4))))
        f = Factorization(n, factors)
        projective = rng.random() < 0.5
        pair = present(f, projective)
        expanded = present(_expanded(f), projective)
        assert invariant_bundle(pair) == invariant_bundle(expanded), f
        assert compare(pair, expanded).kind != "distinct", f

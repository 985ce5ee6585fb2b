"""Acceptance suite: the end-to-end checks the package must pass.

Each test mirrors one acceptance criterion: local relation reproduction,
tracker calibration, the conic-pair table end-to-end, verification of
every published presentation, the bigness certificates, and the
randomized property suites.
"""

import random
import time
from fractions import Fraction

from conicline import catalog, words
from conicline.braids import (BraidWord, action_equal, artin_apply,
                              standard_gbase)
from conicline.invariants import (bigness_certificate, builtin_table, compare,
                                  count_homs, invariant_bundle,
                                  smith_normal_form)
from conicline.local_models import get_model, list_models, paper_presentation
from conicline.presentations import Presentation
from conicline.tietze import simplify
from conicline.tracker import CurvePoly, LoopSpec, track
from conicline.van_kampen import Factorization, present

UNIT = LoopSpec(center=0j, radius=Fraction(1), samples=64)


def braid_relations(b):
    """Relators induced by the braid's action on the standard g-base."""
    n = b.strands
    out = artin_apply(b, standard_gbase(n))
    rels = []
    for k, e in enumerate(out.entries, 1):
        r = words.reduce(words.concat(e, (-k,)))
        if r:
            rels.append(r)
    return Presentation(n, rels)


# -- criterion 1: local relation reproduction ------------------------------

def test_local_models_reproduce_paper_relations():
    start = time.time()
    for mid in list_models():
        m = get_model(mid)
        p = present(Factorization(m.strands, (m.braid,)), projective=False)
        s = simplify(p, 10000).presentation
        printed = simplify(paper_presentation(m), 10000).presentation
        assert invariant_bundle(s) == invariant_bundle(printed), mid
    assert time.time() - start < 5.0


# -- criterion 2: tracker calibration --------------------------------------

def test_tracker_branch_point():
    start = time.time()
    p = CurvePoly.parse("y^2 - x")
    tb = track(p, LoopSpec(0j, Fraction(1), samples=256))
    assert action_equal(tb.braid, BraidWord(2, (1,)))
    assert time.time() - start < 10.0


def test_tracker_tangency():
    start = time.time()
    p = CurvePoly.parse("(y+x^2)*(y-x^2)")
    loop = LoopSpec(0j, Fraction(1), samples=256)
    full = track(p, loop)
    half = track(p, loop, 0.0, 0.5)
    assert action_equal(full.braid, BraidWord(2, (1, 1, 1, 1)))
    assert action_equal(half.braid, BraidWord(2, (1, 1)))
    assert time.time() - start < 10.0


def test_tracker_rotation():
    start = time.time()
    p = CurvePoly.parse("y*(y^2+x)*(y^2-x)")
    tb = track(p, LoopSpec(0j, Fraction(1), samples=256))
    # antipodal double transposition with the center strand fixed
    assert tb.permutation == (5, 4, 3, 2, 1)
    # induced relations agree with the rotation model's relation set
    m = get_model("3comp-rotation")
    got = simplify(braid_relations(tb.braid), 10000).presentation
    want = simplify(paper_presentation(m), 10000).presentation
    assert invariant_bundle(got) == invariant_bundle(want)
    assert time.time() - start < 10.0


# -- criterion 3: conic-pair table end-to-end ------------------------------

def test_conic_pair_end_to_end():
    entry = catalog.get_entry("conic-pair")
    report = catalog.verify(entry)
    assert report.verdict == "equivalent"
    ab = report.computed_bundle["abelianization"]
    assert ab["free_rank"] == 1
    assert ab["torsion"] == [2]
    # exact S3 agreement between computed and expected
    assert report.computed_bundle["hom_counts"]["S3"] == \
        report.expected_bundle["hom_counts"]["S3"]


# -- criterion 4: published presentations and the comparison matrix --------

def test_published_presentations_reach_claimed_groups():
    for eid in catalog.list_entries():
        e = catalog.get_entry(eid)
        if e.source and e.source[0] == "presentation":
            v = compare(e.source[1], e.expected)
            assert v.kind == "equivalent", eid


def test_pairwise_matrix_never_falsely_equivalent():
    groups = catalog.expected_groups()
    names = sorted(groups)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            v = compare(groups[a], groups[b])
            assert v.kind in ("distinct", "inconclusive"), (a, b)


def test_f2_vs_square_commuting_hom_counts():
    s3 = builtin_table("S3")
    groups = catalog.expected_groups()
    f2 = groups["free-2"]
    g2 = groups["square-commuting"]
    assert count_homs(f2, s3) == 36
    assert count_homs(g2, s3) == 30
    assert compare(f2, g2).kind == "distinct"


def test_z_free_vs_z_square_commuting_hom_counts():
    s3 = builtin_table("S3")
    groups = catalog.expected_groups()
    zf2 = groups["z-plus-free-2"]
    zg2 = groups["z-plus-square-commuting"]
    assert count_homs(zf2, s3) == 66
    assert count_homs(zg2, s3) == 60
    assert compare(zf2, zg2).kind == "distinct"


# -- criterion 5: bigness certificates -------------------------------------

def test_bigness_two_conic_group():
    report = bigness_certificate(catalog.expected_groups()["conic-pair"])
    assert report.steps[-1][0] == "torus"
    assert "<x, y | x^2, y^3>" in report.steps[-1][1]


def test_bigness_all_catalog_groups():
    # the kill lists are tuned to each entry's own input: the published
    # presentation where one exists, the expected group otherwise
    for eid in catalog.list_entries():
        e = catalog.get_entry(eid)
        if e.source and e.source[0] == "presentation":
            p = e.source[1]
        else:
            p = e.expected
        report = bigness_certificate(p, e.bigness_kill)
        assert report.steps[-1][0] == "torus", eid
        assert "<x, y | x^2, y^3>" in report.steps[-1][1], eid


# -- criterion 6: property suites ------------------------------------------

def test_artin_action_preserves_ordered_product():
    rng = random.Random(20240824)
    for _ in range(1000):
        n = rng.randint(2, 8)
        length = rng.randint(0, 30)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                        for _ in range(length))
        b = BraidWord(n, letters)
        g = standard_gbase(n)
        out = artin_apply(b, g)
        assert words.reduce(out.ordered_product()) == \
            words.reduce(g.ordered_product())


def test_tietze_moves_preserve_invariant_bundle():
    rng = random.Random(31337)
    groups = catalog.expected_groups()
    pool = [g for g in groups.values() if g.ngen <= 3]

    def random_move(p):
        choice = rng.random()
        if p.relators and choice < 0.45:
            r = rng.choice(p.relators)
            g = rng.randint(1, p.ngen)
            return p.add_relators([words.conjugate(r, (g,))])
        if len(p.relators) >= 2 and choice < 0.7:
            a, b = rng.sample(range(len(p.relators)), 2)
            return p.add_relators(
                [words.concat(p.relators[a], p.relators[b])])
        if p.ngen == 2:
            g = rng.randint(1, p.ngen)
            return p.add_generator((g, -3 + g))
        identity = {i: (i,) for i in range(1, p.ngen + 1)}
        return p.change_generators(identity, identity)

    for _ in range(200):
        base = rng.choice(pool)
        p = base
        for _ in range(3):
            p = random_move(p)
        assert invariant_bundle(p) == invariant_bundle(base)


def test_snf_diagonal_invariant_under_unimodular_transforms():
    rng = random.Random(99)
    base = [[2, 4, 4, 0], [-6, 6, 12, 6], [10, -4, -16, 8], [0, 2, 2, 2]]
    want = smith_normal_form(base)
    # 100 transforms, each a fresh short chain of elementary row/column
    # operations so the entries stay desk-sized
    for _ in range(100):
        m = [row[:] for row in base]
        k = len(m)
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                for t in range(k):
                    m[i][t] += c * m[j][t]
            else:
                for t in range(k):
                    m[t][i] += c * m[t][j]
        assert smith_normal_form(m) == want


def test_tracker_concatenation_on_all_catalog_equations():
    for mid in list_models():
        m = get_model(mid)
        p = m.equation
        a = track(p, UNIT, 0.0, 0.5)
        b = track(p, UNIT, 0.5, 1.0)
        c = track(p, UNIT, 0.0, 1.0)
        assert action_equal(a.braid * b.braid, c.braid), mid

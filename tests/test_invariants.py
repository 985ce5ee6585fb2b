import itertools
import math
import random

import numpy as np
import pytest

from conicline.errors import BudgetExceeded, ScriptStepFailed
from conicline.invariants import (GroupTable, _hom_rows, _straight_line,
                                  abelianization, bigness_certificate,
                                  builtin_table, compare, count_homs,
                                  exponent_matrix, invariant_bundle,
                                  smith_normal_form, symmetric_group_table,
                                  verdict_sound)
from conicline.local_models import generalized_tangency
from conicline.presentations import Presentation
from conicline.tietze import simplify
from conicline.van_kampen import Factorization, present

CONIC = Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1)])
G2 = Presentation(2, [(1, 2, 1, 2, -1, -2, -1, -2)])
F2 = Presentation(2, [])


def test_smith_normal_form_basics():
    diag = smith_normal_form([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_smith_divisibility_chain():
    diag = smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_exponent_matrix():
    m = exponent_matrix(CONIC)
    assert m == [[2, 2], [2, 2]]


def test_abelianization_conic():
    ab = abelianization(CONIC)
    assert ab.free_rank == 1
    assert list(ab.torsion) == [2]


def test_abelianization_free_group():
    ab = abelianization(Presentation(3, []))
    assert ab.free_rank == 3
    assert not list(ab.torsion)


def test_hom_counts_known_values():
    s3 = builtin_table("S3")
    assert count_homs(F2, s3) == 36
    assert count_homs(G2, s3) == 30
    assert count_homs(CONIC, s3) == 24


def _brute_force_homs(p, table):
    """Reference count: every assignment of images, checked letter by letter."""
    def value(word, images):
        acc = table.identity
        for a in word:
            g = images[abs(a) - 1]
            acc = table.mult[acc][g if a > 0 else table.inverse[g]]
        return acc

    return sum(all(value(r, images) == table.identity for r in p.relators)
               for images in itertools.product(range(table.size),
                                               repeat=p.ngen))


def _per_letter_homs(p, table):
    """Reference count: the same rows as ``count_homs``, each relator
    evaluated letter by letter with one table gather per letter."""
    size, n = table.size, p.ngen
    k, reps, weights, dense = _hom_rows(n, table, 10 ** 8)
    flat = (np.asarray(table.mult, dtype=np.intp) * size).ravel()
    inv = np.asarray(table.inverse)
    place = size ** np.arange(n - k)
    e = table.identity * size
    rows = len(weights) * dense
    total = 0
    for lo in range(0, rows, 1 << 15):
        orbit, rest = np.divmod(np.arange(lo, min(lo + (1 << 15), rows)),
                                dense)
        images = [reps[orbit, j] for j in range(k)]
        images += [rest // place[j] % size for j in range(n - k)]
        column = {}
        for g, c in enumerate(images, 1):
            column[g], column[-g] = c, inv[c]
        ok = np.ones(orbit.size, dtype=bool)
        for r in p.relators:
            acc = np.full(orbit.size, e)
            for a in r:
                acc = flat[acc + column[a]]
            ok &= acc == e
        total += int(weights[orbit[ok]].sum())
    return total


def _relabelled_dihedral_table():
    """D4 on the square's corners, numbered so that the identity is last."""
    def compose(a, b):
        return tuple(a[b[i]] for i in range(4))

    elements, frontier = {(0, 1, 2, 3)}, [(0, 1, 2, 3)]
    while frontier:
        a = frontier.pop()
        for g in ((1, 2, 3, 0), (3, 2, 1, 0)):
            b = compose(a, g)
            if b not in elements:
                elements.add(b)
                frontier.append(b)
    elements = sorted(elements, reverse=True)
    index = {e: i for i, e in enumerate(elements)}
    mult = tuple(tuple(index[compose(a, b)] for b in elements)
                 for a in elements)
    identity = index[(0, 1, 2, 3)]
    inverse = tuple(row.index(identity) for row in mult)
    return GroupTable("D4", len(elements), mult, inverse, identity)


def _seeded_presentation(rng, ngen):
    """Relators sharing subwords as derived groups do: a planted word
    repeated across and within relators, next to its inverse, runs such
    as ``x1^5`` and length-1 relators; some generators, the highest
    included, occur in no relator."""
    used = [g for g in range(1, ngen + 1) if rng.random() < 0.75] or [1]
    letters = [s * g for g in used for s in (1, -1)]

    def word(lo, hi):
        return [rng.choice(letters) for _ in range(rng.randint(lo, hi))]

    u = word(2, 4)
    u_inv = [-a for a in reversed(u)]
    shapes = (lambda: word(0, 2) + u + word(0, 2) + u,
              lambda: u + word(1, 3) + u_inv + word(0, 2),
              lambda: u_inv + word(1, 3),
              lambda: [rng.choice(letters)] * 5 + word(0, 2),
              lambda: [rng.choice(letters)],
              lambda: word(1, 6))
    return Presentation(ngen, [rng.choice(shapes)()
                               for _ in range(rng.randint(1, 4))] if ngen
                        else [])


def test_count_homs_matches_brute_force():
    d4 = _relabelled_dihedral_table()
    assert d4.size == 8 and d4.identity != 0
    rng = random.Random(11)
    for ngen in range(5):
        for _ in range(12 if ngen else 1):
            p = _seeded_presentation(rng, ngen)
            for table in (builtin_table("S3"), builtin_table("S4"), d4):
                got = count_homs(p, table)
                assert got == _per_letter_homs(p, table), (p, table.name)
                if table.size ** ngen <= 24 ** 3:
                    assert got == _brute_force_homs(p, table), (p, table.name)


@pytest.mark.parametrize("relators, homs", [
    ([(1, 2, 1, 2), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2)], 6),
    ([(1, 2, 1, 2), (1, 2, -1, -2)], 72),
])
def test_count_homs_highest_generator_unused(relators, homs):
    # the new symbols must not reuse x3's number although no relator uses x3
    p = Presentation(3, relators)
    s3 = builtin_table("S3")
    assert count_homs(p, s3) == _brute_force_homs(p, s3) == homs


def _expand(products, words, ngen):
    """The relators a straight-line program stands for, as letters."""
    letters = {}

    def expand(s):
        if abs(s) <= ngen:
            return (s,)
        if s < 0:
            return tuple(-a for a in reversed(expand(-s)))
        return letters[s]

    for s, (a, b) in enumerate(products, ngen + 1):
        letters[s] = expand(a) + expand(b)
    return [sum((expand(s) for s in w), ()) for w in words]


@pytest.mark.parametrize("relators, ngen, nproducts", [
    ([(1, 2, 3), (1, 2, -3)], 3, 1),
    ([(1, 2, 3), (-2, -1, 3)], 4, 1),     # a pair and its inverse
    ([(1, 1, 1)], 1, 0),                  # overlapping pairs occur once
    ([(1, 1, 1, 1)], 1, 1),
    ([(1,) * 5, (2,)], 2, 1),
    ([(1, 2), (2, 1)], 2, 0),
    ([], 2, 0),
])
def test_straight_line_small_programs(relators, ngen, nproducts):
    products, words = _straight_line(relators, ngen)
    assert len(products) == nproducts
    assert _expand(products, words, ngen) == [tuple(r) for r in relators]
    assert all(abs(a) < s and abs(b) < s
               for s, (a, b) in enumerate(products, ngen + 1))


def test_straight_line_shares_tangency_subwords():
    braid, _ = generalized_tangency(5)
    q = simplify(present(Factorization(5, (braid,)))).presentation
    products, words = _straight_line(q.relators, q.ngen)
    assert sum(map(len, q.relators)) == 80
    assert len(products) + sum(len(w) - 1 for w in words) <= 30
    assert _expand(products, words, q.ngen) == list(q.relators)


@pytest.mark.parametrize("n, s3, s4", [(3, 162, 6216), (4, 918, 141528),
                                       (5, 5346, 3342984)])
def test_count_homs_tangency_published(n, s3, s4):
    braid, _ = generalized_tangency(n)
    q = simplify(present(Factorization(n, (braid,)))).presentation
    assert count_homs(q, builtin_table("S3")) == s3
    assert count_homs(q, builtin_table("S4")) == s4


def test_count_homs_budget_counts_rows():
    # S3 x S3 has 11 conjugation orbits, so CONIC needs 11 rows
    s3 = builtin_table("S3")
    assert count_homs(CONIC, s3, budget=11) == 24
    with pytest.raises(BudgetExceeded):
        count_homs(CONIC, s3, budget=10)


def test_symmetric_group_tables_are_groups():
    for k in (3, 4):
        t = symmetric_group_table(k)
        m, e = t.mult, t.identity
        assert t.size == math.factorial(k)
        for a, b, c in itertools.product(range(t.size), repeat=3):
            assert m[m[a][b]][c] == m[a][m[b][c]]
        for a in range(t.size):
            assert m[a][t.inverse[a]] == e == m[t.inverse[a]][a]


def test_compare_distinct_by_rank():
    v = compare(F2, CONIC)
    assert v.kind == "distinct"
    assert v.witness[0] == "abelianization"


def test_compare_distinct_by_hom_count():
    v = compare(F2, G2)
    assert v.kind == "distinct"
    assert v.witness is not None


def test_compare_equivalent_relabelled():
    q = Presentation(2, [(2, 1, 2, 1), (1, 2, 1, 2)])
    v = compare(CONIC, q)
    assert v.kind == "equivalent"
    assert verdict_sound(CONIC, q, v)


def test_skipped_hom_counts_are_never_witnesses():
    v = compare(CONIC, CONIC, hom_budget=1)
    assert v.kind == "equivalent"
    assert verdict_sound(CONIC, CONIC, v)
    assert compare(F2, CONIC, hom_budget=1).kind == "distinct"
    # these differ only in their hom counts (216 and 108 into S3); no other
    # test counts them, so no cached count can stand in for a skipped one
    f3 = Presentation(3, [])
    h3 = Presentation(3, [(1, 2, 3, -1, -2, -3)])
    assert compare(f3, h3, hom_budget=1).kind == "inconclusive"
    assert dict(invariant_bundle(h3, budget=1).hom_counts) == \
        {"S3": None, "S4": None}
    assert dict(invariant_bundle(h3).hom_counts)["S3"] == 108


def test_bundle_cached_and_equal():
    assert invariant_bundle(CONIC) == invariant_bundle(CONIC)
    assert invariant_bundle(CONIC) != invariant_bundle(F2)


def test_cached_bundle_still_obeys_budget():
    # a full count first fills the cache; a tighter budget must still skip
    full = dict(invariant_bundle(CONIC).hom_counts)
    assert None not in full.values()
    assert dict(invariant_bundle(CONIC, budget=1).hom_counts) == \
        {"S3": None, "S4": None}
    assert dict(invariant_bundle(CONIC).hom_counts) == full


def test_bundle_cache_keys_tables_by_value():
    # Z/6 under the name "S3": a name is not a safe key for a count
    fake = GroupTable("S3", 6, tuple(tuple((a + b) % 6 for b in range(6))
                                     for a in range(6)),
                      tuple(-a % 6 for a in range(6)))
    s3 = dict(invariant_bundle(CONIC).hom_counts)["S3"]
    fake_count = dict(invariant_bundle(CONIC, (fake,)).hom_counts)["S3"]
    assert fake_count == count_homs(CONIC, fake) == 12
    assert fake_count != s3


def test_bundle_cache_counts_each_miss_through_the_module(monkeypatch):
    from conicline import invariants
    calls = []

    def counting(p, table, budget):
        calls.append(table.name)
        return count_homs(p, table, budget)

    monkeypatch.setattr(invariants, "count_homs", counting)
    p = Presentation(2, [(1, 1, 1, 2, 2, -1, 2, 2, 2, 2, 2)])
    first = invariant_bundle(p)
    assert invariant_bundle(p) == first
    assert calls == ["S3", "S4"]


def test_bigness_conic_reaches_torus_form():
    report = bigness_certificate(CONIC)
    names = [name for name, _ in report.steps]
    assert names[-1] == "torus"
    assert "<x, y | x^2, y^3>" in report.steps[-1][1]


def test_bigness_with_kill_and_quotient():
    z_conic = Presentation(3, [(1, 2, -1, -2), (1, 3, -1, -3),
                               (2, 3, 2, 3), (3, 2, 3, 2)])
    report = bigness_certificate(z_conic, kill=(1,))
    assert [n for n, _ in report.steps][-1] == "torus"
    report = bigness_certificate(F2)
    assert [n for n, _ in report.steps] == \
        ["project", "quotient", "substitute", "torus"]


@pytest.mark.parametrize("p, steps", [
    (CONIC, ["project", "substitute", "torus"]),
    (G2, ["project", "quotient", "substitute", "torus"]),
])
def test_bigness_quotient_exactly_when_not_the_conic_pair(p, steps):
    assert [n for n, _ in bigness_certificate(p).steps] == steps


def test_bigness_fails_on_wrong_group():
    with pytest.raises(ScriptStepFailed):
        bigness_certificate(Presentation(2, [(1,), (2,)]))


def test_snf_invariant_under_unimodular(  ):
    rng = random.Random(7)
    base = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    want = smith_normal_form(base)

    def elementary(m):
        m = [row[:] for row in m]
        k = len(m)
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-3, 3)
        if rng.random() < 0.5:
            for t in range(k):
                m[i][t] += c * m[j][t]
        else:
            for t in range(k):
                m[t][i] += c * m[t][j]
        return m

    m = base
    for _ in range(50):
        m = elementary(m)
        assert smith_normal_form(m) == want

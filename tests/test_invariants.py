import itertools
import math
import random

import numpy as np
import pytest

from conicline import catalog, invariants
from conicline.errors import BudgetExceeded, ScriptStepFailed
from conicline.invariants import (GroupTable,
                                  _cached_straight_line,
                                  _conjugation_orbits, _hom_rows,
                                  _product_tables, _straight_line,
                                  abelianization,
                                  bigness_certificate,
                                  builtin_table, compare, count_homs,
                                  exponent_matrix, invariant_bundle,
                                  smith_normal_form, symmetric_group_table,
                                  verdict_sound)
from conicline.local_models import generalized_tangency
from conicline.presentations import Presentation
from conicline.tietze import simplify
from conicline.van_kampen import Factorization, present
from conicline.words import relator

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


def _determinant(m):
    if not m:
        return 1
    return sum((-1) ** j * v * _determinant([row[:j] + row[j + 1:]
                                             for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def _snf_by_determinantal_divisors(m):
    """Reference: ``d_k / d_(k-1)``, ``d_k`` the gcd of the k x k minors."""
    rows, cols = len(m), len(m[0]) if m else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        divisors.append(math.gcd(*(
            _determinant([[m[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(range(rows), k)
            for cs in itertools.combinations(range(cols), k))))
    return [b // a if a else 0 for a, b in zip(divisors, divisors[1:])]


def test_smith_normal_form_matches_determinantal_divisors():
    rng = random.Random(20261018)
    cases = [[], [[]], [[0, 0, 0]], [[0], [0]], [[4, -6, 10]],
             [[4], [-6], [10]], [[0, 0], [0, 6], [0, 4]],
             [[2, 0, 3], [0, 0, 0]]]
    for _ in range(1500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.2:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.2:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        cases.append(m)
    for m in cases:
        assert smith_normal_form(m) == _snf_by_determinantal_divisors(m), m


# the exponent matrix of a random 8-generator presentation on which a
# reduction that swaps each remainder into a fixed pivot column ran for
# minutes, its entries growing past 400 bits
RANDOM_10X8 = [
    [-2, -1, -2, 1, -1, -1, -2, -2], [0, 1, 0, -2, -2, -1, 2, -2],
    [2, 1, -1, -1, 1, -2, -1, -1], [2, -2, 0, 0, 0, 0, 2, 0],
    [0, -1, -2, 1, 1, 2, 1, -1], [0, 2, -1, 1, 0, -1, 2, -2],
    [2, -2, 0, 1, -1, 1, -2, 1], [-2, 1, 0, 1, -1, -2, -1, -2],
    [-1, 1, -1, 0, -2, 1, 0, -2], [1, -1, 1, 2, 2, -2, 1, 0]]


def test_smith_normal_form_of_a_random_10x8_matrix():
    assert smith_normal_form(RANDOM_10X8) == [1] * 8


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
    k, reps, weights = _hom_rows(n, table)
    dense = table.size ** (n - k)
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


def _all_assignments_homs(p, table):
    """Reference count without orbits or weights: every one of the
    ``|G|^ngen`` assignments of images, each relator evaluated letter by
    letter with one table gather per letter."""
    size, n = table.size, p.ngen
    mult = np.asarray(table.mult)
    inv = np.asarray(table.inverse)
    total = 0
    for lo in range(0, size ** n, 1 << 15):
        code = np.arange(lo, min(lo + (1 << 15), size ** n))
        column = {}
        for g in range(1, n + 1):
            column[g] = code // size ** (g - 1) % size
            column[-g] = inv[column[g]]
        ok = np.ones(code.size, dtype=bool)
        for r in p.relators:
            acc = np.full(code.size, table.identity)
            for a in r:
                acc = mult[acc, column[a]]
            ok &= acc == table.identity
        total += int(ok.sum())
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


def _cyclic_table(n):
    return GroupTable(f"C{n}", n,
                      tuple(tuple((a + b) % n for b in range(n))
                            for a in range(n)),
                      tuple(-a % n for a in range(n)))


def _table(name):
    if name == "D4":
        return _relabelled_dihedral_table()
    if name.startswith("C"):
        return _cyclic_table(int(name[1:]))
    return builtin_table(name)


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "C5"])
@pytest.mark.parametrize("k", range(4))
def test_conjugation_orbits_match_brute_force(name, k):
    table = _table(name)
    size = table.size
    reps, sizes = _conjugation_orbits(table, k)
    mult = np.asarray(table.mult)
    conj = mult[mult, np.asarray(table.inverse)[:, None]]  # h x h^-1
    # every k-tuple in code order, the first image most significant, and
    # the least code of its orbit
    tuples = np.array(list(itertools.product(range(size), repeat=k)),
                      dtype=int).reshape(size ** k, k)
    place = size ** np.arange(k)[::-1]
    least = (conj[:, tuples] @ place).min(0)
    codes = reps.astype(int) @ place
    # each representative is its orbit's least tuple, no two are
    # conjugate, and every tuple is conjugate to one of them
    assert (least[codes] == codes).all()
    assert len(set(codes.tolist())) == len(codes)
    assert set(least.tolist()) == set(codes.tolist())
    assert (np.bincount(least, minlength=size ** k)[codes] == sizes).all()
    assert sizes.sum() == size ** k


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


# (chunk, target, ngen, k): refinement stops where #orbits * |G| would
# pass the chunk, so a small chunk also checks fewer orbit images.  A
# block varies the most dense digits that fit the chunk, holds as many
# whole orbits as fit, and fixes the higher dense digits.  D4's identity
# is not 0.
BLOCK_SHAPES = [
    (1 << 15, "S4", 0, 0),
    (1 << 15, "S4", 1, 1),
    (1 << 15, "S4", 2, 2),   # 43 orbits of one row in one block
    (1 << 15, "S4", 3, 3),   # 681 orbits of one row in one block
    (66, "S3", 4, 3),        # 11 orbits of 6 rows a block, the last five
    (1032, "S4", 4, 3),      # 43 orbits of 24 rows a block, the last 36
    (224, "D4", 4, 3),       # 28 orbits of 8 rows a block
    (1031, "S4", 3, 2),      # 42 orbits of 24 rows, then one
    (1 << 15, "S4", 5, 3),   # 56 orbits of 576 rows a block, the last nine
    (66, "S3", 5, 3),        # one orbit of 36 rows a block
    (66, "S3", 6, 3),        # one orbit of 36 rows, one digit fixed
    (66, "S3", 7, 3),        # one orbit of 36 rows, two digits fixed
    (224, "D4", 6, 3),       # 3 orbits of 64 rows, one digit fixed, then two
    (20, "S3", 4, 2),        # 3 orbits of 6 rows, one digit fixed, then two
    (20, "S3", 5, 2),        # the same, two digits fixed
    (96, "S4", 3, 1),        # 4 classes of 24 rows, one digit fixed, then one
    (30, "S4", 4, 1),        # one class of 24 rows, two digits fixed
    (16, "D4", 3, 1),        # 2 classes of 8 rows, one digit fixed, then one
    (12, "D4", 4, 1),        # one class of 8 rows, two digits fixed
    # a chunk below |G| refines nothing: one row a block, all digits fixed
    (4, "S3", 2, 0),
    (1, "S3", 1, 0),
    (5, "S3", 3, 0),
    (6, "D4", 3, 0),
]


@pytest.mark.parametrize("chunk, name, ngen, k", BLOCK_SHAPES,
                         ids=[f"{c}-{n}-{g}" for c, n, g, _ in BLOCK_SHAPES])
def test_count_homs_every_block_shape(monkeypatch, chunk, name, ngen, k):
    monkeypatch.setattr(invariants, "_CHUNK_ROWS", chunk)
    table = _table(name)
    assert _hom_rows(ngen, table)[0] == k
    rng = random.Random(chunk * 10 + ngen)
    for _ in range(2 if ngen >= 5 else 6):
        p = _seeded_presentation(rng, ngen)
        got = count_homs(p, table)
        assert got == _per_letter_homs(p, table), p
        # _per_letter_homs walks the same orbits; this oracle walks none
        if table.size ** ngen <= 24 ** 4:
            assert got == _all_assignments_homs(p, table), p


def test_count_homs_needs_32_bit_indices():
    # a * 257 + b reaches 66048, past uint16: x1^m has gcd(m, 257) images
    c257 = _cyclic_table(257)
    for relators, homs in [([(1,) * 257], 257), ([(1,) * 5], 1),
                           ([(1,) * 514, (1, 1, 1, -1)], 1), ([], 257)]:
        p = Presentation(1, relators)
        assert count_homs(p, c257) == _per_letter_homs(p, c257) == homs


def test_large_cyclic_group_refines_one_image():
    # 257 classes times 257 elements pass _CHUNK_ROWS, so the pairs are
    # not refined: 257 orbits of x1 each take 257^(ngen - 1) dense images
    # of the other generators, 127 orbits of 257 rows a block (x3 fixed)
    c257 = _cyclic_table(257)
    for ngen, relators, homs in [
            (2, [(1, 1, 1, -2)], 257),
            # x1 and x2 commute in C257 and x3 = x1^-2: 257^2 homs
            (3, [(1, 2, -1, -2), (1, 1, 3)], 257 ** 2)]:
        k, reps, weights = _hom_rows(ngen, c257)
        dense = c257.size ** (ngen - k)
        assert (k, reps.shape, weights.sum(), dense) == \
            (1, (257, 1), 257, 257 ** (ngen - 1))
        assert count_homs(Presentation(ngen, relators), c257) == homs


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


def test_straight_line_is_cached_by_value():
    program = _cached_straight_line(((1, 2, 3), (1, 2, -3)), 3)
    assert _cached_straight_line(((1, 2, 3), (1, 2, -3)), 3) is program
    assert program == _straight_line([[1, 2, 3], [1, 2, -3]], 3) == \
        (((-2, -1),), ((-4, 3), (-4, -3)))


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "C257"])
def test_cached_product_tables_are_read_only(name):
    # tables equal by value share one cached set of arrays
    table = _table(name)
    prod, scaled = _product_tables(table)
    assert _product_tables(_table(name))[0] is prod
    # the cached orbits of each level that count_homs refines: k = 0..3,
    # but 0..1 for C257, whose level 3 would hold 257^3 orbits
    top = _hom_rows(3, table)[0]
    orbits = [a for k in range(top + 1) for a in _conjugation_orbits(table, k)]
    for t in (*prod.values(), *scaled.values(), *orbits):
        with pytest.raises(ValueError):
            t[0] = 1
        with pytest.raises(ValueError):
            t += 1


def test_straight_line_shares_tangency_subwords():
    braid, _ = generalized_tangency(5)
    q = simplify(present(Factorization(5, (braid,)))).presentation
    products, words = _straight_line(q.relators, q.ngen)
    assert sum(map(len, q.relators)) == 80
    assert len(products) + sum(len(w) - 1 for w in words) <= 30
    assert _expand(products, words, q.ngen) == list(q.relators)


@pytest.mark.parametrize("n, s3, s4", [(3, 162, 6216), (4, 918, 141528),
                                       (5, 5346, 3342984),
                                       (6, 31590, 79824792)])
def test_count_homs_tangency_published(n, s3, s4):
    braid, _ = generalized_tangency(n)
    q = simplify(present(Factorization(n, (braid,)))).presentation
    assert count_homs(q, builtin_table("S3")) == s3
    assert count_homs(q, builtin_table("S4")) == s4


def test_fixed_hom_budget_binds_only_past_the_published_counts():
    # HOM_BUDGET is every caller's budget, verification included: it
    # skips no S3 or S4 count of a group the repo verifies or counts
    groups = dict(catalog.expected_groups())
    for entry_id in catalog.list_entries():
        derived, _ = catalog._derivation(catalog.get_entry(entry_id))
        if derived is not None:
            groups[f"entry {entry_id}"] = derived
    for n in range(3, 7):
        groups[f"tangency-{n}"] = present(
            Factorization(n, (generalized_tangency(n)[0],)))
    assert len(groups) == 9 + 7 + 4
    for name, g in groups.items():
        counts = dict(invariant_bundle(simplify(g).presentation).hom_counts)
        assert None not in counts.values(), name
    # n = 7 fits in S3 but not in S4: 681 orbits x 24^4 rows exceed 10^8
    q = simplify(present(Factorization(7, (generalized_tangency(7)[0],))))
    assert dict(invariant_bundle(q.presentation).hom_counts) == \
        {"S3": 188082, "S4": None}


def test_count_homs_budget_counts_rows(monkeypatch):
    # S3 x S3 has 11 conjugation orbits, so CONIC needs 11 rows
    s3 = builtin_table("S3")
    monkeypatch.setattr(invariants, "HOM_BUDGET", 11)
    assert count_homs(CONIC, s3) == 24
    monkeypatch.setattr(invariants, "HOM_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        count_homs(CONIC, s3)


def test_count_homs_budget_counts_rows_of_three_images(monkeypatch):
    # S3^3 has 49 conjugation orbits, so three generators need 49 rows
    s3 = builtin_table("S3")
    p = Presentation(3, CONIC.relators)
    monkeypatch.setattr(invariants, "HOM_BUDGET", 49)
    assert count_homs(p, s3) == 24 * 6
    monkeypatch.setattr(invariants, "HOM_BUDGET", 48)
    with pytest.raises(BudgetExceeded):
        count_homs(p, s3)


def test_budget_check_on_many_generators_builds_no_power():
    # 6^4998 rows would print past Python's 4300-digit limit for an int,
    # so a message or check that builds the power raises ValueError
    free = Presentation(5000, [])
    assert dict(invariant_bundle(free).hom_counts) == {"S3": None,
                                                       "S4": None}
    with pytest.raises(BudgetExceeded, match=r"orbits x 6\^4997 rows"):
        count_homs(free, builtin_table("S3"))
    # compare skips both counts and still gives a verdict
    assert compare(free, free).kind in ("equivalent", "inconclusive")
    assert compare(free, Presentation(4999, [])).kind == "distinct"


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


def test_compare_is_inconclusive_when_no_relabelling_matches():
    # two presentations of the trefoil group, <a, b | a^2 = b^3> and
    # <x, y | xyx = yxy>: simplification leaves both as they are, every
    # invariant agrees, and no relabelling maps one relator onto the other
    p = Presentation(2, [(1, 1, -2, -2, -2)])
    q = Presentation(2, [relator((1, 2, 1), (2, 1, 2))])
    assert invariant_bundle(p) == invariant_bundle(q)
    assert invariant_bundle(p).abelianization.free_rank == 1
    assert invariant_bundle(p).hom_counts == (("S3", 12), ("S4", 96))
    assert compare(p, q).kind == "inconclusive"


def test_skipped_hom_counts_are_never_witnesses(monkeypatch):
    # every count that compare asks for is skipped
    monkeypatch.setattr(invariants, "HOM_BUDGET", 1)
    v = compare(CONIC, CONIC)
    assert v.kind == "equivalent"
    assert verdict_sound(CONIC, CONIC, v)
    assert compare(F2, CONIC).kind == "distinct"
    # these differ only in their hom counts (216 and 108 into S3); no other
    # test counts them, so no cached count can stand in for a skipped one
    f3 = Presentation(3, [])
    h3 = Presentation(3, [(1, 2, 3, -1, -2, -3)])
    assert compare(f3, h3).kind == "inconclusive"
    assert dict(invariant_bundle(h3).hom_counts) == {"S3": None, "S4": None}
    monkeypatch.undo()
    assert dict(invariant_bundle(h3).hom_counts)["S3"] == 108


def test_bundle_cached_and_equal():
    assert invariant_bundle(CONIC) == invariant_bundle(CONIC)
    assert invariant_bundle(CONIC) != invariant_bundle(F2)


def test_cached_bundle_still_obeys_budget(monkeypatch):
    # a full count first fills the cache; a tighter budget must still skip
    full = dict(invariant_bundle(CONIC).hom_counts)
    assert None not in full.values()
    with monkeypatch.context() as m:
        m.setattr(invariants, "HOM_BUDGET", 1)
        assert dict(invariant_bundle(CONIC).hom_counts) == \
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
    calls = []

    def counting(p, table):
        calls.append(table.name)
        return count_homs(p, table)

    monkeypatch.setattr(invariants, "count_homs", counting)
    p = Presentation(2, [(1, 1, 1, 2, 2, -1, 2, 2, 2, 2, 2)])
    first = invariant_bundle(p)
    assert invariant_bundle(p) == first
    assert calls == ["S3", "S4"]


def test_bundle_abelianizes_each_presentation_once(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p.relators)
        return abelianization(p)

    monkeypatch.setattr(invariants, "abelianization", counting)
    p = Presentation(2, [(1, 1, 2, -1, 2, 2, 2, 1, 1)])
    first = invariant_bundle(p)
    assert invariant_bundle(p) == first
    assert first.abelianization == abelianization(p)
    assert calls == [p.relators]


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


def test_bigness_refuses_a_generator_killed_twice():
    # killing x1 twice would kill x1 and then the old x2
    z2_conic = catalog.expected_groups()["z2-plus-conic-pair"]
    with pytest.raises(ScriptStepFailed) as exc:
        bigness_certificate(z2_conic, kill=(1, 1))
    assert exc.value.step == "project"
    assert "x1 is killed twice" in str(exc.value)


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

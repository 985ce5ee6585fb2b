"""Computable invariants of finite presentations.

* the integer Smith normal form diagonal, and the abelianization
  derived from the relator exponent-sum matrix,
* homomorphism counting into small finite groups, enumerating the images
  of the first two generators only up to simultaneous conjugation and
  computing each product of a letter pair repeated across the relators
  once per block of rows,
* a comparison verdict (equivalent / distinct / inconclusive) built from
  simplification, invariant bundles and relabelling,
* the step-by-step certificate that a group surjects onto the quotient
  ``<x, y | x^2, y^3>`` (and hence contains a large free subgroup).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import words
from .errors import BudgetExceeded, ScriptStepFailed
from .presentations import Presentation, replay
from .tietze import simplify

# -- Smith normal form -----------------------------------------------------


def smith_normal_form(matrix):
    """The Smith normal form diagonal of an integer matrix.

    The diagonal is nonnegative and each entry divides the next.
    Pure-integer row/column reduction, no floating point: each round
    pivots on a least nonzero entry of the whole matrix and reduces its
    column, then its row, modulo the pivot.  A nonzero remainder is
    smaller than the pivot and is the next round's pivot; a pivot whose
    row and column are cleared is split off.  The pivots are then put in
    divisibility order by ``(a, b) -> (gcd(a, b), lcm(a, b))``.
    """
    a = [[int(v) for v in row] for row in matrix]
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged matrix")
    size = min(len(a), len(a[0]) if a else 0)
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a)
                   for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot, cleared = a[i][j], True
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // pivot
                a[k] = [x - q * y for x, y in zip(row, a[i])]
                cleared = cleared and not a[k][j]
        if cleared:  # column j is zero off row i: column moves touch row i
            for l, v in enumerate(a[i]):
                if l != j and v:
                    a[i][l] = v % pivot
                    cleared = cleared and not a[i][l]
        if cleared:
            del a[i]
            for row in a:
                del row[j]
            diag.append(abs(pivot))
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            g = math.gcd(diag[s], diag[t])
            diag[s], diag[t] = g, diag[s] // g * diag[t]
    return diag + [0] * (size - len(diag))


@dataclass(frozen=True)
class Abelianization:
    free_rank: int
    torsion: tuple

    def as_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def exponent_matrix(p):
    """Relator exponent sums; one row per relator, one column per generator."""
    rows = []
    for r in p.relators:
        row = [0] * p.ngen
        for a in r:
            row[abs(a) - 1] += 1 if a > 0 else -1
        rows.append(row)
    return rows


def abelianization(p):
    if not p.relators or p.ngen == 0:
        return Abelianization(p.ngen, ())
    diag = smith_normal_form(exponent_matrix(p))
    nonzero = [d for d in diag if d]
    return Abelianization(p.ngen - len(nonzero),
                          tuple(d for d in nonzero if d > 1))


# -- finite target groups --------------------------------------------------


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a multiplication table over ``0 .. size-1``."""

    name: str
    size: int
    mult: tuple      # mult[a][b]
    inverse: tuple
    identity: int = 0

    def __post_init__(self):
        for a in range(self.size):
            if self.mult[self.identity][a] != a or self.mult[a][self.identity] != a:
                raise ValueError("identity element is wrong")
            if self.mult[a][self.inverse[a]] != self.identity:
                raise ValueError("inverse table is wrong")


def symmetric_group_table(k, name=None):
    """Multiplication table of the symmetric group on ``k`` points."""
    elements = sorted(itertools.permutations(range(k)))
    index = {e: i for i, e in enumerate(elements)}
    mult = tuple(tuple(index[tuple(a[b[i]] for i in range(k))]
                       for b in elements) for a in elements)
    inv = []
    for a in elements:
        ia = [0] * k
        for i, v in enumerate(a):
            ia[v] = i
        inv.append(index[tuple(ia)])
    return GroupTable(name or f"S{k}", len(elements), mult, tuple(inv))


_TABLES = {}


def builtin_table(name):
    """The built-in targets: S3 and S4 (S5 on request, it is larger)."""
    if name not in _TABLES:
        if name not in ("S3", "S4", "S5"):
            raise ValueError(f"no built-in group {name!r}")
        _TABLES[name] = symmetric_group_table(int(name[1]))
    return _TABLES[name]


# Rows evaluated per block: bounds the working arrays of count_homs to a
# few hundred kB whatever the size of the search.
_CHUNK_ROWS = 1 << 15


@functools.lru_cache(maxsize=16)
def _conjugation_orbits(table, k):
    """Orbits of ``G^k`` under simultaneous conjugation by ``G``.

    Returns ``(reps, sizes)``: a ``(#orbits, k)`` array with one
    representative ``k``-tuple per orbit, and the size of each orbit.
    ``k = 0`` gives the single empty tuple, ``k = 1`` the conjugacy
    classes with their sizes.
    """
    size = table.size
    mult = np.asarray(table.mult, dtype=np.intp)
    conj = mult[mult, np.asarray(table.inverse)[:, None]]  # h x h^-1
    place = size ** np.arange(k)
    seen = np.zeros(size ** k, dtype=bool)
    reps, sizes = [], []
    for t in range(size ** k):
        if not seen[t]:
            rep = t // place % size
            orbit = conj[:, rep] @ place
            seen[orbit] = True
            reps.append(rep)
            # a set, not np.unique, which imports numpy.ma on first use
            sizes.append(len(set(orbit.tolist())))
    return (np.array(reps, dtype=np.min_scalar_type(size - 1))
            .reshape(len(reps), k), np.array(sizes, dtype=np.int64))


def _hom_rows(ngen, table, budget):
    """What :func:`count_homs` enumerates for ``ngen`` generators.

    Returns ``(k, reps, weights, dense)``: the orbit representatives of
    the first ``k`` images with their weights, and ``dense`` rows for
    each of them.  Raises :class:`BudgetExceeded` when the
    ``#orbits * dense`` rows exceed ``budget``.
    """
    k = min(ngen, 2)
    reps, weights = _conjugation_orbits(table, k)
    dense = table.size ** (ngen - k)
    if len(weights) * dense > budget:
        raise BudgetExceeded(f"{len(weights)} orbits x {table.size}^"
                             f"{ngen - k} = {len(weights) * dense} rows "
                             f"exceed budget {budget}")
    return k, reps, weights, dense


def _straight_line(relators, ngen):
    """Relators as a straight-line program over shared letter pairs.

    Returns ``(products, words)``.  Product ``i`` is a new symbol
    ``ngen + 1 + i`` standing for the product ``(a, b)`` of two earlier
    symbols, and ``-s`` stands for the inverse of ``s``; each word is a
    nonempty relator rewritten over generators and these symbols.
    Greedy pair replacement (Re-Pair): the adjacent pair that occurs
    most often across the relators, counting ``(a, b)`` and its inverse
    ``(-b, -a)`` as one and overlapping occurrences inside a run such as
    ``x1^3`` once, becomes a new symbol, until no pair occurs twice.
    """
    words = [tuple(r) for r in relators if r]
    products = []
    while True:
        counts = {}
        for word in words:
            last = None
            for a, b in zip(word, word[1:]):
                if (a, b) == last:  # a run's pair overlapping the last one
                    last = None
                    continue
                last = (a, b)
                pair = min(last, (-b, -a))
                counts[pair] = counts.get(pair, 0) + 1
        pair = max(counts, key=counts.get, default=None)
        if pair is None or counts[pair] < 2:
            return products, words
        s = ngen + 1 + len(products)
        products.append(pair)
        inverse = (-pair[1], -pair[0])
        for w, word in enumerate(words):
            out, i = [], 0
            while i < len(word):
                if word[i:i + 2] == pair:
                    out.append(s)
                    i += 2
                elif word[i:i + 2] == inverse:
                    out.append(-s)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            words[w] = tuple(out)


def count_homs(p, table, budget=10 ** 8):
    """Count the homomorphisms from the group of ``p`` into ``table``.

    A homomorphism is an image for each generator that sends every
    relator to the identity.  Conjugating all images by one element of
    the target is a bijection on homomorphisms, so assignments whose
    images of the first ``k = min(ngen, 2)`` generators are
    simultaneously conjugate extend in equally many ways.  Hence only
    one representative per conjugation orbit of those ``k`` images is
    enumerated, weighted by the orbit's size, together with every image
    of the other ``ngen - k`` generators: ``#orbits * |target| **
    (ngen - k)`` rows (S4 x S4 has 43 orbits, S3 x S3 has 11).  Rows are
    evaluated in fixed-size blocks, so memory stays bounded.

    The relators are evaluated as a straight-line program (see
    :func:`_straight_line`): a product of a letter pair that repeats
    across the relators, or of two such products, is computed once per
    block, one table gather for all rows of the block, and each relator
    is then a short word over generators and these products.  The
    derived groups repeat the same subwords, so the 80 relator letters
    of the simplified n = 5 tangency group take 18 products per block.

    Raises :class:`BudgetExceeded` when that number of rows exceeds
    ``budget``: the budget counts rows, however few products each takes.
    """
    size, n = table.size, p.ngen
    k, reps, weights, dense = _hom_rows(n, table, budget)
    rows = len(weights) * dense
    products, words = _straight_line(p.relators, n)
    # mult[a * size + b] = a b and scaled[a * size + b] = (a b) * size:
    # a product is one gather once its left factor is scaled by size
    mult = np.asarray(table.mult, dtype=reps.dtype).ravel()
    scaled = (mult.astype(np.intp) * size).astype(
        np.min_scalar_type(size * size - 1))
    step = scaled.dtype.type(size)
    inv = np.asarray(table.inverse, dtype=reps.dtype)
    place = size ** np.arange(n - k)
    e = table.identity * step
    index = np.empty(_CHUNK_ROWS, dtype=np.intp)

    def value(s):  # the block's column of symbol s
        if s not in column:  # an inverse, made on first use
            column[s] = inv.take(column[-s])
        return column[s]

    total = 0
    for lo in range(0, rows, _CHUNK_ROWS):
        orbit, rest = np.divmod(np.arange(lo, min(lo + _CHUNK_ROWS, rows)),
                                dense)
        images = [reps[orbit, j] for j in range(k)]
        images += [(rest // place[j] % size).astype(reps.dtype)
                   for j in range(n - k)]
        column = dict(enumerate(images, 1))
        at = index[:orbit.size]
        for s, (a, b) in enumerate(products, n + 1):
            np.add(value(a) * step, value(b), out=at)
            column[s] = mult.take(at)
        ok = np.ones(orbit.size, dtype=bool)
        for w in words:
            acc = value(w[0]) * step
            for s in w[1:]:
                np.add(acc, value(s), out=at)
                scaled.take(at, out=acc)
            ok &= acc == e
        total += int(weights[orbit[ok]].sum())
    return total


# -- bundles and comparison ------------------------------------------------


@dataclass(frozen=True)
class InvariantBundle:
    abelianization: Abelianization
    hom_counts: tuple  # ((target name, count), ...)

    def as_dict(self):
        return {"abelianization": self.abelianization.as_dict(),
                "hom_counts": dict(self.hom_counts)}


@functools.lru_cache(maxsize=None)
def _cached_homs(ngen, relators, table, budget):
    """:func:`count_homs` by value of its arguments, ``None`` over budget.

    ``count_homs`` is looked up as a module global on each miss, so a
    wrapper bound in its place sees every count actually made.
    """
    try:
        return count_homs(Presentation(ngen, relators), table, budget)
    except BudgetExceeded:
        return None


def invariant_bundle(p, targets=("S3", "S4"), budget=10 ** 8):
    """Abelianization and the hom count into each target.

    A target whose count would exceed ``budget`` rows (see
    :func:`count_homs`) is skipped: its count is ``None``.
    """
    counts = []
    for t in targets:
        table = t if isinstance(t, GroupTable) else builtin_table(t)
        counts.append((table.name,
                       _cached_homs(p.ngen, p.relators, table, budget)))
    return InvariantBundle(abelianization(p), tuple(counts))


def _canonical_multiset(relators):
    return tuple(sorted(filter(None, map(words.cyclic_normal_form, relators))))


@dataclass
class ComparisonVerdict:
    kind: str                      # "equivalent" | "distinct" | "inconclusive"
    witness: Optional[tuple] = None
    trace1: tuple = ()
    trace2: tuple = ()
    bundle1: Optional[InvariantBundle] = None
    bundle2: Optional[InvariantBundle] = None

    def as_dict(self):
        out = {"kind": self.kind}
        if self.witness:
            out["witness"] = {"invariant": self.witness[0],
                              "left": self.witness[1],
                              "right": self.witness[2]}
        if self.bundle1:
            out["left_invariants"] = self.bundle1.as_dict()
        if self.bundle2:
            out["right_invariants"] = self.bundle2.as_dict()
        return out


def _relabel_moves(q1, q2):
    """A relabelling of ``q1`` onto ``q2``'s relator multiset, as moves."""
    if q1.ngen != q2.ngen or len(q1.relators) != len(q2.relators):
        return None
    n = q1.ngen
    if n > 7:
        return None
    target = _canonical_multiset(q2.relators)
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            old_in_new = {g: (signs[g - 1] * perm[g - 1],)
                          for g in range(1, n + 1)}
            mapped = [words.substitute_letters(r, old_in_new)
                      for r in q1.relators]
            if _canonical_multiset(mapped) == target:
                new_in_old = {perm[g - 1]: (signs[g - 1] * g,)
                              for g in range(1, n + 1)}
                return (q1.change_generators(new_in_old,
                                             old_in_new).trace[-1],)
    return None


def compare(p1, p2, budget=20000, targets=("S3", "S4"), hom_budget=10 ** 8):
    """Decide whether two presentations present the same group, when possible.

    ``distinct`` comes with an invariant witness, ``equivalent`` with
    replayable traces whose ends agree up to relator order; anything the
    budgets cannot settle is ``inconclusive`` (never a guess).  A hom
    count skipped for ``hom_budget`` is never a witness.
    """
    r1 = simplify(p1, budget)
    r2 = simplify(p2, budget)
    q1, q2 = r1.presentation, r2.presentation
    b1 = invariant_bundle(q1, targets, hom_budget)
    b2 = invariant_bundle(q2, targets, hom_budget)
    if b1.abelianization != b2.abelianization:
        return ComparisonVerdict("distinct",
                                 ("abelianization",
                                  b1.abelianization.as_dict(),
                                  b2.abelianization.as_dict()),
                                 r1.trace, r2.trace, b1, b2)
    for (name1, c1), (_, c2) in zip(b1.hom_counts, b2.hom_counts):
        if None not in (c1, c2) and c1 != c2:
            return ComparisonVerdict("distinct", (f"hom_count_{name1}", c1, c2),
                                     r1.trace, r2.trace, b1, b2)
    relabel = _relabel_moves(q1, q2)
    if relabel is not None:
        return ComparisonVerdict("equivalent", None,
                                 r1.trace + relabel, r2.trace, b1, b2)
    return ComparisonVerdict("inconclusive", None, r1.trace, r2.trace,
                             b1, b2)


def verdict_sound(p1, p2, verdict):
    """Check an ``equivalent`` verdict by replaying both traces."""
    if verdict.kind != "equivalent":
        return False
    end1 = replay(p1, verdict.trace1)
    end2 = replay(p2, verdict.trace2)
    return (end1.ngen == end2.ngen
            and _canonical_multiset(end1.relators)
            == _canonical_multiset(end2.relators))


# -- the surjection certificate --------------------------------------------

_CONIC_RELATOR = words.cyclic_normal_form((1, 2, 1, 2))
_BRAID_RELATOR = words.cyclic_normal_form((1, 2, 1, 2, -1, -2, -1, -2))


@dataclass
class BignessReport:
    steps: tuple
    final: Presentation
    trace: tuple

    def as_dict(self):
        return {"steps": [{"step": s, "detail": d} for s, d in self.steps],
                "final_relators": [words.format_word(r)
                                   for r in self.final.relators]}


def bigness_certificate(p, kill=(), budget=20000):
    """Certify a surjection onto ``<x, y | x^2, y^3>``.

    Kills the generators in ``kill`` (the meridians of the extra lines),
    simplifies down to the two-tangent-conics group, substitutes
    ``x = ab``, ``y = b`` and adjoins ``y^3``; every step is checked
    syntactically and recorded.  Since the image presents a group with a
    free subgroup of rank two, so does anything that surjects onto it.

    The projection must leave two generators whose relators are
    conjugates of ``(x1 x2)^2`` (the two-tangent-conics group) or of the
    square-commuting relation ``(x1 x2)^2 = (x2 x1)^2``.  Unless the
    relators are all of the first kind, the intermediate quotient by
    ``(x1 x2)^2`` is taken; that includes a projection that leaves no
    relators, a free group of rank two.

    Raises :class:`ScriptStepFailed` if any step's outcome is not the
    expected one.
    """
    steps = []
    start_len = len(p.trace)
    q = p
    for g in sorted(kill, reverse=True):
        if not 1 <= g <= q.ngen:
            raise ScriptStepFailed("project", f"no generator x{g} to kill")
        q = q.substitute(g, ())
    q = simplify(q, budget).presentation
    if q.ngen != 2:
        raise ScriptStepFailed(
            "project", f"expected 2 generators after projection, got {q.ngen}")
    classes = {words.cyclic_normal_form(r) for r in q.relators}
    if not classes <= {_CONIC_RELATOR, _BRAID_RELATOR}:
        raise ScriptStepFailed(
            "project", f"unexpected relators after projection: {q.relators}")
    steps.append(("project", f"killed {sorted(kill)}; relators now "
                  + ", ".join(words.format_word(r) for r in q.relators)))
    if classes != {_CONIC_RELATOR}:
        q = q.add_relators([(1, 2, 1, 2)], "pass to the two-conic quotient")
        q = simplify(q, budget).presentation
        if {words.cyclic_normal_form(r) for r in q.relators} != {_CONIC_RELATOR}:
            raise ScriptStepFailed("project", "quotient step did not close up")
        steps.append(("quotient", "adjoined (x1 x2)^2"))
    q = q.change_generators({1: (1, 2), 2: (2,)}, {1: (1, -2), 2: (2,)})
    square = words.cyclic_normal_form((1, 1))
    for r in q.relators:
        if words.cyclic_normal_form(r) != square:
            raise ScriptStepFailed(
                "substitute", f"relator {words.format_word(r)} is not a "
                "conjugate of x1^2")
    steps.append(("substitute", "x = ab, y = b; relators reduce to x^2"))
    q = q.add_relators([(2, 2, 2)], "adjoin y^3")
    q = simplify(q, budget).presentation
    want = {square, words.cyclic_normal_form((2, 2, 2))}
    if q.ngen != 2 or {words.cyclic_normal_form(r) for r in q.relators} != want:
        raise ScriptStepFailed("torus", "did not reach <x, y | x^2, y^3>")
    steps.append(("torus", "final presentation is <x, y | x^2, y^3>"))
    return BignessReport(tuple(steps), q, q.trace[start_len:])

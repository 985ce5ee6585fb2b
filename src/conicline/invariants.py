"""Computable invariants of finite presentations.

* the integer Smith normal form diagonal, and the abelianization
  derived from the relator exponent-sum matrix,
* homomorphism counting into small finite groups, enumerating the images
  of the first three generators only up to simultaneous conjugation, in
  blocks of rows evaluated as a straight-line program,
* a comparison verdict (equivalent / distinct / inconclusive) built from
  simplification, invariant bundles and relabelling,
* the step-by-step certificate that a group surjects onto the quotient
  ``<x, y | x^2, y^3>`` (and hence contains a large free subgroup).
"""

import functools
import itertools
import math

import numpy as np

from . import words
from .errors import BudgetExceeded, ScriptStepFailed
from .presentations import Presentation, generator_change, replay
from .records import Record
from .tietze import _relator_class, simplify

# Rows a hom count may enumerate before its target is skipped, read at
# each call: ``count_homs`` and ``invariant_bundle``.
HOM_BUDGET = 10 ** 8

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


class Abelianization(Record):
    """The free rank and the torsion coefficients, each above 1."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion):
        self._fill(free_rank, torsion)

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


class GroupTable(Record):
    """A finite group as a multiplication table over ``0 .. size-1``:
    ``mult[a][b]`` is ``a b``, and ``inverse[a]`` is ``a^-1``."""

    __slots__ = ("name", "size", "mult", "inverse", "identity")

    def __init__(self, name, size, mult, inverse, identity=0):
        self._fill(name, size, mult, inverse, identity)
        for a in range(self.size):
            if self.mult[self.identity][a] != a or self.mult[a][self.identity] != a:
                raise ValueError("identity element is wrong")
            if self.mult[a][self.inverse[a]] != self.identity:
                raise ValueError("inverse table is wrong")


def symmetric_group_table(k):
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
    return GroupTable(f"S{k}", len(elements), mult, tuple(inv))


@functools.cache
def builtin_table(name):
    """The built-in targets: S3 and S4."""
    if name not in ("S3", "S4"):
        raise ValueError(f"no built-in group {name!r}")
    return symmetric_group_table(int(name[1]))


# Rows per block of count_homs (whole orbits times the varying dense
# digits), and entries per level of orbit refinement: bounds the working
# arrays of count_homs to a few hundred kB whatever the search.
_CHUNK_ROWS = 1 << 15


def _read_only(*arrays):
    """``arrays``, made read-only so that no caller can change a cached one."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _conjugation_orbits(table, k):
    """Orbits of ``G^k`` under simultaneous conjugation by ``G``.

    Returns ``(reps, sizes)``, read-only: each orbit's least ``k``-tuple,
    the first image most significant, as a ``(#orbits, k)`` array, and
    each orbit's size ``|G| / |stabilizer|``.  The orbits of ``G^(k-1)``
    are refined by one image: a prefix's stabilizer splits the next
    image into orbits, each represented by its least element.  A loop over the
    conjugator keeps a running minimum of ``#prefixes x |G|`` entries,
    the largest array of a level.
    """
    size = table.size
    if k == 0:
        return _read_only(np.zeros((1, 0), dtype=np.min_scalar_type(size - 1)),
                          np.ones(1, dtype=np.int64))
    prefixes, weights = _conjugation_orbits(table, k - 1)
    mult = np.asarray(table.mult, dtype=np.intp)
    conj = mult[mult, np.asarray(table.inverse)[:, None]]  # h x h^-1
    fixes = np.ones((size, len(weights)), dtype=bool)  # h fixes prefix
    for image in prefixes.T:
        fixes &= conj[:, image] == image
    least = np.tile(np.arange(size), (len(weights), 1))
    for h in range(size):
        np.minimum(least, conj[h], out=least, where=fixes[h, :, None])
    p, x = np.nonzero(least == np.arange(size))
    # x's orbit under its prefix's stabilizer: the x' whose least is x
    split = np.bincount((least + size * np.arange(len(weights))[:, None])
                        .ravel(), minlength=least.size)
    return _read_only(np.column_stack((prefixes[p], x)).astype(prefixes.dtype),
                      weights[p] * split[p * size + x])


def _hom_rows(ngen, table):
    """What :func:`count_homs` enumerates for ``ngen`` generators.

    Returns ``(k, reps, weights)``: the orbit representatives of the
    first ``k`` images with their weights; each takes every image of the
    other ``ngen - k`` generators.  ``k`` is ``min(ngen, 3)``, less when
    refining one more image would take an array of ``#orbits * |G|``
    entries past ``_CHUNK_ROWS``.  Raises :class:`BudgetExceeded` when
    the ``#orbits * |G| ** (ngen - k)`` rows exceed ``HOM_BUDGET``, read
    at the call.  The power is never built: past ``HOM_BUDGET.bit_length()``
    free generators any target of two or more elements is over budget,
    and on many generators the power alone would take seconds.
    """
    k = 0
    while (k < min(ngen, 3) and len(_conjugation_orbits(table, k)[1])
           * table.size <= _CHUNK_ROWS):
        k += 1
    reps, weights = _conjugation_orbits(table, k)
    free = min(ngen - k, HOM_BUDGET.bit_length())
    if len(weights) * table.size ** free > HOM_BUDGET:
        raise BudgetExceeded(f"{len(weights)} orbits x {table.size}^"
                             f"{ngen - k} rows exceed budget {HOM_BUDGET}")
    return k, reps, weights


@functools.lru_cache(maxsize=16)
def _product_tables(table):
    """The product tables of :func:`count_homs` for ``table``, read-only.

    Returns ``(prod, scaled)``: ``prod[sa, sb][a * size + b]`` is
    ``a^sa b^sb``, with True for +1 and False for -1 (a letter ``s`` has
    sign ``s > 0``), in the least unsigned dtype that holds ``size - 1``;
    ``scaled[sa, sb]`` is the same times ``size``, in the least that
    holds ``size * size - 1``.  A product of columns is then one gather,
    whatever the signs.
    """
    size = table.size
    small = np.min_scalar_type(size - 1)
    index = np.min_scalar_type(size * size - 1)
    mult = np.asarray(table.mult, dtype=small)
    elems = {True: np.arange(size), False: np.asarray(table.inverse)}
    prod = {(sa, sb): mult[elems[sa]][:, elems[sb]].ravel()
            for sa in elems for sb in elems}
    scaled = {key: np.multiply(t, size, dtype=index)
              for key, t in prod.items()}
    _read_only(*prod.values(), *scaled.values())
    return prod, scaled


def _straight_line(relators, ngen):
    """Relators as a straight-line program over shared letter pairs.

    Returns ``(products, words)``, both tuples.  Product ``i`` is a new
    symbol ``ngen + 1 + i`` standing for the product ``(a, b)`` of two
    earlier symbols, and ``-s`` stands for the inverse of ``s``; each
    word is a nonempty relator rewritten over generators and these
    symbols.  Greedy pair replacement (Re-Pair): the adjacent pair that
    occurs most often across the relators, counting ``(a, b)`` and its
    inverse ``(-b, -a)`` as one and overlapping occurrences inside a run
    such as ``x1^3`` once, becomes a new symbol, until no pair occurs
    twice.
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
            return tuple(products), tuple(words)
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


# count_homs' programs by value of ``(relators, ngen)``: S3 and S4 on one
# presentation build it once
_cached_straight_line = functools.lru_cache(maxsize=16)(_straight_line)


def count_homs(p, table):
    """Count the homomorphisms from the group of ``p`` into ``table``.

    A homomorphism is an image for each generator that sends every
    relator to the identity.  Conjugating all images by one element of
    the target is a bijection on homomorphisms, so assignments whose
    first ``k`` images are simultaneously conjugate extend in equally
    many ways.  Hence one representative per conjugation orbit of those
    images is enumerated (see :func:`_hom_rows`; ``k = 3`` for S3 and
    S4, with 49 and 681 orbits), weighted by the orbit's size, together
    with every image of the other generators, the dense digits:
    ``#orbits * |target| ** (ngen - k)`` rows.

    Rows are evaluated in blocks of at most ``_CHUNK_ROWS`` by one rule,
    fixed once per call: the lowest ``vary`` dense digits vary, for the
    largest ``vary`` whose ``per = |target| ** vary`` rows fit, in
    ``_CHUNK_ROWS // per`` whole orbits, and the higher dense digits are
    fixed for the block.  Every image is a column.

    The relators are evaluated as a straight-line program (see
    :func:`_straight_line`): a product of a letter pair that repeats
    across the relators, or of two such products, is computed once per
    block, and each relator is then a short word over generators and
    these products.  The derived groups repeat the same subwords, so the
    80 relator letters of the simplified n = 5 tangency group take 18
    products per block.

    A product of two columns is one gather from the whole table at
    ``a * size + b``, and the signs of the two letters pick one of four
    tables of ``a^+-1 b^+-1``, so no block gathers an inverse column.
    Index arithmetic runs in the least unsigned dtype that holds
    ``size * size - 1``, named on every operation so that no numpy
    casting rule can narrow an index and wrap it.

    Built once per table, read-only: the orbits
    (:func:`_conjugation_orbits`) and the product tables
    (:func:`_product_tables`).  Built once per relator set: the
    straight-line program.  Built per call: the tiled digit columns,
    which depend on the block shape, and the buffers ``fixed`` and
    ``at``, which each block writes in place.

    Raises :class:`BudgetExceeded` when that number of rows exceeds
    ``HOM_BUDGET``: the budget counts rows, however few products each
    takes.
    """
    size, n = table.size, p.ngen
    k, reps, weights = _hom_rows(n, table)
    products, words = _cached_straight_line(p.relators, n)
    prod, scaled = _product_tables(table)
    small, index = reps.dtype, np.min_scalar_type(size * size - 1)

    free = n - k
    vary = free
    while size ** vary > _CHUNK_ROWS:
        vary -= 1
    per = size ** vary  # rows of one orbit in a block
    group = min(_CHUNK_ROWS // per, len(weights))
    # dense digit j of row r is r // size**j % size, for every orbit alike
    digits = [np.tile(np.repeat(np.arange(size, dtype=small), size ** j),
                      size ** (vary - 1 - j) * group) for j in range(vary)]
    fixed = [np.empty(group * per, dtype=small) for _ in range(free - vary)]
    at = np.empty(group * per, dtype=index)

    total = 0
    for o0 in range(0, len(weights), group):
        o1 = min(o0 + group, len(weights))
        rows = (o1 - o0) * per
        images = [np.repeat(reps[o0:o1, j], per) for j in range(k)]
        images += [c[:rows] for c in digits + fixed]
        column = dict(enumerate(images, 1))
        buf = at[:rows]
        for high in itertools.product(range(size), repeat=free - vary):
            for c, h in zip(fixed, high):
                c.fill(h)
            for s, (a, b) in enumerate(products, n + 1):
                np.multiply(column[abs(a)], size, out=buf, dtype=index)
                np.add(buf, column[abs(b)], out=buf, dtype=index)
                column[s] = prod[a > 0, b > 0].take(buf)
            ok = np.ones(rows, dtype=bool)
            for w in words:
                # a column times size whose sign is sa
                acc = np.multiply(column[abs(w[0])], size, dtype=index)
                sa = w[0] > 0
                for s in w[1:]:
                    np.add(acc, column[abs(s)], out=buf, dtype=index)
                    acc = scaled[sa, s > 0].take(buf)
                    sa = True
                # x^-1 is the identity exactly when x is
                ok &= acc == table.identity * size
            total += int(ok.reshape(o1 - o0, per).sum(1) @ weights[o0:o1])
    return total


# -- bundles and comparison ------------------------------------------------


class InvariantBundle(Record):
    """An :class:`Abelianization` and ``hom_counts``, a tuple of
    ``(target name, count)``."""

    __slots__ = ("abelianization", "hom_counts")

    def __init__(self, abelianization, hom_counts):
        self._fill(abelianization, hom_counts)

    def as_dict(self):
        return {"abelianization": self.abelianization.as_dict(),
                "hom_counts": dict(self.hom_counts)}


@functools.lru_cache(maxsize=None)
def _bundle(ngen, relators, tables, budget):
    """:func:`invariant_bundle` by value; ``budget`` is the ``HOM_BUDGET``
    that the caller read, so a patched constant never meets a stale
    count.  A target over budget gets ``None``.

    ``count_homs`` and ``abelianization`` are looked up as module
    globals on each miss, so a wrapper bound in their place sees every
    one actually computed.
    """
    p = Presentation(ngen, relators)
    counts = []
    for table in tables:
        try:
            counts.append((table.name, count_homs(p, table)))
        except BudgetExceeded:
            counts.append((table.name, None))
    return InvariantBundle(abelianization(p), tuple(counts))


def invariant_bundle(p, targets=("S3", "S4")):
    """Abelianization and the hom count into each target.

    A target whose count would exceed ``HOM_BUDGET`` rows, read at the
    call (see :func:`count_homs`), is skipped: its count is ``None``.
    """
    tables = tuple(t if isinstance(t, GroupTable) else builtin_table(t)
                   for t in targets)
    return _bundle(p.ngen, p.relators, tables, HOM_BUDGET)


def _canonical_multiset(relators):
    # the classes of simplified relators, mostly found by Tietze pass 1
    return tuple(sorted(filter(None, map(_relator_class, relators))))


class ComparisonVerdict(Record):
    """``kind`` is ``equivalent``, ``distinct`` or ``inconclusive``;
    ``witness`` is ``(invariant, left, right)`` for ``distinct``."""

    __slots__ = ("kind", "witness", "trace1", "trace2", "bundle1", "bundle2")

    def __init__(self, kind, witness=None, trace1=(), trace2=(), bundle1=None,
                 bundle2=None):
        self._fill(kind, witness, trace1, trace2, bundle1, bundle2)

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


def _signatures(relators, n):
    """Each generator's signature over canonical relators: the sorted
    ``(relator length, count of letters +-g, |exponent sum of g|)`` per
    relator, which a signed relabelling carries to its image's."""
    sigs = [[] for _ in range(n + 1)]
    for r in relators:
        count, total = [0] * (n + 1), [0] * (n + 1)
        for a in r:
            count[abs(a)] += 1
            total[abs(a)] += 1 if a > 0 else -1
        for g in range(1, n + 1):
            sigs[g].append((len(r), count[g], abs(total[g])))
    return [sorted(s) for s in sigs]


def _relabel_moves(q1, q2):
    """A relabelling of ``q1`` onto ``q2``'s relator multiset, as moves.

    Signed relabellings are tried in ``itertools`` order, and a
    permutation that sends a generator to one of another signature is
    skipped with all its signs: none of them can match.  A relabelling
    is dropped at the first relator whose image is in no class of
    ``q2``'s relators.  The match is a signed permutation and its
    inverse, so its move is recorded without rewriting ``q1`` again.
    """
    if q1.ngen != q2.ngen or len(q1.relators) != len(q2.relators):
        return None
    n = q1.ngen
    if n > 7:
        return None
    target = _canonical_multiset(q2.relators)
    classes = set(target)
    sig1 = _signatures(_canonical_multiset(q1.relators), n)
    sig2 = _signatures(target, n)
    for perm in itertools.permutations(range(1, n + 1)):
        if any(sig1[g] != sig2[perm[g - 1]] for g in range(1, n + 1)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            old_in_new = {g: (signs[g - 1] * perm[g - 1],)
                          for g in range(1, n + 1)}
            if _relabelled(q1.relators, old_in_new, classes) == target:
                new_in_old = {perm[g - 1]: (signs[g - 1] * g,)
                              for g in range(1, n + 1)}
                return (generator_change(new_in_old, old_in_new),)
    return None


def _relabelled(relators, images, classes):
    """The canonical multiset of ``relators`` relabelled by ``images``,
    or None at the first image in none of ``classes``.  Each image's
    class is computed afresh, so no memo keeps the images tried."""
    mapped = []
    for r in relators:
        c = words.cyclic_normal_form(words.substitute_letters(r, images))
        if c and c not in classes:
            return None
        mapped.append(c)
    return tuple(sorted(filter(None, mapped)))


def compare(p1, p2):
    """Decide whether two presentations present the same group, when possible.

    ``distinct`` comes with an invariant witness, ``equivalent`` with
    replayable traces whose ends agree up to relator order; anything the
    budgets cannot settle is ``inconclusive`` (never a guess).  A hom
    count skipped for its budget is never a witness.  A side that
    ``simplify`` refuses for its budget gets an empty trace and no bundle
    (``None``), and the verdict is ``inconclusive``.
    """
    (t1, q1, b1), (t2, q2, b2) = _side(p1), _side(p2)
    if b1 is None or b2 is None:
        return ComparisonVerdict("inconclusive", None, t1, t2, b1, b2)
    if b1.abelianization != b2.abelianization:
        return ComparisonVerdict("distinct",
                                 ("abelianization",
                                  b1.abelianization.as_dict(),
                                  b2.abelianization.as_dict()),
                                 t1, t2, b1, b2)
    for (name1, c1), (_, c2) in zip(b1.hom_counts, b2.hom_counts):
        if None not in (c1, c2) and c1 != c2:
            return ComparisonVerdict("distinct", (f"hom_count_{name1}", c1, c2),
                                     t1, t2, b1, b2)
    relabel = _relabel_moves(q1, q2)
    if relabel is not None:
        return ComparisonVerdict("equivalent", None, t1 + relabel, t2, b1, b2)
    return ComparisonVerdict("inconclusive", None, t1, t2, b1, b2)


def _side(p):
    """The trace, presentation and invariant bundle of ``simplify(p)``,
    or ``((), None, None)`` when ``simplify`` refuses ``p`` for its
    budget."""
    try:
        r = simplify(p)
    except BudgetExceeded:
        return (), None, None
    return r.trace, r.presentation, invariant_bundle(r.presentation)


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


class BignessReport(Record):
    """The certificate's ``(step, detail)`` pairs, its final
    presentation and the moves that reached it."""

    __slots__ = ("steps", "final", "trace")

    def __init__(self, steps, final, trace):
        self._fill(steps, final, trace)

    def as_dict(self):
        return {"steps": [{"step": s, "detail": d} for s, d in self.steps],
                "final_relators": [words.format_word(r)
                                   for r in self.final.relators]}


def bigness_certificate(p, kill=()):
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

    Raises :class:`ScriptStepFailed` if ``kill`` names a generator twice
    or any step's outcome is not the expected one.
    """
    steps = []
    start_len = len(p.trace)
    q = p
    # killing x_g renumbers the generators above it, so a second kill of
    # g would kill the old x_{g+1}
    killed = sorted(kill, reverse=True)
    for g, h in zip(killed, killed[1:]):
        if g == h:
            raise ScriptStepFailed("project", f"x{g} is killed twice")
    for g in killed:
        if not 1 <= g <= q.ngen:
            raise ScriptStepFailed("project", f"no generator x{g} to kill")
        q = q.substitute(g, ())
    q = simplify(q).presentation
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
        q = simplify(q).presentation
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
    q = simplify(q).presentation
    want = {square, words.cyclic_normal_form((2, 2, 2))}
    if q.ngen != 2 or {words.cyclic_normal_form(r) for r in q.relators} != want:
        raise ScriptStepFailed("torus", "did not reach <x, y | x^2, y^3>")
    steps.append(("torus", "final presentation is <x, y | x^2, y^3>"))
    return BignessReport(tuple(steps), q, q.trace[start_len:])

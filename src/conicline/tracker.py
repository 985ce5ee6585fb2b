"""Numerical braid monodromy: root continuation along a path in x.

A curve ``p(x, y) = 0``, a ``CurvePoly`` of ``conicline.polys``, is
tracked by sampling the fiber roots in ``y`` along a path ``x(t)``, such
as the loop ``center + radius * exp(2 pi i t)`` (``LoopSpec.grid``),
matching consecutive fibers, and emitting an Artin letter whenever two
strands adjacent in the real-part order exchange places.  A path maps an
array of ``t`` to the array of its ``x``, and ``track_path`` calls it
once for the grid and once per batch of bisection midpoints.  The fibers
of a batch are solved at once into an array (``fiber_rows``), and its
steps are matched at once (``_match_rows``).  The grid is the first
batch; the steps of a batch that fail are bisected with one solve of
their midpoints, and their halves are resolved by recursion, in path
order, as the next batches.  A loop about a real center is
mirror-symmetric, so a batch solves only one fiber of each conjugate
pair of its points (``_conjugate_mirrors``).

The memos are per process and keyed by value: the root index pairs of
each strand count (``_pairs``), and the discriminant roots of
``singular_x_values`` by the exact coefficients, bounded to 256 curves,
so a curve tracked along several loops is solved once; ``track`` still
checks the loop against them on every call.

Strand order is by ``Re(y)`` with ties broken by ``Im(y)``; this is
implemented as the order of ``Re(exp(-i*delta) * y)`` for a tiny fixed
``delta``, which also resolves the fibers where several points share a
real part.
"""

import cmath
import functools
import numbers
import sys
from fractions import Fraction

import numpy as np

from .braids import BraidWord, braid_permutation, half_twist
from .errors import (AmbiguousMatching, CollisionOnLoop, ConiclineError,
                     LeadingCoefficientVanishes, NoConvergence)
# the benchmark workloads read format_poly from this module
from .polys import CurvePoly, format_poly  # noqa: F401
from .records import FrozenRecord, Record

# order key rotation; breaks real-part ties by imaginary part
_TIE_DELTA = 1e-3
_COS_D = cmath.cos(_TIE_DELTA).real
_SIN_D = cmath.sin(_TIE_DELTA).real
_TWO_PI_I = 2j * cmath.pi
_pairs = functools.cache(lambda n: np.triu_indices(n, 1))   # k < j of n

RESIDUAL_TOL = 1e-10
MATCH_SAFETY = 5.0
MAX_REFINE = 20
# The largest sample count of a loop or path: far above the 1024 that
# the workloads use, and refused before the grid is built, so that a
# mistyped count fails at once instead of filling memory.
MAX_SAMPLES = 2 ** 20


def _check_samples(samples, least):
    """Refuse a sample count that is not an integer from ``least`` to
    ``MAX_SAMPLES``: a count with a fraction would run the grid past its
    end."""
    if not isinstance(samples, numbers.Integral):
        raise ConiclineError(f"need a whole number of samples, not "
                             f"{samples!r}")
    if samples < least:
        raise ConiclineError(f"need at least {least} samples")
    if samples > MAX_SAMPLES:
        raise ConiclineError(f"need at most {MAX_SAMPLES} samples")


def y_coefficients(p, xs):
    """The fiber polynomials of ``p`` over ``xs``, one row per x,
    constant term first, summed over ``np.power(x, i)``: Python's ``x **
    i`` for ``i < 100`` but for the sign of a zero part, which the sum
    washes out.  An infinite power is refused, as Python overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(np.asarray(xs, dtype=complex)[:, None],
                          np.arange(p.degx + 1))
        powers[:, 2:3] *= 1   # Python's x ** 2 is 1 * (x * x)
    if np.isinf(powers).any():
        x = complex(xs[np.isinf(powers).any(axis=1).argmax()])
        raise ConiclineError(f"x^{p.degx} overflows a float at x={x}")
    out = np.zeros((len(powers), p.degy + 1), dtype=complex)
    for i, j, c in p.terms:
        out[:, j] += c * powers[:, i]
    return out


def fiber_rows(p, xs):
    """The fiber roots of ``p`` over each x in ``xs`` in strand order,
    one row per x, and ``{row: error}`` of the refused rows (NaN), to
    raise on reaching them.  Solved roots equal ``np.roots``: eigenvalues
    of companion matrices stacked per count of zero roots.  Refused, with
    ``tol`` the ``RESIDUAL_TOL`` read at the call: ``|a_n| <= tol max
    |a_j|`` (``LeadingCoefficientVanishes``) or ``|sum a_j r^j| > 1e4
    tol max(sum |a_j| max(1, |r|)^j, 1)`` for a root ``r``
    (``NoConvergence``).

    The coefficients are rational, so the fiber over a conjugate x is
    the conjugate fiber.  A row whose x equals the conjugate of an
    earlier row's non-real x is not solved: it takes that row's
    eigenvalues with their imaginary parts negated (the pairing of
    ``_conjugate_mirrors``).  LAPACK's ``zgeev`` is conjugation-symmetric
    bit for bit on the loops the tests pin, so there they equal its own;
    in general they equal them to rounding, as ``zgeev`` rounds the two
    roots of a pair unevenly on some fibers (even in y, or with real
    coefficients).  The deflated zero roots stay ``+0j``, and the
    residual check, strand order and refusal run on the row's own
    coefficients."""
    tol = RESIDUAL_TOL
    xs = np.asarray(xs, dtype=complex)
    coeffs = y_coefficients(p, xs)
    n = p.degy
    mags = np.abs(coeffs)
    solvable = mags[:, -1] > tol * mags.max(axis=1)
    zeros = (coeffs == 0).argmin(axis=1)   # a solvable row's a_n != 0
    # conjugation keeps every coefficient's magnitude and every zero,
    # so a row and its mirror agree in ``solvable`` and ``zeros``
    mirror = _conjugate_mirrors(xs)
    shared = mirror != np.arange(len(coeffs))
    roots = np.zeros((len(coeffs), n), dtype=complex)
    for z in set(zeros[solvable].tolist()) - {n}:   # n: all roots 0
        rows = np.flatnonzero(solvable & (zeros == z))
        copies, rows = rows[shared[rows]], rows[~shared[rows]]
        top = coeffs[rows, z:][:, ::-1]   # highest degree first
        comp = np.zeros((len(rows), n - z, n - z), dtype=complex)
        comp[:, 0, :] = -top[:, 1:] / top[:, :1]
        comp.reshape(len(rows), -1)[:, n - z::n - z + 1] = 1
        roots[rows, :n - z] = np.linalg.eigvals(comp)
        roots[copies, :n - z] = roots[mirror[copies], :n - z].conj()
    everywhere = solvable.all()
    a, m, r = ((coeffs, mags, roots) if everywhere else
               (coeffs[solvable], mags[solvable], roots[solvable]))
    residual, res_scale, grow = a[:, -1:], m[:, -1:], np.maximum(abs(r), 1)
    for j in range(n - 1, -1, -1):   # Horner, per root
        residual = residual * r + a[:, j:j + 1]
        res_scale = res_scale * grow + m[:, j:j + 1]
    bad = (abs(residual) > 1e4 * tol * np.maximum(res_scale, 1)).any(1)
    order = np.argsort(roots.real * _COS_D + roots.imag * _SIN_D,
                       axis=1, kind="stable")
    roots = roots[np.arange(len(roots))[:, None], order]
    if everywhere and not bad.any():
        return roots, {}
    refused = ~solvable
    refused[solvable] = bad
    roots[refused] = np.nan
    return roots, {k: NoConvergence(
                       f"root residual too large at x={complex(xs[k])}")
                   if solvable[k] else LeadingCoefficientVanishes(
                       f"leading y-coefficient vanishes at "
                       f"x={complex(xs[k])}")
                   for k in np.flatnonzero(refused).tolist()}


def fibers(p, xs):
    """``fiber_rows`` as a list: per x its roots, or its error."""
    roots, refused = fiber_rows(p, xs)
    return [refused.get(k, row) for k, row in enumerate(roots.tolist())]


def _conjugate_mirrors(xs):
    """``mirror[k]``: the row whose roots row ``k`` takes conjugated, or
    ``k``.  Rows fall into classes of equal ``(Re x, |Im x|)`` (a NaN
    equals nothing, and ``-0.0`` equals ``0.0``); in each class the first
    row and every row with its x are solved, and every row with the
    conjugate of its non-real x mirrors it.  A walk over the rows in
    order gives the same: it keeps the first row of each x and looks up
    the conjugate x of each later row among them."""
    n = len(xs)
    key = np.empty(n, dtype=complex)
    key.real, key.imag = xs.real, abs(xs.imag)
    order = key.argsort(kind="stable")   # each class in row order
    key = key[order]
    run = np.empty(n, dtype=bool)
    run[:1] = True
    np.not_equal(key[1:], key[:-1], out=run[1:])
    first = np.empty(n, dtype=np.intp)
    first[order] = order[np.maximum.accumulate(run * np.arange(n))]
    im = xs.imag
    return np.where((im != 0) & (np.signbit(im) != np.signbit(im[first])),
                    first, np.arange(n))


def singular_x_values(p):
    """Approximate x where the fiber degenerates (discriminant roots), as a
    tuple.

    The discriminant in y is recovered by evaluating the Sylvester
    determinant of ``p`` and ``dp/dy`` at roots of unity and
    interpolating its coefficients, then solved numerically.  The roots
    are memoised per process by the exact coefficients, so a curve
    tracked along several loops is solved once.
    """
    return _discriminant_roots(frozenset(p.coeffs.items()))


@functools.lru_cache(maxsize=256)
def _discriminant_roots(coeffs):
    p = CurvePoly(dict(coeffs))
    q = p.derivative_y()
    n, m = p.degy, q.degy
    if n < 1 or m < 0:
        return ()
    count = 1 << (p.degx * (n + m) + 1).bit_length()   # 2^k > degree bound
    xs = [cmath.exp(2j * cmath.pi * k / count) * 1.37 for k in range(count)]
    # the Sylvester matrices, leading coefficients first
    a = y_coefficients(p, xs)[:, ::-1]
    b = y_coefficients(q, xs)[:, ::-1]
    mats = np.zeros((count, n + m, n + m), dtype=complex)
    for r in range(m):
        mats[:, r, r:r + n + 1] = a
    for r in range(n):
        mats[:, m + r, r:r + m + 1] = b
    # invert the evaluation at scaled roots of unity
    disc = np.fft.fft(np.linalg.det(mats)) / count
    disc = disc / (1.37 ** np.arange(count))
    mags = np.abs(disc)
    deg = max(np.flatnonzero(mags > 1e-8 * mags.max()), default=0)
    return tuple(np.roots(disc[:deg + 1][::-1]).tolist())


class LoopSpec(FrozenRecord):
    """The loop ``center + radius * exp(2 pi i t)``, sampled at
    ``samples`` points."""

    __slots__ = ("center", "radius", "samples")

    def __init__(self, center=0j, radius=Fraction(1), samples=256):
        self._fill(center, radius, samples)
        if not (0 < self.radius <= sys.float_info.max
                and cmath.isfinite(complex(self.center))):
            raise ConiclineError("need a finite center and a finite radius > 0")
        _check_samples(self.samples, 8)

    def grid(self, ts):
        """The loop's points ``center + radius * exp(2 pi i t)`` at the
        ``t`` of the array ``ts``: the path that ``track`` follows.  About
        a real center, a ``t`` past 1/2 gives the conjugate of the point
        at ``1 - t``, so the second half of the loop mirrors the first
        exactly wherever ``1 - t`` is exact: at every dyadic ``t``, such
        as the points of a grid of ``2^k`` samples and their bisection
        midpoints.  On the full loop's grid (``k / n`` for ``k = 0..n``)
        the mirror of a point is the point at the mirrored index instead,
        so every conjugate pair of fibers is solved once (``fiber_rows``)
        at any sample count: the same points at power-of-two counts, and
        within a few units in the last place of them elsewhere."""
        c, r = complex(self.center), float(self.radius)
        if c.imag:
            return c + r * np.exp(_TWO_PI_I * ts)
        past = ts > 0.5
        n = len(ts) - 1
        full = (ts[0] == 0 and ts[-1] == 1
                and (ts == np.arange(n + 1) / n).all())
        mirror = ts[::-1] if full else 1 - ts
        x = c + r * np.exp(_TWO_PI_I * np.where(past, mirror, ts))
        return np.where(past, x.conj(), x)


class TrackedBraid(Record):
    """A tracked braid, its permutation, the least gap between strands
    seen, and the count of bisections."""

    __slots__ = ("braid", "permutation", "min_gap", "refinements")

    def __init__(self, braid, permutation, min_gap, refinements):
        self._fill(braid, permutation, min_gap, refinements)


def track(p, loop, t0=0.0, t1=1.0):
    """Track the fiber roots over the loop arc ``[t0, t1]``.

    The full loop is ``[0, 1]``; the Lefschetz half-loop is ``[1/2, 1]``.
    Emits a positive Artin letter when the strand passing above (larger
    imaginary part) moves from right to left, the sign fixed by the
    branch-point calibration ``y^2 - x -> s1``.  This is ``track_path``
    along ``loop.grid``, after a check that the loop misses every
    singular fiber.
    """
    for s in singular_x_values(p):
        d = abs(s - complex(loop.center))
        if abs(d - float(loop.radius)) < 1e-6 * max(1.0, float(loop.radius)):
            raise CollisionOnLoop(f"loop passes through singular x ~ {s}")
    return track_path(p, loop.grid, t0, t1, loop.samples)


def track_path(p, path, t0=0.0, t1=1.0, samples=256):
    """Track the fiber roots along a path in x: ``path`` maps an array of
    ``t`` to the array of its points, and is called once for the grid and
    once per batch of bisection midpoints.

    A step whose permutation is a disjoint set of adjacent transpositions
    is accepted at once.  Any other step is bisected, up to
    ``MAX_REFINE`` times; a step still unresolved at that depth is
    accepted only as an exactly simultaneous symmetric crossing (see
    ``_reversed_blocks``).  Steps are matched in batches of at most as
    many as the grid has, the grid first.  The failing steps of a batch
    are bisected with one solve of their midpoints, and their halves are
    resolved by recursion, in path order, before the batch returns.  The
    letters follow the path, and the error raised is the first on it: a
    batch stops at its first unresolvable step, its halves stop at their
    first refused midpoint, and an error is raised only after every step
    before it is resolved.  So a region that keeps failing costs at most
    ``MAX_REFINE + 1`` batches more than a walk along the path.
    """
    # the checks that come before any fiber, then the grid's t as floats
    if not all(abs(t) <= sys.float_info.max for t in (t0, t1, t1 - t0)):
        raise ConiclineError("need t0, t1 and t1 - t0 finite and within "
                             "the float range")
    if t1 <= t0:
        raise ConiclineError("need t1 > t0")
    _check_samples(samples, 1)
    if p.degy == 0:
        raise ConiclineError("the curve has no strands: it has no y term")
    ts = float(t0) + float(t1 - t0) * np.arange(samples + 1) / samples
    grid, refused = fiber_rows(p, path(ts))
    ts = ts.tolist()
    # no step goes past the first refused fiber
    stop = min(refused, default=len(ts))
    batch = max(stop - 1, 1)
    min_gap, refinements = _gaps(grid[:1])[0], 0

    def resolve(ta, tb, a, b, depth):
        """The letters of each step, in path order: step i runs from
        fiber a[i] at ta[i] to fiber b[i] at tb[i], bisected ``depth``
        times so far."""
        nonlocal min_gap, refinements
        gaps = _gaps(b)
        min_gap = gaps.min(initial=min_gap)
        perms, accepted = _match_rows(a, b, gaps)
        words, halve, error = [()] * len(ta), [], None
        for i in np.flatnonzero(
                ~accepted | (perms != np.arange(p.degy)).any(1)).tolist():
            blocks = _reversed_blocks(perms[i].tolist()) if accepted[i] else None
            if depth < MAX_REFINE and (
                    blocks is None or any(j > k + 1 for k, j in blocks)):
                halve.append(i)
            elif blocks is not None:
                for k, j in blocks:
                    # block k..j turns over and its end strands trade places;
                    # and the upper one moves right-to-left iff it starts right
                    sign = (1 if a[i, j].imag + b[i, k].imag
                            > a[i, k].imag + b[i, j].imag else -1)
                    words[i] += tuple(sign * s for s in
                                      half_twist(p.degy, k + 1, j + 1).letters)
            else:
                error = (CollisionOnLoop(
                    f"unresolvable crossing cluster near t={ta[i]}")
                    if accepted[i] else AmbiguousMatching(
                    f"matching stayed ambiguous near t={ta[i]}"))
                break
        if halve:
            refinements += len(halve)
            tm = [(ta[i] + tb[i]) / 2 for i in halve]
            mid, refused = fiber_rows(p, path(np.array(tm)))
            if refused:   # an earlier error: stop at its midpoint
                halve, error = halve[:min(refused)], refused[min(refused)]
            # a to mid, then mid to b, for each halved step
            t_a = [t for i, m in zip(halve, tm) for t in (ta[i], m)]
            t_b = [t for i, m in zip(halve, tm) for t in (m, tb[i])]
            f = np.stack([a[halve], mid[:len(halve)], b[halve]], axis=1)
            f_a, f_b = (f[:, :2].reshape(-1, p.degy),
                        f[:, 1:].reshape(-1, p.degy))
            halves = [word for s in range(0, len(t_a), batch) for word in
                      resolve(t_a[s:s + batch], t_b[s:s + batch],
                              f_a[s:s + batch], f_b[s:s + batch], depth + 1)]
            for k, i in enumerate(halve):
                words[i] = halves[2 * k] + halves[2 * k + 1]
        if error is not None:
            raise error
        return words

    words = (resolve(ts[:stop - 1], ts[1:stop], grid[:stop - 1],
                     grid[1:stop], 0) if stop > 1 else [])
    if refused:
        raise refused[stop]
    braid = BraidWord(p.degy, [s for word in words for s in word])
    return TrackedBraid(braid, braid_permutation(braid), float(min_gap),
                        refinements)


def _distances(roots, new_roots):
    """``|roots[:, k] - new_roots[:, j]|`` per row, shape ``(m, n, n)``,
    equal to Python's ``abs`` bit for bit (``np.abs`` is not)."""
    d = roots[:, :, None] - new_roots[:, None, :]
    return np.hypot(d.real, d.imag)


def _gaps(fibers):
    """The least distance between two roots of each row (inf for fewer)."""
    k, j = _pairs(fibers.shape[1])
    d = fibers[:, k] - fibers[:, j]
    return np.hypot(d.real, d.imag).min(axis=1, initial=np.inf)


def _match_rows(roots, new_roots, gaps):
    """``_match`` on each row of ``roots`` and ``new_roots`` at once, with
    ``gaps`` the new rows' gaps: the nearest-neighbour permutations and
    whether each is accepted.  Fibers come in strand order, so
    ``perms[i, k]`` is the new position of strand ``k``."""
    dist = _distances(roots, new_roots)
    perms = dist.argmin(axis=2)   # the first nearest, as ``min`` picks
    # each strand's move by a gather: ``min`` over the short axis is slower
    moves = dist.reshape(perms.size, -1)[np.arange(perms.size), perms.ravel()]
    one_to_one = (np.sort(perms, axis=1) == np.arange(perms.shape[1])).all(1)
    return perms, one_to_one & ~(moves.reshape(perms.shape).max(axis=1)
                                 * MATCH_SAFETY > gaps)


def _match(roots, new_roots):
    """The step's permutation: ``perm[k]`` is the position in
    ``new_roots`` of the continuation of strand ``k``; None when the
    matching is ambiguous.

    Each old root ``a`` goes to its nearest new root.  The step is
    accepted only if that map is one-to-one and every root moves at most
    1/``MATCH_SAFETY`` of the gap between the new roots.  This is
    exactly the minimum-cost assignment under the same test: when the
    test holds, any other new root lies at least ``gap - max_move >= 4
    max_move`` from ``a``, so each nearest neighbour is unique and no
    other assignment costs as little.  Conversely a one-to-one
    nearest-neighbour map has minimum cost, and under the test it is the
    only such assignment.  Coincident new roots (``gap == 0``) are never
    matched one-to-one, so they are always refused.
    """
    new_roots = np.array([new_roots], dtype=complex)
    perms, accepted = _match_rows(np.array([roots], dtype=complex),
                                  new_roots, _gaps(new_roots))
    return perms[0].tolist() if accepted[0] else None


def _reversed_blocks(perm):
    """The position blocks ``(k, j)``, left to right, whose order ``perm``
    reverses, if it fixes every other position; otherwise None.

    A block of two is an ordinary crossing.  Longer blocks come from
    curves whose fiber is symmetric about a strand (such as the rotation
    models, with roots in antipodal pairs), where several strands pass
    through one point's real part at the same instant and no amount of
    bisection separates the event; it is a half-twist of each block.
    """
    blocks = []
    k = 0
    while k < len(perm):
        j = perm[k]
        if j == k:
            k += 1
            continue
        if j < k or any(perm[i] != k + j - i for i in range(k, j + 1)):
            return None
        blocks.append((k, j))
        k = j + 1
    return blocks


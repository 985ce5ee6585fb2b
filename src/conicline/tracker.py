"""Numerical braid monodromy: root continuation along a loop in x.

A curve ``p(x, y) = 0`` is tracked by sampling the fiber roots in ``y``
along ``x(t) = center + radius * exp(2 pi i t)``, matching consecutive
fibers, and emitting an Artin letter whenever two strands adjacent in
the real-part order exchange places.  The fibers over all sample points
are solved in one batch into an array (``CurvePoly.fiber_rows``), and
all steps of the grid are matched at once (``_match_rows``); steps that
fail are bisected level by level, each level's midpoints solved in one
batch and its half-steps matched at once.  A loop about a real center
is mirror-symmetric (``LoopSpec.point``), so a batch solves only one
fiber of each conjugate pair of its points (``_conjugate_mirrors``).

``track`` makes the grid's points in one numpy expression
(``LoopSpec.grid``), and the first batch matches the grid's rows
against the next rows in place: only steps that cross, are halved or
fail become ``(key, start t, end t)`` tuples.  Polynomial text is parsed
on integer numerators over one common denominator.  The memos are per
process and keyed by value: the root index pairs of each strand count
(``_pairs``), and the discriminant roots of ``singular_x_values`` by
the exact coefficients, bounded to 256 curves, so a curve tracked along
several loops is solved once; ``track`` still checks the loop against
them on every call.

Strand order is by ``Re(y)`` with ties broken by ``Im(y)``; this is
implemented as the order of ``Re(exp(-i*delta) * y)`` for a tiny fixed
``delta``, which also resolves the fibers where several points share a
real part.
"""

import cmath
import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .braids import BraidWord, braid_permutation, half_twist
from .errors import (AmbiguousMatching, CollisionOnLoop, ConiclineError,
                     LeadingCoefficientVanishes, NoConvergence, ParseError)

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


class CurvePoly:
    """A polynomial in x and y with exact rational coefficients."""

    def __init__(self, coeffs):
        # coeffs: {(i, j): Fraction} for x^i y^j
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        self.degy = max((j for _, j in self.coeffs), default=0)
        self.degx = max((i for i, _ in self.coeffs), default=0)
        # the terms as (power of x, power of y, complex coefficient)
        try:
            self.terms = [(i, j, complex(c))
                          for (i, j), c in self.coeffs.items()]
        except OverflowError:
            raise ConiclineError("a coefficient is beyond the float "
                                 "range") from None

    @classmethod
    def parse(cls, text):
        return cls(_parse_poly(text))

    def __repr__(self):
        return f"CurvePoly({format_poly(self)!r})"

    def y_coefficients(self, xs):
        """The fiber polynomials over ``xs``, one row per x, constant term
        first, summed over ``np.power(x, i)``: Python's ``x ** i`` for ``i <
        100`` but for the sign of a zero part, which the sum washes out.
        An infinite power is refused, as Python overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.power(np.asarray(xs, dtype=complex)[:, None],
                              np.arange(self.degx + 1))
            powers[:, 2:3] *= 1   # Python's x ** 2 is 1 * (x * x)
        if np.isinf(powers).any():
            x = complex(xs[np.isinf(powers).any(axis=1).argmax()])
            raise ConiclineError(f"x^{self.degx} overflows a float at x={x}")
        out = np.zeros((len(powers), self.degy + 1), dtype=complex)
        for i, j, c in self.terms:
            out[:, j] += c * powers[:, i]
        return out

    def fiber_rows(self, xs):
        """The fiber roots over each x in ``xs`` in strand order, one row
        per x, and ``{row: error}`` of the refused rows (NaN), to raise on
        reaching them.  Solved roots equal ``np.roots``: eigenvalues of
        companion matrices stacked per count of zero roots.  Refused, with
        ``tol`` the ``RESIDUAL_TOL`` read at the call: ``|a_n| <= tol max
        |a_j|`` (``LeadingCoefficientVanishes``) or ``|sum a_j r^j| > 1e4
        tol max(sum |a_j| max(1, |r|)^j, 1)`` for a root ``r``
        (``NoConvergence``).

        The coefficients are rational, so the fiber over a conjugate x is
        the conjugate fiber.  A row whose x equals the conjugate of an
        earlier row's non-real x is not solved: it takes that row's
        eigenvalues with their imaginary parts negated (the pairing of
        ``_conjugate_mirrors``).  LAPACK's
        ``zgeev`` is conjugation-symmetric bit for bit on the loops the
        tests pin, so there they equal its own; in general they equal
        them to rounding, as ``zgeev`` rounds the two roots of a pair
        unevenly on some fibers (even in y, or with real coefficients).
        The deflated zero roots stay ``+0j``, and the residual check,
        strand order and refusal run on the row's own coefficients."""
        tol = RESIDUAL_TOL
        xs = np.asarray(xs, dtype=complex)
        coeffs = self.y_coefficients(xs)
        n = self.degy
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

    def fibers(self, xs):
        """``fiber_rows`` as a list: per x its roots, or its error."""
        roots, refused = self.fiber_rows(xs)
        return [refused.get(k, row) for k, row in enumerate(roots.tolist())]

    def derivative_y(self):
        return CurvePoly({(i, j - 1): c * j
                          for (i, j), c in self.coeffs.items() if j})


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
    a = p.y_coefficients(xs)[:, ::-1]
    b = q.y_coefficients(xs)[:, ::-1]
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


@dataclass(frozen=True)
class LoopSpec:
    center: complex = 0j
    radius: Fraction = Fraction(1)
    samples: int = 256

    def __post_init__(self):
        if not (0 < self.radius <= sys.float_info.max
                and cmath.isfinite(complex(self.center))):
            raise ConiclineError("need a finite center and a finite radius > 0")
        if self.samples < 8:
            raise ConiclineError("need at least 8 samples")
        if self.samples > MAX_SAMPLES:
            raise ConiclineError(f"need at most {MAX_SAMPLES} samples")
        # point() runs once per sample: convert center and radius once
        object.__setattr__(self, "_center", complex(self.center))
        object.__setattr__(self, "_radius", float(self.radius))

    def point(self, t):
        """``center + radius * exp(2 pi i t)``.  About a real center, a
        ``t`` past 1/2 gives the conjugate of the point at ``1 - t``, so
        the second half of the loop mirrors the first exactly wherever
        ``1 - t`` is exact: at every dyadic ``t``, such as the points of a
        grid of ``2^k`` samples and their bisection midpoints.  Their
        fibers are then conjugate pairs, each solved once
        (``CurvePoly.fiber_rows``)."""
        if t > 0.5 and not self._center.imag:
            return (self._center + self._radius
                    * cmath.exp(_TWO_PI_I * (1 - t))).conjugate()
        return self._center + self._radius * cmath.exp(_TWO_PI_I * t)

    def grid(self, ts):
        """``point`` at each ``t`` of ``ts``, an array from ``t0`` to
        ``t1`` in equal steps, bit for bit, except on the full loop (0 to
        1) about a real center: there a point past the middle is the
        conjugate of the point at the mirrored index, so that every
        conjugate pair of fibers is solved once at any sample count.  That
        is ``point`` at power-of-two counts, where ``1 - t`` is exact, and
        within a few units in the last place of it elsewhere."""
        c = self._center
        if c.imag:
            return c + self._radius * np.exp(_TWO_PI_I * ts)
        past = ts > 0.5
        mirror = ts[::-1] if ts[0] == 0 and ts[-1] == 1 else 1 - ts
        x = c + self._radius * np.exp(_TWO_PI_I * np.where(past, mirror, ts))
        return np.where(past, x.conj(), x)


@dataclass
class TrackedBraid:
    braid: BraidWord
    permutation: tuple
    min_gap: float
    refinements: int


def track(p, loop, t0=0.0, t1=1.0):
    """Track the fiber roots over the loop arc ``[t0, t1]``.

    The full loop is ``[0, 1]``; the Lefschetz half-loop is ``[1/2, 1]``.
    Emits a positive Artin letter when the strand passing above (larger
    imaginary part) moves from right to left, the sign fixed by the
    branch-point calibration ``y^2 - x -> s1``.  This is ``track_path``
    along ``loop.point``, with the grid's points made at once by
    ``loop.grid``.
    """
    for s in singular_x_values(p):
        d = abs(s - complex(loop.center))
        if abs(d - float(loop.radius)) < 1e-6 * max(1.0, float(loop.radius)):
            raise CollisionOnLoop(f"loop passes through singular x ~ {s}")
    ts = _grid_times(p, t0, t1, loop.samples)
    return _walk(p, loop.point, ts.tolist(), loop.grid(ts))


def track_path(p, xfun, t0=0.0, t1=1.0, samples=256):
    """Track the fiber roots along an arbitrary path ``t -> xfun(t)``.

    A step whose permutation is a disjoint set of adjacent transpositions
    is accepted at once.  Any other step is bisected, up to
    ``MAX_REFINE`` times; a step still unresolved at that depth is
    accepted only as an exactly simultaneous symmetric crossing (see
    ``_reversed_blocks``).  Steps are matched in batches: the whole grid,
    then per level of bisection the pending steps of least path key (grid
    index, then 0 or 1 per bisection), at most as many as the grid has,
    with one solve of their midpoints.  Letters and the error raised
    follow the path in key order, and steps past the first error are
    dropped, so a region that keeps failing costs at most ``MAX_REFINE +
    1`` batches more than a walk along the path.
    """
    ts = _grid_times(p, t0, t1, samples).tolist()
    return _walk(p, xfun, ts, [xfun(t) for t in ts])


def _grid_times(p, t0, t1, samples):
    """The grid ``t0 + (t1 - t0) * k / samples`` for ``k = 0..samples``,
    as an array of floats, after the checks that come before any fiber."""
    if t1 <= t0:
        raise ConiclineError("need t1 > t0")
    if samples > MAX_SAMPLES:
        raise ConiclineError(f"need at most {MAX_SAMPLES} samples")
    if p.degy == 0:
        raise ConiclineError("the curve has no strands: it has no y term")
    return float(t0) + float(t1 - t0) * np.arange(samples + 1) / samples


def _walk(p, xfun, ts, xs):
    """``track_path`` over the grid times ``ts`` (floats) and their points
    ``xs``; ``xfun`` gives the bisection midpoints."""
    grid, refused = p.fiber_rows(xs)
    samples = len(ts) - 1
    # no step goes past the first refused fiber
    stop = min(refused, default=samples + 1)
    if stop == 0:
        raise refused[0]
    # the first error on the path so far and its key (or a key past all
    # steps), and the letters of each resolved step by its key
    limit, error, words = (stop - 1,), refused.get(stop), []
    # the batch being matched: step(i) is the (key, start t, end t) of its
    # row i, a_now and b_now its end fibers; the first batch is the grid,
    # grid step k running from ts[k] to ts[k + 1]
    def step(k):
        return (k,), ts[k], ts[k + 1]

    a_now, b_now = grid[:stop - 1], grid[1:stop]
    # the pending halves (key, start t, end t) in key order; ends: their
    # fibers
    steps, ends = [], np.empty((0, 2, p.degy), dtype=complex)
    batch = max(stop - 1, 1)
    min_gap, refinements = _gaps(grid[:1])[0], 0
    while len(a_now):
        gaps = _gaps(b_now)
        min_gap = gaps.min(initial=min_gap)
        perms, accepted = _match_rows(a_now, b_now, gaps)
        halve = []
        for i in np.flatnonzero(
                ~accepted | (perms != np.arange(p.degy)).any(1)).tolist():
            key, ta, _ = step(i)
            blocks = _reversed_blocks(perms[i].tolist()) if accepted[i] else None
            if len(key) <= MAX_REFINE and (
                    blocks is None or any(j > k + 1 for k, j in blocks)):
                halve.append(i)
            elif blocks is not None:
                word = []
                for k, j in blocks:
                    # block k..j turns over and its end strands trade places;
                    # and the upper one moves right-to-left iff it starts right
                    sign = (1 if a_now[i, j].imag + b_now[i, k].imag
                            > a_now[i, k].imag + b_now[i, j].imag else -1)
                    word.extend(sign * s for s in
                                half_twist(p.degy, k + 1, j + 1).letters)
                words.append((key, word))
            elif key < limit:
                limit, error = key, (CollisionOnLoop(
                    f"unresolvable crossing cluster near t={ta}")
                    if accepted[i] else AmbiguousMatching(
                    f"matching stayed ambiguous near t={ta}"))
        if halve:
            refinements += len(halve)
            halved = [step(i) for i in halve]
            tm = [(ta + tb) / 2 for _, ta, tb in halved]
            mid, refused = p.fiber_rows([xfun(t) for t in tm])
            for r, exc in refused.items():   # its halves lie past the limit
                if halved[r][0] < limit:
                    limit, error = halved[r][0], exc
            # a step's halves precede every later pending step in key order
            steps = [half for (key, ta, tb), t in zip(halved, tm) for half in (
                (key + (0,), ta, t), (key + (1,), t, tb))] + steps
            amb = np.stack([a_now[halve], mid, b_now[halve]], axis=1)
            ends = np.concatenate([amb[:, [[0, 1], [1, 2]]].reshape(
                -1, 2, p.degy), ends])   # a to mid, mid to b
        steps = [half for half in steps if half[0] < limit]   # a prefix
        now, steps = steps[:batch], steps[batch:]
        step = now.__getitem__
        a_now, b_now = ends[:len(now)].swapaxes(0, 1)
        ends = ends[len(now):len(now) + len(steps)]
    if error is not None:
        raise error
    braid = BraidWord(p.degy, [s for _, word in sorted(words) for s in word])
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


# -- polynomial text syntax ------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+|[-+*/^()xy])|(\S))")


def _tokenize(text):
    out = []
    for tok, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} in polynomial")
        out.append(tok)
    return out


class _PolyParser:
    """Recursive descent over the tokens.  A polynomial is ``(nums, d)``:
    ``{(i, j): integer numerator}`` of the coefficients of ``x^i y^j``
    over one common denominator ``d``, with no zero numerator, so the
    arithmetic is on integers and ``Fraction``s are made once, by
    ``_parse_poly``."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term()
        if sign < 0:
            p = _negate(p)
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = _add(p, _negate(q) if op == "-" else q)
        return p

    def term(self):
        p = self.factor()
        while True:
            if self.peek() == "*":
                self.take()
                p = _mul(p, self.factor())
            elif self.peek() == "/":
                self.take()
                tok = self.take()
                if tok is None or not tok.isdigit() or int(tok) == 0:
                    raise ParseError("division only by nonzero integers")
                p = p[0], p[1] * int(tok)
            elif self.peek() in ("(", "x", "y") or (
                    self.peek() or "").isdigit():
                p = _mul(p, self.factor())
            else:
                return p

    def factor(self):
        if self.peek() == "-":   # applies after "^", as a leading sign does
            self.take()
            return _negate(self.factor())
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            result = {(0, 0): 1}, 1
            for _ in range(int(tok)):
                result = _mul(result, base)
            return result
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return p
        if tok == "x":
            return {(1, 0): 1}, 1
        if tok == "y":
            return {(0, 1): 1}, 1
        if tok is not None and tok.isdigit():
            c = int(tok)
            return ({(0, 0): c} if c else {}), 1
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def _negate(p):
    return {k: -v for k, v in p[0].items()}, p[1]


def _add(p, q):
    (a, da), (b, db) = p, q
    d = math.lcm(da, db)
    out = {k: v * (d // da) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, 0) + v * (d // db)
    return {k: v for k, v in out.items() if v}, d


def _mul(p, q):
    (a, da), (b, db) = p, q
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}, da * db


def _parse_poly(text):
    nums, d = _PolyParser(_tokenize(text)).parse()
    if not nums:
        raise ParseError("zero polynomial")
    return {k: Fraction(v, d) for k, v in nums.items()}


def format_poly(p):
    terms = []
    for (i, j) in sorted(p.coeffs, key=lambda k: (-k[1], -k[0])):
        c = p.coeffs[(i, j)]
        body = ""
        if i:
            body += "x" if i == 1 else f"x^{i}"
        if j:
            body += ("*" if body else "") + ("y" if j == 1 else f"y^{j}")
        if not body:
            terms.append(str(c))
        elif c == 1:
            terms.append(body)
        elif c == -1:
            terms.append(f"-{body}")
        else:
            terms.append(f"{c}*{body}")
    return " + ".join(terms).replace("+ -", "- ")

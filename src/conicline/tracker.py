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
fiber of each conjugate pair of its points.

Strand order is by ``Re(y)`` with ties broken by ``Im(y)``; this is
implemented as the order of ``Re(exp(-i*delta) * y)`` for a tiny fixed
``delta``, which also resolves the fibers where several points share a
real part.
"""

import cmath
import functools
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
            x = xs[np.isinf(powers).any(axis=1).argmax()]
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
        eigenvalues with their imaginary parts negated.  LAPACK's
        ``zgeev`` is conjugation-symmetric bit for bit on the loops the
        tests pin, so there they equal its own; in general they equal
        them to rounding, as ``zgeev`` rounds the two roots of a pair
        unevenly on some fibers (even in y, or with real coefficients).
        The deflated zero roots stay ``+0j``, and the residual check,
        strand order and refusal run on the row's own coefficients."""
        tol = RESIDUAL_TOL
        coeffs = self.y_coefficients(xs)
        n = self.degy
        mags = np.abs(coeffs)
        solvable = mags[:, -1] > tol * mags.max(axis=1)
        zeros = (coeffs == 0).argmin(axis=1)   # a solvable row's a_n != 0
        # mirror[k]: the earlier row whose x is conjugate to row k's, or k;
        # conjugation keeps every coefficient's magnitude and every zero,
        # so the two rows agree in ``solvable`` and ``zeros``
        first, mirror = {}, np.arange(len(coeffs))
        for k, x in enumerate(xs):
            if x.imag:
                j = first.get(x.conjugate())
                if j is None:
                    first.setdefault(x, k)
                else:
                    mirror[k] = j
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
        a, m, r = coeffs[solvable], mags[solvable], roots[solvable]
        residual, res_scale, grow = a[:, -1:], m[:, -1:], np.maximum(abs(r), 1)
        for j in range(n - 1, -1, -1):   # Horner, per root
            residual = residual * r + a[:, j:j + 1]
            res_scale = res_scale * grow + m[:, j:j + 1]
        bad = (abs(residual) > 1e4 * tol * np.maximum(res_scale, 1)).any(1)
        order = np.argsort(roots.real * _COS_D + roots.imag * _SIN_D,
                           axis=1, kind="stable")
        roots = roots[np.arange(len(roots))[:, None], order]
        refused = ~solvable
        refused[solvable] = bad
        roots[refused] = np.nan
        return roots, {k: NoConvergence(f"root residual too large at x={xs[k]}")
                       if solvable[k] else LeadingCoefficientVanishes(
                           f"leading y-coefficient vanishes at x={xs[k]}")
                       for k in np.flatnonzero(refused).tolist()}

    def fibers(self, xs):
        """``fiber_rows`` as a list: per x its roots, or its error."""
        roots, refused = self.fiber_rows(xs)
        return [refused.get(k, row) for k, row in enumerate(roots.tolist())]

    def derivative_y(self):
        return CurvePoly({(i, j - 1): c * j
                          for (i, j), c in self.coeffs.items() if j})


def singular_x_values(p):
    """Approximate x where the fiber degenerates (discriminant roots).

    The discriminant in y is recovered by evaluating the Sylvester
    determinant of ``p`` and ``dp/dy`` at roots of unity and
    interpolating its coefficients, then solved numerically.
    """
    q = p.derivative_y()
    n, m = p.degy, q.degy
    if n < 1 or m < 0:
        return []
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
    coeffs = np.fft.fft(np.linalg.det(mats)) / count
    coeffs = coeffs / (1.37 ** np.arange(count))
    mags = np.abs(coeffs)
    deg = max(np.flatnonzero(mags > 1e-8 * mags.max()), default=0)
    return np.roots(coeffs[:deg + 1][::-1]).tolist()


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
    branch-point calibration ``y^2 - x -> s1``.
    """
    for s in singular_x_values(p):
        d = abs(s - complex(loop.center))
        if abs(d - float(loop.radius)) < 1e-6 * max(1.0, float(loop.radius)):
            raise CollisionOnLoop(f"loop passes through singular x ~ {s}")
    return track_path(p, loop.point, t0, t1, loop.samples)


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
    if t1 <= t0:
        raise ConiclineError("need t1 > t0")
    if samples > MAX_SAMPLES:
        raise ConiclineError(f"need at most {MAX_SAMPLES} samples")
    if p.degy == 0:
        raise ConiclineError("the curve has no strands: it has no y term")
    ts = [t0 + (t1 - t0) * k / samples for k in range(samples + 1)]
    grid, refused = p.fiber_rows([xfun(t) for t in ts])
    # no step goes past the first refused fiber
    stop = min(refused, default=samples + 1)
    if stop == 0:
        raise refused[0]
    # the first error on the path so far and its key (or a key past all
    # steps), and the letters of each resolved step by its key
    limit, error, words = (stop - 1,), refused.get(stop), []
    # pending steps (key, start t, end t) in key order; ends: their fibers
    steps = [((k,), ts[k], ts[k + 1]) for k in range(stop - 1)]
    ends = np.stack([grid[:stop - 1], grid[1:stop]], axis=1)
    batch = max(stop - 1, 1)
    min_gap, refinements = _gaps(grid[:1])[0], 0
    while steps:
        now, (a_now, b_now) = steps[:batch], ends[:batch].swapaxes(0, 1)
        steps, ends = steps[batch:], ends[batch:]
        gaps = _gaps(b_now)
        min_gap = gaps.min(initial=min_gap)
        perms, accepted = _match_rows(a_now, b_now, gaps)
        halve = []
        for i in np.flatnonzero(
                ~accepted | (perms != np.arange(p.degy)).any(1)).tolist():
            key, ta, _ = now[i]
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
            tm = [(now[i][1] + now[i][2]) / 2 for i in halve]
            mid, refused = p.fiber_rows([xfun(t) for t in tm])
            for r, exc in refused.items():   # its halves lie past the limit
                if now[halve[r]][0] < limit:
                    limit, error = now[halve[r]][0], exc
            # a step's halves precede every later pending step in key order
            steps = [half for i, t in zip(halve, tm) for half in (
                (now[i][0] + (0,), now[i][1], t),
                (now[i][0] + (1,), t, now[i][2]))] + steps
            amb = np.stack([a_now[halve], mid, b_now[halve]], axis=1)
            ends = np.concatenate([amb[:, [[0, 1], [1, 2]]].reshape(
                -1, 2, p.degy), ends])   # a to mid, mid to b
        steps = [step for step in steps if step[0] < limit]   # a prefix
        ends = ends[:len(steps)]
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
        p = _scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = _add(p, _scale(q, -1 if op == "-" else 1))
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
                p = _scale(p, Fraction(1, int(tok)))
            elif self.peek() in ("(", "x", "y") or (
                    self.peek() or "").isdigit():
                p = _mul(p, self.factor())
            else:
                return p

    def factor(self):
        if self.peek() == "-":   # applies after "^", as a leading sign does
            self.take()
            return _scale(self.factor(), -1)
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            result = {(0, 0): Fraction(1)}
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
            return {(1, 0): Fraction(1)}
        if tok == "y":
            return {(0, 1): Fraction(1)}
        if tok is not None and tok.isdigit():
            return {(0, 0): Fraction(int(tok))}
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def _add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def _scale(p, c):
    return {k: v * c for k, v in p.items() if v * c != 0}


def _mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _parse_poly(text):
    coeffs = _PolyParser(_tokenize(text)).parse()
    if not coeffs:
        raise ParseError("zero polynomial")
    return coeffs


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

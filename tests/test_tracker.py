import ast
import cmath
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conicline import tracker
from conicline.braids import (BraidWord, action_equal, braid_permutation,
                              full_twist)
from conicline.errors import (AmbiguousMatching, CollisionOnLoop,
                              ConiclineError, LeadingCoefficientVanishes,
                              NoConvergence)
from conicline.local_models import get_model, list_models
from conicline.polys import CurvePoly, format_poly
from conicline.tracker import (_COS_D, _SIN_D, MATCH_SAFETY, MAX_REFINE,
                               MAX_SAMPLES, LoopSpec, _distances, _gaps,
                               _match, _match_rows, _reversed_blocks, fibers,
                               singular_x_values, track, track_path,
                               y_coefficients)

UNIT = LoopSpec(center=0j, radius=Fraction(1), samples=64)


def test_singular_values_branch_point():
    p = CurvePoly.parse("y^2 - x")
    s = singular_x_values(p)
    assert len(s) == 1
    assert abs(s[0]) < 1e-8


@pytest.fixture
def cold_discriminants():
    """The discriminant memo, empty before and after the test: a test that
    patches what the roots are computed with neither reads a stored value
    nor leaves one behind."""
    tracker.singular_x_values.cache_clear()
    yield
    tracker.singular_x_values.cache_clear()


def test_singular_values_are_memoised_by_value(monkeypatch,
                                               cold_discriminants):
    det, calls = np.linalg.det, []

    def counted(a):
        calls.append(len(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    first = singular_x_values(CurvePoly.parse("(y+x^2)*(y-x^2)"))
    assert isinstance(first, tuple) and len(calls) == 1
    # the same coefficients written another way: no second computation
    assert singular_x_values(CurvePoly.parse("y^2-x^4")) is first
    assert len(calls) == 1
    # another curve is computed, and a loop through its roots is refused
    # on every call, the memo's or not
    assert len(singular_x_values(CurvePoly.parse("y^2-x"))) == 1
    assert len(calls) == 2
    p = CurvePoly.parse("y^2 - x^2 + 1")
    for _ in range(2):
        with pytest.raises(CollisionOnLoop):
            track(p, UNIT)
    assert len(calls) == 3


def test_branch_point_emits_sigma1():
    p = CurvePoly.parse("y^2 - x")
    tb = track(p, UNIT)
    assert action_equal(tb.braid, BraidWord(2, (1,)))
    assert tb.permutation == (2, 1)


def test_tangency_full_and_half_loop():
    p = CurvePoly.parse("(y+x^2)*(y-x^2)")
    full = track(p, UNIT)
    half = track(p, UNIT, 0.0, 0.5)
    assert action_equal(full.braid, BraidWord(2, (1, 1, 1, 1)))
    assert action_equal(half.braid, BraidWord(2, (1, 1)))
    # an arc given by exact or integer ends is the same arc
    for t0, t1 in [(Fraction(0), Fraction(1, 2)), (0, Fraction(1, 2))]:
        assert track(p, UNIT, t0, t1) == half
    assert track(p, UNIT, 0, 1) == full


def test_loop_through_singular_x_rejected():
    p = CurvePoly.parse("y^2 - x^2 + 1")   # branch points at x = +-1
    with pytest.raises(CollisionOnLoop):
        track(p, UNIT)


def test_concatenation_equals_full_loop():
    p = CurvePoly.parse("y*(y^2+x)*(y^2-x)")
    a = track(p, UNIT, 0.0, 0.5)
    b = track(p, UNIT, 0.5, 1.0)
    c = track(p, UNIT, 0.0, 1.0)
    assert action_equal(a.braid * b.braid, c.braid)


def test_lines_through_a_point_full_twist():
    # product of n lines through the origin: full loop is the full twist
    from conicline.braids import full_twist
    for n, eq in [(2, "(y-x)*(y+x)"), (3, "(y-x)*(y+x)*(y-2*x)")]:
        p = CurvePoly.parse(eq)
        tb = track(p, UNIT)
        assert action_equal(tb.braid, full_twist(n, 1, n))


def test_permutation_matches_endpoint_matching():
    from conicline.braids import braid_permutation
    p = CurvePoly.parse("y*(y^2+x)*(y^2-x)")
    tb = track(p, UNIT)
    assert tb.permutation == braid_permutation(tb.braid)


def test_doubling_samples_stable():
    p = CurvePoly.parse("(y+x^2)*(y-x^2)")
    a = track(p, LoopSpec(0j, Fraction(1), samples=64))
    b = track(p, LoopSpec(0j, Fraction(1), samples=128))
    assert action_equal(a.braid, b.braid)


def test_track_path_segments():
    p = CurvePoly.parse("y^2 - x")
    arc = lambda t: np.exp(2j * np.pi * t)
    tb = track_path(p, arc, 0.0, 1.0, 64)
    assert action_equal(tb.braid, BraidWord(2, (1,)))


_PERMUTATIONS = {n: np.array(list(itertools.permutations(range(n))))
                 for n in range(2, 7)}


def _optimal_match(roots, new_roots):
    """Reference matching: the minimum-cost assignment found by trying
    every permutation, accepted under the tracker's safety test."""
    n = len(new_roots)
    perms = _PERMUTATIONS[n]
    cost = np.abs(np.subtract.outer(np.array(roots), np.array(new_roots)))
    best = perms[np.argmin(cost[np.arange(n), perms].sum(axis=1))]
    max_move = cost[np.arange(n), best].max()
    gap = min(abs(a - b) for a, b in itertools.combinations(new_roots, 2))
    if max_move * MATCH_SAFETY > gap and max_move > 0:
        return None
    return best.tolist()


def test_match_equals_optimal_assignment():
    rng = random.Random(20261018)
    accepted = rejected = 0
    for _ in range(20000):
        n = rng.randint(2, 6)
        new_roots = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                     for _ in range(n)]
        gap = min(abs(a - b) for a, b in itertools.combinations(new_roots, 2))
        # displacements from far inside to far outside the accepted range
        scale = gap / MATCH_SAFETY * 10 ** rng.uniform(-1.5, 1.5)
        if rng.random() < 0.02:
            scale = 0.0
        origin = list(range(n))
        rng.shuffle(origin)
        roots = [new_roots[j] + scale * cmath.exp(2j * cmath.pi * rng.random())
                 * rng.random() for j in origin]
        want = _optimal_match(roots, new_roots)
        assert _match(roots, new_roots) == want, (roots, new_roots)
        if want is None:
            rejected += 1
        else:
            accepted += 1
    assert accepted > 5000 and rejected > 5000
    # coincident new roots: never one-to-one, so refused
    assert _match([0j, 1j], [0j, 0j]) is None


CONIC_PAIR = "(x^2+y^2-1)*(x^2+y^2-1+(y-3/10)^2/2)"

# sha256 of repr((letters, permutation, refinements, min_gap)) of
# ``track`` at 256 samples: every local model whose equation's monodromy
# is its model braid (unit loop), and the conic pair with 0, 1 and 2
# lines (radius-3 loop).  The rotation models exercise the
# simultaneous-crossing path.  Re-recorded when loops about a real center
# became mirror-symmetric, which moved ``min_gap`` in its last bits;
# ``GOLDEN_BRAIDS`` pins the braids from before.
GOLDEN_TRACKS = [
    ('3comp-common-tangent', 'y^3 - x^4*y', 1,
     'd22abef6ba1e99b738f2974bcc2cfd86a987b59fdf32dd8a0d28a4a58b814dfe'),
    ('3comp-rotation', 'y^5 - x^2*y', 1,
     '1419a147517035ae411dea80931308acfb92956b56112e90e1baeef3ea4add90'),
    ('3comp-type1', 'y^3 + 2*x*y^2 - x^4*y - 2*x^5', 1,
     'b364e510057796f7438c50d70a73cc340dfc5a6aa020d265b83f9092241a05b5'),
    ('3comp-type2', '-y^3 + 2*x*y^2 + x^4*y - 2*x^5', 1,
     '88c9912d1cbebc6c167febed0990bce25e9c16439a224a82a4a3b5a9c2228f0d'),
    ('4comp-tangentline-type1', 'y^4 + 2*x*y^3 - x^4*y^2 - 2*x^5*y', 1,
     '03caa820fab43815b8a7aafae0cdc9c2f340a8b8feb037c6ef0b92a86238d238'),
    ('4comp-tangentline-type2', '-y^4 + 2*x*y^3 + x^4*y^2 - 2*x^5*y', 1,
     'b4d991b5bbf1d36c107e386f9e9eb8b817ce6a112c9032fbc07e7a7f1f77f70c'),
    ('4comp-twolines-type1', '-y^4 + x^4*y^2 + 4*x^2*y^2 - 4*x^6', 1,
     'eaa37cd5578e33d071f55d0c5b9066168b0ce6813cfafc71d5820873410ba08c'),
    ('4comp-twolines-type2', '2*y^6 + x*y^5 - 2*x^2*y^2 - x^3*y', 1,
     '95b77c38568f7535e72166d3fbdcc2eed63d6f0f53db4de9388b8b36d3b3d8d1'),
    ('branch-point', 'y^2 - x', 1,
     '2529a8db8959e881c2f9cbebffd80c1990ebb1b1657d108bbedaf6872c3598af'),
    ('conic-conic-tangency', 'y^2 - x^4', 1,
     '7d9db41b5954203edb76edd56d1460c13c3e9b78f9da344b629635e53a1c8241'),
    ('node', 'y^2 - x^2', 1,
     'c0d163c77f01861ec0c79c7689bd5f766084eb0e5d29788ac3465a2d1f6d14e9'),
    ('simple-tangency', 'y^2 - x^2*y', 1,
     '50e1aac1c2efd9508652dee1ae258be3a691046cdac44daf5c7f9c3f4b87da59'),
    ('conic-pair', CONIC_PAIR, 3,
     '2ea28465f0f9a6735bcc5b796eff73b274de21eb4e8a9776589c1868dcb3d020'),
    ('conic-pair+line', CONIC_PAIR + "*(y-2*x-1/10)", 3,
     '522ee90aba0212dce116bb53dfafa88a9b82967cfd318b1fb98c3e4244dfa392'),
    ('conic-pair+2lines', CONIC_PAIR + "*(10*y-20*x-1)*(10*y+30*x-7)", 3,
     'c6bcbde6aa9da0955e2a1dc4f89627fca4c3f7053151c507125d04375eddaab7'),
]


@pytest.mark.parametrize("equation, radius, digest",
                         [case[1:] for case in GOLDEN_TRACKS],
                         ids=[case[0] for case in GOLDEN_TRACKS])
def test_tracked_braids_unchanged(equation, radius, digest):
    tb = track(CurvePoly.parse(equation),
               LoopSpec(0j, Fraction(radius), samples=256))
    key = repr((tb.braid.letters, tb.permutation, tb.refinements,
                tb.min_gap))
    assert hashlib.sha256(key.encode()).hexdigest() == digest


def test_runs_without_scipy():
    code = """
import sys
sys.modules["scipy"] = None
import conicline.cli
from conicline.invariants import builtin_table, count_homs
from conicline.presentations import Presentation
from conicline.tracker import CurvePoly, LoopSpec, track
tb = track(CurvePoly.parse("y^2 - x"), LoopSpec(samples=64))
assert tb.braid.letters == (1,), tb.braid
conic = Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1)])
assert count_homs(conic, builtin_table("S3")) == 24
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_exact_polynomials_and_local_models_run_without_numpy():
    code = """
import sys
sys.modules["numpy"] = None
from conicline.local_models import get_model, list_models
from conicline.polys import CurvePoly, format_poly
for name in list_models():
    p = get_model(name).equation
    assert CurvePoly.parse(format_poly(p)).coeffs == p.coeffs, name
assert "conicline.tracker" not in sys.modules
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_loop_spec_rejects_non_finite_values():
    for bad in (dict(radius=float("inf")), dict(radius=float("nan")),
                dict(radius=Fraction(10) ** 400), dict(center=complex("inf")),
                dict(radius=Fraction(0))):
        with pytest.raises(ConiclineError):
            LoopSpec(**bad)


def test_oversized_sample_count_is_refused_before_the_grid():
    # the bound is checked before any grid point or fiber: the path
    # function fails the test if it is ever called
    def never(t):
        raise AssertionError(f"grid started at t={t}")

    p = CurvePoly.parse("y^2 - x")
    # 8.5 samples would run the grid to t = 9.5 / 8.5, past its end
    for samples, bound in ((MAX_SAMPLES + 1, "at most"),
                           (10 ** 20, "at most"), (0, "at least"),
                           (-1, "at least"), (8.5, "whole number")):
        with pytest.raises(ConiclineError, match=bound):
            LoopSpec(0j, Fraction(1), samples)
        with pytest.raises(ConiclineError, match=bound):
            track_path(p, never, 0.0, 1.0, samples)
    assert LoopSpec(0j, Fraction(1), MAX_SAMPLES).samples == MAX_SAMPLES


@pytest.mark.parametrize("t0, t1", [
    (0.0, float("inf")), (float("-inf"), 1.0), (0.0, float("nan")),
    (float("nan"), 1.0), (-1e308, 1e308), (Fraction(0), Fraction(10) ** 400)])
def test_non_finite_range_is_refused_before_the_grid(t0, t1):
    # t0, t1 and their difference are checked before any grid point: at
    # an infinite end the grid is NaN, a NaN end passes t1 > t0, and an
    # exact end past the float range fails as a float
    def never(t):
        raise AssertionError(f"grid started at t={t}")

    p = CurvePoly.parse("y^2 - x")
    with pytest.raises(ConiclineError, match="t0, t1 and t1 - t0 finite"):
        track_path(p, never, t0, t1, 8)
    with pytest.raises(ConiclineError, match="t0, t1 and t1 - t0 finite"):
        track(p, LoopSpec(0j, Fraction(1), 8), t0, t1)


ZERO_CONSTANT = "y^2 + y + 1 - x"   # constant coefficient 0 only at x = 1

# sha256 of repr of the fiber roots, in strand order, over the 1025 grid
# points of the 1024-sample loop, whose second half mirrors the first:
# every local model (unit loop), the conic curves (radius 3) and a curve
# with a zero root at exactly one grid point.  Each fiber, the shared
# conjugates included, equals ``np.roots`` on its own coefficients.
GOLDEN_FIBERS = {
    '3comp-common-tangent':
        '23d06bf47f8d0c5e551d767a924e1983f853373f456acabaf19daac24935513c',
    '3comp-rotation':
        'ef34c56bd59650e2902e9e79a4332168d7961bea13af3675d9b1416fd05a41b9',
    '3comp-type1':
        'dbb028b17a96bac374dd301322e2113b45a9c7c3285dc4fdc788dd9e8dcdddcf',
    '3comp-type2':
        '918fcf516bf193edc4c1e2bb6ff0dbfd5217063b64e5c240a5fa9c0421301ea5',
    '4comp-tangentline-type1':
        'bf8421bf54dd79712938a424ce59b0a04b764f8e2352faccaf8aa69daa392e34',
    '4comp-tangentline-type2':
        '22afa210f5e60df898dfa14a2cbd4d107088f1801abaf5b4f88092726c2c71c0',
    '4comp-tangentline-type3':
        'a739e97f8c10e67b4cdfe2b2edf0b17cc0cb2b00bd299ee5e31ba641eb9d2add',
    '4comp-twolines-type1':
        '7cf89411d8c948c6983656ffdb261a147510fc566b8dac7f8bcbcbd750edb2b8',
    '4comp-twolines-type2':
        '2ea0d88b4754f72c5313ec573340f37a44458185c5ffd62184c7c1bac8028935',
    'branch-point':
        '73f3aef2eaf568beca7faf8037c31b49d37d7ee69d60a99519bc3b4d9bb78edb',
    'conic-conic-tangency':
        '4e5351a3ee32e1fc4bd67a4f8a23105fbab702f2ad39c2073aa0611a8d02e015',
    'conic-pair':
        'eee0ddbf3b2a8c421e1992a4d3a8f753b552729c4e95eb3ce97654212562df01',
    'conic-pair+2lines':
        '422ec50487be137371abc101f7c0d45378b4960385a0d4943a42dc683a4ddd97',
    'conic-pair+line':
        'fe9cc766957f4bcb8ed58e23eb339120dfd13fe1cf18771830d0ca51fba16628',
    'node':
        '729e3bebcdbc64cfeaef82185d40152ff1bf2eafa81799161bc5e6231f9b3857',
    'simple-tangency':
        '5890585c3c43e9d17d840e4057eed952a3683c6f077445a9d80699843e083de7',
    'zero-constant':
        '0e8aedf2f94e39f2ddbbb0516cf8583e3fefa21491d0a792c465ae584911903c',
}


def _catalog_curves():
    curves = [(m, format_poly(get_model(m).equation), 1)
              for m in list_models()]
    curves += [(name, eq, radius) for name, eq, radius, _ in GOLDEN_TRACKS
               if name.startswith("conic-pair")]
    return curves + [("zero-constant", ZERO_CONSTANT, 1)]


def _strand_order(roots):
    return sorted(roots, key=lambda z: z.real * _COS_D + z.imag * _SIN_D)


@pytest.mark.parametrize("name, equation, radius", _catalog_curves(),
                         ids=[c[0] for c in _catalog_curves()])
def test_batched_solve_equals_np_roots(name, equation, radius):
    p = CurvePoly.parse(equation)
    loop = LoopSpec(0j, Fraction(radius), samples=1024)
    xs = loop.grid(np.arange(1025) / 1024)
    solved = fibers(p, xs)
    for row, fiber in zip(y_coefficients(p, xs), solved):
        want = _strand_order(np.roots(row[::-1]).tolist())
        assert repr(fiber) == repr(want)    # repr tells every bit apart
    digest = hashlib.sha256(repr(solved).encode()).hexdigest()
    assert digest == GOLDEN_FIBERS[name]
    assert repr(fibers(p, xs[1:2])[0]) == repr(solved[1])


def test_zero_constant_coefficient_at_one_grid_point():
    p = CurvePoly.parse(ZERO_CONSTANT)
    assert fibers(p, [1 + 0j]) == [[-1 + 0j, 0j]]
    for samples in (64, 1024):
        tb = track(p, LoopSpec(0j, Fraction(1), samples))
        assert (tb.braid.letters, tb.permutation, tb.refinements,
                tb.min_gap) == ((1,), (2, 1), 0, 1.0)


# The same digests at 1024 samples: every curve of ``GOLDEN_TRACKS`` on
# the same loop.
GOLDEN_TRACKS_1024 = {
    '3comp-common-tangent':
        'd22abef6ba1e99b738f2974bcc2cfd86a987b59fdf32dd8a0d28a4a58b814dfe',
    '3comp-rotation':
        '7aa598e4759360620e5f6590866ee09a0fe01394ccbbf3bdf29eeacc453eb290',
    '3comp-type1':
        'b364e510057796f7438c50d70a73cc340dfc5a6aa020d265b83f9092241a05b5',
    '3comp-type2':
        '88c9912d1cbebc6c167febed0990bce25e9c16439a224a82a4a3b5a9c2228f0d',
    '4comp-tangentline-type1':
        '03caa820fab43815b8a7aafae0cdc9c2f340a8b8feb037c6ef0b92a86238d238',
    '4comp-tangentline-type2':
        'b4d991b5bbf1d36c107e386f9e9eb8b817ce6a112c9032fbc07e7a7f1f77f70c',
    '4comp-twolines-type1':
        'eaa37cd5578e33d071f55d0c5b9066168b0ce6813cfafc71d5820873410ba08c',
    '4comp-twolines-type2':
        '95b77c38568f7535e72166d3fbdcc2eed63d6f0f53db4de9388b8b36d3b3d8d1',
    'branch-point':
        'd909a4aedb14190a56f087e4f28ae71269c27832f7ba0b294a51bb7777c8df81',
    'conic-conic-tangency':
        '780668946daace23f5424d54e2eeea9db07f1b5b629d04426c7f58477acb46df',
    'node':
        'c0d163c77f01861ec0c79c7689bd5f766084eb0e5d29788ac3465a2d1f6d14e9',
    'simple-tangency':
        '50e1aac1c2efd9508652dee1ae258be3a691046cdac44daf5c7f9c3f4b87da59',
    'conic-pair':
        'd611e7506c68791435d83aa98e1448f6cf004f128dfb544c65ff1afdc027e4d8',
    'conic-pair+line':
        '342b6e6464636ffad7e38d5594afa4210b867c8a2b16990eb5ab19121d4e2346',
    'conic-pair+2lines':
        '2b50ef89e4e4c520ca526459830188450c53a8007b94251cb90ae3aa576217c5',
}


@pytest.mark.parametrize("equation, radius, digest",
                         [(eq, r, GOLDEN_TRACKS_1024[name])
                          for name, eq, r, _ in GOLDEN_TRACKS],
                         ids=[case[0] for case in GOLDEN_TRACKS])
def test_tracked_braid_unchanged_at_1024_samples(equation, radius, digest):
    tb = track(CurvePoly.parse(equation),
               LoopSpec(0j, Fraction(radius), samples=1024))
    key = repr((tb.braid.letters, tb.permutation, tb.refinements,
                tb.min_gap))
    assert hashlib.sha256(key.encode()).hexdigest() == digest


# sha256 of repr((letters, permutation, refinements)) of ``track``, the
# braid without ``min_gap``, at 256 and 1024 samples: every curve of
# ``GOLDEN_TRACKS`` on the same loop.  Recorded before loops about a real
# center were mirrored, which moves ``min_gap`` in its last bits only.
GOLDEN_BRAIDS = {
    '3comp-common-tangent':
        ('f13afc51792cc96c048b18f97622d12d405314e964be32bc19f13c9addf67316',
         'f13afc51792cc96c048b18f97622d12d405314e964be32bc19f13c9addf67316'),
    '3comp-rotation':
        ('b5ddbab7e9d604c7f19fe6f4be9e76a11b8348055c00818c38463889496ba030',
         'b5ddbab7e9d604c7f19fe6f4be9e76a11b8348055c00818c38463889496ba030'),
    '3comp-type1':
        ('6a99e5d3b60134222092c815082589e5bed99d0ba1f448982775aaca58148e16',
         '6a99e5d3b60134222092c815082589e5bed99d0ba1f448982775aaca58148e16'),
    '3comp-type2':
        ('10211e7cf2ac571b6625bedfcce2966fddfad8ec333e9efed62629da7e402b54',
         '10211e7cf2ac571b6625bedfcce2966fddfad8ec333e9efed62629da7e402b54'),
    '4comp-tangentline-type1':
        ('08a0ce02c90cdf47a5d07f763a5e7e3ae08633b47f4fda001471eb612539dcbc',
         '08a0ce02c90cdf47a5d07f763a5e7e3ae08633b47f4fda001471eb612539dcbc'),
    '4comp-tangentline-type2':
        ('89e67a5c8a5ff37ce29a4737515a18143b710ee02e8e1aab80c35b99968e131a',
         '89e67a5c8a5ff37ce29a4737515a18143b710ee02e8e1aab80c35b99968e131a'),
    '4comp-twolines-type1':
        ('48e97f7ecce083883dead05e535dcf6d9575cf353760fcddec080d733178ebb3',
         '48e97f7ecce083883dead05e535dcf6d9575cf353760fcddec080d733178ebb3'),
    '4comp-twolines-type2':
        ('901300596dee2ee61d6a2a0fed1b69a2de9b59bb3d3144257000cb7b31d4aca7',
         '901300596dee2ee61d6a2a0fed1b69a2de9b59bb3d3144257000cb7b31d4aca7'),
    'branch-point':
        ('b48e5359db7eefa400e4f79cbd802ee0354792d89a37f4126799b0e5301fd72a',
         'b48e5359db7eefa400e4f79cbd802ee0354792d89a37f4126799b0e5301fd72a'),
    'conic-conic-tangency':
        ('5e12aaaeb2834c6cfded7d849b76b04b72a77ad72f5ab365d3f22056d64c65bc',
         '5e12aaaeb2834c6cfded7d849b76b04b72a77ad72f5ab365d3f22056d64c65bc'),
    'node':
        ('f3419e6a6996c55334d3f75dd649b451e2976c29238b26166114a2e988380664',
         'f3419e6a6996c55334d3f75dd649b451e2976c29238b26166114a2e988380664'),
    'simple-tangency':
        ('5e12aaaeb2834c6cfded7d849b76b04b72a77ad72f5ab365d3f22056d64c65bc',
         '5e12aaaeb2834c6cfded7d849b76b04b72a77ad72f5ab365d3f22056d64c65bc'),
    'conic-pair':
        ('0c230f0a4c12e7cd2d1783c97efb18b7d53d76d47b8882ef169008b266a547b7',
         '2561c311ab2f3788ba68c28d8f0c11c850e0d23e7f69056c6af0dac6b2ebd2fb'),
    'conic-pair+line':
        ('94d09a9990d214852607d1b63f37fa995c86733bb0debb72a2920f4f5e9cea0b',
         'd30b95428d20aca87e6dc1387be2f98d2fe2e32b46ea17a71e95d87b38226a71'),
    'conic-pair+2lines':
        ('a5ee0f1313549fc6c77bee1bcd5d9398af2f4cbe47eef2eaaa1d40fc01688df6',
         '62ba22df09dc4eeb7e989ebb5e1a2d41f553b3211447f9e61f163e80660fbb3b'),
}


@pytest.mark.parametrize("samples", [256, 1024])
@pytest.mark.parametrize("equation, radius, name",
                         [case[1:3] + case[:1] for case in GOLDEN_TRACKS],
                         ids=[case[0] for case in GOLDEN_TRACKS])
def test_tracked_braid_letters_unchanged(equation, radius, name, samples):
    tb = track(CurvePoly.parse(equation),
               LoopSpec(0j, Fraction(radius), samples))
    key = repr((tb.braid.letters, tb.permutation, tb.refinements))
    want = GOLDEN_BRAIDS[name][samples == 1024]
    assert hashlib.sha256(key.encode()).hexdigest() == want


# sha256 of repr of the fibers over the 1025 grid points of a 1024-sample
# loop about the non-real center i/10, whose points come in no conjugate
# pairs: the two-line conic curve, radius 3.
NON_REAL_CENTER_FIBERS = (
    'e25f93877648c5cde2f9d6385366235720f3575fc0efefbf31cc6b6197ca9181')


def _count_eigvals_rows(monkeypatch):
    """The number of companion matrices of each ``np.linalg.eigvals``
    call from here on, in a list."""
    solve, rows = np.linalg.eigvals, []

    def counted(a):
        rows.append(len(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return rows


def test_loop_about_a_non_real_center_solves_every_fiber(monkeypatch):
    p = CurvePoly.parse(CONIC_PAIR + "*(10*y-20*x-1)*(10*y+30*x-7)")
    loop = LoopSpec(0.1j, Fraction(3), samples=1024)
    rows = _count_eigvals_rows(monkeypatch)
    solved = fibers(p, loop.grid(np.arange(1025) / 1024))
    assert sum(rows) == 1025
    digest = hashlib.sha256(repr(solved).encode()).hexdigest()
    assert digest == NON_REAL_CENTER_FIBERS


def _point(loop, t):
    """The loop's point at ``t`` computed alone: ``c + r exp(2 pi i t)``,
    and about a real center, past t = 1/2, the conjugate of the point at
    ``1 - t``."""
    c, r = complex(loop.center), float(loop.radius)
    if t > 0.5 and not c.imag:
        return (c + r * cmath.exp(2j * cmath.pi * (1 - t))).conjugate()
    return c + r * cmath.exp(2j * cmath.pi * t)


@pytest.mark.parametrize("center", [0j, 1.5 + 0j, -0.1 + 0j,
                                    complex(-1.3, -0.0)])
def test_loop_about_a_real_center_mirrors_its_dyadic_points(center):
    loop = LoopSpec(center, Fraction(7, 10), samples=8)
    scale = sys.float_info.epsilon * (abs(center) + 0.7)
    for m in range(11):
        ts = np.arange(2 ** m + 1) / 2 ** m
        grid = loop.grid(ts).tolist()
        assert repr(grid) == repr([_point(loop, t) for t in ts.tolist()])
        # the full loop's grid is mirrored by index, any other batch (such
        # as bisection midpoints) by 1 - t: at dyadic t the two agree
        assert repr(loop.grid(ts[1:]).tolist()) == repr(grid[1:])
        for k, t in enumerate(ts.tolist()):
            # t = 1/2 is its own mirror, a point just off the real axis
            if t != 0.5:
                assert repr(grid[-1 - k]) == repr(grid[k].conjugate())
            # and still on the circle, to a few units in the last place
            circle = center + 0.7 * cmath.exp(2j * cmath.pi * t)
            assert abs(grid[k] - circle) < 8 * scale


_GRID_CENTERS = [0j, 1.5 + 0j, -0.1 + 0j, complex(-1.3, -0.0), 0.1j]


def _grid_times(t0, t1, samples):
    return np.array([t0 + (t1 - t0) * k / samples for k in range(samples + 1)])


@pytest.mark.parametrize("center", _GRID_CENTERS)
def test_batch_grid_equals_point(center):
    loop = LoopSpec(center, Fraction(7, 10), samples=8)
    # bit for bit at power-of-two counts, on the full loop and on arcs
    for samples in (8, 64, 256, 1024, 4096):
        for t0, t1 in ((0.0, 1.0), (0.5, 1.0), (0.0, 0.5), (0.25, 2.0)):
            ts = _grid_times(t0, t1, samples)
            want = [_point(loop, t) for t in ts.tolist()]
            assert repr(loop.grid(ts).tolist()) == repr(want), (samples, t0)
    # so is a batch from 0 to 1 that is not the full loop's grid, as the
    # midpoints of an arc past [0, 1] can be
    ts = np.array([0.0, 0.3, 0.7, 1.0])
    want = [_point(loop, t) for t in ts.tolist()]
    assert repr(loop.grid(ts).tolist()) == repr(want)
    # elsewhere arcs stay bit for bit, and the full loop about a real
    # center is exactly conjugate by index, a few units in the last place
    # from the points alone
    for samples in (300, 1000):
        ts = _grid_times(0.5, 1.0, samples)
        want = [_point(loop, t) for t in ts.tolist()]
        assert repr(loop.grid(ts).tolist()) == repr(want)
        ts = _grid_times(0.0, 1.0, samples)
        grid = loop.grid(ts).tolist()
        if not center.imag:   # t = 1/2 is its own mirror, just off the axis
            mirrored = [k for k in range(samples + 1) if 2 * k != samples]
            assert (repr([grid[samples - k] for k in mirrored])
                    == repr([grid[k].conjugate() for k in mirrored]))
        scale = sys.float_info.epsilon * (abs(center) + 0.7)
        for x, t in zip(grid, ts.tolist()):
            assert abs(x - _point(loop, t)) <= 4 * scale, (samples, t)


def test_grid_of_any_count_solves_each_conjugate_pair_once(
        monkeypatch, cold_discriminants):
    # a 1000-sample loop about the real center 0 has 499 conjugate pairs
    # of points and x = 3 (at t = 0 and 1) and x = -3 (at t = 1/2); each
    # pair is solved once, as at power-of-two counts, by ``track`` and by
    # ``track_path`` along the loop
    rows = _count_eigvals_rows(monkeypatch)
    solve, grid_rows = tracker.fiber_rows, []

    def first_solve(p, xs):
        before = sum(rows)
        out = solve(p, xs)
        if not grid_rows:
            grid_rows.append(sum(rows) - before)
        return out

    monkeypatch.setattr(tracker, "fiber_rows", first_solve)
    p = CurvePoly.parse(CONIC_PAIR)
    for samples, want in ((1000, 502), (300, 152), (1024, 514)):
        loop = LoopSpec(0j, Fraction(3), samples)
        for tracked in (lambda: track(p, loop),
                        lambda: track_path(p, loop.grid, 0.0, 1.0, samples)):
            grid_rows.clear()
            tb = tracked()
            assert grid_rows == [want], samples
            assert action_equal(tb.braid, full_twist(4, 1, 4)), samples


def test_loop_about_a_real_center_solves_each_conjugate_pair_once(
        monkeypatch):
    # the 1025 grid points are 511 conjugate pairs, x = 3 and x = -3, and
    # t = 1/2 (its own mirror); bisection midpoints pair up as well
    p = CurvePoly.parse(CONIC_PAIR)
    loop = LoopSpec(0j, Fraction(3), samples=1024)
    rows = _count_eigvals_rows(monkeypatch)
    tb = track_path(p, loop.grid, 0.0, 1.0, loop.samples)
    assert sum(rows) <= 514
    key = repr((tb.braid.letters, tb.permutation, tb.refinements))
    want = GOLDEN_BRAIDS["conic-pair"][1]
    assert hashlib.sha256(key.encode()).hexdigest() == want


def _fiber_or_error(fiber):
    if isinstance(fiber, ConiclineError):
        return type(fiber).__name__, str(fiber)
    return repr(fiber)


@pytest.mark.parametrize("equation", [
    # the leading coefficient vanishes at the non-real x = i and -i
    "(x^2+1)*y^3 + y^2 - 2*x*y + x^2 - 1/3",
    # a zero root over every x, and a vanishing leading coefficient at 0
    "y*(x*y^2 + y - x^3 + 1/2)"])
def test_batch_with_conjugate_pairs_equals_each_x_alone(equation,
                                                        monkeypatch):
    x = 0.3 + 0.4j
    batch = [x, 0.75 + 0j, 1j, 2 - 1j, x.conjugate(), -1j, 0j, x, 2 + 1j]
    p = CurvePoly.parse(equation)
    alone = [_fiber_or_error(fibers(p, [z])[0]) for z in batch]
    rows = _count_eigvals_rows(monkeypatch)
    assert [_fiber_or_error(f) for f in fibers(p, batch)] == alone
    # four rows make no solve: x-bar and 2 + i copy their mirrors, and -i
    # copies i, or both are refused where the leading coefficient vanishes;
    # the second x is solved again, as its mirror is a copy
    assert sum(rows) == len(batch) - 4


def _walked_mirrors(xs):
    """The pairing as ``fiber_rows`` made it before ``_conjugate_mirrors``:
    a walk over the rows that keeps the first row of each non-real x and
    mirrors each later row whose conjugate x it has kept."""
    first, mirror = {}, list(range(len(xs)))
    for k, x in enumerate(xs):
        if x.imag:
            j = first.get(x.conjugate())
            if j is None:
                first.setdefault(x, k)
            else:
                mirror[k] = j
    return mirror


def test_conjugate_mirrors_equal_the_ordered_walk():
    rng = random.Random(2511)
    nan, inf = float("nan"), float("inf")
    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j, -1j,
              complex(-0.0, 1), complex(0.0, -1), 1 + 1j, 1 - 1j, 2 + 0j,
              complex(2, -0.0), complex(nan, 1), complex(nan, -1),
              complex(1, nan), complex(inf, 1), complex(inf, -1),
              complex(1, inf), complex(1, -inf), complex(1e-200, 1e-200),
              complex(1e-200, -1e-200)]
    for _ in range(5000):
        xs = [rng.choice(values) for _ in range(rng.randint(0, 12))]
        got = tracker._conjugate_mirrors(np.array(xs, dtype=complex))
        assert got.tolist() == _walked_mirrors(xs), xs
    loop = LoopSpec(0.3 + 0j, Fraction(2), samples=8)
    for samples in (300, 1000, 1024):
        xs = loop.grid(np.arange(samples + 1) / samples).tolist()
        xs += loop.grid((np.arange(samples) + 0.5) / samples).tolist()
        got = tracker._conjugate_mirrors(np.array(xs, dtype=complex))
        assert got.tolist() == _walked_mirrors(xs)


def test_shared_fibers_are_the_conjugates_of_their_mirrors():
    # on any curve, a shared fiber is its mirror's roots conjugated, in
    # strand order, and within rounding of the roots of its own
    # coefficients; bit for bit only where LAPACK's rounding is symmetric
    rng = random.Random(1017)
    for _ in range(300):
        degy, degx = rng.randint(1, 6), rng.randint(1, 4)
        coeffs = {(rng.randint(0, degx), rng.randint(0, degy)):
                  Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(2, 8))}
        coeffs[(0, degy)] = Fraction(rng.randint(1, 5))
        p = CurvePoly(coeffs)
        x = complex(rng.gauss(0, 2), rng.gauss(0, 2))
        mirror, shared = fibers(p, [x, x.conjugate()])
        if isinstance(mirror, ConiclineError):
            continue
        assert shared == _strand_order([r.conjugate() for r in mirror])
        own = np.roots(y_coefficients(p, [x.conjugate()])[0][::-1])
        scale = max(1.0, *np.abs(own))
        for r in shared:
            assert np.abs(own - r).min() < 1e-6 * scale, (p, x)


def test_refused_grid_fiber_raises_only_when_reached():
    # along x = 1 - t on 8 steps: a double root over x = 1/2 (t = 1/2)
    # and a vanishing leading coefficient over x = 0 (t = 1)
    p = CurvePoly.parse("x*y^2 - (2*x - 1)^2")
    line = lambda t: 1 - t
    assert isinstance(fibers(p, line(np.arange(9) / 8))[-1],
                      LeadingCoefficientVanishes)
    with pytest.raises(AmbiguousMatching):
        track_path(p, line, 0.0, 1.0, 8)
    assert track_path(p, line, 0.0, 0.25, 8).braid.letters == ()
    with pytest.raises(LeadingCoefficientVanishes):
        track_path(CurvePoly.parse("x*y^2 - 1"), line, 0.0, 1.0, 8)
    assert isinstance(fibers(CurvePoly.parse("x*y^2 - 1"), [0j])[0],
                      LeadingCoefficientVanishes)


def test_residual_check_matches_scalar_reference(monkeypatch):
    p = CurvePoly.parse("(y - 1/3)*(y - 2/7)*(y + 5/11)*(y - x)")
    xs = [0.3 + 0.1j, -1.2 + 0.7j, 2j, 1.5 - 0.25j]
    rows = y_coefficients(p, xs).tolist()
    roots = fibers(p, xs)
    refusals = 0
    for tol in [10.0 ** -e for e in range(10, 31)]:
        monkeypatch.setattr(tracker, "RESIDUAL_TOL", tol)
        for a, fiber, got in zip(rows, roots, fibers(p, xs)):
            want = any(
                abs(sum(c * r ** j for j, c in enumerate(a)))
                > 1e4 * tol * max(sum(abs(c) * max(1.0, abs(r)) ** j
                                      for j, c in enumerate(a)), 1.0)
                for r in fiber)
            assert isinstance(got, NoConvergence) == want, (tol, a)
            refusals += want
    assert 0 < refusals < 21 * len(xs)
    monkeypatch.setattr(tracker, "RESIDUAL_TOL", 1e-300)
    assert isinstance(fibers(p, [xs[0]])[0], NoConvergence)


def test_overflowing_power_of_x_is_a_typed_error():
    p = CurvePoly.parse("y^2 - x^2")
    with pytest.raises(ConiclineError, match=r"x=\(1e\+200\+0j\)"):
        fibers(p, [1 + 0j, 1e200 + 0j])
    with pytest.raises(ConiclineError, match="overflows"):
        track(p, LoopSpec(0j, Fraction(10) ** 200, samples=8))
    # a NaN power is no overflow: the fiber is refused by its coefficients
    for x in (complex("nan"), complex(1.5e154, 1.5e154)):
        fiber, = fibers(p, [x])
        assert isinstance(fiber, LeadingCoefficientVanishes), (x, fiber)


def _python_y_coefficients(p, xs):
    """``y_coefficients`` as it was before ``np.power``: summed over
    Python's own complex powers, one x at a time."""
    rows = []
    for x in xs:
        try:
            rows.append([x ** i for i in range(p.degx + 1)])
        except OverflowError:
            raise ConiclineError(
                f"x^{p.degx} overflows a float at x={x}") from None
    powers = np.array(rows, dtype=complex).reshape(len(xs), p.degx + 1)
    out = np.zeros((len(xs), p.degy + 1), dtype=complex)
    for i, j, c in p.terms:
        out[:, j] += c * powers[:, i]
    return out


def _rows_or_error(fn, p, xs):
    try:
        return [repr(row) for row in fn(p, xs).tolist()]
    except ConiclineError as exc:
        return str(exc)


@pytest.mark.parametrize("equation", [
    "y^2 - x", "y^2 - x^2", "y^3 - 3/7*x^3*y + x^4 - 1",
    "2*y^6 + x*y^5 - 2*x^2*y^2 - x^3*y", "x^8*y^2 - y + 5/3*x^7",
    "y^2 - x^99 + x^2*y"])
def test_y_coefficients_equal_python_powers(equation):
    p = CurvePoly.parse(equation)
    rng = random.Random(equation)
    signs = (0.0, -0.0)
    xs = [complex(rng.gauss(0, 1.5), rng.gauss(0, 1.5)) for _ in range(200)]
    xs += [complex(rng.gauss(0, 2), z) for z in signs for _ in range(20)]
    xs += [complex(z, rng.gauss(0, 2)) for z in signs for _ in range(20)]
    xs += [complex(a, b) for a in signs + (1.5, -2.0) for b in signs]
    xs += [complex(10.0 ** rng.uniform(-150, 0), rng.choice(signs))
           for _ in range(20)]
    assert (_rows_or_error(y_coefficients, p, xs)
            == _rows_or_error(_python_y_coefficients, p, xs))
    # finite |x| just under and just over the overflow edge of x^degx,
    # and in the range where x * x overflows to NaN + inf j
    edge = sys.float_info.max ** (1 / p.degx)
    for _ in range(40):
        r = min(edge * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-15, -1)),
                sys.float_info.max)
        for x in (cmath.rect(r, rng.uniform(-cmath.pi, cmath.pi)),
                  complex(r, rng.choice(signs)), complex(0.0, -r),
                  complex(1.5e154, 1.5e154) * rng.uniform(1, 2)):
            assert (_rows_or_error(y_coefficients, p, [x])
                    == _rows_or_error(_python_y_coefficients, p, [x])), x


# -- the depth-first stepping that ``track_path`` replaced, as a reference --

def _reference_gap(roots):
    return min((abs(a - b) for a, b in itertools.combinations(roots, 2)),
               default=float("inf"))


def _reference_match(roots, new_roots):
    """Nearest-neighbour matching in plain Python, one step at a time."""
    n = len(new_roots)
    perm = [min(range(n), key=lambda j: abs(a - new_roots[j])) for a in roots]
    if len(set(perm)) < n:
        return None
    max_move = max(abs(a - new_roots[j]) for a, j in zip(roots, perm))
    if max_move * MATCH_SAFETY > _reference_gap(new_roots):
        return None
    return perm


def _depth_first_track(p, path, t0, t1, samples):
    """``track_path`` as the recursive walk it replaced: each step is
    matched on its own and bisected at once, one batch of one per
    midpoint, so letters and the first error come in path order."""
    ts = [t0 + (t1 - t0) * k / samples for k in range(samples + 1)]
    grid = fibers(p, [path(np.array([t]))[0] for t in ts])
    letters, refinements, gaps = [], [0], []

    def reached(fiber):
        if isinstance(fiber, ConiclineError):
            raise fiber
        gaps.append(_reference_gap(fiber))
        return fiber

    def advance(roots, ta, tb, fiber, depth):
        new_roots = reached(fiber)
        perm = _reference_match(roots, new_roots)
        blocks = None if perm is None else _reversed_blocks(perm)
        if blocks is None or any(j > k + 1 for k, j in blocks):
            if depth < MAX_REFINE:
                refinements[0] += 1
                tm = (ta + tb) / 2
                mid = advance(roots, ta, tm,
                              fibers(p, [path(np.array([tm]))[0]])[0],
                              depth + 1)
                return advance(mid, tm, tb, fiber, depth + 1)
            if perm is None:
                raise AmbiguousMatching(
                    f"matching stayed ambiguous near t={ta}")
            if blocks is None:
                raise CollisionOnLoop(
                    f"unresolvable crossing cluster near t={ta}")
        for k, j in blocks:
            upper_is_right = (roots[j].imag + new_roots[k].imag
                              > roots[k].imag + new_roots[j].imag)
            sign = 1 if upper_is_right else -1
            for top in range(j - 1, k - 1, -1):
                letters.extend(sign * s for s in range(k + 1, top + 2))
        return new_roots

    roots = reached(grid[0])
    for ta, tb, fiber in zip(ts, ts[1:], grid[1:]):
        roots = advance(roots, ta, tb, fiber, 0)
    braid = BraidWord(p.degy, letters)
    return braid.letters, braid_permutation(braid), refinements[0], min(gaps)


def _outcome(fn, *args):
    """repr of a tracked result, or the type and message of its error."""
    try:
        out = fn(*args)
    except ConiclineError as exc:
        return repr((type(exc).__name__, str(exc)))
    if not isinstance(out, tuple):
        out = (out.braid.letters, out.permutation, out.refinements,
               out.min_gap)
    return repr(out)


def _assert_same_as_depth_first(p, path, t0, t1, samples):
    want = _outcome(_depth_first_track, p, path, t0, t1, samples)
    assert _outcome(track_path, p, path, t0, t1, samples) == want
    return want


def _scaled(p, sx, sy):
    """``p(sx x, sy y)``: the same curve, stretched in both coordinates."""
    return CurvePoly({(i, j): c * sx ** i * sy ** j
                      for (i, j), c in p.coeffs.items()})


def test_breadth_first_equals_depth_first_on_local_models():
    rng = random.Random(20261018)
    outcomes = []
    for name in list_models():
        model = get_model(name).equation
        for _ in range(3):
            p = _scaled(model, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            radius = rng.uniform(0.3, 3.0)
            phase = rng.random()
            loop = lambda t: radius * np.exp(2j * np.pi * (t + phase))
            samples = rng.choice([8, 24, 64])
            t0, t1 = sorted([rng.random(), rng.random() + 0.5])
            outcomes.append(_assert_same_as_depth_first(
                p, loop, t0, t1, samples))
    tracked = [ast.literal_eval(out) for out in outcomes]
    assert sum(refinements > 0 for _, _, refinements, _ in tracked) > 20


def test_breadth_first_equals_depth_first_on_simultaneous_crossings():
    # roots in antipodal pairs cross at one instant: every crossing is
    # bisected to the last level and accepted there as a long block
    for name in ("3comp-rotation", "4comp-twolines-type2"):
        p = get_model(name).equation
        for samples in (16, 256):
            loop = LoopSpec(0j, Fraction(1), samples)
            got = _assert_same_as_depth_first(p, loop.grid, 0.0, 1.0,
                                              samples)
            assert track(p, loop).refinements >= MAX_REFINE, got


def test_breadth_first_raises_the_first_error_on_the_path():
    line = lambda t: 1 - t
    # an ambiguous double root over x = 1/2 before a refused grid fiber
    p = CurvePoly.parse("x*y^2 - (2*x - 1)^2")
    for samples in (7, 8, 10):
        want = _assert_same_as_depth_first(p, line, 0.0, 1.0, samples)
        assert ("AmbiguousMatching" in want) == (samples != 7), want
    # a refused midpoint (x = 0 at t = 1/2) before a refused grid fiber
    # (x = 1 at t = 2), each a vanishing leading coefficient
    p = CurvePoly.parse("x*(x - 1)*y^2 - 1")
    path = lambda t: (t - 0.5) / 1.5
    want = _assert_same_as_depth_first(p, path, 0.0, 3.0, 3)
    assert want == repr(("LeadingCoefficientVanishes",
                         "leading y-coefficient vanishes at x=0j"))
    want = _assert_same_as_depth_first(p, path, 1.0, 3.0, 2)
    assert want == repr(("LeadingCoefficientVanishes",
                         "leading y-coefficient vanishes at x=(1+0j)"))


@pytest.mark.xfail(strict=True, reason="the two strands pass through each "
                   "other at x = 1/2 and the tracker returns the identity")
@pytest.mark.parametrize("samples", [6, 7])
def test_path_through_a_singular_fiber_is_refused(samples):
    # a double root y = 0 over x = 1/2, which x = 1 - t passes at t = 1/2:
    # no braid is right, so only a typed error will do
    p = CurvePoly.parse("x*y^2 - (2*x - 1)^2")
    with pytest.raises(ConiclineError):
        track_path(p, lambda t: 1 - t, 0.0, 0.99, samples)


def test_coincident_roots_fail_without_bisecting_the_whole_loop(monkeypatch):
    # a repeated component fails every step at every level; a walk along
    # the path stops at the first step's last level, and the batches may
    # solve at most one grid's worth of midpoints per level before that
    samples = 64
    loop = LoopSpec(0j, Fraction(1), samples)
    want = _outcome(_depth_first_track, CurvePoly.parse("(y - x)^2*(y + 2)"),
                    loop.grid, 0.0, 1.0, samples)
    assert "AmbiguousMatching" in want
    p = CurvePoly.parse("(y - x)^2*(y + 2)")
    solve, solved = tracker.fiber_rows, []

    def counted(p, xs):
        solved.append(len(xs))
        assert sum(solved) <= samples + 1 + (MAX_REFINE + 1) * samples
        return solve(p, xs)

    monkeypatch.setattr(tracker, "fiber_rows", counted)
    assert _outcome(track_path, p, loop.grid, 0.0, 1.0, samples) == want
    # a level with nothing to halve solves nothing
    assert len(solved) > MAX_REFINE and all(solved), solved


@pytest.mark.parametrize("samples", [256, 1024])
def test_each_level_of_bisection_is_one_solve(monkeypatch, samples):
    # on the benchmark's curves no level of bisection outgrows the grid,
    # so each track solves the grid and then one batch per level: every
    # midpoint once, in at most 1 + MAX_REFINE calls, where a walk that
    # solves each midpoint alone makes one call per refinement
    solve, solved = tracker.fiber_rows, []

    def counted(p, xs):
        solved.append(len(xs))
        return solve(p, xs)

    monkeypatch.setattr(tracker, "fiber_rows", counted)
    for name, equation, radius, _ in GOLDEN_TRACKS:
        solved.clear()
        tb = track(CurvePoly.parse(equation),
                   LoopSpec(0j, Fraction(radius), samples))
        assert sum(solved) == samples + 1 + tb.refinements, name
        assert len(solved) <= 1 + MAX_REFINE, (name, solved)


# The braids that 256 samples give on the unit loop; at 8 samples a step
# can skip whole turns of a strand and still pass the MATCH_SAFETY test,
# because the roots land next to other roots.
COARSE_CURVES = [("y^2 - x^9", BraidWord(2, (1,) * 9)),
                 ("y^2 - x^99", BraidWord(2, (1,) * 99)),
                 ("y^3 - x^200", BraidWord(3, (1, 2) * 200))]


@pytest.mark.parametrize("equation, braid", COARSE_CURVES)
def test_fine_sampling_gives_the_pinned_braid(equation, braid):
    loop = LoopSpec(0j, Fraction(1), 256)
    assert action_equal(track(CurvePoly.parse(equation), loop).braid, braid)


@pytest.mark.xfail(strict=True, reason="a coarse step that skips a turn "
                   "is accepted: today (1,), (1, 1, 1) and the identity")
@pytest.mark.parametrize("equation, braid", COARSE_CURVES)
def test_coarse_sampling_gives_the_braid_or_refuses(equation, braid):
    loop = LoopSpec(0j, Fraction(1), 8)
    try:
        got = track(CurvePoly.parse(equation), loop).braid
    except ConiclineError:
        return
    assert action_equal(got, braid)


def _seeded_steps(rng, rows, n):
    """Old and new fibers of ``rows`` steps, moved from far inside to far
    outside the accepted range."""
    old, new = [], []
    for _ in range(rows):
        fiber = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        scale = _reference_gap(fiber) / MATCH_SAFETY * 10 ** rng.uniform(-1.5, 1.5)
        origin = list(range(n))
        rng.shuffle(origin)
        old.append([fiber[j] + scale * cmath.exp(2j * cmath.pi * rng.random())
                    * rng.random() for j in origin])
        new.append(fiber)
    return old, new


def test_batched_matcher_equals_match_row_by_row():
    rng = random.Random(603)
    for n in range(1, 7):
        old, new = _seeded_steps(rng, 400, n)
        new_arr = np.array(new)
        perms, accepted = _match_rows(np.array(old), new_arr, _gaps(new_arr))
        got = [p.tolist() if ok else None for p, ok in zip(perms, accepted)]
        assert got == [_match(a, b) for a, b in zip(old, new)]
        assert got == [_reference_match(a, b) for a, b in zip(old, new)]
        if n > 1:
            assert 0 < accepted.sum() < len(old)


def test_batched_distances_equal_python_abs():
    rng = random.Random(604)
    for n in (2, 3, 5):
        # magnitudes from 1e-8 to 1e8, so near and far roots mix
        values = [[cmath.rect(10 ** rng.uniform(-8, 8),
                              rng.uniform(-cmath.pi, cmath.pi))
                   for _ in range(n)] for _ in range(4000)]
        rows = np.array(values)
        dist = _distances(rows, np.roll(rows, 1, axis=0))
        want = [[[abs(a - b) for b in right] for a in left]
                for left, right in zip(values, values[-1:] + values[:-1])]
        assert repr(dist.tolist()) == repr(want)
        gaps = _gaps(rows)
        assert repr(gaps.tolist()) == repr([_reference_gap(r) for r in values])

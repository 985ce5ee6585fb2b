"""Inputs, passes and answer checks for the four benchmark workloads.

``make_inputs`` runs in ``run.py`` before any timing and returns plain
JSON data derived from the workload seed.  ``decode`` and ``run_pass``
run in a fresh child interpreter: ``decode`` turns the JSON back into
program objects (untimed), ``run_pass`` is the timed pass and calls the
program only through module attributes, so the traced run can wrap them.
``check`` compares the outputs with the expected answers carried in the
inputs; every operation that raised or gave a wrong answer counts as
failed.

The workloads:

* ``catalog`` - ``verify-paper --all`` through the CLI in JSON form, then
  ``compare`` on the 36 unordered pairs of the nine expected groups;
* ``tangency`` - present, simplify, abelianize and count homs into S3
  for the generalized tangency factorizations ``(full_twist(n)^2,)``,
  n = 3..7;
* ``homs`` - ``invariant_bundle`` into S3 and S4 on the simplified
  tangency groups, n = 3..5 (simplified during set-up);
* ``tracker`` - ``track`` on 12 local-model equations (unit loop) and on
  the conic pair with 0, 1 and 2 extra lines (radius-3 loop), each at
  256 and 1024 samples.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from conicline import (catalog, cli, invariants, local_models, tietze,
                       tracker, van_kampen)
from conicline.braids import BraidWord, action_equal, full_twist
from conicline.presentations import Presentation

TANGENCY_N = range(3, 8)
# S4 for n >= 6 is left out: 24^6 assignments exceed count_homs' default
# budget, so it raises BudgetExceeded at once instead of doing work.
HOMS_N = range(3, 6)

# Published hom counts of the generalized tangency groups; the free rank
# of the abelianization is n.
S3_HOMS = {3: 162, 4: 918, 5: 5346, 6: 31590, 7: 188082}
S4_HOMS = {3: 6216, 4: 141528, 5: 3342984}

CATALOG_ENTRIES = 16

CONIC_PAIR = "(x^2+y^2-1)*(x^2+y^2-1+(y-3/10)^2/2)"
CONIC_CURVES = {
    "conic-pair": CONIC_PAIR,
    "conic-pair+line": CONIC_PAIR + "*(y-2*x-1/10)",
    "conic-pair+2lines": CONIC_PAIR + "*(10*y-20*x-1)*(10*y+30*x-7)",
}
TRACKER_SAMPLES = (256, 1024)

# Its 6-strand model braid is not the monodromy of its equation's fiber,
# so no tracked braid can match it.
EXCLUDED_MODELS = ("4comp-tangentline-type3",)

# How strongly each workload's pass time follows the host's speed (see
# ``refspeed.py``): the slope of log(pass time) against log(calibration
# time) over 13-93 fresh-interpreter passes per workload that met both
# host states (catalog 0.68, tangency 0.58, tracker 0.85, homs 0.07),
# with medians of 10-seed runs giving 0.7-0.9 for the first three.  The
# dense numpy enumeration of ``homs`` waits on memory and barely slows.
SPEED_EXPONENT = {"catalog": 0.7, "tangency": 0.7, "tracker": 0.85,
                  "homs": 0.0}

# Seeded tracker radii, in hundredths: the unit loop of the local models
# and the radius-3 loop around every singular fiber of the conic curves.
_UNIT_RADII = (90, 110)
_WIDE_RADII = (280, 320)
# A loop must keep this share of its radius between itself and every
# singular fiber, so a seed never puts a fiber next to the loop.
_LOOP_MARGIN = Fraction(1, 10)


# -- seeded input transforms ------------------------------------------------

def _relabelling(rng, ngen):
    """Seeded signed permutation of ``1..ngen`` and relator rotations."""
    images = list(range(1, ngen + 1))
    rng.shuffle(images)
    images = [g if rng.random() < 0.5 else -g for g in images]
    shifts = [rng.randrange(1 << 16) for _ in range(4 * ngen)]
    return {"images": images, "shifts": shifts}


def relabel(relators, images, shifts):
    """Relabel generator ``g`` as ``images[g-1]`` and rotate each relator.

    Rotation conjugates a relator and relabelling is an automorphism of
    the free group, so the presented group is unchanged up to
    isomorphism.
    """
    out = []
    for i, r in enumerate(relators):
        w = [images[abs(a) - 1] * (1 if a > 0 else -1) for a in r]
        k = shifts[i % len(shifts)] % len(w) if w else 0
        out.append(tuple(w[k:] + w[:k]))
    return out


def _decode_presentation(d):
    return Presentation(d["ngen"], [tuple(r) for r in d["relators"]])


def _enclosed(singular, radius):
    """Indices of the singular fibers inside the circle ``|x| = radius``,
    or None when one lies within the margin of the circle."""
    inside = set()
    for i, s in enumerate(singular):
        d = abs(s) - float(radius)
        if abs(d) < float(_LOOP_MARGIN * radius):
            return None
        if d < 0:
            inside.add(i)
    return inside


def _seeded_radius(rng, singular, reference, bounds):
    """A seeded rational radius enclosing the same fibers as ``reference``."""
    want = _enclosed(singular, reference)
    radius = Fraction(rng.randint(*bounds), 100)
    if want is None or _enclosed(singular, radius) != want:
        raise RuntimeError(f"radius {radius} does not enclose the same "
                           f"singular fibers as radius {reference}")
    return radius


# -- inputs (run.py side, untimed) -----------------------------------------

def make_inputs(workload, seed):
    """The workload's inputs and expected answers, as JSON data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        groups = catalog.expected_groups()
        names = sorted(groups)
        matrix = {}
        for name in names:
            g = groups[name]
            t = _relabelling(rng, g.ngen)
            matrix[name] = {"ngen": g.ngen,
                            "relators": relabel(g.relators, t["images"],
                                                t["shifts"])}
        pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
        return {"groups": matrix, "pairs": pairs,
                "expect": {"exit_code": 0, "passed": CATALOG_ENTRIES,
                           "total": CATALOG_ENTRIES, "verdict": "distinct"}}
    if workload == "tangency":
        items = []
        for n in TANGENCY_N:
            braid, _ = local_models.generalized_tangency(n)
            items.append({"n": n, "braid": list(braid.letters),
                          **_relabelling(rng, n)})
        return {"items": items,
                "expect": {"S3": {str(n): S3_HOMS[n] for n in TANGENCY_N},
                           "free_rank": {str(n): n for n in TANGENCY_N}}}
    if workload == "homs":
        groups = []
        for n in HOMS_N:
            braid, _ = local_models.generalized_tangency(n)
            f = van_kampen.Factorization(n, (braid,))
            q = tietze.simplify(van_kampen.present(f)).presentation
            t = _relabelling(rng, q.ngen)
            groups.append({"n": n, "ngen": q.ngen,
                           "relators": relabel(q.relators, t["images"],
                                               t["shifts"])})
        return {"groups": groups,
                "expect": {"S3": {str(n): S3_HOMS[n] for n in HOMS_N},
                           "S4": {str(n): S4_HOMS[n] for n in HOMS_N}}}
    if workload == "tracker":
        curves = []
        for mid in local_models.list_models():
            if mid not in EXCLUDED_MODELS:
                m = local_models.get_model(mid)
                curves.append((mid, tracker.format_poly(m.equation), m.braid,
                               1, _UNIT_RADII))
        for name, text in CONIC_CURVES.items():
            n = tracker.CurvePoly.parse(text).degy
            curves.append((name, text, full_twist(n, 1, n), 3, _WIDE_RADII))
        loops = []
        for name, text, braid, reference, bounds in curves:
            singular = tracker.singular_x_values(tracker.CurvePoly.parse(text))
            for samples in TRACKER_SAMPLES:
                r = _seeded_radius(rng, singular, reference, bounds)
                loops.append({"name": name, "poly": text,
                              "radius": [r.numerator, r.denominator],
                              "samples": samples,
                              "expect": {"strands": braid.strands,
                                         "letters": list(braid.letters)}})
        return {"loops": loops}
    raise ValueError(f"unknown workload {workload!r}")


def op_count(workload, inputs):
    """Number of checked operations in one pass."""
    if workload == "catalog":
        return 1 + len(inputs["pairs"])
    if workload == "tangency":
        return len(inputs["items"])
    if workload == "homs":
        return 2 * len(inputs["groups"])
    return len(inputs["loops"])


# -- one pass (child side) --------------------------------------------------

def decode(workload, inputs):
    """Program objects for ``run_pass``, built before timing starts."""
    if workload == "catalog":
        groups = {k: _decode_presentation(v)
                  for k, v in inputs["groups"].items()}
        return [(groups[a], groups[b]) for a, b in inputs["pairs"]]
    if workload == "tangency":
        return [(van_kampen.Factorization(
                    it["n"], (BraidWord(it["n"], it["braid"]),)),
                 it["images"], it["shifts"]) for it in inputs["items"]]
    if workload == "homs":
        return [_decode_presentation(g) for g in inputs["groups"]]
    if workload == "tracker":
        return [(lp["poly"], Fraction(*lp["radius"]), lp["samples"])
                for lp in inputs["loops"]]
    raise ValueError(f"unknown workload {workload!r}")


def _attempt(fn, *args):
    # One operation's failure must not stop the pass; it is counted.
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed op
        return exc


def _verify_paper():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--format", "json", "verify-paper", "--all"])
    return code, buf.getvalue()


def _tangency(f, images, shifts):
    p = van_kampen.present(f)
    p = Presentation(p.ngen, relabel(p.relators, images, shifts))
    q = tietze.simplify(p).presentation
    ab = invariants.abelianization(q)
    return ab, invariants.count_homs(q, invariants.builtin_table("S3"))


def _track(text, radius, samples):
    p = tracker.CurvePoly.parse(text)
    return tracker.track(p, tracker.LoopSpec(0j, radius, samples))


def _calls(workload, ops):
    """``(fn, *args)`` per operation, looked up when the pass starts so
    that the traced run's wrappers are the ones called."""
    if workload == "catalog":
        return [(_verify_paper,)] + [(invariants.compare, a, b)
                                     for a, b in ops]
    if workload == "tangency":
        return [(_tangency, *op) for op in ops]
    if workload == "homs":
        return [(invariants.invariant_bundle, p, ("S3", "S4")) for p in ops]
    return [(_track, *op) for op in ops]


def run_pass(workload, ops, between=None):
    """Run one pass over the decoded inputs; returns one output per op.

    ``between()``, when given, is called after each operation; the
    child's clock calibrates there.
    """
    out = []
    for fn, *args in _calls(workload, ops):
        out.append(_attempt(fn, *args))
        if between is not None:
            between()
    return out


# -- answer checks (child side, untimed) ------------------------------------

def _check_verify_paper(out, expect):
    code, text = out
    report = json.loads(text)
    return (code == expect["exit_code"]
            and report["passed"] == expect["passed"]
            and report["total"] == expect["total"]
            and all(r["passed"] for r in report["reports"]))


def _wrong(workload, inputs, i, out):
    """Why output ``i`` is wrong, or None when it is right."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if workload == "catalog":
        expect = inputs["expect"]
        if i == 0:
            return None if _check_verify_paper(out, expect) else \
                "verify-paper did not pass every entry"
        if out.kind != expect["verdict"]:
            a, b = inputs["pairs"][i - 1]
            return f"compare({a}, {b}) gave {out.kind}"
        return None
    if workload == "tangency":
        n = str(inputs["items"][i]["n"])
        ab, homs = out
        expect = inputs["expect"]
        if ab.free_rank != expect["free_rank"][n] or ab.torsion:
            return f"n={n}: abelianization {ab}"
        if homs != expect["S3"][n]:
            return f"n={n}: {homs} homs into S3"
        return None
    if workload == "homs":
        g, target = divmod(i, 2)
        n = str(inputs["groups"][g]["n"])
        name = ("S3", "S4")[target]
        got = dict(out.hom_counts)[name]
        if got != inputs["expect"][name][n]:
            return f"n={n}: {got} homs into {name}"
        return None
    loop = inputs["loops"][i]
    want = BraidWord(loop["expect"]["strands"], loop["expect"]["letters"])
    if not action_equal(out.braid, want):
        return f"{loop['name']} at {loop['samples']} samples: wrong braid"
    return None


def check(workload, inputs, outputs):
    """``(attempted, failed, reasons)`` for one pass's outputs."""
    if workload == "homs":
        # one invariant_bundle call answers both targets of its group
        outputs = [o for o in outputs for _ in range(2)]
    reasons = []
    for i, out in enumerate(outputs):
        try:
            why = _wrong(workload, inputs, i, out)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"malformed output: {exc!r}"
        if why:
            reasons.append(why)
    return len(outputs), len(reasons), reasons

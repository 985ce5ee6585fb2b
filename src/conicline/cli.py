"""Command-line interface.

Subcommands drive the pipeline stages individually (``local``, ``track``,
``present``, ``simplify``, ``invariants``, ``compare``, ``bigness``) or
run the whole verification suite over the arrangement catalog
(``verify-paper``).  Every subcommand supports ``--format json``.

Exit codes: 0 success / all pass, 1 verification failure, 2 usage or
input error.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import catalog, words
from .braids import format_braid
from .errors import ConiclineError
from .invariants import bigness_certificate, compare, invariant_bundle
from .local_models import get_model, list_models
from .polys import CurvePoly, format_poly
from .presentations import format_presentation, parse_presentation
from .tietze import simplify
from .tracker import LoopSpec, track
from .van_kampen import parse_sweep, present


def _emit(args, text, payload):
    if args.format == "json":
        # NaN and Infinity are not JSON; a payload holding one is a bug
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_presentation(path):
    return parse_presentation(_read(path))


# -- subcommands ------------------------------------------------------------

def _cmd_local(args):
    model = get_model(args.model)
    rels = [words.format_word(r) for r in model.paper_relations]
    text = (f"model: {model.id}\n"
            f"equation: {format_poly(model.equation)}\n"
            f"strands: {model.strands}\n"
            f"braid: {format_braid(model.braid)}\n"
            f"half-braid: {format_braid(model.half_braid)}\n"
            + "\n".join(f"relation: {r}" for r in rels))
    _emit(args, text, {"model": model.id,
                       "equation": format_poly(model.equation),
                       "strands": model.strands,
                       "braid": format_braid(model.braid),
                       "half_braid": format_braid(model.half_braid),
                       "relations": rels,
                       "provenance": model.provenance})
    return 0


def _parse_complex(s):
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ConiclineError(f"bad complex number {s!r}") from None


def _parse_radius(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ConiclineError(f"bad radius {s!r}, expected a rational "
                             f"number") from None


def _parse_kill(s):
    try:
        return tuple(int(k) for k in s.split(",")) if s else ()
    except ValueError:
        raise ConiclineError(f"bad --kill {s!r}, expected comma-separated "
                             f"generator numbers such as 1,3") from None


def _parse_range(s):
    try:
        a, b = s.split(":")
        return float(Fraction(a)), float(Fraction(b))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConiclineError(f"bad range {s!r}, expected t0:t1") from None


def _cmd_track(args):
    p = CurvePoly.parse(args.poly)
    loop = LoopSpec(center=_parse_complex(args.center),
                    radius=_parse_radius(args.radius),
                    samples=args.samples)
    t0, t1 = _parse_range(args.range)
    tb = track(p, loop, t0, t1)
    text = (f"braid: {format_braid(tb.braid)}\n"
            f"permutation: {' '.join(map(str, tb.permutation))}\n"
            f"min-gap: {tb.min_gap:.6g}\n"
            f"refinements: {tb.refinements}")
    _emit(args, text, {"braid": format_braid(tb.braid),
                       "letters": list(tb.braid.letters),
                       "strands": tb.braid.strands,
                       "permutation": list(tb.permutation),
                       # a one-strand fiber has no gap between roots
                       "min_gap": (tb.min_gap if math.isfinite(tb.min_gap)
                                   else None),
                       "refinements": tb.refinements})
    return 0


def _cmd_present(args):
    p = present(parse_sweep(_read(args.factorization)),
                projective=args.projective)
    _emit(args, format_presentation(p),
          {"presentation": format_presentation(p),
           "ngen": p.ngen,
           "relators": [words.format_word(r) for r in p.relators]})
    return 0


def _cmd_simplify(args):
    p = _load_presentation(args.presentation)
    res = simplify(p)
    s = res.presentation
    _emit(args, format_presentation(s),
          {"presentation": format_presentation(s),
           "ngen": s.ngen,
           "relators": [words.format_word(r) for r in s.relators],
           "moves_used": len(res.trace),
           "exhausted": res.exhausted})
    return 0


def _cmd_invariants(args):
    p = _load_presentation(args.presentation)
    b = invariant_bundle(p)
    d = b.as_dict()
    ab = d["abelianization"]
    text = (f"abelianization rank: {ab['free_rank']}\n"
            f"abelianization torsion: {ab['torsion']}\n"
            + "\n".join(f"hom-count {t}: "
                        + ("skipped (over budget)" if c is None else str(c))
                        for t, c in sorted(d["hom_counts"].items())))
    _emit(args, text, d)
    return 0


def _cmd_compare(args):
    p1 = _load_presentation(args.a)
    p2 = _load_presentation(args.b)
    v = compare(p1, p2)
    text = f"verdict: {v.kind}"
    if v.witness:
        text += (f"\nwitness: {v.witness[0]} "
                 f"{v.witness[1]} vs {v.witness[2]}")
    _emit(args, text, v.as_dict())
    return 0 if v.kind != "distinct" else 1


def _cmd_bigness(args):
    p = _load_presentation(args.presentation)
    report = bigness_certificate(p, _parse_kill(args.kill))
    d = report.as_dict()
    text = "\n".join(f"step {name}: {desc}" for name, desc in report.steps)
    _emit(args, text + "\nverified: big", d)
    return 0


def _cmd_verify_paper(args):
    if args.entry and not args.all:
        reports = [catalog.verify(args.entry)]
    else:
        reports = catalog.verify_all()
    width = max(len(r.entry_id) for r in reports)
    lines = [f"{'entry':<{width}}  {'verdict':<12}  {'bigness':<8}  result"
             "  arrangement",
             f"{'-' * width}  {'-' * 12}  {'-' * 8}  ------  -----------"]
    for r in reports:
        lines.append(f"{r.entry_id:<{width}}  {r.verdict:<12}  "
                     f"{'ok' if r.bigness else 'failed':<8}  "
                     f"{'PASS' if r.passed else 'FAIL':<6}  {r.description}")
    npass = sum(r.passed for r in reports)
    lines.append(f"{npass}/{len(reports)} passed")
    _emit(args, "\n".join(lines),
          {"reports": [r.as_dict() for r in reports],
           "passed": npass, "total": len(reports)})
    return 0 if npass == len(reports) else 1


# -- parser -----------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="conicline",
        description="Fundamental groups of conic-line arrangement "
                    "complements: braid monodromy, presentations, "
                    "invariants.")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local", help="print a local singularity model")
    p.add_argument("model", choices=list_models())
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("track", help="track a braid along a loop")
    p.add_argument("--poly", required=True,
                   help="curve polynomial, e.g. '(y+x^2)*(y-x^2)'")
    p.add_argument("--center", default="0", help="loop center a+bi")
    p.add_argument("--radius", default="1", help="loop radius (rational)")
    p.add_argument("--range", default="0:1", help="parameter range t0:t1")
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("present", help="presentation from a factorization "
                                       "or Lefschetz-pair table file")
    p.add_argument("--factorization", required=True)
    p.add_argument("--projective", action="store_true")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("simplify", help="Tietze-simplify a presentation")
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("invariants", help="invariant bundle of a "
                                          "presentation")
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("compare", help="compare two presentation files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify-paper", help="run the catalog verification "
                                            "suite")
    p.add_argument("entry", nargs="?",
                   help="single entry id (default: all)")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("bigness", help="run the bigness certificate")
    p.add_argument("--presentation", required=True)
    p.add_argument("--kill", default="",
                   help="comma-separated generators to kill first")
    p.set_defaults(func=_cmd_bigness)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConiclineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

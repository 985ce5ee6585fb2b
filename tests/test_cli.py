import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conicline import catalog
from conicline.cli import build_parser, main
from conicline.errors import ConiclineError
from conicline.presentations import format_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_local_text(capsys):
    code, out, _ = run(capsys, "local", "conic-conic-tangency")
    assert code == 0
    assert "s1^4" in out
    assert "x1 x2 x1 x2" in out


def test_local_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "local", "branch-point")
    assert code == 0
    data = json.loads(out)
    assert data["braid"] == "s1"
    assert data["strands"] == 2


def test_track(capsys):
    code, out, _ = run(capsys, "track", "--poly", "y^2-x",
                       "--center", "0", "--radius", "1",
                       "--range", "0:1", "--samples", "64")
    assert code == 0
    assert "braid: s1" in out


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that Python accepts."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_track_json_is_strict_and_one_strand_has_no_gap(capsys):
    code, out, _ = run(capsys, "--format", "json", "track", "--poly", "y",
                       "--samples", "8")
    assert code == 0
    data = _strict_json(out)
    assert data["strands"] == 1 and data["min_gap"] is None
    code, out, _ = run(capsys, "--format", "json", "track", "--poly",
                       "y^2-x", "--samples", "64")
    assert code == 0
    assert _strict_json(out)["min_gap"] > 0


def test_present_and_simplify_pipeline(tmp_path, capsys):
    from conicline.catalog import CONIC_PAIR_TABLE
    table = tmp_path / "table.txt"
    table.write_text(CONIC_PAIR_TABLE)
    code, out, _ = run(capsys, "present", "--factorization", str(table),
                       "--projective")
    assert code == 0
    pres = tmp_path / "raw.pres"
    pres.write_text(out)
    code, out, _ = run(capsys, "simplify", "--presentation", str(pres))
    assert code == 0
    assert out.startswith("gens: 2")


def test_invariants_and_compare(tmp_path, capsys):
    conic = tmp_path / "conic.pres"
    conic.write_text("gens: 2\nx1 x2 x1 x2\nx2 x1 x2 x1\n")
    f2 = tmp_path / "f2.pres"
    f2.write_text("gens: 2\n")
    code, out, _ = run(capsys, "invariants", "--presentation", str(conic))
    assert code == 0
    assert "rank: 1" in out
    assert "torsion: [2]" in out
    code, out, _ = run(capsys, "compare", str(conic), str(f2))
    assert code == 1
    assert "distinct" in out
    code, out, _ = run(capsys, "compare", str(conic), str(conic))
    assert code == 0
    assert "equivalent" in out


def test_invariants_reports_skipped_hom_count(tmp_path, capsys):
    # 43 S4 orbits x 24^5 rows exceed the default budget; S3 still fits
    free7 = tmp_path / "free7.pres"
    free7.write_text("gens: 7\n")
    code, out, _ = run(capsys, "invariants", "--presentation", str(free7))
    assert code == 0
    assert "hom-count S3: 279936" in out
    assert "hom-count S4: skipped" in out
    code, out, _ = run(capsys, "--format", "json", "invariants",
                       "--presentation", str(free7))
    assert code == 0
    assert json.loads(out)["hom_counts"] == {"S3": 6 ** 7, "S4": None}


# a random presentation whose unsimplified 10 x 8 exponent matrix once
# kept the Smith normal form busy for minutes
TEN_RELATORS = """gens: 8
x1^-2 x2^-1 x3^-2 x4 x5^-1 x6^-1 x7^-2 x8^-2
x2 x4^-2 x5^-2 x6^-1 x7^2 x8^-2
x1^2 x2 x3^-1 x4^-1 x5 x6^-2 x7^-1 x8^-1
x1^2 x2^-2 x7^2
x2^-1 x3^-2 x4 x5 x6^2 x7 x8^-1
x2^2 x3^-1 x4 x6^-1 x7^2 x8^-2
x1^2 x2^-2 x4 x5^-1 x6 x7^-2 x8
x1^-2 x2 x4 x5^-1 x6^-2 x7^-1 x8^-2
x1^-1 x2 x3^-1 x5^-2 x6 x8^-2
x1 x2^-1 x3 x4^2 x5^2 x6^-2 x7
"""


def test_invariants_of_ten_random_relators_finish(tmp_path):
    pres = tmp_path / "ten.pres"
    pres.write_text(TEN_RELATORS)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "conicline.cli",
                           "invariants", "--presentation", str(pres)],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "abelianization rank: 0" in proc.stdout
    assert "abelianization torsion: []" in proc.stdout


def test_import_generates_no_code_and_parses_no_equation():
    code = """
import sys
from conicline.polys import CurvePoly, format_poly
parsed = []
parse = CurvePoly.parse.__func__
CurvePoly.parse = classmethod(
    lambda cls, text: parsed.append(text) or parse(cls, text))
import conicline.cli
assert "dataclasses" not in sys.modules
assert parsed == [], parsed
from conicline.local_models import get_model, list_models
for name in list_models():
    model = get_model(name)
    text = format_poly(model.equation)
    assert model.equation is model.equation, name
    assert format_poly(CurvePoly.parse(model.equation_text)) == text, name
    assert CurvePoly.parse(text).coeffs == model.equation.coeffs, name
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_bigness(tmp_path, capsys):
    conic = tmp_path / "conic.pres"
    conic.write_text("gens: 2\nx1 x2 x1 x2\nx2 x1 x2 x1\n")
    code, out, _ = run(capsys, "bigness", "--presentation", str(conic))
    assert code == 0
    assert "x^2, y^3" in out


def test_bigness_of_a_free_group_takes_the_quotient(tmp_path, capsys):
    free = tmp_path / "free.pres"
    free.write_text("gens: 2\n")
    code, out, _ = run(capsys, "--format", "json", "bigness",
                       "--presentation", str(free))
    assert code == 0
    assert [s["step"] for s in json.loads(out)["steps"]] == \
        ["project", "quotient", "substitute", "torus"]


def test_generator_names_exit_2(tmp_path, capsys):
    named = tmp_path / "named.pres"
    named.write_text("gens: 2\nnames: a b\na b\n")
    code, _, err = run(capsys, "simplify", "--presentation", str(named))
    assert code == 2
    assert "names:" in err


def test_verify_paper_single(capsys):
    code, out, _ = run(capsys, "verify-paper", "conic-pair")
    assert code == 0
    assert "PASS" in out
    assert "two conics tangent to each other at two points" in out


def test_verify_paper_all_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify-paper", "--all")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == data["total"]
    ids = [r["entry"] for r in data["reports"]]
    assert ids == sorted(ids)
    for r in data["reports"]:
        assert r["description"] == catalog.get_entry(r["entry"]).description


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["simplify"]) == 2          # missing required option


def test_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "simplify", "--presentation",
                       "/nonexistent/file.pres")
    assert code == 2
    assert "error" in err


def test_present_reads_lefschetz_table_without_flag(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("strands: 3\n1 2 1 s2\n")
    code, plain, _ = run(capsys, "present", "--factorization", str(table))
    assert code == 0
    assert plain.split() == ["gens:", "3", "x2", "x1^-1", "x1", "x2^-1"]


def test_simplify_refuses_a_relator_too_long_to_index(tmp_path, capsys):
    # the factor u^-1 s1 u with u = (s1 s2^-1)^6, written as a bare word:
    # its relators of up to 67104 letters would need pass-3 indexes of
    # billions of letters
    fact = tmp_path / "f.txt"
    fact.write_text("strands: 3\n" + " ".join(["s2 s1^-1"] * 6 + ["s1"]
                                              + ["s1 s2^-1"] * 6) + "\n")
    code, out, _ = run(capsys, "present", "--factorization", str(fact))
    assert code == 0
    pres = tmp_path / "raw.pres"
    pres.write_text(out)
    code, out, err = run(capsys, "simplify", "--presentation", str(pres))
    assert code == 2 and out == ""
    assert "pass-3 indexes" in err


def test_compare_is_inconclusive_when_simplify_refuses_a_side(tmp_path,
                                                              capsys):
    # the presentation that simplify refuses above, against the conic pair
    fact = tmp_path / "f.txt"
    fact.write_text("strands: 3\n" + " ".join(["s2 s1^-1"] * 6 + ["s1"]
                                              + ["s1 s2^-1"] * 6) + "\n")
    code, out, _ = run(capsys, "present", "--factorization", str(fact))
    assert code == 0
    raw = tmp_path / "raw.pres"
    raw.write_text(out)
    conic = tmp_path / "conic.pres"
    conic.write_text("gens: 2\nx1 x2 x1 x2\nx2 x1 x2 x1\n")
    code, out, err = run(capsys, "--format", "json", "compare", str(raw),
                         str(conic))
    assert code == 0 and err == ""
    data = _strict_json(out)
    assert data["kind"] == "inconclusive"
    assert "left_invariants" not in data and "right_invariants" in data
    code, out, _ = run(capsys, "simplify", "--presentation", str(raw))
    assert code == 2 and out == ""


def test_present_reports_a_factorization_error_as_one(tmp_path, capsys):
    # the first row is a braid, so the file is read as a factorization
    # only, and the error names its generator, not a table row
    bad = tmp_path / "f.txt"
    bad.write_text("strands: 3\ns1 s5\n")
    code, _, err = run(capsys, "present", "--factorization", str(bad))
    assert code == 2
    assert "'s5'" in err
    assert "table" not in err


def test_bigness_refuses_a_generator_killed_twice(tmp_path, capsys):
    pres = tmp_path / "z2.pres"
    pres.write_text(format_presentation(
        catalog.expected_groups()["z2-plus-conic-pair"]))
    code, out, err = run(capsys, "bigness", "--presentation", str(pres),
                         "--kill", "1,1")
    assert code == 2
    assert "verified" not in out
    assert "'project'" in err and "x1 is killed twice" in err


@pytest.mark.parametrize("kill", ["1,x", "1,,2"])
def test_bigness_refuses_a_malformed_kill_list(tmp_path, capsys, kill):
    pres = tmp_path / "conic.pres"
    pres.write_text("gens: 2\nx1 x2 x1 x2\nx2 x1 x2 x1\n")
    code, out, err = run(capsys, "bigness", "--presentation", str(pres),
                         "--kill", kill)
    assert code == 2
    assert "verified" not in out
    assert "--kill" in err and "comma-separated" in err


def test_present_refuses_a_file_with_no_strands(tmp_path, capsys):
    empty = tmp_path / "f.txt"
    empty.write_text("strands: 0\n")
    code, out, err = run(capsys, "present", "--factorization", str(empty),
                         "--projective")
    assert code == 2
    assert out == ""
    assert "'strands:' count 0" in err


@pytest.mark.parametrize("argv, message", [
    (["--poly", "x/0+y"], "division"),
    (["--poly", "x"], "no strands"),
    (["--poly", "1"], "no strands"),
    (["--poly", "y^2-x", "--radius", "1e400"], "finite"),
    (["--poly", "y^2-x", "--center", "1e400"], "finite"),
    (["--poly", "y^2-x", "--radius", "1/0"], "bad radius"),
    (["--poly", "y^2-x", "--radius", "one"], "bad radius"),
])
def test_track_refuses_untrackable_input(capsys, argv, message):
    code, _, err = run(capsys, "track", *argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, text, message", [
    (["simplify"], "gens: -1\n", "generator count must be"),
    (["simplify"], "gens: 2\nx3\n", "generator beyond 2"),
    (["track", "--poly", "y^2-x", "--radius", "0"], "", "finite radius > 0"),
    (["track", "--poly", "y^2-x", "--samples", "4"], "", "at least 8"),
    (["track", "--poly", "y^2-x", "--samples", "100000000000000000000"], "",
     "at most 1048576"),
    (["track", "--poly", "y^2-x", "--range", "1:0"], "", "need t1 > t0"),
    (["track", "--poly", "10^400*y^2-x"], "", "beyond the float range"),
], ids=["negative-gens", "generator-beyond-gens", "radius-0", "samples-4",
        "samples-1e20", "empty-range", "huge-coefficient"])
def test_out_of_range_values_are_typed_refusals(tmp_path, capsys, argv, text,
                                                 message):
    if text:
        pres = tmp_path / "p.pres"
        pres.write_text(text)
        argv = [*argv, "--presentation", str(pres)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err
    # a ConiclineError, not a ValueError that main happens to catch
    args = build_parser().parse_args(argv)
    with pytest.raises(ConiclineError, match=message):
        args.func(args)


def test_track_overflowing_loop_exit_2(capsys):
    # x^2 leaves the float range on a finite loop of radius 1e200
    code, _, err = run(capsys, "track", "--poly", "y^2-x^2",
                       "--radius", "1e200")
    assert code == 2
    assert "overflows" in err and "x=(1e+200" in err


def test_track_overflowing_range_exit_2(capsys):
    code, _, err = run(capsys, "track", "--poly", "y^2-x^2",
                       "--range", "0:1e400")
    assert code == 2
    assert "bad range" in err

import json

import pytest

from conicline.cli import main


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


def test_verify_paper_all_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify-paper", "--all")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == data["total"]
    ids = [r["entry"] for r in data["reports"]]
    assert ids == sorted(ids)


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


@pytest.mark.parametrize("argv, message", [
    (["--poly", "x/0+y"], "division"),
    (["--poly", "x"], "no strands"),
    (["--poly", "1"], "no strands"),
    (["--poly", "y^2-x", "--radius", "1e400"], "finite"),
    (["--poly", "y^2-x", "--center", "1e400"], "finite"),
])
def test_track_refuses_untrackable_input(capsys, argv, message):
    code, _, err = run(capsys, "track", *argv)
    assert code == 2
    assert message in err


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

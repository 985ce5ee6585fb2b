import dataclasses
import hashlib
import json

import pytest

from conicline import catalog
from conicline.errors import ScriptStepFailed, UnknownModel
from conicline.invariants import (bigness_certificate, compare,
                                  invariant_bundle, verdict_sound)
from conicline.presentations import (format_presentation, parse_presentation)
from conicline.tietze import simplify

# sha256 of the JSON of (entry, verdict, passed, bigness_steps,
# expected_invariants) over verify_all(): pins every entry's outcome
VERIFY_ALL_DIGEST = \
    "934275d79bbeeff2c64967dc7d78034d3f5f70c6abb2c67fc798d788413c13b4"


def test_listing_is_sorted_and_stable():
    ids = catalog.list_entries()
    assert ids == sorted(ids)
    assert "conic-pair" in ids


def test_unknown_entry():
    with pytest.raises(UnknownModel):
        catalog.get_entry("no-such-arrangement")


def test_expected_groups_are_pairwise_separated():
    groups = catalog.expected_groups()
    names = sorted(groups)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            v = compare(groups[a], groups[b])
            assert v.kind == "distinct", (a, b)


def test_expected_presentations_round_trip_through_text():
    for eid in catalog.list_entries():
        e = catalog.get_entry(eid)
        q = parse_presentation(format_presentation(e.expected))
        assert q.ngen == e.expected.ngen
        assert q.relators == e.expected.relators


def test_verify_conic_pair():
    r = catalog.verify("conic-pair")
    assert r.verdict == "equivalent"
    assert r.passed
    assert "assemble" in r.stages


def test_verify_all_passes_and_is_deterministic():
    first = catalog.verify_all()
    assert all(r.passed for r in first), \
        [(r.entry_id, r.verdict, r.detail) for r in first if not r.passed]
    second = catalog.verify_all()
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]
    assert [r.entry_id for r in first] == sorted(r.entry_id for r in first)


def test_verify_all_reports_derived_and_encoded_entries():
    reports = [r.as_dict() for r in catalog.verify_all()]
    derived = [r for r in reports if r["stages"] != ["encode"]]
    assert len(derived) == 7 and len(reports) == 16
    for r in derived:
        assert r["stages"][:2] == ["assemble", "present"] \
            or r["stages"][0] == "presentation", r["entry"]
        assert r["computed_invariants"] is not None, r["entry"]
    for r in reports:
        if r["stages"] == ["encode"]:
            assert r["computed_invariants"] is None, r["entry"]
    rows = [(r["entry"], r["verdict"], r["passed"], r["bigness_steps"],
             r["expected_invariants"]) for r in reports]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest() == VERIFY_ALL_DIGEST


def test_verify_fails_an_entry_with_a_wrong_expected_group():
    entry = catalog.get_entry("one-line-both-tangencies")
    wrong = catalog.expected_groups()["conic-pair"]
    r = catalog.verify(dataclasses.replace(entry, expected=wrong))
    assert r.verdict == "distinct"
    assert not r.passed
    assert r.expected_bundle == invariant_bundle(wrong).as_dict()
    derived = simplify(entry.source[1]).presentation
    assert r.computed_bundle == invariant_bundle(derived).as_dict()
    assert r.computed_bundle != r.expected_bundle


def test_verify_reports_a_failed_bigness_step(monkeypatch):
    def fail(*args):
        raise ScriptStepFailed("torus", "no torus form")
    monkeypatch.setattr(catalog, "bigness_certificate", fail)
    r = catalog.verify("conic-pair")
    assert r.verdict == "equivalent"
    assert not r.passed
    assert "bigness failed: step 'torus' failed: no torus form" in r.detail


def test_verify_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise RuntimeError("not a verification failure")
    monkeypatch.setattr(catalog, "bigness_certificate", broken)
    with pytest.raises(RuntimeError, match="not a verification failure"):
        catalog.verify("conic-pair")


# -- the traces compare and the certificate hand out --------------------------

def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of repr((trace1, trace2, bigness trace)) of each entry's
# compare(subject, expected) and bigness certificate
ENTRY_TRACE_DIGESTS = {
    "conic-pair":
        "1226b19bd69b1eac9683a2b01e83b5558829d7320f884b1239cada5d1ca6ed2a",
    "listing-triple-square":
        "90da00cf6ea982dbf3c40d199b21f98b3c2917a5303655c65f27745d62db7325",
    "listing-z-plus-free":
        "97ca01dc0243df1bf46073ae2725d701b2fd2ce6757a19dea0a6c7cce321d41b",
    "listing-z-plus-square-commuting":
        "f7f1e4be36f3c83754a167bd99990c7a5ded224f73c1266a753932eb7cf8dfdc",
    "listing-z2-plus-conic-pair":
        "d687fd2e8b47698ad2f060ef6664778c6580987566f26caf3b503b3283dca359",
    "one-line-both-tangencies":
        "2bfc7123a5e9cdb1b418cd0dda13cef948c78b28be460428e818121b4b10c01f",
    "one-line-simple-tangent":
        "0a4250596b7d91570b4d44c262aeebde4e953d69b513ed988b9370b3d783bffb",
    "one-line-tangent-at-tangency":
        "819d9642d8125c2d0b9f485e45f1c8bd91f7de9ed3f9872e793ad1fdb090eac8",
    "one-line-through-tangency":
        "c7ba939eee962c1edfb0e5621f48085680f7cf1f5c4a30c0ad1ea1a63772a741",
    "one-line-transverse":
        "de7ff2ea7f9ca56ea64bf5652a7a0a424a1ab669e03a2f33bcb29a52500b2da9",
    "two-lines-both-tangencies":
        "36f4dd2e48dfa5da1ab94cd2f85dde19261366d48f6bf3bf1d8f36ec5da1f695",
    "two-lines-each-tangent":
        "f7f1e4be36f3c83754a167bd99990c7a5ded224f73c1266a753932eb7cf8dfdc",
    "two-lines-one-at-tangency":
        "5004447e327bc7080ad9ad5ca5df4042cc666c3a83baa70e37b8dba007781dbe",
    "two-lines-same-conic":
        "25d08921369cdbce8477194a82d5c088dadf708a313914a564cde96599b0c820",
    "two-lines-tangent-pair":
        "d7a25ca7fb02db2fb510b1ad2b719c3162d7cc377e9571736a21c4796d58b52a",
    "two-lines-transverse":
        "d687fd2e8b47698ad2f060ef6664778c6580987566f26caf3b503b3283dca359",
}

# sha256 of repr of (a, b, kind, trace1, trace2) of compare on the 36
# sorted pairs of expected groups
PAIR_TRACE_DIGEST = \
    "2a3e7d5bae81291bb75b28c4f6e0c89da09159ce09c0fc1177c2cd0c7b99bf54"


@pytest.mark.parametrize("entry_id", sorted(ENTRY_TRACE_DIGESTS))
def test_entry_trace_digest(entry_id):
    entry = catalog.get_entry(entry_id)
    derived, _ = catalog._derivation(entry)
    subject = entry.expected if derived is None else derived
    v = compare(subject, entry.expected)
    assert v.kind == "equivalent" and verdict_sound(subject, entry.expected, v)
    b = bigness_certificate(subject, entry.bigness_kill)
    assert _digest((v.trace1, v.trace2, b.trace)) == \
        ENTRY_TRACE_DIGESTS[entry_id]


def test_expected_group_pair_trace_digest():
    groups = catalog.expected_groups()
    names = sorted(groups)
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            v = compare(groups[a], groups[b])
            assert v.kind != "equivalent" or \
                verdict_sound(groups[a], groups[b], v), (a, b)
            rows.append((a, b, v.kind, v.trace1, v.trace2))
    assert len(rows) == 36
    assert _digest(rows) == PAIR_TRACE_DIGEST

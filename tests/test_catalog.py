import dataclasses
import hashlib
import json

import pytest

from conicline import catalog
from conicline.errors import ScriptStepFailed, UnknownModel
from conicline.invariants import compare, invariant_bundle
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
    derived = simplify(entry.source[1], 20000).presentation
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

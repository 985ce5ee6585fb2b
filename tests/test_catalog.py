import pytest

from conicline import catalog
from conicline.errors import ScriptStepFailed, UnknownModel
from conicline.invariants import compare, invariant_bundle
from conicline.presentations import (format_presentation, parse_presentation)


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


def test_crosscheck_targets_exist_and_agree():
    for eid in catalog.list_entries():
        e = catalog.get_entry(eid)
        if e.crosscheck:
            other = catalog.get_entry(e.crosscheck)
            assert invariant_bundle(e.expected) == \
                invariant_bundle(other.expected)


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

import pytest

from conicline import words
from conicline.braids import action_equal
from conicline.errors import UnknownModel
from conicline.local_models import get_model, list_models
from conicline.invariants import invariant_bundle
from conicline.presentations import Presentation
from conicline.tietze import simplify
from conicline.van_kampen import Factorization, present


def test_catalog_is_stable_and_sorted():
    ids = list_models()
    assert ids == sorted(ids)
    assert "branch-point" in ids
    assert "conic-conic-tangency" in ids


def test_unknown_model():
    with pytest.raises(UnknownModel):
        get_model("no-such-model")


def test_branch_point():
    m = get_model("branch-point")
    assert m.strands == 2
    assert m.braid.letters == (1,)
    # single relation x1 = x2
    assert [words.reduce(r) for r in m.paper_relations] == [(1, -2)]


def test_tangency_braid_is_fourth_power():
    m = get_model("conic-conic-tangency")
    assert m.braid.letters == (1, 1, 1, 1)
    assert m.half_braid.letters == (1, 1)


def test_symmetric_models_half_braid_squares_to_braid():
    for mid in ["conic-conic-tangency", "node", "simple-tangency",
                "3comp-rotation", "3comp-common-tangent"]:
        m = get_model(mid)
        assert action_equal(m.half_braid * m.half_braid, m.braid), mid


def test_induced_relations_match_paper_relations():
    # the relations induced by the Artin action generate the same group
    # as the printed relation set, for every model
    for mid in list_models():
        m = get_model(mid)
        induced = present(Factorization(m.strands, (m.braid,)))
        printed = Presentation(m.strands, m.paper_relations)
        a = simplify(induced).presentation
        b = simplify(printed).presentation
        assert invariant_bundle(a) == invariant_bundle(b), mid


def test_node_commutator_relation():
    m = get_model("node")
    got = {words.cyclic_normal_form(r) for r in m.paper_relations}
    want = {words.cyclic_normal_form((1, 2, -1, -2))}
    assert got == want

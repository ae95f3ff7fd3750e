"""
One live object per diagram pairing and per link-state sites tuple: every
route to a diagram or a state returns the object that already lives, so
equality is identity, and the tables that hold them are weak.
"""

import copy
import pickle

import pytest

from dilutetl.diagram_core import (DEFECT, VACANT, DiluteDiagram, enumerate_diagrams,
                                   identity, multiply_diagrams_raw, transpose_diagram)
from dilutetl.link_modules import (LinkState, act_diagram_raw, diagram_from_links,
                                   enumerate_links, links_of_diagram)

DIAG3 = enumerate_diagrams(3)
STATES3 = [v for k in range(4) for v in enumerate_links(3, k)]


def test_equality_and_hash_are_identity():
    for cls in (DiluteDiagram, LinkState):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls


def test_every_diagram_route_returns_the_live_diagram():
    for d in DIAG3:
        assert DiluteDiagram(3, list(d.pairing)) is d
        assert DiluteDiagram.from_pairs(3, d.pairs()) is d
        assert DiluteDiagram.from_json_dict(d.to_json_dict()) is d
        assert transpose_diagram(transpose_diagram(d)) is d
    assert [a is b for a, b in zip(enumerate_diagrams(3), DIAG3)] == [True] * len(DIAG3)


def test_a_glued_product_with_a_unit_term_is_the_factor_itself():
    units = list(identity(3).terms)
    for d in DIAG3:
        glued = [multiply_diagrams_raw.__wrapped__(d, u) for u in units]
        assert [t is d for _loops, t in glued if t is not None] == [True], d


def test_every_state_route_returns_the_live_state():
    for v in STATES3:
        assert LinkState(list(v.sites)) is v
        assert LinkState.from_text(v.text()) is v
    k_of = {v: v.defect_count() for v in STATES3}
    for x in STATES3:
        for y in STATES3:
            if k_of[x] == k_of[y]:
                left, right = links_of_diagram(diagram_from_links(x, y))
                assert left is x and right is y, (x, y)


def test_an_action_by_a_unit_term_is_the_state_itself():
    units = list(identity(3).terms)
    for v in STATES3:
        acted = [act_diagram_raw.__wrapped__(u, v) for u in units]
        assert [w is v for _loops, w in acted if w is not None] == [True], v


@pytest.mark.parametrize("obj", [DIAG3[17], STATES3[5]], ids=["diagram", "state"])
def test_pickle_and_copies_return_the_live_object(obj):
    assert pickle.loads(pickle.dumps(obj)) is obj
    assert copy.copy(obj) is obj
    assert copy.deepcopy(obj) is obj
    assert copy.deepcopy([obj, obj])[0] is obj


def test_lookalike_points_are_rejected_beside_their_live_object():
    """Validation comes before the lookup: (True, 0) == (1, 0), yet it is no pairing."""
    live_diagram, live_state = DiluteDiagram(1, (1, 0)), LinkState((1, 0))
    assert DiluteDiagram(1, [1, 0]) is live_diagram and LinkState([1, 0]) is live_state
    for points in ((True, 0), (1.0, 0)):
        with pytest.raises(ValueError):
            DiluteDiagram(1, points)
        with pytest.raises(ValueError):
            LinkState(points)


def test_an_object_no_one_holds_leaves_its_table():
    """At 41 sites, no other test and no memo holds these two."""
    pairing = (81, 2, 1) + (VACANT,) * 78 + (0,)
    sites = (DEFECT, 2, 1) + (VACANT,) * 38
    d, v = DiluteDiagram(41, pairing), LinkState(sites)
    assert DiluteDiagram._live[pairing] is d and LinkState._live[sites] is v
    del d, v
    assert pairing not in DiluteDiagram._live and sites not in LinkState._live

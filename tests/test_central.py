"""The tile-built central element, its eigenvalues and their separation."""

import json
import os

import pytest

from helpers import build_F_enumerated, embed_bottom

from dilutetl import central
from dilutetl.ring import GENERIC, LaurentPoly, beta, root_of_unity
from dilutetl.diagram_core import AlgebraElem, DiluteDiagram, crossing_count, transpose
from dilutetl.link_modules import LinComb, act, base_vd_state, theta
from dilutetl.central import (build_F, check_central, check_eigenvalue, delta,
                              delta_distinct, delta_distinct_predicted)
from dilutetl.tl_reference import is_critical

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl",
                      "goldens", "central_small.json")


@pytest.mark.parametrize("key,n", [("F1", 1), ("F2", 2)])
def test_small_expansions_match_golden(key, n):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[key]
    want = {DiluteDiagram.from_json_dict(t["diagram"]):
            LaurentPoly.parse(t["coeff"]) for t in golden["terms"]}
    assert build_F(n).terms == want


@pytest.mark.parametrize("n,mode", [(n, mode) for n in (1, 2, 3, 4)
                                    for mode in [GENERIC] + [root_of_unity(m)
                                                             for m in (4, 6, 8)]]
                         + [(5, GENERIC), (5, root_of_unity(6))], ids=repr)
def test_row_transfer_matches_enumeration(n, mode):
    assert build_F(n, mode).terms == build_F_enumerated(n, mode).terms


def test_root_element_reads_the_generic_memo_entry():
    """
    A root-of-unity element specialises the generic one, so this is one
    memo entry, which the short and the long call form both read.
    """
    build_F.cache_clear()
    build_F(3, root_of_unity(6))
    hits = build_F.cache_info().hits
    build_F(3, GENERIC)
    build_F(3)
    assert build_F.cache_info().hits == hits + 2


def _mutated_F(monkeypatch, k, change, target):
    """
    Patch central.build_F to return, in the target mode, F with `change`
    applied to the coefficient of its first term (in sort order) with k
    crossing strings; a change that returns None drops the term.
    """
    build = central.build_F

    def mutant(n, mode=GENERIC):
        if mode is not target:  # the generic F that a root element specialises
            return build(n, mode)
        terms = dict(build(n, mode).terms)
        d = min((d for d in terms if crossing_count(d) == k), key=DiluteDiagram.sort_key)
        c = change(terms.pop(d), mode)
        if c is not None:
            terms[d] = c
        return AlgebraElem(n, mode, terms)

    monkeypatch.setattr(central, "build_F", mutant)


# beta is 1 at a sixth root of unity, so the scaled term is checked at m = 8
@pytest.mark.parametrize("change,mode", [
    (lambda c, mode: None, GENERIC), (lambda c, mode: None, root_of_unity(6)),
    (lambda c, mode: c * beta(mode), GENERIC),
    (lambda c, mode: c * beta(mode), root_of_unity(8))],
    ids=["drop-generic", "drop-m6", "times_beta-generic", "times_beta-m8"])
@pytest.mark.parametrize("k", range(4))
def test_centre_checks_reject_a_mutated_F(monkeypatch, change, mode, k):
    """One changed term of F, acting on U(3, k), fails both checks."""
    _mutated_F(monkeypatch, k, change, mode)
    assert not check_central(3, mode)
    assert not check_eigenvalue(3, k, mode)


@pytest.mark.parametrize("n,mode", [(5, GENERIC), (6, GENERIC),
                                    (5, root_of_unity(6)), (6, root_of_unity(6))],
                         ids=repr)
def test_central_and_eigenvalues_beyond_criterion_5(n, mode):
    assert check_central(n, mode)
    for k in range(n + 1):
        assert check_eigenvalue(n, k, mode), k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutes_with_generators(n):
    assert check_central(n)
    assert check_central(n, root_of_unity(6))


@pytest.mark.parametrize("mode", [GENERIC, root_of_unity(4), root_of_unity(6)])
def test_eigenvalue_on_standard_modules(mode):
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert check_eigenvalue(n, k, mode)


def test_transpose_symmetric_observed():
    # observed property at small sizes; not relied upon anywhere
    for n in (1, 2, 3):
        f = build_F(n)
        assert transpose(f) == f


def test_delta_values():
    assert delta(0) == LaurentPoly({1: 1, -1: 1})
    assert delta(1) == LaurentPoly({2: 1, -2: 1})
    mode = root_of_unity(6)
    assert delta(2, mode) == mode.const(-2)  # q^3 = -1 at a sixth root
    assert delta(0, root_of_unity(4)).is_zero()  # loop weight zero at q = i


@pytest.mark.parametrize("mode", [GENERIC] + [root_of_unity(m)
                                              for m in (3, 4, 5, 6, 8, 10)])
def test_delta_separation_rule(mode):
    for j in range(9):
        for k in range(9):
            assert delta_distinct(j, k, mode) == \
                delta_distinct_predicted(j, k, mode)


@pytest.mark.parametrize("m", [4, 6])
def test_nonscalar_on_induced_at_criticality(m):
    """
    At a critical defect number the embedded element moves the projected
    induced vector off the lower eigenvalue: (F - delta_{k-1}) v != 0 for
    v the image of the projector-tensor vector in the one-larger module.
    """
    mode = root_of_unity(m)
    ell = mode.ell
    tested = 0
    for n in (2, 3):
        f = embed_bottom(build_F(n, mode))
        for k in range(n):
            if not is_critical(k, ell):
                continue
            z = base_vd_state(n - 1, k)
            v = theta(-1, theta(1, z))
            assert v.n == n + 1 and v.defect_count() == k
            w = act(f, v, quotient_k=k)
            dv = LinComb.from_state(v, mode, delta(k - 1, mode))
            assert not (w - dv).is_zero(), (m, n, k)
            tested += 1
    assert tested > 0

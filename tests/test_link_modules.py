"""Link states, standard modules and the action of the algebra."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import act_fold, enumerate_dense_links, frac_rank

from dilutetl.ring import GENERIC, LaurentPoly, beta, root_of_unity
from dilutetl.central import build_F
from dilutetl.diagram_core import (DEFECT, VACANT, AlgebraElem, DiluteDiagram, all_generators,
                                   enumerate_diagrams, identity,
                                   multiply_diagrams_raw, transpose)
from dilutetl.link_modules import (LinComb, LinkState, act, act_diagram,
                                   act_diagram_raw,
                                   base_vd_state, diagram_from_links,
                                   dim_standard, enumerate_links,
                                   enumerate_vd_states, induced_basis,
                                   links_of_diagram, phi_iso, restriction_psi,
                                   theta)
from dilutetl.gram import gram_product

settings.register_profile("fixed", derandomize=True, max_examples=40)
settings.load_profile("fixed")


@settings(max_examples=300)
@given(st.text(alphabet="VD()x", max_size=10))
def test_from_text_roundtrips_or_raises_value_error(text):
    try:
        state = LinkState.from_text(text)
    except ValueError:
        return
    assert state.text() == text


def test_text_roundtrip():
    for n in range(1, 6):
        for k in range(n + 1):
            for v in enumerate_links(n, k):
                assert LinkState.from_text(v.text()) == v


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        LinkState.from_text("(D)")  # defect under an arc would cross it
    with pytest.raises(ValueError):
        LinkState.from_text("((")
    with pytest.raises(ValueError):
        LinkState.from_text("())")
    with pytest.raises(ValueError):
        LinkState((2, VACANT, 1))  # partners that do not point at each other
    with pytest.raises(ValueError):
        LinkState((2, 3, 0, 1))  # crossing arcs


def test_planar_rule_exhaustive():
    """
    The constructors accept exactly the states and diagrams that the
    enumerators build by other algorithms, and reject every entry that is
    neither a partner index nor a marker (a DEFECT in a diagram).
    """
    for n in range(6):
        want = {v for k in range(n + 1) for v in enumerate_links(n, k)}
        assert _accepted(LinkState, product((VACANT, DEFECT, *range(n)), repeat=n)) == want, n
    for n in range(4):
        got = _accepted(lambda p: DiluteDiagram(n, p),
                        product((VACANT, DEFECT, *range(2 * n)), repeat=2 * n))
        assert got == set(enumerate_diagrams(n)), n
    for bad in ("x", 1.0, True, None, "V", "D", -3, -1.0):
        for make in (lambda: LinkState((bad, 0)), lambda: LinkState((VACANT, bad)),
                     lambda: DiluteDiagram(1, (bad, 0)),
                     lambda: DiluteDiagram(1, (bad, VACANT))):
            with pytest.raises(ValueError):
                make()


def _accepted(make, candidates):
    """The objects that `make` builds from the candidates without ValueError."""
    out = set()
    for c in candidates:
        try:
            out.add(make(c))
        except ValueError:
            pass
    return out


def test_enumeration_matches_dimension():
    for n in range(0, 7):
        for k in range(n + 1):
            assert len(enumerate_links(n, k)) == dim_standard(n, k)


def test_dense_enumeration_matches_filtered():
    """The states without vacancies, built directly, in the filtered order."""
    for n in range(11):
        for k in range(-1, n + 2):
            want = tuple(v for v in enumerate_links(n, k) if VACANT not in v.sites)
            assert enumerate_dense_links(n, k) == want, (n, k)


def test_dimension_table_small():
    # spot values including a fifty-one and the one-defect column
    assert dim_standard(6, 0) == 51
    assert dim_standard(8, 1) == 512
    assert [dim_standard(4, k) for k in range(5)] == [9, 12, 9, 4, 1]
    assert dim_standard(3, 5) == 0 and dim_standard(3, -1) == 0


def test_dimension_past_a_thousand_sites():
    # past the interpreter's default recursion limit; the defect-free module
    # is counted by the Motzkin numbers, (n + 2) M_n = (2n + 1) M_(n-1) + (3n - 3) M_(n-2)
    n = 1100
    motzkin = [1, 1]
    for m in range(2, n + 1):
        motzkin.append(((2 * m + 1) * motzkin[-1] + (3 * m - 3) * motzkin[-2]) // (m + 2))
    assert dim_standard(n, 0) == motzkin[n]
    assert dim_standard(n, n) == 1 and dim_standard(n, n - 1) == n


def test_vacancy_blocks_are_contiguous():
    for n, k in ((4, 0), (5, 1), (5, 2)):
        basis = enumerate_links(n, k)
        seen = []
        for v in basis:
            vac = v.vacancy_positions()
            if not seen or seen[-1] != vac:
                assert vac not in seen, "vacancy blocks must be contiguous"
                seen.append(vac)


DIAG3 = enumerate_diagrams(3)


@given(st.sampled_from(DIAG3), st.sampled_from(DIAG3),
       st.integers(0, 3), st.integers(0, 3))
def test_action_is_associative(d1, d2, k, vi):
    states = enumerate_links(3, k)
    if not states:
        return
    v = states[vi % len(states)]
    a, b = AlgebraElem.from_diagram(d1), AlgebraElem.from_diagram(d2)
    assert act(a * b, v, quotient_k=k) == act(a, act(b, v, quotient_k=k),
                                              quotient_k=k)


def test_identity_acts_trivially():
    for n in (2, 3):
        e = identity(n)
        for k in range(n + 1):
            for v in enumerate_links(n, k):
                assert act(e, v) == LinComb.from_state(v)


def test_absorption():
    """|x y~| z = <y, z> x inside the k-defect quotient."""
    for n, k in ((3, 0), (3, 1), (4, 2), (4, 0)):
        basis = enumerate_links(n, k)
        for x in basis[:3]:
            for y in basis:
                u = AlgebraElem.from_diagram(diagram_from_links(x, y))
                for z in basis:
                    got = act(u, z, quotient_k=k)
                    coeff = gram_product(y, z)
                    want = LinComb(n, GENERIC,
                                   {x: coeff} if coeff else {})
                    assert got == want, (x, y, z)


def test_gram_invariance():
    """<x, u y> = <u^t x, y> for every generator, exhaustively at n=3."""
    n = 3
    for k in range(n + 1):
        basis = enumerate_links(n, k)
        for _lab, u in all_generators(n):
            ut = transpose(u)
            for x in basis:
                for y in basis:
                    lhs = GENERIC.zero()
                    for z, c in act(u, y, quotient_k=k).terms.items():
                        lhs = lhs + gram_product(x, z) * c
                    rhs = GENERIC.zero()
                    for z, c in act(ut, x, quotient_k=k).terms.items():
                        rhs = rhs + gram_product(z, y) * c
                    assert lhs == rhs


def test_links_of_diagram_roundtrip():
    for n, k in ((3, 1), (4, 2)):
        basis = enumerate_links(n, k)
        for x in basis:
            for y in basis:
                d = diagram_from_links(x, y)
                assert links_of_diagram(d) == (x, y)


def test_theta_surgery():
    v = LinkState.from_text("VD")
    assert theta(1, v).text() == "VDD"
    assert theta(0, v).text() == "VDV"
    assert theta(-1, v).text() == "V()"
    assert theta(-1, LinkState.from_text("VV")) is None


def test_restriction_exactness():
    """
    The bottom-removal map is onto the (k+1)-defect basis one size down;
    exactness in the middle is `checks.exact_sequence`, run by the
    acceptance criterion 7.
    """
    for n in range(2, 7):
        for k in range(1, n):
            onto = {restriction_psi(v) for v in enumerate_links(n, k)
                    if restriction_psi(v) is not None}
            assert onto == set(enumerate_links(n - 1, k + 1))


def test_restriction_psi_of_empty_state_raises():
    with pytest.raises(ValueError, match="0-site state has no bottom site"):
        restriction_psi(LinkState(()))


def test_induced_basis_counts_and_bijection():
    """phi_iso maps the induced basis onto U(n+2, k); `checks.induced_bases` counts both."""
    for n in range(1, 7):
        for k in range(n + 1):
            images = {phi_iso(i, u) for i, u in induced_basis(n, k)}
            assert images == set(enumerate_links(n + 2, k))


def test_vd_states():
    assert len(enumerate_vd_states(5, 2)) == 10
    assert base_vd_state(4, 1).text() == "VVVD"
    for v in enumerate_vd_states(4, 2):
        assert not v.arcs() and v.defect_count() == 2


def test_standard_module_is_cyclic():
    """
    Acting with all diagrams on the all-defect-and-vacancy generator spans
    the module; rank is certified at the rational point q = 3/2.
    """
    for n in (2, 3):
        for k in range(n + 1):
            basis = enumerate_links(n, k)
            index = {v: i for i, v in enumerate(basis)}
            gen = base_vd_state(n, k)
            rows = []
            for d in enumerate_diagrams(n):
                out = act_diagram(d, gen, GENERIC, quotient_k=k)
                row = [Fraction(0)] * len(basis)
                for v, c in out.terms.items():
                    row[index[v]] = c.subs_fraction(Fraction(3, 2))
                rows.append(row)
            assert frac_rank(rows) == len(basis), (n, k)


@pytest.mark.parametrize("mode", [GENERIC, root_of_unity(6), root_of_unity(8)],
                         ids=["generic", "m6", "m8"])
def test_act_matches_term_fold(mode):
    """
    act sums into one dict; the oracle folds term by term.  Every
    generator and F act on each state and on a signed combination of all
    the states (whose terms can cancel), with and without the quotient.
    """
    for n in range(1, 5):
        elems = [g for _label, g in all_generators(n, mode)] + [build_F(n, mode)]
        for k in range(n + 1):
            states = enumerate_links(n, k)
            mix = LinComb(n, mode, {v: mode.q_power(i % 3) * (-1) ** i
                                    for i, v in enumerate(states)})
            for u in elems:
                for v in (*states, mix):
                    for qk in (None, k):
                        assert act(u, v, qk) == act_fold(u, v, qk), (n, k, u, v, qk)


def test_memoised_actions_match_fresh_validated_glue():
    """
    Every diagram on every link state at n <= 3: the memoised action
    equals a fresh glue, and its unchecked state passes the validating
    constructor with the same vacancy mask.
    """
    for n in (1, 2, 3):
        states = [v for k in range(n + 1) for v in enumerate_links(n, k)]
        for d in enumerate_diagrams(n):
            for v in states:
                loops, w = act_diagram_raw(d, v)
                assert (loops, w) == act_diagram_raw.__wrapped__(d, v)
                if w is None:
                    assert d.east != v.west
                    continue
                assert w.n == n and LinkState(w.sites).west == w.west == d.west


def test_glue_memos_are_shared_across_modes():
    """
    The product and action memos hold ring-free results: m = 6 products
    and actions read from memos that GENERIC filled equal those computed
    after the memos are cleared.
    """
    m6 = root_of_unity(6)

    def results(mode):
        out = []
        for n in range(1, 5):
            f = build_F(n, mode)
            gens = [g for _label, g in all_generators(n, mode)]
            out += [f * g for g in gens] + [g * f for g in gens] + [g * g for g in gens]
            for k in range(n + 1):
                out += [act(u, v, k) for u in [f] + gens for v in enumerate_links(n, k)]
        return out

    results(GENERIC)
    warm = results(m6)
    multiply_diagrams_raw.cache_clear()
    act_diagram_raw.cache_clear()
    assert results(m6) == warm

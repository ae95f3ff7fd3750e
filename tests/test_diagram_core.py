"""Dilute diagrams, their product, generators and filtration."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import motzkin, mul_fold, product_loops

from dilutetl.ring import GENERIC, root_of_unity
from dilutetl.diagram_core import (DEFECT, VACANT, AlgebraElem, DiluteDiagram,
                                   all_generators, by_west, crossing_count,
                                   enumerate_diagrams, generator, glue,
                                   glued_sum, identity, multiply_diagrams_raw,
                                   parity_split, projector_pi,
                                   reduce_mod_ideal, transpose,
                                   transpose_diagram)
from dilutetl.link_modules import (LinkState, act_diagram, base_vd_state,
                                   enumerate_links)
from dilutetl.gram import gram_product
from dilutetl.central import build_F

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

settings.register_profile("fixed", derandomize=True, max_examples=40)
settings.load_profile("fixed")

DIAG3 = enumerate_diagrams(3)
diag3 = st.sampled_from(DIAG3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagram_count_is_motzkin(n):
    assert len(enumerate_diagrams(n)) == motzkin(2 * n)


def test_enumeration_cap():
    with pytest.raises(ResourceWarning):
        enumerate_diagrams(7)


def test_crossing_pairs_rejected():
    with pytest.raises(ValueError):
        DiluteDiagram.from_pairs(2, [(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        DiluteDiagram(2, (1, 2, 0, None))  # not an involution
    with pytest.raises(ValueError):
        DiluteDiagram(2, (1, 0, None))  # wrong number of slots
    with pytest.raises(ValueError):
        DiluteDiagram(1, (1, 4))  # partner out of range


@pytest.mark.parametrize("pairs", [[(0, 7)], [(0, -1)], [(4, 0)]])
def test_slots_out_of_range_rejected(pairs):
    with pytest.raises(ValueError, match="outside"):
        DiluteDiagram.from_pairs(2, pairs)
    with pytest.raises(ValueError, match="outside"):
        DiluteDiagram.from_json_dict({"n": 2, "pairs": [list(p) for p in pairs]})


def test_memoised_products_match_fresh_validated_glue():
    """
    Every pair of diagrams at n <= 3: the memoised product equals a fresh
    glue, and its unchecked result passes the validating constructor
    with the same masks.
    """
    for n in (1, 2, 3):
        diagrams = enumerate_diagrams(n)
        for a in diagrams:
            for b in diagrams:
                loops, d = multiply_diagrams_raw(a, b)
                assert (loops, d) == multiply_diagrams_raw.__wrapped__(a, b)
                if d is None:
                    assert a.east != b.west
                    continue
                checked = DiluteDiagram(n, d.pairing)
                assert (d.west, d.east) == (checked.west, checked.east) == (a.west, b.east)


def test_product_loops_match_a_union_find_count():
    """
    Every nonzero product at 1 <= n <= 3 closes as many loops as the
    glued graph has components with an occupied slot and no outer slot.
    """
    nonzero = with_loops = 0
    for n in (1, 2, 3):
        diagrams = enumerate_diagrams(n)
        for a in diagrams:
            for b in diagrams:
                loops, d = multiply_diagrams_raw.__wrapped__(a, b)
                if d is not None:
                    assert loops == product_loops(a, b), (a, b)
                    nonzero += 1
                    with_loops += loops > 0
    assert (nonzero, with_loops) == (382, 102)


def test_malformed_input_raises_under_optimize():
    # the checks must not be asserts, which python -O strips
    # the internal checks are made to fail by breaking one side of a
    # cross-check or the helper a ring check guards
    code = "\n".join([
        "from math import gcd",
        "from dilutetl import central, link_modules, ring, structure",
        "from dilutetl.diagram_core import VACANT, AlgebraElem, DiluteDiagram, identity",
        "from dilutetl.link_modules import (LinComb, LinkState, act, diagram_from_links,",
        "                                   restriction_psi, theta)",
        "from dilutetl.gram import gram_nullity",
        "from dilutetl.ring import (GENERIC, CrossCheckError, CycloElem, QMode,",
        "                           _poly_divmod, cyclotomic_poly, qnum, root_of_unity)",
        "def odd_half_power():",
        "    central._LEFT_WEIGHT['a'] = (2, 1)",
        "    central.build_F(2)",
        "def unbalanced():",
        "    structure.algebra_dim = lambda n: 0",
        "    structure.regular_decomposition(3, root_of_unity(6))",
        "def formulas_disagree():",
        "    link_modules._trinomial = lambda n, k: 0",
        "    link_modules.dim_standard(3, 1)",
        "def remainder_left():",  # later cases build Phi_m again: restore the helper
        "    ring._poly_divmod = lambda a, b: ([0], [1])",
        "    try:",
        "        cyclotomic_poly(4)",
        "    finally:",
        "        ring._poly_divmod = _poly_divmod",
        "def norm_not_rational():",
        "    ring.gcd = lambda a, b: 1",  # conjugates by every k, not only the units mod m
        "    try:",
        "        (root_of_unity(6).q_power(1) + 1).inv()",
        "    finally:",
        "        ring.gcd = gcd",
        "def bottom_arc_broken():",
        "    v = object.__new__(LinkState)",  # skips the constructor's checks
        "    v.n, v.sites = 2, (VACANT, 5)",
        "    restriction_psi(v)",
        "d2 = identity(2).terms",
        "u1, u2 = LinkState.from_text('D'), LinkState.from_text('DD')",
        "s1, s2 = LinComb.from_state(u1), LinComb.from_state(u2)",
        "m6, m8 = root_of_unity(6), root_of_unity(8)",
        "cases = [(ValueError, lambda: DiluteDiagram(2, (2, 3, 0, 1))),",
        "         (ValueError, lambda: DiluteDiagram(2, (1, 2, 0, VACANT))),",
        "         (ValueError, lambda: DiluteDiagram.from_json_dict(",
        "             {'n': 1, 'pairs': [[0, 1]], 'vacant': [0]})),",
        "         (ValueError, lambda: LinkState.from_text('(D)')),",
        "         (ValueError, lambda: GENERIC.q_power(1) ** -1),",
        "         (ZeroDivisionError, lambda: m6.zero().inv()),",
        "         (CrossCheckError, odd_half_power),",
        "         (CrossCheckError, unbalanced),",
        "         (CrossCheckError, formulas_disagree),",
        "         (TypeError, lambda: m6.q_power(1) + m8.q_power(1)),",
        "         (TypeError, lambda: GENERIC.one() + m6.one()),",
        "         (TypeError, lambda: m6.one() + GENERIC.one()),",
        "         (TypeError, lambda: GENERIC.one() * m6.one()),",
        "         (TypeError, lambda: m6.one() * GENERIC.one()),",
        "         (ValueError, lambda: CycloElem(2, {0: 1})),",
        "         (ValueError, lambda: cyclotomic_poly(0)),",
        "         (ZeroDivisionError, lambda: _poly_divmod([1, 1], [0])),",
        "         (ValueError, lambda: QMode('bogus')),",
        "         (ValueError, lambda: gram_nullity(3, 1, GENERIC)),",
        "         (ValueError, lambda: qnum(-1)),",
        "         (ZeroDivisionError, lambda: GENERIC.q_power(1).subs_fraction(0)),",
        "         (TypeError, lambda: m6.q_power(1).subs_fraction(2)),",
        "         (TypeError, lambda: CycloElem.parse('1*q^0')),",
        "         (CrossCheckError, remainder_left),",
        "         (CrossCheckError, norm_not_rational),",
        "         (ValueError, lambda: AlgebraElem(1, GENERIC, d2)),",
        "         (ValueError, lambda: identity(1) + identity(2)),",
        "         (ValueError, lambda: identity(2) + identity(2, m6)),",
        "         (ValueError, lambda: AlgebraElem(1) * identity(2)),",
        "         (ValueError, lambda: LinComb(1, GENERIC, s2.terms)),",
        "         (ValueError, lambda: s1 + s2),",
        "         (ValueError, lambda: act(AlgebraElem(1), u2)),",
        "         (ValueError, lambda: act(identity(2, m6), s2)),",
        "         (ValueError, lambda: diagram_from_links(u1, u2)),",
        "         (ValueError, lambda: diagram_from_links(u2, LinkState.from_text('()'))),",
        "         (ValueError, lambda: theta(2, u1)),",
        "         (CrossCheckError, bottom_arc_broken),",
        "         (ValueError, lambda: central.check_eigenvalue(3, 7)),",
        "         (ValueError, lambda: central.check_eigenvalue(2, -1)),",
        "         (ValueError, lambda: structure.verify_cellularity(2, 5)),",
        "         (ValueError, lambda: structure.verify_cellularity(2, -1)),",
        "         (ValueError, lambda: structure.pair_info(0, 1, 3)),",
        "         (ValueError, lambda: structure.irr_dims_recurrence(3, 1))]",
        "for i, (error, make) in enumerate(cases):",
        "    try:",
        "        make()",
        "    except error:",
        "        continue",
        "    raise SystemExit('case %d accepted' % i)",
        "for a, b in ((GENERIC.one(), m6.one()), (m6.one(), GENERIC.one()),",
        "             (m6.one(), m8.one())):",
        "    if a == b:",
        "        raise SystemExit('%r == %r across rings' % (a, b))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # a stripped guard can leave a loop that never ends: fail, do not stall
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr


def test_glue_closed_loop():
    # an arc of each piece, glued at both ends: one loop, no open path
    assert glue([1, 0, 3, 2], [2, 3, 0, 1]) == ({}, 1)


def test_glue_defect_to_defect():
    # defect 0 -- seam -- arc 1-2 -- seam -- defect 3
    assert glue([DEFECT, 2, 1, DEFECT], [1, 0, 3, 2]) == ({0: 3, 3: 0}, 0)


def test_glue_outer_to_outer():
    # outer 0 -- arc -- 1 -- seam -- 2 -- arc -- outer 3, beside a loop 4..7
    inner = [1, 0, 3, 2, 5, 4, 7, 6]
    seam = [-1, 2, 1, -1, 6, 7, 4, 5]
    assert glue(inner, seam) == ({0: 3, 3: 0}, 1)


def test_glue_vacancy_mismatch():
    # a string reaches the seam where the other piece has a vacancy
    assert glue([1, 0, -1, -1], [-1, 2, 1, -1]) is None
    assert glue([-1, -1, 3, 2], [-1, 2, 1, -1]) is None
    # vacancy against vacancy is no mismatch
    assert glue([-1, -1, -1], [-1, 2, 1]) == ({}, 0)


def test_callers_reject_mismatched_sizes():
    d1, d2 = enumerate_diagrams(1)[0], enumerate_diagrams(2)[0]
    with pytest.raises(ValueError):
        multiply_diagrams_raw(d1, d2)
    with pytest.raises(ValueError):
        act_diagram(d2, LinkState.from_text("D"))
    with pytest.raises(ValueError):
        gram_product(LinkState.from_text("DD"), LinkState.from_text("()"))
    with pytest.raises(ValueError):
        gram_product(LinkState.from_text("D"), LinkState.from_text("DV"))
    with pytest.raises(ValueError):
        build_F(0)


def test_identity_neutral():
    for n in (1, 2, 3):
        e = identity(n)
        assert len(e.terms) == 2 ** n
        for d in enumerate_diagrams(n):
            a = AlgebraElem.from_diagram(d)
            assert e * a == a and a * e == a


@given(diag3, diag3, diag3)
def test_associativity(d1, d2, d3):
    a, b, c = (AlgebraElem.from_diagram(d) for d in (d1, d2, d3))
    assert (a * b) * c == a * (b * c)


@given(diag3, diag3)
def test_transpose_anti_involution(d1, d2):
    a, b = AlgebraElem.from_diagram(d1), AlgebraElem.from_diagram(d2)
    assert transpose(transpose(a)) == a
    assert transpose(a * b) == transpose(b) * transpose(a)


@given(diag3, diag3)
def test_filtration_monotone(d1, d2):
    _loops, d = multiply_diagrams_raw(d1, d2)
    if d is not None:
        assert crossing_count(d) <= min(crossing_count(d1), crossing_count(d2))


@given(diag3, diag3, st.integers(0, 3))
def test_ideal_reduction_compatible(d1, d2, k):
    """Terms below the filtration level stay below it after multiplying."""
    a, b = AlgebraElem.from_diagram(d1), AlgebraElem.from_diagram(d2)
    low = a - reduce_mod_ideal(a, k)  # terms with < k crossings
    for d in (low * b).terms:
        assert crossing_count(d) < k
    for d in (b * low).terms:
        assert crossing_count(d) < k


def test_parity_orthogonality():
    """Products across the even/odd split vanish; within it they stay put."""
    n = 2
    diags = enumerate_diagrams(n)
    whole = AlgebraElem(n, GENERIC, {d: GENERIC.one() for d in diags})
    ev, od = parity_split(whole)
    assert (ev * od).is_zero() and (od * ev).is_zero()
    assert parity_split(ev * ev)[1].is_zero()
    assert parity_split(od * od)[0].is_zero()


def test_parity_counts():
    for d in enumerate_diagrams(3):
        left = d.left_vacancy_count()
        right = sum(1 for s in range(3, 6) if d.pairing[s] == VACANT)
        assert left % 2 == right % 2


def test_generator_transposes():
    n = 3
    for i in (1, 2):
        assert transpose(generator("b", i, n)) == generator("bt", i, n)
        assert transpose(generator("a", i, n)) == generator("at", i, n)
    for i in (1, 2, 3):
        assert transpose(generator("e", i, n)) == generator("e", i, n)
        assert transpose(generator("x", i, n)) == generator("x", i, n)


def test_generator_index_errors():
    with pytest.raises(IndexError):
        generator("e", 4, 3)
    with pytest.raises(IndexError):
        generator("b", 3, 3)
    with pytest.raises(ValueError):
        generator("z", 1, 3)


def test_all_generators_count():
    labels = [lab for lab, _ in all_generators(4)]
    assert len(labels) == len(set(labels)) == 2 * 4 + 4 * 3


def test_projector_idempotent():
    for n, k in ((2, 1), (3, 2), (4, 2)):
        p = projector_pi(base_vd_state(n, k))
        assert p * p == p
        assert transpose(p) == p


def test_mode_mixing_supported():
    mode = root_of_unity(6)
    e = identity(2, mode)
    for d in enumerate_diagrams(2):
        a = AlgebraElem.from_diagram(d, mode)
        assert e * a == a


def test_json_roundtrip():
    for d in enumerate_diagrams(3):
        assert DiluteDiagram.from_json_dict(d.to_json_dict()) == d


RECORDS = [d.to_json_dict() for n in range(5) for d in enumerate_diagrams(n)]
slot = st.one_of(st.integers(-1, 8), st.floats(0, 8), st.booleans(), st.text(max_size=1))
json_records = st.one_of(
    st.sampled_from(RECORDS),
    # a real record whose vacant list may contradict its pairs
    st.tuples(st.sampled_from(RECORDS), st.lists(st.integers(-1, 8), max_size=8)).map(
        lambda rv: {**rv[0], "vacant": rv[1]}),
    st.fixed_dictionaries({}, optional={
        "n": st.one_of(st.integers(-1, 4), st.text(max_size=2), st.floats(0, 4),
                       st.booleans(), st.none()),
        "pairs": st.one_of(st.lists(st.lists(slot, max_size=3), max_size=4),
                           st.integers(0, 3), st.text(max_size=2)),
        "vacant": st.one_of(st.lists(st.integers(-1, 8), max_size=8), st.none())}),
    st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=2)))


@settings(max_examples=300)
@given(json_records)
def test_from_json_dict_builds_or_raises_value_error(record):
    """
    Every record (n <= 4) either builds a diagram with the record's pairs and
    vacant slots, which round-trips through to_json_dict, or raises ValueError.
    """
    try:
        d = DiluteDiagram.from_json_dict(record)
    except ValueError:
        return
    assert {tuple(sorted(p)) for p in record["pairs"]} == set(d.pairs())
    assert record.get("vacant", d.vacant_slots()) == d.vacant_slots()
    assert DiluteDiagram.from_json_dict(d.to_json_dict()) == d


def test_transpose_diagram_is_mirror():
    d = DiluteDiagram.from_pairs(2, [(0, 1)])
    assert transpose_diagram(d).pairs() == [(2, 3)]


def test_vacancy_masks_match_sites():
    """
    A diagram's west/east and a state's west are the per-site vacancy
    patterns as bit masks.
    """
    for n in range(1, 5):
        for d in enumerate_diagrams(n):
            west = sum(1 << s for s in range(n) if d.pairing[s] == VACANT)
            east = sum(1 << s for s in range(n)
                       if d.pairing[2 * n - 1 - s] == VACANT)
            assert (d.west, d.east) == (west, east), d
    for n in range(7):
        for k in range(n + 1):
            for v in enumerate_links(n, k):
                assert v.west == sum(1 << i for i, s in enumerate(v.sites)
                                    if s == VACANT), v


@pytest.mark.parametrize("mode", [GENERIC, root_of_unity(6), root_of_unity(8)],
                         ids=["generic", "m6", "m8"])
def test_mul_matches_pair_fold(mode):
    """
    The product glues only mask-matched pairs; the oracle glues every
    pair.  Every pair of generators, F times each generator on both
    sides, and a +-1 combination of all diagrams squared and times each
    generator on both sides (whose terms cancel in every mode).
    """
    for n in range(1, 5):
        gens = [g for _label, g in all_generators(n, mode)]
        f = build_F(n, mode)
        pairs = [(a, b) for a in gens for b in gens]
        pairs += [(f, g) for g in gens] + [(g, f) for g in gens]
        if n <= 3:
            mix = AlgebraElem(n, mode, {d: mode.const((-1) ** i)
                                        for i, d in enumerate(enumerate_diagrams(n))})
            pairs += [(mix, mix)] + [(mix, g) for g in gens] + [(g, mix) for g in gens]
        for a, b in pairs:
            assert a * b == mul_fold(a, b), (n, a, b)


def test_crossing_filtered_glued_sum_matches_reduced_fold():
    """
    The kernel with the crossing filter, as the cellularity check calls
    it (the left operand as pairs, the right grouped by west mask), equals
    the oracle's full product reduced modulo the ideal of diagrams with
    fewer than k crossings: every pair at n <= 3, every k.
    """
    for n in (1, 2, 3):
        elems = [AlgebraElem.from_diagram(d) for d in enumerate_diagrams(n)]
        for a in elems:
            for d in elems:
                full = mul_fold(a, d)
                for k in range(n + 1):
                    got = glued_sum(a.terms.items(), by_west(d.terms),
                                    multiply_diagrams_raw, GENERIC,
                                    lambda t: crossing_count(t) >= k)
                    assert got == reduce_mod_ideal(full, k).terms, (a, d, k)

"""
Acceptance gate: eight exact, falsifiable criteria covering the algebra
dimension, the three bundled dimension tables, the Gram determinant, the
central element, the worked-example goldens, the property suites and the
root-of-unity structure bookkeeping.  Run with -v for one line per
criterion.
"""

import csv
import json
import os
import random
from math import comb

from helpers import motzkin

from dilutetl.ring import GENERIC, LaurentPoly, beta, root_of_unity
from dilutetl.diagram_core import (AlgebraElem, DiluteDiagram, all_generators,
                                   crossing_count, enumerate_diagrams,
                                   multiply_diagrams_raw, parity_split,
                                   transpose)
from dilutetl.link_modules import (LinComb, LinkState, act, act_diagram,
                                   _trinomial, diagram_from_links,
                                   dim_standard, enumerate_links,
                                   induced_basis, phi_iso, restriction_phi,
                                   restriction_psi)
from dilutetl.tl_reference import dim_v
from dilutetl.gram import (dim_irreducible, dim_irreducible_formula,
                           gram_det_closed, gram_det_direct, gram_product,
                           gram_nullity, radical_basis)
from dilutetl.central import build_F, check_central, check_eigenvalue
from dilutetl.structure import (algebra_dim, cartan_matrix,
                                decomposition_matrix, irr_dims_recurrence,
                                pair_info, principal_dims,
                                verify_cellularity)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl",
                          "goldens")


def _golden_rows(name):
    with open(os.path.join(GOLDEN_DIR, name), newline="",
              encoding="utf-8") as fh:
        return [[int(v) for v in row] for row in csv.reader(fh)]


def _golden_json(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_criterion_1_algebra_dimension():
    """Diagram counts and sums of squared module dimensions are Motzkin."""
    for n in range(1, 6):
        assert len(enumerate_diagrams(n)) == motzkin(2 * n), n
    for n in range(0, 11):
        assert algebra_dim(n) == motzkin(2 * n), n
    assert algebra_dim(8) == 853467


def test_criterion_2_standard_dimension_table():
    """The bundled standard-dimension table, by two formulas and by count."""
    golden = _golden_rows("dims_standard.csv")
    for n in range(0, 11):
        for k in range(n + 1):
            by_blocks = sum(comb(n, k + 2 * p) * dim_v(k + 2 * p, k)
                            for p in range((n - k) // 2 + 1))
            by_trinomial = _trinomial(n, k) - _trinomial(n, k + 2)
            assert by_blocks == by_trinomial == golden[n][k], (n, k)
            assert dim_standard(n, k) == golden[n][k]
    for n in range(0, 7):
        for k in range(n + 1):
            assert len(enumerate_links(n, k)) == golden[n][k], (n, k)


def test_criterion_3_irreducible_dimension_tables():
    """Both bundled irreducible tables, three independent ways."""
    for m, name in ((6, "dims_irreducible_ell3.csv"),
                    (8, "dims_irreducible_ell4.csv")):
        mode = root_of_unity(m)
        ell = mode.ell
        golden = _golden_rows(name)
        table = irr_dims_recurrence(10, ell)
        assert [list(r) for r in table] == golden, m
        for n in range(0, 11):
            for k in range(n + 1):
                assert dim_irreducible_formula(n, k, ell) == golden[n][k]
        for n in range(0, 8):
            for k in range(n + 1):
                assert dim_irreducible(n, k, mode) == golden[n][k], (n, k, m)


def test_criterion_4_gram_determinant():
    """Closed-form determinant equals the direct one exactly, n <= 5."""
    for n in range(1, 6):
        for k in range(n + 1):
            direct = gram_det_direct(n, k)
            closed = gram_det_closed(n, k)
            assert direct == closed, (n, k)


def test_criterion_5_central_element():
    """Small expansions, centrality and eigenvalues of the tile element."""
    golden = _golden_json("central_small.json")
    for key, n in (("F1", 1), ("F2", 2)):
        want = {DiluteDiagram.from_json_dict(t["diagram"]):
                LaurentPoly.parse(t["coeff"]) for t in golden[key]["terms"]}
        assert build_F(n).terms == want, key
    for n in range(1, 5):
        assert check_central(n), n
    modes = [GENERIC] + [root_of_unity(m) for m in (4, 6, 8)]
    for mode in modes:
        for n in range(1, 6):
            for k in range(n + 1):
                assert check_eigenvalue(n, k, mode), (n, k, mode)


def test_criterion_6_worked_examples():
    """The bundled product, action and pairing fixtures reproduce."""
    g = _golden_json("worked_examples.json")
    for case in g["products"]:
        a = DiluteDiagram.from_json_dict(case["a"])
        b = DiluteDiagram.from_json_dict(case["b"])
        loops, d = multiply_diagrams_raw(a, b)
        if case["result"] is None:
            assert d is None, case
        else:
            assert d is not None and d.to_json_dict() == case["result"]
            assert loops == case["loops"], case
    for case in g["actions"]:
        d = DiluteDiagram.from_json_dict(case["diagram"])
        v = LinkState.from_text(case["state"])
        out = act_diagram(d, v, GENERIC)
        if case["result"] is None:
            assert out.is_zero(), case
        else:
            want = LinkState.from_text(case["result"])
            assert out.terms == {want: beta() ** case["loops"]}, case
    for case in g["gram"]:
        x = LinkState.from_text(case["x"])
        y = LinkState.from_text(case["y"])
        assert gram_product(x, y) == LaurentPoly.parse(case["value"]), case


def test_criterion_7_property_suites():
    """Algebraic identities on seeded samples plus exhaustive small cases."""
    rng = random.Random(20260825)
    # associativity, anti-involution, filtration on seeded diagram triples
    for n in (2, 3):
        diags = enumerate_diagrams(n)
        for _ in range(25):
            d1, d2, d3 = (rng.choice(diags) for _ in range(3))
            a, b, c = (AlgebraElem.from_diagram(d) for d in (d1, d2, d3))
            assert (a * b) * c == a * (b * c)
            assert transpose(a * b) == transpose(b) * transpose(a)
            _loops, prod = multiply_diagrams_raw(d1, d2)
            assert prod is None or crossing_count(prod) <= min(
                crossing_count(d1), crossing_count(d2))
    # parity-ideal orthogonality
    for n in (2, 3):
        whole = AlgebraElem(n, GENERIC, {d: GENERIC.one()
                                         for d in enumerate_diagrams(n)})
        ev, od = parity_split(whole)
        assert (ev * od).is_zero() and (od * ev).is_zero()
    # Gram invariance and absorption on seeded samples
    for n, k in ((3, 0), (3, 1), (4, 2)):
        basis = enumerate_links(n, k)
        gens = all_generators(n)
        for _ in range(20):
            x, y, z = (rng.choice(basis) for _ in range(3))
            _lab, u = rng.choice(gens)
            lhs = GENERIC.zero()
            for w, cw in act(u, y, quotient_k=k).terms.items():
                lhs = lhs + gram_product(x, w) * cw
            rhs = GENERIC.zero()
            for w, cw in act(transpose(u), x, quotient_k=k).terms.items():
                rhs = rhs + gram_product(w, y) * cw
            assert lhs == rhs
            sandwich = AlgebraElem.from_diagram(diagram_from_links(x, y))
            got = act(sandwich, z, quotient_k=k)
            coeff = gram_product(y, z)
            assert got == LinComb(n, GENERIC, {x: coeff} if coeff else {})
    # radical closure: radical vectors stay orthogonal after any generator
    for n, k, m in ((4, 0, 6), (4, 2, 8), (3, 0, 4)):
        mode = root_of_unity(m)
        basis = enumerate_links(n, k)
        for vec in radical_basis(n, k, mode):
            comb = LinComb(n, mode, {v: c for v, c in zip(basis, vec) if c})
            for _lab, u in all_generators(n, mode):
                moved = act(u, comb, quotient_k=k)
                for x in basis:
                    pairing = mode.zero()
                    for v, c in moved.terms.items():
                        pairing = pairing + gram_product(x, v, mode) * c
                    assert pairing.is_zero(), (n, k, m, _lab)
    # cellularity of the diagram basis up to size four
    for n in range(1, 5):
        for k in range(n + 1):
            assert verify_cellularity(n, k), (n, k)
    # bottom-site exact sequences and the induced-basis bijection
    for n in range(2, 7):
        for k in range(1, n):
            image = set()
            for dc in (k - 1, k):
                for v in enumerate_links(n - 1, dc):
                    image.add(restriction_phi(v, k))
            kernel = {v for v in enumerate_links(n, k)
                      if restriction_psi(v) is None}
            assert image == kernel, (n, k)
    for n in range(1, 7):
        for k in range(n + 1):
            bset = induced_basis(n, k)
            assert len(bset) == dim_standard(n + 2, k)
            images = {phi_iso(i, u) for i, u in bset}
            assert len(images) == len(bset)


def test_criterion_8_structure_bookkeeping():
    """Pair dualities, exact-sequence sums, regular totals, Cartan shape."""
    for m in (4, 6, 8):
        mode = root_of_unity(m)
        ell = mode.ell
        for n in range(1, 8):
            dimL = {k: dim_standard(n, k) - gram_nullity(n, k, mode)
                    for k in range(n + 1)}
            dimR = {k: gram_nullity(n, k, mode) for k in range(n + 1)}
            for k in range(n + 1):
                info = pair_info(k, ell, n)
                if info["critical"] or not info["k_plus_in_range"]:
                    continue
                kp = info["k_plus"]
                assert dimR[k] == dimL[kp], (n, k, m)
                assert dim_standard(n, k) == dimL[k] + dimL[kp], (n, k, m)
            pd = principal_dims(n, ell)
            total = sum(dimL[k] * pd[k] for k in range(n + 1))
            assert total == motzkin(2 * n), (n, m)
            c = cartan_matrix(n, ell)
            d = decomposition_matrix(n, ell)
            size = n + 1
            assert c == [[sum(d[i][a] * d[i][b] for i in range(size))
                          for b in range(size)] for a in range(size)]
            for i in range(size):
                for j in range(size):
                    assert c[i][j] == c[j][i]

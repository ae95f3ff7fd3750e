"""
Acceptance gate: eight exact, falsifiable criteria covering the algebra
dimension, the three bundled dimension tables, the Gram determinant, the
central element, the worked-example goldens, the property suites and the
root-of-unity structure bookkeeping.  Run with -v for one line per
criterion.
"""

import csv
import os
import random
from math import comb

from helpers import holds, motzkin

from dilutetl import checks
from dilutetl.ring import GENERIC, root_of_unity
from dilutetl.diagram_core import all_generators, enumerate_diagrams
from dilutetl.link_modules import (LinComb, act, _trinomial, dim_standard,
                                   enumerate_links)
from dilutetl.tl_reference import dim_v
from dilutetl.gram import (dim_irreducible, dim_irreducible_formula, gram_product,
                           gram_nullity, radical_basis)
from dilutetl.structure import (algebra_dim, cartan_matrix,
                                decomposition_matrix, irr_dims_recurrence,
                                pair_info, principal_dims)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl",
                          "goldens")


def _golden_rows(name):
    with open(os.path.join(GOLDEN_DIR, name), newline="",
              encoding="utf-8") as fh:
        return [[int(v) for v in row] for row in csv.reader(fh)]


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
        holds(checks.determinants(n))


def test_criterion_5_central_element():
    """Small expansions, centrality and eigenvalues of the tile element."""
    holds(checks.central_goldens())
    for n in range(1, 5):
        holds(checks.centrality(n))
    for mode in [GENERIC] + [root_of_unity(m) for m in (4, 6, 8)]:
        for n in range(1, 6):
            holds(checks.eigenvalues(n, mode))


def test_criterion_6_worked_examples():
    """The bundled product, action and pairing fixtures reproduce."""
    holds(checks.product_goldens())
    holds(checks.action_goldens())
    holds(checks.gram_goldens())


def test_criterion_7_property_suites():
    """Algebraic identities on seeded samples plus exhaustive small cases."""
    rng = random.Random(20260825)
    for n in (2, 3):
        holds(checks.product_laws(n, 25, rng))
        holds(checks.parity(n, len(enumerate_diagrams(n)), rng))  # the whole algebra
    for n, k in ((3, 0), (3, 1), (4, 2)):
        holds(checks.invariance(n, k, 20, rng))
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
    for n in range(1, 5):
        holds(checks.cellularity(n))
    for n in range(2, 7):
        holds(checks.exact_sequence(n))
    for n in range(1, 7):
        holds(checks.induced_bases(n))


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

"""The bilinear form: matrices, determinants, radicals and nullities."""

import random
from fractions import Fraction
from itertools import groupby
from math import gcd

import pytest
import sympy

from dilutetl.ring import (GENERIC, LaurentPoly, beta, qnum, real_cyclotomic_poly,
                           root_of_unity)
from dilutetl.diagram_core import VACANT, all_generators
from dilutetl.link_modules import (LinComb, LinkState, act, dim_standard,
                                   enumerate_links)
from dilutetl.gram import (dim_irreducible, dim_irreducible_formula,
                           gram_blocks, gram_det_closed, gram_det_direct,
                           gram_determinants, gram_matrix, gram_nullity, gram_product,
                           radical_basis, tl_gram_matrix, _apply, _bareiss, _bareiss_det,
                           _dense_det, _dense_loops, _dense_nullspace, _divider,
                           _null_vectors, _nullity_field, _nullspace_field, _pair_loops,
                           _times_table, _tl_nullity)
from dilutetl.structure import dim_irr
from dilutetl.tl_reference import det_gram_tl


def test_gram_product_basics():
    x = LinkState.from_text("(V)")
    assert gram_product(x, x) == beta()
    assert gram_product(LinkState.from_text("()D"),
                        LinkState.from_text("D()")) == GENERIC.one()
    # vacancy mismatch
    assert gram_product(LinkState.from_text("VVD"),
                        LinkState.from_text("D()")).is_zero()
    # a path joining two defects of the same state
    assert gram_product(LinkState.from_text("()DD"),
                        LinkState.from_text("DD()")).is_zero()


def test_gram_symmetric():
    for n, k in ((3, 1), (4, 0), (4, 2)):
        mat = gram_matrix(n, k)
        size = len(mat)
        for i in range(size):
            for j in range(size):
                assert mat[i][j] == mat[j][i]


def test_block_structure():
    for n, k in ((4, 0), (5, 1), (5, 3)):
        basis = enumerate_links(n, k)
        blocks = gram_blocks(n, k)
        assert sum(e - s for s, e, _ in blocks) == len(basis)
        for s, e, occ in blocks:
            vacancies = {basis[i].vacancy_positions() for i in range(s, e)}
            assert len(vacancies) == 1 and n - len(vacancies.pop()) == occ


def test_gram_blocks_match_enumerated_basis():
    """The block table, built from dense sizes, against the whole basis."""
    for n in range(11):
        for k in range(-1, n + 2):
            want, start = [], 0
            for vac, group in groupby(enumerate_links(n, k),
                                      key=LinkState.vacancy_positions):
                end = start + len(list(group))
                want.append((start, end, n - len(vac)))
                start = end
            assert gram_blocks(n, k) == tuple(want), (n, k)


def test_modules_out_of_range_are_empty():
    """No module U(n, k) outside 0 <= k <= n: dimension 0, determinant 1."""
    modes = [GENERIC] + [root_of_unity(m) for m in (4, 6, 8)]
    for n in range(7):
        for k in (-2, -1, n + 1, n + 2):
            assert dim_standard(n, k) == 0
            for ell in (2, 3, 4):
                assert dim_irr(n, k, ell) == 0
                assert dim_irreducible_formula(n, k, ell) == 0
            for mode in modes:
                assert dim_irreducible(n, k, mode) == 0
                if mode.kind == "root":
                    assert gram_nullity(n, k, mode) == 0
                assert gram_det_direct(n, k, mode) == mode.one()
                assert gram_det_closed(n, k, mode) == mode.one()


@pytest.mark.parametrize("m", [None, 4, 5, 6, 8])
def test_gram_matrix_equals_pairing_oracle(m):
    """
    The block-assembled matrix equals the pairing of every two states,
    off-block zeros included.
    """
    mode = GENERIC if m is None else root_of_unity(m)
    for n in range(7):
        for k in range(n + 1):
            basis = enumerate_links(n, k)
            want = [[gram_product(u, v, mode) for v in basis] for u in basis]
            assert gram_matrix(n, k, mode) == want, (n, k, m)


def test_known_determinants():
    assert gram_det_direct(2, 0) == beta()
    assert gram_det_direct(3, 1) == qnum(3)
    assert gram_det_closed(3, 1) == qnum(3)


@pytest.mark.parametrize("n", range(1, 5))
def test_det_closed_vs_direct(n):
    for k in range(n + 1):
        direct = gram_det_direct(n, k)
        closed = gram_det_closed(n, k)
        assert direct == closed, (n, k)


def test_det_closed_vs_direct_n8():
    """
    The largest determinants, whose coefficient bound is the tightest and
    whose digits are the widest: each dense block on 8 sites against its
    closed form, then each module product.
    """
    for k in range(0, 9, 2):
        assert _dense_det(8, k) == det_gram_tl(8, k), k
    for k in range(9):
        assert gram_det_direct(8, k) == gram_det_closed(8, k), k


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 10])
def test_det_closed_vs_direct_at_roots(m):
    """Fraction-free elimination divides exactly in the cyclotomic field."""
    mode = root_of_unity(m)
    for n in range(6):
        for k in range(n + 1):
            direct = gram_det_direct(n, k, mode)
            assert direct == gram_det_closed(n, k, mode), (n, k, m)


def _dense_sizes(max_m):
    """Every (m, k) with a nonempty dense module on at most max_m sites."""
    return [(m, k) for m in range(max_m + 1) for k in range(m % 2, m + 1, 2)]


def test_dense_loops_match_ordered_pairs():
    """The mirrored upper triangle equals gluing every ordered pair."""
    for m, k in _dense_sizes(8):
        basis = [v for v in enumerate_links(m, k) if VACANT not in v.sites]
        want = tuple(tuple(_pair_loops(u.sites, v.sites) for v in basis) for u in basis)
        assert _dense_loops(m, k) == want, (m, k)


def test_integer_det_matches_ring_bareiss():
    """The determinant through Z[beta] -> Z equals Bareiss on Laurent cells."""
    for m, k in _dense_sizes(7):
        assert _dense_det(m, k) == _bareiss_det(tl_gram_matrix(m, k)), (m, k)


@pytest.mark.parametrize("r", [5, 6, 8])
def test_integer_det_matches_ring_bareiss_at_roots(r):
    mode = root_of_unity(r)
    for m, k in _dense_sizes(6):
        want = _bareiss_det(tl_gram_matrix(m, k, mode), mode)
        assert mode.convert(_dense_det(m, k)) == want, (m, k, r)


def test_det_nonzero_generically():
    for n in range(1, 5):
        for k in range(n + 1):
            assert not gram_det_direct(n, k).is_zero()


@pytest.mark.parametrize("m", [4, 6])
def test_nullity_block_assembly(m):
    """Block-assembled nullity equals the nullity of the whole matrix."""
    mode = root_of_unity(m)
    for n in range(1, 6):
        for k in range(n + 1):
            whole = _nullity_field(gram_matrix(n, k, mode))
            assert gram_nullity(n, k, mode) == whole, (n, k, m)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_echelon_radical_matches_field_elimination(m):
    """
    Back-substitution on the echelon over Z[beta] gives, cell for cell,
    the nullspace basis read off the reduced row echelon form over
    Q(zeta_m), and the nullity is that basis's length.
    """
    mode = root_of_unity(m)
    for n in range(9 if m in (6, 8) else 8):
        for k in range(n % 2, n + 1, 2):
            want = _nullspace_field(tl_gram_matrix(n, k, mode), mode)
            assert [list(v) for v in _dense_nullspace(n, k, mode)] == want, (n, k, m)
            assert _tl_nullity(n, k, mode) == len(want), (n, k, m)


def test_divider_is_the_least_integer_multiple_of_the_inverse():
    """
    For every m with d = phi(m)/2 >= 2 and seeded random nonzero a in
    Z[beta] = Z[x]/(psi_m), `_divider` gives a* and D with a * a* = D,
    D > 0 and gcd(D, a*) = 1: D is the least positive integer divisible
    by a.
    """
    rng = random.Random(11)
    for m in range(5, 41):
        psi = real_cyclotomic_poly(m)
        d = len(psi) - 1
        if d < 2:
            continue
        for bound in (1, 9, 1000) * 5:
            a = tuple(rng.randint(-bound, bound) for _ in range(d))
            if not any(a):
                continue
            table, den = _divider(a, psi)
            star = tuple(row[0] for row in table)  # the first column: a* times 1
            assert _apply(_times_table(a, psi), star) == (den,) + (0,) * (d - 1), (m, a)
            assert den > 0 and gcd(den, *star) == 1, (m, a, den, star)


def test_null_vectors_of_any_integer_rows_match_sympy():
    """
    The back-substitution takes any echelon, not only a Gram block's: on
    seeded random integer matrices of every shape and rank (zero rows and
    columns included), eliminated over Z, it gives sympy's nullspace basis.
    """
    rng = random.Random(3)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        base = [[rng.randint(-4, 4) for _ in range(cols)]
                for _ in range(rng.randint(0, min(rows, cols)))]
        mat = [[sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(cols)]
               for _ in range(rows)]
        got = _null_vectors(_bareiss([[row] for row in mat], (0, 1))[0], cols, (0, 1))
        want = [[Fraction(int(v.p), int(v.q)) for v in vec]
                for vec in sympy.Matrix(mat).nullspace()]
        assert [[c for (c,) in vec] for vec in got] == want, mat


def _random_rows(rng, rows, cols, d):
    """
    A rows x cols matrix of random rank over Z[beta], each cell d
    coordinates: every row an integer combination of random base rows.
    """
    base = [[[rng.randint(-4, 4) for _ in range(d)] for _ in range(cols)]
            for _ in range(rng.randint(0, min(rows, cols)))]
    out = []
    for _ in range(rows):
        f = [rng.randint(-2, 2) for _ in base]
        out.append([tuple(sum(c * b[j][i] for c, b in zip(f, base)) for i in range(d))
                    for j in range(cols)])
    return out


def test_nullspace_field_reads_the_matrix_width():
    """
    The field oracle gives one null vector per free column of a matrix of
    any shape, each as long as a row: sympy's basis on integer matrices,
    and `_null_vectors`' on matrices over Z[beta] at m = 5.
    """
    mode, psi = root_of_unity(5), real_cyclotomic_poly(5)
    b = beta(mode)
    one_by_four = [[mode.const(c) for c in (1, 2, 0, -1)]]
    assert [len(v) for v in _nullspace_field(one_by_four, mode)] == [4, 4, 4]
    rng = random.Random(5)
    for _ in range(60):
        mat = _random_rows(rng, rng.randint(1, 5), rng.randint(1, 6), 1)
        want = [[mode.const(Fraction(int(v.p), int(v.q))) for v in vec]
                for vec in sympy.Matrix([[c for (c,) in row] for row in mat]).nullspace()]
        got = _nullspace_field([[mode.const(c) for (c,) in row] for row in mat], mode)
        assert got == want, mat
    for _ in range(40):
        cols = rng.randint(1, 5)
        mat = _random_rows(rng, rng.randint(1, 4), cols, 2)
        vectors = _null_vectors(_bareiss([[list(c) for c in zip(*row)] for row in mat], psi)[0],
                                cols, psi)
        want = [[c0 + c1 * b for c0, c1 in vec] for vec in vectors]
        cells = [[c0 + c1 * b for c0, c1 in row] for row in mat]
        assert _nullspace_field(cells, mode) == want, mat


def test_nullity_field_is_columns_minus_rank():
    """
    The field oracle's nullity counts the free columns of a matrix of any
    shape: 3 for the row (1, 2, 0, -1), 0 for the column (1, 2, 3), and
    columns minus sympy's rank on seeded integer matrices at m = 5.
    """
    mode = root_of_unity(5)

    def cells(mat):
        return [[mode.const(c) for c in row] for row in mat]

    assert _nullity_field(cells([[1, 2, 0, -1]])) == 3
    assert _nullity_field(cells([[1], [2], [3]])) == 0
    rng = random.Random(11)
    for rows in range(1, 6):
        for cols in range(1, 6):
            for _ in range(3):
                mat = [[c for (c,) in row] for row in _random_rows(rng, rows, cols, 1)]
                want = cols - sympy.Matrix(mat).rank()
                assert _nullity_field(cells(mat)) == want, mat


@pytest.mark.parametrize("m", [4, 6, 8])
def test_irreducible_dimension_routes_agree(m):
    mode = root_of_unity(m)
    ell = mode.ell
    for n in range(1, 7):
        for k in range(n + 1):
            by_nullity = dim_irreducible(n, k, mode)
            assert by_nullity == dim_irreducible_formula(n, k, ell)
            assert by_nullity == dim_irr(n, k, ell)


def test_radical_is_orthogonal_and_invariant():
    """
    Radical vectors pair to zero with the whole basis, and stay radical
    under the action of every generator.
    """
    cases = [(4, 0, 6), (4, 1, 6), (3, 0, 4), (4, 2, 8), (5, 1, 6)]
    for n, k, m in cases:
        mode = root_of_unity(m)
        basis = enumerate_links(n, k)
        rad = radical_basis(n, k, mode)
        assert len(rad) == gram_nullity(n, k, mode)
        gens = all_generators(n, mode)
        for vec in rad:
            comb = LinComb(n, mode,
                           {v: c for v, c in zip(basis, vec) if c})
            for x in basis:
                pairing = mode.zero()
                for v, c in comb.terms.items():
                    pairing = pairing + gram_product(x, v, mode) * c
                assert pairing.is_zero()
            for _lab, u in gens:
                moved = act(u, comb, quotient_k=k)
                for x in basis:
                    pairing = mode.zero()
                    for v, c in moved.terms.items():
                        pairing = pairing + gram_product(x, v, mode) * c
                    assert pairing.is_zero(), (n, k, m, _lab)


def test_generic_radical_empty():
    # generic nullity guard: the assembled nullity requires a root mode
    with pytest.raises(ValueError):
        gram_nullity(3, 1, GENERIC)
    assert dim_irreducible(4, 2) == dim_standard(4, 2)


def test_gram_determinants_share_one_product():
    """Agreeing factors give one determinant object, equal to both products."""
    for mode in (GENERIC, root_of_unity(6)):
        for n in range(7):
            for k in range(n + 1):
                direct, closed = gram_determinants(n, k, mode)
                assert direct is closed, (n, k, mode)
                assert direct == gram_det_direct(n, k, mode) == gram_det_closed(n, k, mode)

"""
The bilinear form on the standard modules, its determinant and radical.

The pairing of two link states mirrors the first state and glues it to
the second: string/vacancy mismatches give zero, every defect of one
must be joined to a defect of the other, and each closed loop contributes
a factor beta.  In the basis ordered by vacancy configuration the Gram
matrix is block diagonal; each block is a Gram matrix of the dense
algebra on the occupied sites (removing the shared vacancies keeps the
order of the states inside a block), so the matrix, determinants,
nullities and radicals assemble from one memoised dense block per
occupied-site count, with binomial multiplicities.
"""

from functools import lru_cache
from math import comb

from .ring import GENERIC, beta_power
from .diagram_core import glue
from .link_modules import dim_standard, enumerate_links, site_nodes
from .tl_reference import det_gram_tl, dim_irr_tl, dim_v


def gram_product(x, y, mode=GENERIC):
    """Pairing of two same-size link states with the same defect count."""
    n = x.n
    if y.n != n or x.defect_count() != y.defect_count():
        raise ValueError("states %s and %s differ in size or defect count"
                         % (x.text(), y.text()))
    for a, b in zip(x.sites, y.sites):  # the cheap early reject
        if (a == "V") != (b == "V"):
            return mode.zero()
    # nodes: x's sites, then y's sites; site i of x is glued to site i of y
    ends, loops = glue(site_nodes(x) + site_nodes(y, n), _mirror_seam(n))
    for e, o in ends.items():
        if (e < n) == (o < n):
            return mode.zero()  # two defects of the same state joined
    return beta_power(mode, loops)


@lru_cache(maxsize=None)
def _mirror_seam(n):
    """Seam of a pairing: node i (a site of x) meets node n + i (of y)."""
    return tuple(range(n, 2 * n)) + tuple(range(n))


def gram_matrix(n, k, mode=GENERIC):
    """
    Gram matrix over the ordered link basis (rows and columns alike): the
    dense block of each vacancy configuration on the diagonal, one shared
    zero everywhere else.
    """
    dim = len(enumerate_links(n, k))
    zero = mode.zero()
    mat = [[zero] * dim for _ in range(dim)]
    for s, e, occ in gram_blocks(n, k):
        for r, row in enumerate(_dense_block(occ, k, mode), s):
            mat[r][s:e] = row
    return mat


def gram_blocks(n, k):
    """
    Index ranges of the diagonal blocks, one per vacancy configuration,
    as (start, end, occupied_count) triples over the ordered basis.
    """
    basis = enumerate_links(n, k)
    out = []
    start = 0
    for i, v in enumerate(basis):
        if i and v.vacancy_positions() != basis[i - 1].vacancy_positions():
            out.append((start, i, n - len(basis[start].vacancy_positions())))
            start = i
    if basis:
        out.append((start, len(basis), n - len(basis[start].vacancy_positions())))
    return out


def _bareiss_det(mat, mode=GENERIC):
    """Fraction-free determinant for a matrix over a ring with exact_div."""
    m = [list(row) for row in mat]
    size = len(m)
    if size == 0:
        return mode.one()
    sign = 1
    prev = None
    for j in range(size - 1):
        if not m[j][j]:
            for r in range(j + 1, size):
                if m[r][j]:
                    m[j], m[r] = m[r], m[j]
                    sign = -sign
                    break
            else:
                return m[j][j]  # a zero column: determinant vanishes
        for r in range(j + 1, size):
            for c in range(j + 1, size):
                val = m[r][c] * m[j][j] - m[r][j] * m[j][c]
                if prev is not None:
                    val = val.exact_div(prev)
                m[r][c] = val
            m[r][j] = m[r][j] - m[r][j]  # zero of the ring
        prev = m[j][j]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def tl_gram_matrix(m, k, mode=GENERIC):
    """Gram matrix of the dense algebra: states without vacancies."""
    basis = [v for v in enumerate_links(m, k) if "V" not in v.sites]
    return [[gram_product(u, v, mode) for v in basis] for u in basis]


@lru_cache(maxsize=None)
def _dense_block(m, k, mode):
    """The dense (m, k) Gram matrix as a tuple of row tuples, built once."""
    return tuple(tuple(row) for row in tl_gram_matrix(m, k, mode))


@lru_cache(maxsize=None)
def _dense_nullspace(m, k, mode):
    """Nullspace basis of the dense (m, k) Gram block, as tuples, built once."""
    return tuple(tuple(v) for v in _nullspace_field(_dense_block(m, k, mode), mode))


def gram_det_direct(n, k, mode=GENERIC):
    """
    Determinant by elimination: the fraction-free determinant of each
    distinct dense block, multiplied out over the diagonal blocks.
    """
    det = mode.one()
    dets_by_size = {}
    for _s, _e, occ in gram_blocks(n, k):
        if occ not in dets_by_size:
            dets_by_size[occ] = _bareiss_det(_dense_block(occ, k, mode), mode)
        det = det * dets_by_size[occ]
    return det


def gram_det_closed(n, k, mode=GENERIC):
    """
    Closed form: the product over occupied-site counts of the dense Gram
    determinant raised to a binomial multiplicity.
    """
    det = GENERIC.one()
    for p in range((n - k) // 2 + 1):
        m = k + 2 * p
        e = comb(n, m)
        if dim_v(m, k) == 0 or e == 0:
            continue
        if m == k:
            block = GENERIC.one()  # the all-defect block pairs to 1
        else:
            block = det_gram_tl(m, k)
        det = det * block ** e
    return mode.convert(det)


def _nullity_field(mat):
    """Nullity of a square matrix over a field (Gaussian elimination)."""
    m = [row[:] for row in mat]
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inv() if hasattr(m[r][c], "inv") else 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return cols - rank


def _nullspace_field(mat, mode):
    """Basis of the (right) nullspace of a square matrix over a field."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [mode.zero()] * cols
        vec[fc] = mode.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return basis


def _tl_nullity(m, k, mode):
    """Nullity of the dense (m, k) Gram block in the given mode."""
    return len(_dense_nullspace(m, k, mode))


def gram_nullity(n, k, mode):
    """
    Dimension of the radical of the bilinear form, assembled block by
    block: each occupied-site count contributes its dense nullity times a
    binomial multiplicity.
    """
    assert mode.kind == "root", "the form is nondegenerate generically"
    return sum(comb(n, k + 2 * p) * _tl_nullity(k + 2 * p, k, mode)
               for p in range((n - k) // 2 + 1))


def radical_basis(n, k, mode):
    """
    A basis of the radical as LinComb-style coefficient vectors over the
    ordered link basis (lists of ring elements).
    """
    dim = len(enumerate_links(n, k))
    vecs = []
    for s, e, occ in gram_blocks(n, k):
        for v in _dense_nullspace(occ, k, mode):
            full = [mode.zero()] * dim
            full[s:e] = v
            vecs.append(full)
    return vecs


def dim_irreducible(n, k, mode=GENERIC):
    """
    Dimension of the irreducible quotient of the (n, k) standard module:
    the full dimension generically, otherwise dimension minus nullity.
    """
    if mode.kind == "generic":
        return dim_standard(n, k)
    return dim_standard(n, k) - gram_nullity(n, k, mode)


def dim_irreducible_formula(n, k, ell):
    """
    Dimension of the irreducible via the dense-block formula: binomial
    multiplicities times dense irreducible dimensions.
    """
    return sum(comb(n, k + 2 * p) * dim_irr_tl(k + 2 * p, k, ell)
               for p in range((n - k) // 2 + 1))

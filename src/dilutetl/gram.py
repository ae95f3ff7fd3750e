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

The loop count of each pairing does not depend on the ring, so each dense
block is first built once as a loop matrix (`_dense_loops`: the number of
closed loops, or None where the pairing vanishes) and then specialised
to a mode by beta^loops.  At a primitive m-th root of unity every cell is
a power of beta = q + q^-1, so the whole block lies in the real subfield
Q(beta) of degree phi(m)/2, and its rank and nullspace there are those
over Q(zeta_m).

One elimination, `_bareiss`, and one back-substitution, `_null_vectors`,
serve determinants, nullities and radicals.  `_bareiss` is a sparse
fraction-free echelon over Z[x]/(psi) on integer coordinates, where a
pivot updates only the rows with a nonzero entry in its column, each
divided exactly by the pivot of the level at which it was last updated:
every entry is a minor, and coefficients grow only linearly (Bareiss,
Math. Comp. 22, 1968).  One builder, `_loop_rows`, gives it the rows of
a loop matrix under a ring map from Z[beta]: beta^e in
Z[beta] = Z[x]/(psi_m) at a root of unity (`_dense_echelon`, whose pivot
count is the rank), the integer X^e for beta -> X = 2^B generically
(`_dense_det`).  `_null_vectors` gives one null vector per free column
of any echelon, 1 there and 0 at the other free columns, fraction-free
until it divides by the last pivot; at d > 1 it divides by a pivot
through `_divider`, which reads the pivot's inverse off the one null
vector of its multiplication table beside e_0, over Z.  Every echelon
form has the same pivot columns, the leftmost independent ones, and each
null vector is unique, so the radical vectors are those of the reduced
row echelon form over Q(zeta_m) (`_nullspace_field`, the oracle).  The
generic determinant of a dense block is the signed last pivot of its
echelon over Z, or 0 below full rank, read digit by digit as its
beta-coefficients.  The determinant of U(n, k) is the product of the
generic dense determinants, each raised to the number of blocks it
fills, multiplied out by the integer kernel `ring.laurent_product` and
converted to the mode once; the closed form is the product of
`det_gram_tl` built the same way.  `gram_determinants` compares the two
factor by factor in the generic ring and, when every factor agrees,
multiplies out and converts once: both products would run the same
deterministic kernel on the same factors, so agreement of the factors is
agreement of the products, and at a root of unity it is checked before
specialisation.

`block_rows` is the one layout walk: each row of a dense block with the
number of zero columns before and after it, in `gram_blocks` order.  The
matrix and the radical basis fill those runs with one shared zero;
`row_texts` renders each distinct dense row once (a Gram row from its
loop counts, one text per loop count that occurs and one for zero; a
radical row cell by cell) and each zero run as one string repetition,
for the command line's output.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby
from math import comb, factorial, lcm

from .ring import (GENERIC, LaurentPoly, beta_power, laurent_product,
                   real_beta_power, real_cyclotomic_poly, times_beta)
from .diagram_core import glue, planar_points, shifted
from .link_modules import check_same_module, dim_standard
from .tl_reference import det_gram_tl, dim_irr_tl, dim_v, occupied_counts


def gram_product(x, y, mode=GENERIC):
    """Pairing of two same-size link states with the same defect count."""
    check_same_module(x, y)
    if x.west != y.west:  # a string meets a vacancy
        return mode.zero()
    loops = _pair_loops(x.sites, y.sites)
    return mode.zero() if loops is None else beta_power(mode, loops)


def _pair_loops(xs, ys):
    """
    The number of closed loops of the pairing of two states' sites tuples
    of one length, or None where the pairing vanishes; the same in every
    mode.
    """
    n = len(xs)
    # nodes: x's sites, then y's sites; site i of x is glued to site i of y
    ends, loops = glue(xs + shifted(ys, n), _mirror_seam(n))
    for e, o in ends.items():
        if (e < n) == (o < n):
            return None  # two defects of the same state joined
    return loops


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
    return _full_rows(n, k, mode, lambda occ: tl_gram_matrix(occ, k, mode))


def _full_rows(n, k, mode, dense):
    """The rows of `block_rows` as lists, the zero runs filled with the mode's zero."""
    zero = mode.zero()
    return [[zero] * before + list(row) + [zero] * after
            for before, row, after in block_rows(n, k, dense)]


@lru_cache(maxsize=None)
def gram_blocks(n, k):
    """
    Index ranges of the diagonal blocks, one per vacancy configuration,
    as (start, end, occupied_count) triples over the ordered basis.  The
    basis orders states by `LinkState.sort_key`, vacancy count first, then
    vacancy positions, so the blocks follow in that order: for each
    occupied-site count m of `occupied_counts`, largest first, comb(n, m)
    blocks of the dense size dim_v(m, k).
    """
    out, start = [], 0
    for m, count in reversed(occupied_counts(n, k)):
        size = dim_v(m, k)
        for _ in range(count):
            out.append((start, start + size, m))
            start += size
    return tuple(out)


def block_rows(n, k, dense):
    """
    The layout walk over the ordered basis: for each diagonal block in
    `gram_blocks` order, each row of dense(occ) (the rows of its dense
    block: Gram rows, radical vectors or their texts) as the triple
    (columns before the row, the row, columns after it).  The blocks of
    one occupied-site count are consecutive, so dense is called once per
    count.
    """
    blocks = gram_blocks(n, k)
    dim = blocks[-1][1] if blocks else 0
    for occ, run in groupby(blocks, lambda block: block[2]):
        rows = dense(occ)
        for s, e, _occ in run:
            for row in rows:
                yield s, row, dim - e


def row_texts(n, k, mode, cell, sep, radical=False):
    """
    The rows of the Gram matrix, or with radical=True of the radical
    basis, as texts: every entry rendered by `cell`, the entries of a row
    joined by `sep`.  Each distinct dense row is rendered once: a Gram row
    from its loop counts (`_dense_loops`), with one text for each loop
    count that occurs and one for zero, a radical row cell by cell.  Each
    zero run is one string repetition.
    """
    zero = cell(mode.zero())

    def dense(occ):
        if radical:
            return [sep.join(map(cell, row)) for row in _dense_nullspace(occ, k, mode)]
        loops = _dense_loops(occ, k)
        texts = {j: zero if j is None else cell(beta_power(mode, j))
                 for j in {j for row in loops for j in row}}
        return [sep.join([texts[j] for j in row]) for row in loops]

    lead, trail = zero + sep, sep + zero
    for before, row, after in block_rows(n, k, dense):
        yield lead * before + row + trail * after


def _bareiss_det(mat, mode=GENERIC):
    """
    Fraction-free determinant for a matrix over a ring with exact_div, on
    ring cells: the oracle of the integer determinant `_dense_det`.
    """
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
    """
    Gram matrix of the dense algebra, on the states without vacancies, as
    a tuple of row tuples, built from `_dense_loops` on each call.
    """
    zero = mode.zero()
    return tuple(tuple(zero if loops is None else beta_power(mode, loops) for loops in row)
                 for row in _dense_loops(m, k))


@lru_cache(maxsize=None)
def _dense_loops(m, k):
    """
    The dense (m, k) loop matrix, built once for every mode: the loop
    count of each pairing of two states without vacancies (the sites
    tuples of `planar_points`, in text order), None where it vanishes.
    """
    basis = planar_points(m, k, False)
    rows = [[None] * len(basis) for _ in basis]
    for i, u in enumerate(basis):  # the pairing is symmetric: glue i <= j
        for j in range(i, len(basis)):
            rows[i][j] = rows[j][i] = _pair_loops(u, basis[j])
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _dense_det(m, k):
    """
    Determinant of the dense (m, k) Gram block as a Laurent polynomial, the
    same in every mode.  The loop matrix is evaluated at beta = X = 2^B (a
    cell beta^loops becomes X^loops, a vanishing one 0) and eliminated by
    `_bareiss` over Z; beta -> X is a ring map Z[beta] -> Z, so each exact
    division stays exact.  Every entry is a minor, a sum of at most size!
    terms +-beta^j, so its coefficients are below 2^(B-2) in size: it
    vanishes exactly when its value at X does, and the j-th digit c_j of
    the determinant in balanced base X is its coefficient of beta^j, which
    adds c_j C(j, i) to q^(j - 2i) for each i (beta = q + q^-1).
    """
    size = len(_dense_loops(m, k))
    bits = factorial(size).bit_length() + 2
    echelon, sign = _bareiss(_loop_rows(m, k, lambda e: (1 << (bits * e),)), (0, 1))
    det = sign * echelon[-1][1][0][0] if len(echelon) == size else 0
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs, j = {}, 0
    while det:
        c = det & mask
        if c >= half:
            c -= 1 << bits
        for i in range(j + 1) if c else ():
            coeffs[j - 2 * i] = coeffs.get(j - 2 * i, 0) + c * comb(j, i)
        det = (det - c) >> bits
        j += 1
    return LaurentPoly(coeffs)


def gram_det_direct(n, k, mode=GENERIC):
    """
    Determinant by elimination, from the generic dense determinants
    `_dense_det`; at a root of unity, the generic one specialised.
    """
    return _module_det(_dense_det, n, k, mode)


def gram_det_closed(n, k, mode=GENERIC):
    """
    Closed form, from the dense Gram determinants `det_gram_tl`; 1 (the
    empty product) for a module that does not exist.
    """
    return _module_det(det_gram_tl, n, k, mode)


def _module_det(dense_det, n, k, mode):
    """
    The product of dense_det(m, k) ** count over `occupied_counts`, by the
    integer kernel `laurent_product`, converted to the mode once.
    """
    return mode.convert(laurent_product((dense_det(m, k), count)
                                        for m, count in occupied_counts(n, k)))


def gram_determinants(n, k, mode=GENERIC):
    """
    (direct, closed): the determinants of `gram_det_direct` and
    `gram_det_closed`, compared factor by factor in the generic ring.  When
    every dense determinant `_dense_det` equals its closed form
    `det_gram_tl`, the product is taken and converted once and returned as
    both; otherwise both products are taken and differ in their factors.
    """
    if all(_dense_det(m, k) == det_gram_tl(m, k) for m, _count in occupied_counts(n, k)):
        det = _module_det(_dense_det, n, k, mode)
        return det, det
    return gram_det_direct(n, k, mode), gram_det_closed(n, k, mode)


def _rref(mat):
    """
    Reduced row echelon form of a matrix over a field (cells with inv()):
    the reduced rows and the pivot columns.
    """
    m = [list(row) for row in mat]
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
    return m, pivots


def _nullity_field(mat):
    """
    Nullity of a matrix over a field (Gaussian elimination): its column
    count minus its rank, the field-side oracle of the rank over Z[beta].
    """
    return (len(mat[0]) if mat else 0) - len(_rref(mat)[1])


def _nullspace_field(mat, mode):
    """Basis of the (right) nullspace of a matrix over a field."""
    m, pivots = _rref(mat)
    size = len(mat[0]) if mat else 0
    basis = []
    for fc in (c for c in range(size) if c not in pivots):
        vec = [mode.zero()] * size
        vec[fc] = mode.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return basis


@lru_cache(maxsize=256)
def _dense_echelon(occ, k, mode):
    """
    A row echelon form over Z[beta] = Z[x]/(psi_m) of the dense (occ, k)
    Gram block at the mode's primitive m-th root of unity: the pivot rows
    of `_bareiss` on the cells' d = phi(m)/2 coordinates, which are all
    zero exactly when the cell is (psi_m is irreducible).
    """
    rows = _loop_rows(occ, k, partial(real_beta_power, mode.m))
    return tuple(_bareiss(rows, real_cyclotomic_poly(mode.m))[0])


def _loop_rows(occ, k, power):
    """
    The dense (occ, k) loop matrix as `_bareiss` rows: a cell with e loops is
    power(e), beta^e under a ring map from Z[beta], a vanishing one zero.
    """
    zero = (0,) * len(power(0))
    return [[list(c) for c in zip(*(zero if e is None else power(e) for e in row))]
            for row in _dense_loops(occ, k)]


def _bareiss(rows, psi):
    """
    Sparse fraction-free echelon over Z[x]/(psi), psi monic of degree d,
    of rows of d coordinate lists each: the pivot rows, top to bottom, as
    (pivot column, d coordinate lists of the cells from that column on),
    and the sign of the order the rows were taken in.  A row last updated
    at level t (-1: never, p_-1 = 1) becomes (p*row - f*pivot_row) / p_t; a
    pivot row is first brought to the level before its own by the factor
    p_(level-1) / p_t.  By Sylvester's identity, telescoped over skipped
    levels, every stored row is the Bareiss row of its level, so every
    division is exact.  Zero rows and eliminated columns are dropped.
    """
    pivots = []  # the pivot of each level
    rows = [(-1, row) for row in rows if any(map(any, row))]
    echelon, sign, col = [], 1, -1
    while rows and rows[0][1][0]:  # a nonzero row and a column are left
        col += 1
        piv = next((i for i, (_t, row) in enumerate(rows) if any(c[0] for c in row)), None)
        if piv is None:
            rows = [(t, [c[1:] for c in row]) for t, row in rows]
            continue
        t, prow = rows.pop(piv)
        sign = -sign if piv % 2 else sign
        if t < len(pivots) - 1:
            table, den = _scaled(pivots[-1], t, pivots, psi)
            prow = _sum_of_products([(table, prow)], den)
        echelon.append((col, prow))
        pivots.append(tuple(c[0] for c in prow))
        ptail = [c[1:] for c in prow]
        heads, kept = {}, []  # heads: level t -> _scaled(p, t) for this pivot p
        for t, row in rows:
            tail = [c[1:] for c in row]
            f = tuple(-c[0] for c in row)
            if any(f):
                if t not in heads:
                    heads[t] = _scaled(pivots[-1], t, pivots, psi)
                table, den = heads[t]
                tail = _sum_of_products(
                    [(table, tail), (_scaled(f, t, pivots, psi)[0], ptail)], den)
                if not any(map(any, tail)):
                    continue  # the row is now zero
                t = len(pivots) - 1
            kept.append((t, tail))
        rows = kept
    return echelon, sign


def _scaled(a, t, pivots, psi):
    """
    (table of s*a, D) for a in Z[x]/(psi) and the pivot p_t of level t,
    so that a*u / p_t = ((s*a)*u) // D for cells u (d coordinate lists):
    s = 1 and D = 1 at t = -1, s = 1 and D = p_t at d = 1, else s*p_t = D
    in Z (`_divider`).  Folding s into the scalar reads each u once.
    """
    if t < 0 or len(psi) == 2:
        return _times_table(a, psi), (pivots[t][0] if t >= 0 else 1)
    star, den = _divider(pivots[t], psi)
    return _times_table(_apply(star, a), psi), den


def _apply(table, a):
    """The coordinates of t*a, for the multiplication table of t."""
    return tuple(sum(x * y for x, y in zip(row, a)) for row in table)


def _times_table(a, psi):
    """Multiplication by a in Q[x]/(psi) as rows of a d x d matrix."""
    cols = [a]
    for _ in range(len(a) - 1):
        cols.append(times_beta(cols[-1], psi))
    return tuple(zip(*cols))


def _sum_of_products(terms, den=1):
    """
    The sum of a*u over a nonempty list of (table of a, u) pairs, each u a
    list of d coordinate lists of one length (cells side by side), each
    entry divided exactly by the integer den.
    """
    out = [[0] * len(terms[0][1][0]) for _ in terms[0][0]]
    for table, planes in terms:
        for i, t_i in enumerate(table):
            acc = out[i]
            for c, plane in zip(t_i, planes):
                if c:
                    acc = [a + c * x for a, x in zip(acc, plane)]
            out[i] = acc
    return out if den == 1 else [[v // den for v in plane] for plane in out]


@lru_cache(maxsize=1024)
def _divider(a, psi):
    """
    (table of a*, D), a* integer and D > 0 coprime with a * a* = D, for a
    nonzero a in Z[x]/(psi) at d > 1: (y, 1) is the one null vector of
    [T(a) | e_0] over Z, a's table beside e_0, so a * y = -1; D is the lcm
    of y's denominators and a* = -D y.
    """
    rows = [[list(row) + [int(i == 0)]] for i, row in enumerate(_times_table(a, psi))]
    (y,) = _null_vectors(_bareiss(rows, (0, 1))[0], len(a) + 1, (0, 1))
    den = lcm(*(c.denominator for (c,) in y))
    return _times_table(tuple(int(-den * c) for (c,) in y[:-1]), psi), den


def _null_vectors(echelon, size, psi):
    """
    The null vectors of a `_bareiss` echelon over Q[x]/(psi) with size
    columns, as size cells of d coordinates: one per free column, 1 there
    and 0 at the other free columns.  All are solved side by side (each x_c
    d coordinate lists, one entry per vector) as D times themselves, for
    s*P = D in Z and P the last pivot (`_scaled`; D = 1 without pivots).  P
    is a minor, so by Cramer's rule every P x_c, and so every D x_c, lies
    in Z[x]/(psi).  From the last pivot row up, x_pc = -(s' * sum(a_c x_c))
    // D' with s'*p = D' for the row's pivot p, each division exact; the
    last step divides by D, leaving integral coordinates as ints.
    """
    free = sorted(set(range(size)) - {pc for pc, _planes in echelon})
    if not free:
        return []
    one = (1,) + (0,) * (len(psi) - 2)
    pivots = [tuple(c[0] for c in planes) for _pc, planes in echelon]
    scale = _scaled(one, len(pivots) - 1, pivots, psi)[1]
    x = {fc: [[scale * (i == 0 and j == v) for v in range(len(free))] for i in range(len(one))]
         for j, fc in enumerate(free)}
    for t in reversed(range(len(echelon))):
        pc, planes = echelon[t]
        terms = [(_times_table(a, psi), x[pc + c]) for c, a in enumerate(zip(*planes))
                 if c and any(a)]
        star, den = _scaled(one, t, pivots, psi)
        x[pc] = (_sum_of_products([(star, _sum_of_products(terms))], -den) if terms
                 else [[0] * len(free) for _ in one])
    return [[tuple(Fraction(plane[v], scale) if plane[v] % scale else plane[v] // scale
                   for plane in x[c]) for c in range(size)]
            for v in range(len(free))]


def _dense_nullspace(occ, k, mode):
    """
    Nullspace basis of the dense (occ, k) Gram block at a root of unity:
    the vectors of `_null_vectors` on `_dense_echelon` as tuples of ring
    cells, those of `_nullspace_field` (see the module docstring).
    """
    vectors = _null_vectors(_dense_echelon(occ, k, mode), len(_dense_loops(occ, k)),
                            real_cyclotomic_poly(mode.m))
    cells = {c: sum((v * beta_power(mode, j) for j, v in enumerate(c) if v), mode.zero())
             for c in {c for vec in vectors for c in vec}}
    return tuple(tuple(cells[c] for c in vec) for vec in vectors)


def _tl_nullity(occ, k, mode):
    """Nullity of the dense (occ, k) Gram block at a root of unity: size - rank."""
    return len(_dense_loops(occ, k)) - len(_dense_echelon(occ, k, mode))


def gram_nullity(n, k, mode):
    """
    Dimension of the radical of the bilinear form, assembled block by
    block: each occupied-site count contributes its dense nullity times a
    binomial multiplicity.
    """
    if mode.kind != "root":
        raise ValueError("the form is nondegenerate generically: no nullity")
    return sum(count * _tl_nullity(m, k, mode) for m, count in occupied_counts(n, k))


def radical_basis(n, k, mode):
    """
    A basis of the radical as LinComb-style coefficient vectors over the
    ordered link basis (lists of ring elements).
    """
    return _full_rows(n, k, mode, lambda occ: _dense_nullspace(occ, k, mode))


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
    return sum(count * dim_irr_tl(m, k, ell) for m, count in occupied_counts(n, k))

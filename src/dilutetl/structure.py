"""
Representation-theoretic bookkeeping at a root of unity.

Everything here reduces to integer bookkeeping built on exact kernels:
criticality and symmetric pairs of defect numbers, decomposition and
Cartan matrices, dimensions of radicals, irreducible heads and principal
indecomposables, the decomposition of the regular module, recurrences for
the irreducible dimensions, cellularity of the diagram basis, and
dimension checks for the restriction and induction formulas.
"""

from .ring import GENERIC, CrossCheckError
from .diagram_core import (all_generators, identity, by_east, by_west, glued_sum,
                           multiply_diagrams_raw, crossing_count)
from .link_modules import (enumerate_links, dim_standard, act, diagram_from_links,
                           links_of_diagram)
from .gram import gram_product, gram_nullity
from .tl_reference import is_critical


def algebra_dim(n):
    """Dimension of the whole algebra: the sum of squared module dims."""
    return sum(dim_standard(n, k) ** 2 for k in range(n + 1))


def pair_info(k, ell, n):
    """
    Criticality of k and its nearest symmetric partners below and above.
    Partners are reported even when out of range; flags tell whether they
    index actual modules (0 <= partner <= n).
    """
    if ell < 2:
        raise ValueError("ell must be at least 2, not %r" % (ell,))
    info = {"k": k, "ell": ell, "critical": is_critical(k, ell),
            "k_minus": None, "k_plus": None,
            "k_minus_in_range": False, "k_plus_in_range": False}
    if info["critical"]:
        return info
    r = (k + 1) % ell  # distance above the critical line below k
    info["k_minus"] = k - 2 * r
    info["k_plus"] = k + 2 * (ell - r)
    info["k_minus_in_range"] = 0 <= info["k_minus"] <= n
    info["k_plus_in_range"] = 0 <= info["k_plus"] <= n
    return info


def decomposition_matrix(n, ell):
    """
    The (n+1) x (n+1) matrix counting irreducible factors of the standard
    modules: the diagonal, plus a 1 in column k_plus for non-critical k
    whose upper partner is in range.
    """
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        d[k][k] = 1
        info = pair_info(k, ell, n)
        if not info["critical"] and info["k_plus_in_range"]:
            d[k][info["k_plus"]] += 1
    return d


def cartan_matrix(n, ell):
    """Factor counts of the principal indecomposables: c = d^t d."""
    d = decomposition_matrix(n, ell)
    size = n + 1
    return [[sum(d[i][k] * d[i][j] for i in range(size))
             for j in range(size)] for k in range(size)]


_IRR_ROWS = {}  # ell -> the rows of the table built so far, extended on demand


def irr_dims_recurrence(n_max, ell):
    """
    Table of irreducible dimensions built row by row.  Row n+1 follows
    from row n through a three-branch recurrence: crossing a critical
    line from below merges differently than the bulk three-term rule, and
    sitting on a critical line picks up a doubled term plus a far
    reflection.  Out-of-range entries count as zero and the k = n entry
    is always 1.  One row list per ell serves every n_max: a larger
    table extends it, and each call returns rows 0..n_max of it.
    """
    if ell < 2:
        raise ValueError("ell must be at least 2, not %r" % (ell,))
    rows = _IRR_ROWS.setdefault(ell, [(1,)])  # n = 0
    while len(rows) <= n_max:
        n = len(rows) - 1
        p = rows[-1] + (0,) * (2 * ell)  # the entries past n, and p[-1], count as zero
        rows.append(tuple(
            p[k - 1] + p[k] + 2 * p[k + 1] + p[k + 2 * ell - 1] if is_critical(k, ell)
            else p[k - 1] + p[k] if is_critical(k + 1, ell)
            else p[k - 1] + p[k] + p[k + 1]
            for k in range(n + 1)) + (1,))
    return tuple(rows[:max(n_max, 0) + 1])


def dim_irr(n, k, ell):
    """
    Irreducible dimension from the recurrence table; 0 unless 0 <= k <= n
    (no such module).
    """
    table = irr_dims_recurrence(max(n, 0), ell)
    return table[n][k] if 0 <= k <= n else 0


def principal_dims(n, ell):
    """
    Dimensions of the principal indecomposables: the standard dimension
    when k is critical or below the first critical line, otherwise the
    standard plus its lower symmetric partner.
    """
    out = []
    for k in range(n + 1):
        info = pair_info(k, ell, n)
        dim = dim_standard(n, k)
        if info["k_minus_in_range"]:
            dim += dim_standard(n, info["k_minus"])
        out.append(dim)
    return out


def loewy_type(n, k, ell):
    """
    Shape class of the principal indecomposable: 'a' on a critical line,
    'd' when the lower partner k_minus lies outside 0..n, else 'b' when
    k_plus + 2(ell - 1) <= n and 'c' when it exceeds n.  That bound is the
    upper partner of k_plus only when (k + 1) mod ell = ell - 1.
    """
    info = pair_info(k, ell, n)
    if info["critical"]:
        return "a"
    if not info["k_minus_in_range"]:
        return "d"
    kpp = info["k_plus"] + 2 * (ell - 1)  # partner of k_plus, one window up
    if kpp <= n:
        return "b"
    return "c"


def regular_decomposition(n, mode):
    """
    The regular module as a list of ((module kind, k), multiplicity)
    pairs; multiplicities are irreducible dimensions.  The total must be
    the dimension of the algebra.
    """
    out = []
    if mode.kind == "generic":
        for k in range(n + 1):
            out.append((("U", k), dim_standard(n, k)))
        total = sum(m * dim_standard(n, k) for (_t, k), m in out)
    else:
        ell = mode.ell
        pdims = principal_dims(n, ell)
        for k in range(n + 1):
            kind = "P" if pair_info(k, ell, n)["k_minus_in_range"] else "U"
            out.append(((kind, k), dim_irr(n, k, ell)))
        total = sum(m * pdims[k] for (_t, k), m in out)
    if total != algebra_dim(n):
        raise CrossCheckError("regular module of size %d: %d, not %d"
                              % (n, total, algebra_dim(n)))
    return out


def _coeff_map(terms, k, y, crossings):
    """
    Write a dict of diagram terms, each with at least k crossings, in the
    form sum_z r(z) |z y~|; returns the map z -> r(z) or None if some term
    has more than k crossings (counted by `crossings(d)`) or a right link
    different from y.
    """
    out = {}
    for d, c in terms.items():
        if crossings(d) != k:
            # terms with more crossings would lower-filtrate differently;
            # they cannot appear in a product with a k-crossing diagram
            return None
        lz, ry = links_of_diagram(d)
        if ry != y:
            return None
        out[lz] = out[lz] + c if lz in out else c
    return {z: c for z, c in out.items() if c}


def verify_cellularity(n, k, mode=GENERIC):
    """
    Check the basis-transport axiom on the diagram basis: for every
    generator u, the coefficients of u |x y~| modulo lower filtration
    layers do not depend on y, agree with the standard-module action of u
    on x, and sandwich products collapse to the bilinear form.  Each
    |x y~|, each action u x, each pairing <y, z>, each phi = <y, u x'> and
    each result's crossing count is built once and shared by the checks
    that use it.  Every operand is grouped by mask once (each cell, each
    generator and each |x y~| u), and a product whose right factor is a
    cell passes glued_sum only the left group whose east mask equals the
    cell's west mask.  Raises ValueError unless 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise ValueError("no standard module U(%d, %d): k must lie in 0..%d" % (n, k, n))
    basis = enumerate_links(n, k)
    gens = [identity(n, mode)] + [u for _lab, u in all_generators(n, mode)]
    one = mode.one()
    # each |x y~| with itself as glued_sum's right operand: {west: [(d, one)]}
    cells = {}
    for x in basis:
        for y in basis:
            d = diagram_from_links(x, y)
            cells[x, y] = d, {d.west: [(d, one)]}
    pairing = {(y, z): gram_product(y, z, mode) for y in basis for z in basis}
    zero = mode.zero()
    counts = {}

    def crossings(d):
        c = counts.get(d)
        if c is None:
            c = counts[d] = crossing_count(d)
        return c

    def outside_ideal(d):
        return crossings(d) >= k

    def times(left, right):
        """The terms of a product outside the ideal of diagrams with fewer than k crossings."""
        return glued_sum(left, right, multiply_diagrams_raw, mode, outside_ideal)

    for u in gens:
        u_east, u_west = by_east(u.terms), by_west(u.terms)
        actions = [(x, act(u, x, quotient_k=k)) for x in basis]
        # same coefficients as the standard-module action, for every y
        for x, ux in actions:
            for y in basis:
                d, cell = cells[x, y]
                if _coeff_map(times(u_east.get(d.west, ()), cell), k, y, crossings) != ux.terms:
                    return False
        # sandwich rule: |x y~| u |x' y''~| = <y, u x'> |x y''| mod lower
        for y in basis:
            phis = []
            for xp, uxp in actions:
                phi = zero
                for z, cz in uxp.terms.items():
                    phi = phi + pairing[y, z] * cz
                phis.append((xp, phi))
            for x in basis[:2]:
                d, cell = cells[x, y]
                left_u = by_east(times(cell[d.west], u_west))
                for xp, phi in phis:
                    for yp in basis[:2]:
                        dp, cellp = cells[xp, yp]
                        prod = times(left_u.get(dp.west, ()), cellp)
                        if prod != ({cells[x, yp][0]: phi} if phi else {}):
                            return False
    return True


def _check(checks, name, lhs, rhs, **extra):
    """Append a check record: its name, whether lhs == rhs, both sides, then extra keys."""
    checks.append({"name": name, "pass": lhs == rhs, "lhs": lhs, "rhs": rhs, **extra})


def restriction_induction_report(n, ell):
    """
    Dimension-level verification of the restriction and induction
    formulas relating sizes n and n+1 (restriction) and n-1 and n
    (induction).  Each check reports both sides; dimension of an induced
    standard module is taken as the three-term sum of standard dimensions
    at the larger size.
    """
    checks = []

    def dimR(m, k):
        return dim_standard(m, k) - dim_irr(m, k, ell)

    def dimP(m, k):
        return principal_dims(m, ell)[k] if 0 <= k <= m else 0

    def dim_ind_U(m, k):
        # induced from size m to m+1
        return sum(dim_standard(m + 1, j) for j in (k - 1, k, k + 1))

    def dim_ind_P(m, k):
        # induced along the standard filtration of P_{m,k}
        info = pair_info(k, ell, m)
        return dim_ind_U(m, k) + (dim_ind_U(m, info["k_minus"])
                                  if info["k_minus_in_range"] else 0)

    radical_ks = [k for k in range(n + 2) if dimR(n + 1, k)]

    # restriction of radicals, size n+1 down to n
    for k in radical_ks:
        cplus = is_critical(k + 1, ell)
        third = dim_standard(n, k + 1) if cplus else dimR(n, k + 1)
        _check(checks, "res_radical_k%d" % k, dimR(n + 1, k),
               dimR(n, k - 1) + dimR(n, k) + third,
               flag="ell2_double_critical" if cplus and is_critical(k - 1, ell) else None)

    # restriction of irreducibles, size n+1 down to n
    for k in radical_ks:
        third = 0 if is_critical(k + 1, ell) else dim_irr(n, k + 1, ell)
        _check(checks, "res_irred_k%d" % k, dim_irr(n + 1, k, ell),
               dim_irr(n, k - 1, ell) + dim_irr(n, k, ell) + third, flag=None)

    # induced standards across a critical line
    for kc in range(n):
        if is_critical(kc, ell):
            _check(checks, "ind_critical_k%d" % kc, dim_ind_U(n - 1, kc),
                   dim_standard(n, kc) + dimP(n, kc + 1), flag=None)

    # induced principal indecomposables, size n-1 up to n: P(k) + P(k+1),
    # and off a critical line P(k-1), once more when k-1 is critical, and
    # P(k_minus - 1) when k+1 is critical
    for k in range(n):
        info = pair_info(k, ell, n - 1)
        rhs = dimP(n, k) + dimP(n, k + 1)
        if not info["critical"]:
            rhs += dimP(n, k - 1) * (2 if is_critical(k - 1, ell) else 1)
            if is_critical(k + 1, ell):
                rhs += dimP(n, info["k_minus"] - 1)
        _check(checks, "ind_principal_k%d" % k, dim_ind_P(n - 1, k), rhs,
               flag="ell2_double_critical" if ell == 2 and not info["critical"] else None)

    # global bookkeeping: inducing the whole algebra fills the bigger one
    if n >= 1:
        _check(checks, "ind_regular_total",
               sum(dim_irr(n - 1, k, ell) * dim_ind_P(n - 1, k) for k in range(n)),
               algebra_dim(n), flag=None)

    return {"n": n, "ell": ell, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


def structure_report(n, mode):
    """
    Full per-size record: rows of dimensions and classifications, the two
    matrices, and the outcome of the global consistency checks; dimR is the
    Gram nullity, independent of the recurrence that gives dimL.
    """
    checks = []
    if mode.kind == "generic":
        rows = [{"k": k, "dimU": u, "dimR": 0, "dimL": u, "dimP": u, "critical": False,
                 "pair": None, "loewy_type": None}
                for k, u in enumerate(dim_standard(n, k) for k in range(n + 1))]
        d = c = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
        pair_rows = []
    else:
        ell = mode.ell
        pdims = principal_dims(n, ell)
        rows = []
        for k in range(n + 1):
            info = pair_info(k, ell, n)
            rows.append({"k": k, "dimU": dim_standard(n, k), "dimR": gram_nullity(n, k, mode),
                         "dimL": dim_irr(n, k, ell), "dimP": pdims[k],
                         "critical": info["critical"],
                         "pair": {key: info[key] for key in
                                  ("k_minus", "k_plus", "k_minus_in_range", "k_plus_in_range")},
                         "loewy_type": loewy_type(n, k, ell)})
        d, c = decomposition_matrix(n, ell), cartan_matrix(n, ell)
        _check(checks, "cartan_symmetric", c, [list(col) for col in zip(*c)])
        pair_rows = [r for r in rows if not r["critical"]]
    _check(checks, "regular_total", sum(r["dimL"] * r["dimP"] for r in rows), algebra_dim(n))
    for r in pair_rows:
        in_range = r["pair"]["k_plus_in_range"]
        dual = rows[r["pair"]["k_plus"]]["dimL"] if in_range else 0
        _check(checks, "pair_duality_k%d" % r["k"], r["dimR"], dual)
        if in_range:
            _check(checks, "exact_seq_k%d" % r["k"], r["dimU"], r["dimL"] + dual)
    return {"n": n, "mode": {"kind": mode.kind, "m": mode.m, "ell": mode.ell},
            "rows": rows, "matrices": {"d": d, "c": c}, "checks": checks}

"""
Reference quantities for the ordinary (dense) Temperley-Lieb algebra.

These are used as building blocks for the dilute theory: the dilute
objects decompose over vacancy configurations into dense ones, so the
dense dimensions, Gram determinants and irreducible dimensions enter the
dilute formulas with binomial multiplicities (`occupied_counts`).
"""

from functools import lru_cache
from math import comb

from .ring import laurent_product, qnum


def dim_tl(n):
    """Dimension of the dense algebra on n strands (a Catalan number)."""
    return comb(2 * n, n) // (n + 1)


def occupied_counts(n, k):
    """
    The dilute-to-dense reduction: U(n, k) splits over vacancy
    configurations, comb(n, m) of them leaving m occupied sites that carry
    a dense (m, k) module.  The (m, comb(n, m)) pairs for m = k, k + 2, ...,
    n; none unless 0 <= k <= n (no such module).
    """
    if not 0 <= k <= n:
        return []
    return [(m, comb(n, m)) for m in range(k, n + 1, 2)]


def dim_v(n, k):
    """
    Dimension of the dense standard module with k defects on n strands;
    zero when n and k have different parities or k is out of range.
    """
    if k < 0 or k > n or (n - k) % 2:
        return 0
    h = (n - k) // 2
    return comb(n, h) - (comb(n, h - 1) if h >= 1 else 0)


@lru_cache(maxsize=None)
def det_gram_tl(n, k):
    """
    Closed form for the dense Gram determinant on (n, k) in the generic
    ring: a product of quantum-number ratios with multiplicities given by
    standard-module dimensions.  Numerator and denominator are each one
    `laurent_product`; their ratio is a genuine Laurent polynomial, so the
    division is exact.  Memoised: the result is shared between callers and
    must not be mutated.
    """
    if dim_v(n, k) == 0:
        raise ValueError("empty module")
    es = [(j, dim_v(n, k + 2 * j)) for j in range(1, (n - k) // 2 + 1)]
    num = laurent_product((qnum(k + j + 1), e) for j, e in es)
    den = laurent_product((qnum(j), e) for j, e in es)
    return num.exact_div(den)


def is_critical(k, ell):
    """Whether the defect number k sits on a critical line for this ell."""
    return (k + 1) % ell == 0


def dim_irr_tl(n, k, ell=None):
    """
    Dimension of the dense irreducible head of the (n, k) standard
    module.  Generic (ell None): the full standard dimension.  At a root
    of unity the critical modules stay irreducible; for the rest the
    radical of V(n, k) is the head of V(n, k+), k+ the reflection of k
    across the next critical line (Ridout & Saint-Aubin, arXiv:1204.4505),
    so the dimension is the alternating sum of dim V(n, k_i) over the
    reflection orbit k_0 = k, k_(i+1) = k_i + 2(ell - (k_i + 1) mod ell),
    up to n.
    """
    if k < 0 or k > n or (n - k) % 2:
        return 0
    if ell is None or is_critical(k, ell):
        return dim_v(n, k)
    total, sign = 0, 1
    while k <= n:
        total += sign * dim_v(n, k)
        k += 2 * (ell - (k + 1) % ell)
        sign = -sign
    return total

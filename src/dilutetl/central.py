"""
A central element built from a two-column tile assembly.

Each of the n rows carries a left and a right tile; a tile is one of
three states: 'a' (west-north and south-east hooks), 'b' (west-south and
north-east hooks) or 'c' (a vertical pass-through with vacant west and
east edges).  The left tile is weighted sqrt(q)*a - (1/sqrt(q))*b + c,
the right tile sqrt(q)*b - (1/sqrt(q))*a + c.  Columns are glued
east-to-west per row, consecutive rows north-to-south, and the top and
bottom of the two columns are joined.  Vacant and occupied edges must
match, which forces the two tiles of a row to be 'c' together; the
surviving assignments produce diagrams whose coefficients are genuine
Laurent polynomials (the half powers of q always cancel).

The element commutes with the whole algebra and acts on the k-defect
standard module by the scalar q^(k+1) + q^-(k+1).
"""

from functools import lru_cache
from itertools import product as iproduct

from .ring import GENERIC, beta_power
from .diagram_core import VACANT, AlgebraElem, DiluteDiagram, all_generators, glue
from .link_modules import enumerate_links, LinComb, act

# each tile's edges N, E, S, W are nodes 0..3 of it; its in-tile partners
_TILE_INNER = {"a": (3, 2, 1, 0), "b": (1, 0, 3, 2), "c": (2, -1, 0, -1)}
# exponent of sqrt(q) and sign, per column and tile state
_LEFT_WEIGHT = {"a": (1, 1), "b": (-1, -1), "c": (0, 1)}
_RIGHT_WEIGHT = {"b": (1, 1), "a": (-1, -1), "c": (0, 1)}


def _tile_links(n, assignment):
    """
    The tile network of one assignment of (left, right) states to the n
    rows, as glue() input: edge e of the tile in row j and column c
    (0 left, 1 right) is node 8*j + 4*c + e.
    """
    inner = []
    for base, tile in enumerate(t for row in assignment for t in row):
        inner += [4 * base + e if e >= 0 else -1 for e in _TILE_INNER[tile]]
    return inner, _tile_seam(n)


@lru_cache(maxsize=None)
def _tile_seam(n):
    """
    The glueing between tiles: east to west inside each row (vacant on
    both sides in a 'c' row), south to north between rows, and the two
    columns joined at the top and the bottom.  The west edges of the left
    column and the east edges of the right column are the outer boundary.
    """
    pairs = [(0, 4), (8 * n - 6, 8 * n - 2)]
    for j in range(n):
        pairs.append((8 * j + 1, 8 * j + 7))
        if j < n - 1:
            pairs += [(8 * j + 2, 8 * j + 8), (8 * j + 6, 8 * j + 12)]
    seam = [-1] * (8 * n)
    for u, v in pairs:
        seam[u], seam[v] = v, u
    return tuple(seam)


@lru_cache(maxsize=None)
def build_F(n, mode=GENERIC):
    """
    The central element on n sites, expanded into diagrams.  Memoised per
    (n, mode): callers get a shared element and must not change its terms.
    """
    if n < 1:
        raise ValueError("the tile assembly needs n >= 1, not %d" % n)
    row_options = [("c", "c")] + [(l, r) for l in "ab" for r in "ab"]
    terms = {}
    for assignment in iproduct(row_options, repeat=n):
        sexp = 0
        sign = 1
        for lt, rt in assignment:
            e, s = _LEFT_WEIGHT[lt]
            sexp += e
            sign *= s
            e, s = _RIGHT_WEIGHT[rt]
            sexp += e
            sign *= s
        assert sexp % 2 == 0, "half powers of q must cancel"
        ends, loops = glue(*_tile_links(n, assignment))
        # outer points: west edges of left tiles down the left side, east
        # edges of right tiles up the right side
        pairing = [VACANT] * (2 * n)
        for e, o in ends.items():
            pairing[_outer_slot(n, e)] = _outer_slot(n, o)
        coeff = mode.q_power(sexp // 2) * mode.const(sign)
        coeff = coeff * beta_power(mode, loops)
        d = DiluteDiagram(n, pairing)
        w = terms.get(d, mode.zero()) + coeff
        if w:
            terms[d] = w
        else:
            terms.pop(d, None)
    return AlgebraElem(n, mode, terms)


def _outer_slot(n, node):
    """Diagram slot of an outer node: a west edge (3 mod 8) or an east edge (5 mod 8)."""
    j = node // 8
    return j if node % 8 == 3 else 2 * n - 1 - j


def delta(k, mode=GENERIC):
    """The scalar by which the central element acts on k-defect modules."""
    return mode.q_power(k + 1) + mode.q_power(-(k + 1))


def check_central(n, mode=GENERIC):
    """Whether the element commutes with every generator."""
    f = build_F(n, mode)
    return all(f * g == g * f for _lab, g in all_generators(n, mode))


def check_eigenvalue(n, k, mode=GENERIC):
    """Whether the element scales every basis state of the (n, k) module."""
    f = build_F(n, mode)
    dk = delta(k, mode)
    for v in enumerate_links(n, k):
        expected = LinComb.from_state(v, mode, dk)
        if act(f, v, quotient_k=k) != expected:
            return False
    return True


def delta_distinct(j, k, mode=GENERIC):
    """Whether the eigenvalues for defect numbers j and k differ."""
    return delta(j, mode) != delta(k, mode)


def delta_distinct_predicted(j, k, mode=GENERIC):
    """
    Closed-form prediction for delta_distinct: generically the scalars
    agree only for j = k; at a primitive m-th root of unity they agree
    exactly when m divides j - k or j + k + 2.
    """
    if mode.kind == "generic":
        return j != k
    m = mode.m
    return not ((j - k) % m == 0 or (j + k + 2) % m == 0)

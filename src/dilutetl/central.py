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

from itertools import product as iproduct

from .ring import GENERIC, beta_power
from .diagram_core import DiluteDiagram, AlgebraElem, all_generators
from .link_modules import enumerate_links, LinComb, act

# internal pairings of the occupied tile edges, per tile state
_TILE_EDGES = {
    "a": (("W", "N"), ("S", "E")),
    "b": (("W", "S"), ("N", "E")),
    "c": (("N", "S"),),
}
# exponent of sqrt(q) and sign, per column and tile state
_LEFT_WEIGHT = {"a": (1, 1), "b": (-1, -1), "c": (0, 1)}
_RIGHT_WEIGHT = {"b": (1, 1), "a": (-1, -1), "c": (0, 1)}


def _tile_links(n, assignment):
    """
    Adjacency of the tile network for one assignment of states to rows:
    nodes are (column, row, edge), edges are in-tile hooks plus the
    glueing between tiles.  Returns (adjacency, loops is computed later).
    """
    adj = {}

    def join(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for j in range(1, n + 1):
        lt, rt = assignment[j - 1]
        for x, y in _TILE_EDGES[lt]:
            join(("L", j, x), ("L", j, y))
        for x, y in _TILE_EDGES[rt]:
            join(("R", j, x), ("R", j, y))
        # east-west glueing inside the row (both sides occupied iff not 'c')
        if lt != "c":
            join(("L", j, "E"), ("R", j, "W"))
    for j in range(1, n):
        join(("L", j, "S"), ("L", j + 1, "N"))
        join(("R", j, "S"), ("R", j + 1, "N"))
    join(("L", 1, "N"), ("R", 1, "N"))
    join(("L", n, "S"), ("R", n, "S"))
    return adj


def build_F(n, mode=GENERIC):
    """The central element on n sites, expanded into diagrams."""
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
        adj = _tile_links(n, assignment)
        # outer points: west edges of left tiles, east edges of right tiles
        outer = {}
        for j in range(1, n + 1):
            lt, rt = assignment[j - 1]
            if lt != "c":
                outer[("L", j, "W")] = j - 1       # left slot, top to bottom
            if rt != "c":
                outer[("R", j, "E")] = 2 * n - j   # right slot, bottom to top
        visited = set()
        pairs = []
        for start, slot in outer.items():
            if start in visited:
                continue
            visited.add(start)
            prev, cur = None, start
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                visited.add(cur)
                if cur in outer:
                    break
            pairs.append((slot, outer[cur]))
        loops = 0
        for node in adj:
            if node in visited:
                continue
            loops += 1
            prev, cur = None, node
            visited.add(node)
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                prev, cur = cur, nxt[0]
                if cur == node:
                    break
                visited.add(cur)
        coeff = mode.q_power(sexp // 2) * mode.const(sign)
        coeff = coeff * beta_power(mode, loops)
        d = DiluteDiagram.from_pairs(n, pairs)
        w = terms.get(d, mode.zero()) + coeff
        if w:
            terms[d] = w
        else:
            terms.pop(d, None)
    return AlgebraElem(n, mode, terms)


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

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

The element is expanded by a transfer over the rows, not by walking the
5^n assignments one by one.  After rows 0..j the partly glued network is
known by its connectivity: the pairing of the boundary slots seen so far,
two of which may still be open, joined to the left and the right cut end
under row j; with no slot open the two cut ends are joined to each other,
as under the top cap where the transfer starts.  Gluing a row under a
state is one glue() call, which depends only on the row and on whether
the cut ends are open; states that coincide are merged.  Each state
carries integer counts per (exponent of sqrt(q), closed loops), the sign
folded into the count.  The bottom cup then joins the two open slots or
closes one more loop.  None of this depends on the coefficient ring, so
it is built once per n; the generic element sums count * q^(e/2) *
beta^loops per diagram, and every other mode specialises its coefficients.

The element commutes with the whole algebra and acts on the k-defect
standard module by the scalar q^(k+1) + q^-(k+1).
"""

from functools import lru_cache

from .ring import GENERIC, CrossCheckError, LaurentPoly, beta_power
from .diagram_core import VACANT, AlgebraElem, DiluteDiagram, all_generators, glue
from .link_modules import enumerate_links, LinComb, act

# each tile's edges N, E, S, W are nodes 0..3 of it; its in-tile partners
_TILE_INNER = {"a": (3, 2, 1, 0), "b": (1, 0, 3, 2), "c": (2, VACANT, 0, VACANT)}
# exponent of sqrt(q) and sign, per column and tile state
_LEFT_WEIGHT = {"a": (1, 1), "b": (-1, -1), "c": (0, 1)}
_RIGHT_WEIGHT = {"b": (1, 1), "a": (-1, -1), "c": (0, 1)}
# the (left, right) tiles a row can carry
ROW_OPTIONS = (("c", "c"),) + tuple((l, r) for l in "ab" for r in "ab")

# glue() nodes of one row step: the old left and right cut ends 0 and 1,
# the open slots joined to them 2 and 3, and edge e of the row's tile in
# column c at 4 + 4*c + e.  The cut ends meet the north edges and the
# tiles meet east to west; the west edge of the left tile and the east
# edge of the right tile are the row's slots, the south edges the new cut
# ends.
_STEP_SEAM = (4, 8, -1, -1, 0, 11, -1, -1, 1, -1, -1, 5)
_WEST, _EAST, _CUT_L, _CUT_R = 7, 9, 6, 10


def _tile_links(row):
    """In-tile partners of one row's (left, right) tiles, as glue() nodes 4..11."""
    inner = []
    for c, tile in enumerate(row):
        inner += [4 + 4 * c + e if e >= 0 else e for e in _TILE_INNER[tile]]
    return inner


@lru_cache(maxsize=None)
def _row_steps(is_open):
    """
    Every row option glued under a state whose cut ends are joined to two
    open slots (is_open) or to each other.  Per option: the pairs of slot
    nodes joined through the row, the slot nodes joined to the new left
    and right cut ends (None when these are joined to each other), the
    closed loops, the exponent of sqrt(q) and the sign.
    """
    above = [2, 3, 0, 1] if is_open else [1, 0, VACANT, VACANT]
    steps = []
    for row in ROW_OPTIONS:
        ends, loops = glue(above + _tile_links(row), _STEP_SEAM)
        pairs = tuple((a, b) for a, b in ends.items()
                      if a < b and not {a, b} & {_CUT_L, _CUT_R})
        cut = None if ends[_CUT_L] == _CUT_R else (ends[_CUT_L], ends[_CUT_R])
        (le, ls), (re, rs) = _LEFT_WEIGHT[row[0]], _RIGHT_WEIGHT[row[1]]
        steps.append((pairs, cut, loops, le + re, ls * rs))
    return tuple(steps)


@lru_cache(maxsize=16)
def build_F(n, mode=GENERIC):
    """
    The central element on n sites, expanded into diagrams.  The last 16
    (n, mode) are memoised, above a central_tile pass's 14: callers get a
    shared element and must not change its terms.  A root-of-unity element
    specialises the generic one, which the row transfer builds.
    """
    if n < 1:
        raise ValueError("the tile assembly needs n >= 1, not %d" % n)
    if mode != GENERIC:
        return AlgebraElem(n, mode, {d: mode.convert(c)
                                     for d, c in build_F(n, GENERIC).terms.items()})
    size = 2 * n
    # state: (slot pairing so far, the slots joined to the left and right
    # cut ends or None); value: {(exponent of sqrt(q), loops): count}
    states = {((VACANT,) * size, None): {(0, 0): 1}}
    for j in range(n):
        merged = {}
        for (pairing, cut), weights in states.items():
            slot = {_WEST: j, _EAST: size - 1 - j}
            if cut is not None:
                slot[2], slot[3] = cut
            for pairs, new_cut, loops, sexp, sign in _row_steps(cut is not None):
                p = list(pairing)
                for a, b in pairs:
                    p[slot[a]], p[slot[b]] = slot[b], slot[a]
                if new_cut is not None:
                    new_cut = (slot[new_cut[0]], slot[new_cut[1]])
                acc = merged.setdefault((tuple(p), new_cut), {})
                for (e, l), c in weights.items():
                    w = (e + sexp, l + loops)
                    acc[w] = acc.get(w, 0) + sign * c
        states = merged
    closed = {}  # slot pairing -> {loops: {exponent of q: count}}
    for (pairing, cut), weights in states.items():
        # the bottom cup joins the open slots, or the cut ends into a loop
        p = list(pairing)
        if cut is None:
            cup_loops = 1
        else:
            cup_loops = 0
            p[cut[0]], p[cut[1]] = cut[1], cut[0]
        acc = closed.setdefault(tuple(p), {})
        for (e, l), c in weights.items():
            if e % 2:
                raise CrossCheckError("half powers of q must cancel")
            by_q = acc.setdefault(l + cup_loops, {})
            by_q[e // 2] = by_q.get(e // 2, 0) + c
    terms = {}
    for p, by_loops in closed.items():
        coeff = LaurentPoly()
        for loops, by_q in by_loops.items():
            coeff = coeff + LaurentPoly(by_q) * beta_power(GENERIC, loops)
        terms[DiluteDiagram(n, p)] = coeff
    return AlgebraElem(n, mode, terms)


def delta(k, mode=GENERIC):
    """The scalar by which the central element acts on k-defect modules."""
    return mode.q_power(k + 1) + mode.q_power(-(k + 1))


def check_central(n, mode=GENERIC):
    """Whether the element commutes with every generator."""
    f = build_F(n, mode)
    return all(f * g == g * f for _lab, g in all_generators(n, mode))


def check_eigenvalue(n, k, mode=GENERIC):
    """
    Whether the element scales every basis state of the (n, k) module.
    Raises ValueError unless 0 <= k <= n.
    """
    if not 0 <= k <= n:
        raise ValueError("no standard module U(%d, %d): k must lie in 0..%d" % (n, k, n))
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

"""Shared independent oracles and small utilities for the test suite."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from dilutetl.ring import GENERIC, beta_power
from dilutetl.diagram_core import AlgebraElem, DiluteDiagram, glue
from dilutetl.central import (ROW_OPTIONS, _LEFT_WEIGHT, _RIGHT_WEIGHT,
                              _TILE_INNER)


@lru_cache(maxsize=None)
def motzkin(n):
    """Motzkin numbers by their standard recurrence."""
    if n <= 1:
        return 1
    return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k)
                                for k in range(n - 1))


@lru_cache(maxsize=None)
def catalan(n):
    """Catalan numbers by the convolution recurrence."""
    if n == 0:
        return 1
    return sum(catalan(k) * catalan(n - 1 - k) for k in range(n))


def frac_rank(mat):
    """Rank of a matrix of Fractions by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def embed_bottom(elem):
    """
    Image of an algebra element one size up: each diagram keeps its strings
    and the new bottom site is summed over a through-string and a vacancy
    pair (the image of the unit at that site).
    """
    n = elem.n
    out = AlgebraElem(n + 1, elem.mode)
    for d, c in elem.terms.items():
        for with_string in (True, False):
            pairs = [(a if a < n else a + 2, b if b < n else b + 2)
                     for a, b in d.pairs()]
            if with_string:
                pairs.append((n, n + 1))
            out = out + AlgebraElem(
                n + 1, elem.mode,
                {DiluteDiagram.from_pairs(n + 1, pairs): c})
    return out


def build_F_enumerated(n, mode=GENERIC):
    """
    The tile-built central element by walking all 5^n row assignments, each
    as one glued network: edge e (N, E, S, W) of the tile in row j and
    column c is node 8*j + 4*c + e.  The oracle for the row transfer.
    """
    seam = [-1] * (8 * n)
    # east to west in a row, south to north between rows, top cap, bottom cup
    links = [(0, 4), (8 * n - 6, 8 * n - 2)]
    for j in range(n):
        links.append((8 * j + 1, 8 * j + 7))
        if j < n - 1:
            links += [(8 * j + 2, 8 * j + 8), (8 * j + 6, 8 * j + 12)]
    for u, v in links:
        seam[u], seam[v] = v, u

    def slot(node):
        # west edges run down the left side, east edges up the right side
        j = node // 8
        return j if node % 8 == 3 else 2 * n - 1 - j

    terms = {}
    for assignment in product(ROW_OPTIONS, repeat=n):
        inner = []
        sexp, sign = 0, 1
        for j, (lt, rt) in enumerate(assignment):
            for c, tile in enumerate((lt, rt)):
                inner += [8 * j + 4 * c + e if e >= 0 else -1
                          for e in _TILE_INNER[tile]]
            for e, s in (_LEFT_WEIGHT[lt], _RIGHT_WEIGHT[rt]):
                sexp += e
                sign *= s
        assert sexp % 2 == 0, "half powers of q must cancel"
        coeff = mode.q_power(sexp // 2) * mode.const(sign)
        ends, loops = glue(inner, seam)
        pairing = [None] * (2 * n)
        for e, o in ends.items():
            pairing[slot(e)] = slot(o)
        d = DiluteDiagram(n, pairing)
        terms[d] = terms.get(d, mode.zero()) + coeff * beta_power(mode, loops)
    return AlgebraElem(n, mode, terms)

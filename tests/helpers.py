"""Shared independent oracles and small utilities for the test suite."""

import contextlib
import io
import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product

from dilutetl import cli
from dilutetl.ring import GENERIC, beta_power
from dilutetl.diagram_core import (VACANT, AlgebraElem, DiluteDiagram, glue,
                                   multiply_diagrams_raw, planar_points)
from dilutetl.gram import (_bareiss_det, gram_blocks, gram_det_closed,
                           gram_matrix, radical_basis, tl_gram_matrix)
from dilutetl.link_modules import LinComb, LinkState, act_diagram_raw, dim_standard
from dilutetl.central import (ROW_OPTIONS, _LEFT_WEIGHT, _RIGHT_WEIGHT,
                              _TILE_INNER)
from dilutetl.tl_reference import dim_v, is_critical


def holds(checks):
    """Every (name, lhs, rhs) a `dilutetl.checks` check yields has lhs == rhs."""
    for name, lhs, rhs in checks:
        assert lhs == rhs, (name, lhs, rhs)


@lru_cache(maxsize=None)
def motzkin(n):
    """Motzkin numbers by their standard recurrence."""
    if n <= 1:
        return 1
    return motzkin(n - 1) + sum(motzkin(k) * motzkin(n - 2 - k)
                                for k in range(n - 1))


def enumerate_dense_links(n, k):
    """
    The link states on n sites with k defects and no vacancy, ordered by
    text() (arc opening < arc closing < DEFECT): the basis whose sites
    tuples `gram._dense_loops` pairs.
    """
    return tuple(map(LinkState, planar_points(n, k, False)))


@lru_cache(maxsize=None)
def dim_irr_tl_recursive(n, k, ell):
    """
    The dense irreducible dimension at a root of unity by its two-term
    recurrence in n, one call per site: the oracle of the loop in
    `tl_reference.dim_irr_tl`.
    """
    if k < 0 or k > n or (n - k) % 2:
        return 0
    if is_critical(k, ell):
        return dim_v(n, k)
    if n == k:
        return 1
    if is_critical(k + 1, ell):
        return dim_irr_tl_recursive(n - 1, k - 1, ell)
    return dim_irr_tl_recursive(n - 1, k - 1, ell) + dim_irr_tl_recursive(n - 1, k + 1, ell)


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


def mul_fold(a, b):
    """
    The product of two algebra elements over every pair of terms, the
    vanishing ones included, each glued afresh: the oracle of
    `AlgebraElem.__mul__`, which glues only the pairs whose vacancy masks
    match and reads the product memo.
    """
    acc = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            loops, d = multiply_diagrams_raw.__wrapped__(d1, d2)
            if d is None:
                continue
            c = c1 * c2 * beta_power(a.mode, loops)
            w = acc.get(d, a.mode.zero()) + c
            if w:
                acc[d] = w
            else:
                acc.pop(d, None)
    return AlgebraElem(a.n, a.mode, acc)


def product_loops(a, b):
    """
    The closed loops of the product a*b, by union-find over the glued
    graph: a's slots are nodes 0..2n-1 and b's 2n..4n-1, joined by both
    factors' strings and by the seam, right site s of a (slot 2n-s) to
    left site s of b (node 2n+s-1).  A closed loop is a component with an
    occupied slot and no outer slot (a's left side, b's right side).  The
    oracle of the loop count glue() gives the product.
    """
    n, size = a.n, 2 * a.n
    root = list(range(2 * size))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    strings = [(off + i, off + p) for off, d in ((0, a), (size, b))
               for i, p in enumerate(d.pairing) if p != VACANT]
    for x, y in strings + [(size - s, size + s - 1) for s in range(1, n + 1)]:
        root[find(x)] = find(y)
    outer = {find(x) for x in list(range(n)) + list(range(size + n, 2 * size))}
    return len({find(x) for x, _y in strings} - outer)


def act_fold(u, v, quotient_k=None):
    """
    The diagram action extended term by term, each pair glued afresh and
    added to a fresh combination: the oracle of `link_modules.act`, which
    reads the action memo and sums into one dict.
    """
    if isinstance(v, LinkState):
        v = LinComb.from_state(v, u.mode)
    out = LinComb(u.n, u.mode)
    for d, cd in u.terms.items():
        for s, cs in v.terms.items():
            loops, w = act_diagram_raw.__wrapped__(d, s)
            if w is None or (quotient_k is not None and w.defect_count() < quotient_k):
                continue
            c = beta_power(u.mode, loops) * cd * cs
            out = out + LinComb(u.n, u.mode, {w: c})
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
        pairing = [VACANT] * (2 * n)
        for e, o in ends.items():
            pairing[slot(e)] = slot(o)
        d = DiluteDiagram(n, pairing)
        terms[d] = terms.get(d, mode.zero()) + coeff * beta_power(mode, loops)
    return AlgebraElem(n, mode, terms)


def gram_output(n, k, mode, fmt, det_cap=5):
    """
    The output of the `gram` command rendered cell by cell: str() of every
    entry of the assembled matrix and radical basis, one json.dumps of the
    whole document, and each diagonal block's determinant taken by ring
    Bareiss.  The oracle for the command's block-spliced rendering.
    """
    out = {"n": n, "k": k,
           "mode": {"kind": mode.kind, "m": mode.m, "ell": mode.ell},
           "dim": dim_standard(n, k),
           "blocks": [{"start": s, "end": e, "occupied": occ}
                      for s, e, occ in gram_blocks(n, k)],
           "matrix": [[str(c) for c in row] for row in gram_matrix(n, k, mode)]}
    if n <= det_cap:
        det = mode.one()
        for _s, _e, occ in gram_blocks(n, k):
            det = det * _bareiss_det(tl_gram_matrix(occ, k, mode), mode)
        out["det_direct"] = str(det)
        out["det_closed"] = str(gram_det_closed(n, k, mode))
    if mode.kind == "root":
        rad = radical_basis(n, k, mode)
        out["radical_dim"] = len(rad)
        out["radical_basis"] = [[str(c) for c in row] for row in rad]
    if fmt == "json":
        return json.dumps(out, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in out["matrix"])
    lines = ["module (n=%d, k=%d), dim %d, mode %s" % (n, k, out["dim"], mode)]
    lines += ["block [%d:%d) occupied=%d" % (b["start"], b["end"], b["occupied"])
              for b in out["blocks"]]
    lines += ["  ".join(row) for row in out["matrix"]]
    lines += ["%s: %s" % (key, out[key])
              for key in ("det_direct", "det_closed", "radical_dim") if key in out]
    return "".join(line + "\n" for line in lines)


CliResult = namedtuple("CliResult", "exit_code output stderr")


def run_cli(args):
    """
    Run the command line in-process as the console script would: the exit
    status, `output` (stdout, then stderr, which every command writes only
    after its stdout) and stderr alone.
    """
    out, err = io.StringIO(), io.StringIO()
    exit_code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args)
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    return CliResult(exit_code, out.getvalue() + err.getvalue(), err.getvalue())

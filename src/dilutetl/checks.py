"""
The invariant checks of `dilutetl verify`: one registry, run by the
command and by the tests.  A check yields (name, lhs, rhs) triples and
passes when lhs == rhs, each side an independent computation: an
inequality is stated as an equality, a library predicate as
(name, predicate(...), True), a report by the lhs and rhs of its records.
`SUITES` maps each suite of `verify` to a function of an rng that runs
its checks at the command's sizes; the order of its rng draws is part of
its definition, so a seed always samples the same cases.
"""

import json
import os

from .ring import GENERIC, CrossCheckError, LaurentPoly, beta, root_of_unity
from .diagram_core import (AlgebraElem, DiluteDiagram, all_generators,
                           crossing_count, enumerate_diagrams, identity,
                           multiply_diagrams_raw, parity_split, transpose)
from .link_modules import (LinkState, act, act_diagram, dim_standard,
                           enumerate_links, induced_basis, phi_iso,
                           restriction_phi, restriction_psi)
from .gram import gram_det_closed, gram_det_direct, gram_nullity, gram_product
from .central import build_F, check_central, check_eigenvalue
from .structure import (dim_irr, regular_decomposition,
                        restriction_induction_report, structure_report,
                        verify_cellularity)

_MOTZKIN = [1, 1]


def motzkin(n):
    """
    The Motzkin number M_n by (n+2) M_n = (2n+1) M_(n-1) + 3(n-1) M_(n-2),
    one shared list extended on demand: an oracle independent of the
    binomial sums of `dim_standard`.
    """
    while len(_MOTZKIN) <= n:
        j = len(_MOTZKIN)
        _MOTZKIN.append(((2 * j + 1) * _MOTZKIN[-1] + 3 * (j - 1) * _MOTZKIN[-2]) // (j + 2))
    return _MOTZKIN[n]


def _golden(name):
    with open(os.path.join(os.path.dirname(__file__), "goldens", name), encoding="utf-8") as fh:
        return json.load(fh)


def product_laws(n, trials, rng):
    """Associativity, the anti-involution and the crossing filtration on random triples."""
    diags = enumerate_diagrams(n)
    for trial in range(trials):
        d1, d2, d3 = (rng.choice(diags) for _ in range(3))
        a, b, c = (AlgebraElem.from_diagram(d) for d in (d1, d2, d3))
        yield "assoc_n%d_t%d" % (n, trial), (a * b) * c, a * (b * c)
        yield "transpose_n%d_t%d" % (n, trial), transpose(a * b), transpose(b) * transpose(a)
        # a product has no more crossings than either factor
        _loops, prod = multiply_diagrams_raw(d1, d2)
        cc = None if prod is None else crossing_count(prod)
        bound = min(crossing_count(d1), crossing_count(d2))
        yield "filtration_n%d_t%d" % (n, trial), cc if cc is None else min(cc, bound), cc


def parity(n, terms, rng):
    """
    Two sums of `terms` random diagrams (with every diagram, the whole
    algebra), split by parity: distinct parities multiply to zero, equal
    ones keep their parity.
    """
    diags = enumerate_diagrams(n)
    a = AlgebraElem(n, GENERIC, {d: GENERIC.one() for d in rng.sample(diags, terms)})
    b = AlgebraElem(n, GENERIC, {d: GENERIC.one() for d in rng.sample(diags, terms)})
    for i, x in enumerate(parity_split(a)):
        for j, y in enumerate(parity_split(b)):
            stray = x * y if i != j else parity_split(x * y)[1 - i]
            yield "parity_%d%d" % (i, j), stray, AlgebraElem(n, GENERIC)


def product_goldens():
    """The bundled diagram products, with their loop counts."""
    cases = _golden("worked_examples.json")["products"]
    got = []
    for p in cases:
        loops, d = multiply_diagrams_raw(DiluteDiagram.from_json_dict(p["a"]),
                                         DiluteDiagram.from_json_dict(p["b"]))
        got.append(None if d is None else (loops, d.to_json_dict()))
    yield "product_goldens", got, [None if p["result"] is None else (p["loops"], p["result"])
                                   for p in cases]


def action_goldens():
    """The bundled diagram actions on link states."""
    cases = _golden("worked_examples.json")["actions"]
    yield ("action_goldens",
           [act_diagram(DiluteDiagram.from_json_dict(a["diagram"]),
                        LinkState.from_text(a["state"]), GENERIC).terms for a in cases],
           [{} if a["result"] is None else
            {LinkState.from_text(a["result"]): beta() ** a["loops"]} for a in cases])


def gram_goldens():
    """The bundled pairings of link states."""
    cases = _golden("worked_examples.json")["gram"]
    yield ("gram_goldens",
           [gram_product(LinkState.from_text(e["x"]), LinkState.from_text(e["y"])) for e in cases],
           [LaurentPoly.parse(e["value"]) for e in cases])


def exact_sequence(n):
    """The image of restriction_phi from size n-1 is the kernel of restriction_psi on (n, k)."""
    for k in range(1, n):
        image = {restriction_phi(v, k) for dc in (k - 1, k) for v in enumerate_links(n - 1, dc)}
        kernel = {v for v in enumerate_links(n, k) if restriction_psi(v) is None}
        yield "exact_seq_n%d_k%d" % (n, k), image, kernel


def induced_bases(n):
    """The induced basis of (n, k) has dim U(n+2, k) members, which phi_iso maps one to one."""
    for k in range(n + 1):
        bset, size = induced_basis(n, k), dim_standard(n + 2, k)
        yield ("induced_n%d_k%d" % (n, k), (len(bset), len({phi_iso(i, u) for i, u in bset})),
               (size, size))


def determinants(n):
    """The Gram determinant by elimination equals its closed form."""
    for k in range(n + 1):
        yield "det_n%d_k%d" % (n, k), gram_det_direct(n, k), gram_det_closed(n, k)


def invariance(n, k, trials, rng):
    """<x, u y> = <u^t x, y> for random states x, y and a random generator u."""
    basis, gens = enumerate_links(n, k), all_generators(n)
    for trial in range(trials):
        x, y = rng.choice(basis), rng.choice(basis)
        _lab, u = rng.choice(gens)
        lhs = sum((gram_product(x, z) * c for z, c in act(u, y, quotient_k=k).terms.items()),
                  GENERIC.zero())
        rhs = sum((gram_product(z, y) * c for z, c in
                   act(transpose(u), x, quotient_k=k).terms.items()), GENERIC.zero())
        yield "invariance_t%d" % trial, lhs, rhs


def central_goldens():
    """The bundled expansions of F on one and two sites."""
    g = _golden("central_small.json")
    for key, n in (("F1", 1), ("F2", 2)):
        yield "golden_%s" % key, build_F(n).terms, {
            DiluteDiagram.from_json_dict(t["diagram"]): LaurentPoly.parse(t["coeff"])
            for t in g[key]["terms"]}


def centrality(n):
    """F commutes with every generator."""
    yield "central_n%d" % n, check_central(n), True


def eigenvalues(n, mode):
    """F scales every basis state of each standard module."""
    tag = "generic" if mode.kind == "generic" else "m%d" % mode.m
    for k in range(n + 1):
        yield "eigen_n%d_k%d_%s" % (n, k, tag), check_eigenvalue(n, k, mode), True


def cellularity(n):
    """The diagram basis is cellular, for every k."""
    yield "cellularity_n%d" % n, [verify_cellularity(n, k) for k in range(n + 1)], [True] * (n + 1)


def _report(name, report):
    """One check from a report: each record's lhs against its rhs, keyed by record name."""
    return (name, {r["name"]: r["lhs"] for r in report["checks"]},
            {r["name"]: r["rhs"] for r in report["checks"]})


def _algebra(rng):
    for n in range(1, 4):
        diags = enumerate_diagrams(n)
        yield "diagram_count_n%d" % n, len(diags), motzkin(2 * n)
        e = identity(n)
        sample = [AlgebraElem.from_diagram(d) for d in rng.sample(diags, min(6, len(diags)))]
        yield "identity_n%d" % n, [e * a for a in sample], sample
        yield from product_laws(n, 3, rng)
    yield from parity(3, 8, rng)


def _modules(rng):
    yield from product_goldens()
    yield from action_goldens()
    for n in range(1, 6):
        yield ("basis_count_n%d" % n, sum(len(enumerate_links(n, k)) for k in range(n + 1)),
               sum(dim_standard(n, k) for k in range(n + 1)))
    for n in range(2, 5):
        yield from exact_sequence(n)
    for n in range(1, 4):
        yield from induced_bases(n)


def _gram(rng):
    yield from gram_goldens()
    for n in range(1, 5):
        yield from determinants(n)
    for m in (4, 6):
        mode = root_of_unity(m)
        for n in range(1, 6):
            for k in range(n + 1):
                yield ("nullity_n%d_k%d_m%d" % (n, k, m),
                       dim_standard(n, k) - gram_nullity(n, k, mode), dim_irr(n, k, mode.ell))
    yield from invariance(3, 1, 4, rng)


def _central(rng):
    yield from central_goldens()
    for n in range(1, 4):
        yield from centrality(n)
    for mode in (GENERIC, root_of_unity(6)):
        for n in range(1, 4):
            yield from eigenvalues(n, mode)


def _structure(rng):
    for m in (4, 6, 8):
        mode = root_of_unity(m)
        for n in range(1, 7):
            yield _report("report_n%d_m%d" % (n, m), structure_report(n, mode))
        for n in range(1, 7):
            yield _report("res_ind_n%d_m%d" % (n, m), restriction_induction_report(n, mode.ell))
        unbalanced = {}  # size -> the CrossCheckError of a regular module that misses
        for n in range(1, 8):
            try:
                regular_decomposition(n, mode)
            except CrossCheckError as exc:
                unbalanced[n] = str(exc)
        yield "regular_m%d" % m, unbalanced, {}
    yield from cellularity(2)


SUITES = {"algebra": _algebra, "modules": _modules, "gram": _gram,
          "central": _central, "structure": _structure}

"""
Command-line surface: compute, cross-check and export dimension tables,
Gram data, the central element and the structure reports.

Commands: `dims` (standard-module dimension table), `irr` (irreducible
dimension table, computed three independent ways), `gram` (matrix,
determinants and radical for one module) and `verify` (named invariant
suites with machine-readable verdicts).  Every command exits nonzero if
any internal cross-check fails (status 1); a command line they cannot run
is a usage error (status 2).  `main` runs one command line on a single
argparse parser, built at import; `_command` adds each command to it.
"""

import argparse
import json
import os
import random
import re
import sys
from functools import lru_cache
from itertools import chain

from .ring import GENERIC, CrossCheckError, LaurentPoly, beta, root_of_unity
from .diagram_core import (AlgebraElem, DiluteDiagram, all_generators,
                           crossing_count, enumerate_diagrams, identity,
                           multiply_diagrams_raw, parity_split, transpose)
from .link_modules import (LinkState, act, act_diagram, dim_standard,
                           enumerate_links, induced_basis, phi_iso,
                           restriction_phi, restriction_psi)
from .gram import (dim_irreducible, dim_irreducible_formula, gram_blocks,
                   gram_det_closed, gram_det_direct, gram_determinants,
                   gram_nullity, gram_product, row_texts)
from .central import build_F, check_central, check_eigenvalue
from .structure import (dim_irr, irr_dims_recurrence, regular_decomposition,
                        restriction_induction_report, structure_report,
                        verify_cellularity)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
DEFAULT_DET_CAP = 5
DEFAULT_TABLE_CAP = 12
# near the cap a Gram block already takes seconds: at m = 997 (d = 498 coordinates
# of beta) `gram --n 6 --k 0` spends about 3 s in the elimination
MAX_ROOT_ORDER = 1000


@lru_cache(maxsize=None)
def _motzkin(n):
    """Motzkin numbers by their standard recurrence (independent oracle)."""
    if n <= 1:
        return 1
    return _motzkin(n - 1) + sum(_motzkin(k) * _motzkin(n - 2 - k)
                                 for k in range(n - 1))


class UsageError(Exception):
    """A command line the commands cannot run: `main` exits 2 with its usage."""

    parser = None  # the parser that rejected it, if argparse did


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError instead of exiting."""

    def error(self, message):
        exc = UsageError(message)
        exc.parser = self
        raise exc


_PARSER = _Parser(prog="dilutetl", allow_abbrev=False,
                  description="Exact computations in the dilute diagram algebra.")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True, metavar="COMMAND")


def _command(*options):
    """Register a function as the subcommand of its name, with (flags, kwargs) options."""
    def register(func):
        sub = _COMMANDS.add_parser(func.__name__, help=func.__doc__,
                                   description=func.__doc__, allow_abbrev=False)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=func)
        return func
    return register


def main(args=None, prog_name="dilutetl", standalone_mode=True):
    """
    Run one `dilutetl` command line: a list, or None for sys.argv[1:] (the
    console script and python -m dilutetl.cli).  A failed cross-check
    raises SystemExit(1).  A usage error prints the usage and exits 2, or
    with standalone_mode False raises UsageError.  prog_name is accepted
    for click's call signature; the usage line always names dilutetl.
    """
    parser = _PARSER
    try:
        opts = vars(parser.parse_args(args))
        parser = _COMMANDS.choices[opts.pop("command")]
        opts.pop("run")(**opts)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
    except UsageError as exc:
        if not standalone_mode:
            raise
        parser = exc.parser or parser
        sys.stdout.flush()
        sys.stderr.write("%s%s: error: %s\n" % (parser.format_usage(), parser.prog, exc))
        sys.exit(2)
    except BrokenPipeError:  # the reader went away: exit 1 without a traceback
        if not standalone_mode:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


main.main = main  # the in-process call perfbench/worker.py makes


def _option(*flags, **kwargs):
    return flags, kwargs


def _count(text):
    """The type of a count option: an int >= 0, in any form int() reads."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("%r is not an integer >= 0" % text)
    return value


def _format(default):
    return _option("--format", dest="fmt", choices=["json", "csv", "pretty"],
                   default=default, help="[default: %(default)s]")


def _fail(message):
    """Report a failed cross-check on stderr, after the output, and exit 1."""
    sys.stdout.flush()
    sys.stderr.write(message + "\n")
    sys.exit(1)


def _load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def _mode_from_flags(generic, m):
    if generic and m is not None:
        raise UsageError("--generic and --root-of-unity are exclusive")
    if m is not None:
        if m < 3:
            raise UsageError("--root-of-unity requires m >= 3")
        if m > MAX_ROOT_ORDER:
            raise UsageError("--root-of-unity is capped at m = %d"
                                   % MAX_ROOT_ORDER)
        return root_of_unity(m)
    return GENERIC


def _check_n_max(n_max, cap):
    if not 0 <= n_max <= cap:
        raise UsageError("--n-max must be between 0 and %d" % cap)


def _table_csv(rows):
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def _table_pretty(rows, title):
    width = max(len(str(v)) for row in rows for v in row)
    lines = [title]
    for n, row in enumerate(rows):
        lines.append("n=%2d  " % n + " ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def _emit(fmt, rows, title, extra):
    """Render a jagged dimension table in the requested format."""
    if fmt == "csv":
        sys.stdout.write(_table_csv(rows))
    elif fmt == "pretty":
        sys.stdout.write(_table_pretty(rows, title))
        sys.stdout.writelines("%s: %s\n" % item for item in extra.items())
    else:
        payload = {"title": title, "rows": [list(r) for r in rows]}
        payload.update(extra)
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json_cell(v):
    return json.dumps(str(v))


# how `gram` joins the cells of a row in each format (json: as json.dumps
# with indent=2 writes a row of a top-level array of arrays)
_CELL_SEP = {"json": ",\n      ", "csv": ",", "pretty": "  "}


def _json_rows(items, brackets="[]"):
    """
    The parts of a JSON array under a top-level key, as json.dumps with
    indent=2 writes it, whose items are arrays (or, with brackets "{}",
    objects) given as the texts of their members, already joined; the
    items are joined once.  The rows of the matrix and the radical basis
    come from `gram.row_texts`, each distinct dense row rendered once: a
    Gram row from its loop counts, a radical row cell by cell.
    """
    start, end = brackets[0] + "\n      ", "\n    " + brackets[1]
    body = (end + ",\n    " + start).join(items)
    return ["[\n    " + start, body, end + "\n  ]"] if body else ["[]"]


def _splice(doc, arrays):
    """
    The parts of the JSON text `doc` in turn, each '"@key"' marker
    replaced by the parts arrays[key] (`_json_rows`).
    """
    parts = re.split(r'"@(\w+)"', doc)
    yield parts[0]
    for key, text in zip(parts[1::2], parts[2::2]):
        yield from arrays[key]
        yield text


@_command(_option("--n-max", type=int, required=True, help="largest size to tabulate"),
          _format("csv"),
          _option("--cap-override", type=_count,
                  help="raise the size cap (default %d)" % DEFAULT_TABLE_CAP))
def dims(n_max, fmt, cap_override):
    """Standard-module dimension table for sizes 0..n-max."""
    _check_n_max(n_max, cap_override if cap_override is not None
                 else DEFAULT_TABLE_CAP)
    rows = [[dim_standard(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    totals = []
    failed = False
    for n, row in enumerate(rows):
        ssq = sum(v * v for v in row)
        mot = _motzkin(2 * n)
        totals.append({"n": n, "sum_squares": ssq, "motzkin": mot})
        if ssq != mot:
            failed = True
    _emit(fmt, rows, "dimensions of the standard modules", {"totals": totals}
          if fmt != "pretty" else
          {"totals": " ".join("M_%d=%d" % (2 * t["n"], t["motzkin"]) for t in totals)})
    if failed:
        _fail("sum-of-squares / Motzkin mismatch")


@_command(_option("--n-max", type=int, required=True),
          _option("--root-of-unity", dest="m", type=int, required=True,
                  help="order m >= 3 of the root of unity"),
          _format("csv"),
          _option("--nullity-n-max", type=_count, default=7,
                  help="largest size for the Gram-nullity cross-check [default: %(default)s]"))
def irr(n_max, m, fmt, nullity_n_max):
    """Irreducible dimension table, cross-checked three independent ways."""
    mode = _mode_from_flags(False, m)
    _check_n_max(n_max, DEFAULT_TABLE_CAP)
    ell = mode.ell
    table = irr_dims_recurrence(n_max, ell)
    rows = [list(table[n]) for n in range(n_max + 1)]
    mismatches = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            by_formula = dim_irreducible_formula(n, k, ell)
            if by_formula != rows[n][k]:
                mismatches.append({"n": n, "k": k, "recurrence": rows[n][k],
                                   "formula": by_formula})
            if n <= nullity_n_max:
                by_nullity = dim_irreducible(n, k, mode)
                if by_nullity != rows[n][k]:
                    mismatches.append({"n": n, "k": k, "recurrence": rows[n][k],
                                       "nullity": by_nullity})
    _emit(fmt, rows, "dimensions of the irreducibles (m=%d)" % m,
          {"mismatches": mismatches} if fmt != "pretty" else
          {"mismatches": len(mismatches)})
    if mismatches:
        _fail("cross-check mismatch: %s" % mismatches)


@_command(_option("--n", type=int, required=True),
          _option("--k", type=int, required=True),
          _option("--generic", action="store_true"),
          _option("--root-of-unity", dest="m", type=int),
          _format("pretty"),
          _option("--cap-override", type=_count,
                  help="raise the symbolic-determinant size cap (default 5)"))
def gram(n, k, generic, m, fmt, cap_override):
    """Gram matrix, determinants and radical of one standard module."""
    mode = _mode_from_flags(generic, m)
    if not 0 <= k <= n:
        raise UsageError("need 0 <= k <= n")
    if n > 8:
        raise UsageError("matrix output capped at n = 8")
    det_cap = cap_override if cap_override is not None else DEFAULT_DET_CAP
    cell, sep = (_json_cell if fmt == "json" else str), _CELL_SEP[fmt]
    matrix = row_texts(n, k, mode, cell, sep)
    if fmt == "csv":
        sys.stdout.writelines(["\n".join(matrix), "\n"])
        return
    # the three arrays are spliced into the JSON text in place of markers
    out = {"n": n, "k": k,
           "mode": {"kind": mode.kind, "m": mode.m, "ell": mode.ell},
           "dim": dim_standard(n, k), "blocks": "@blocks", "matrix": "@matrix"}
    failures = []
    if n <= det_cap:
        direct, closed = gram_determinants(n, k, mode)
        out["det_direct"] = out["det_closed"] = str(direct)
        if closed is not direct:
            out["det_closed"] = str(closed)
            failures.append("det_direct %s != det_closed %s"
                            % (out["det_direct"], out["det_closed"]))
    rad = []
    if mode.kind == "root":
        rad = list(row_texts(n, k, mode, cell, sep, radical=True))
        out["radical_dim"] = len(rad)
        out["radical_basis"] = "@radical_basis"
        by_formula = out["dim"] - dim_irreducible_formula(n, k, mode.ell)
        if len(rad) != by_formula:
            failures.append("radical_dim %d != dim_standard - dim_irreducible_formula %d"
                            % (len(rad), by_formula))
    if fmt == "json":
        arrays = {"blocks": _json_rows(('"end": %d,\n      "occupied": %d,\n      "start": %d'
                                        % (e, occ, s) for s, e, occ in gram_blocks(n, k)),
                                       "{}"),
                  "matrix": _json_rows(matrix), "radical_basis": _json_rows(rad)}
        sys.stdout.writelines(_splice(json.dumps(out, indent=2, sort_keys=True) + "\n", arrays))
    else:
        head = ["module (n=%d, k=%d), dim %d, mode %s" % (n, k, out["dim"], mode)]
        head += ["block [%d:%d) occupied=%d" % block for block in gram_blocks(n, k)]
        tail = ["%s: %s" % (key, out[key])
                for key in ("det_direct", "det_closed", "radical_dim") if key in out]
        sys.stdout.writelines(["\n".join(chain(head, matrix, tail)), "\n"])
    if failures:
        _fail("cross-check mismatch: %s" % "; ".join(failures))


def _suite_algebra(rng):
    checks = []
    for n in range(1, 4):
        diags = enumerate_diagrams(n)
        checks.append(("diagram_count_n%d" % n, len(diags) == _motzkin(2 * n)))
        e = identity(n)
        sample = rng.sample(diags, min(6, len(diags)))
        checks.append(("identity_n%d" % n, all(
            e * AlgebraElem.from_diagram(d) == AlgebraElem.from_diagram(d)
            for d in sample)))
        for trial in range(3):
            d1, d2, d3 = (rng.choice(diags) for _ in range(3))
            a, b, c = (AlgebraElem.from_diagram(d) for d in (d1, d2, d3))
            checks.append(("assoc_n%d_t%d" % (n, trial),
                           (a * b) * c == a * (b * c)))
            checks.append(("transpose_n%d_t%d" % (n, trial),
                           transpose(a * b) == transpose(b) * transpose(a)))
            _loops, prod = multiply_diagrams_raw(d1, d2)
            checks.append(("filtration_n%d_t%d" % (n, trial),
                           prod is None or crossing_count(prod)
                           <= min(crossing_count(d1), crossing_count(d2))))
    # parity: products of distinct parities vanish, equal parities persist
    n = 3
    diags = enumerate_diagrams(n)
    a = AlgebraElem(n, GENERIC, {d: GENERIC.one() for d in rng.sample(diags, 8)})
    b = AlgebraElem(n, GENERIC, {d: GENERIC.one() for d in rng.sample(diags, 8)})
    for i, x in enumerate(parity_split(a)):
        for j, y in enumerate(parity_split(b)):
            ev, od = parity_split(x * y)
            if i != j:
                checks.append(("parity_%d%d" % (i, j),
                               ev.is_zero() and od.is_zero()))
            else:
                checks.append(("parity_%d%d" % (i, j),
                               (od if i == 0 else ev).is_zero()))
    return checks


def _suite_modules(rng):
    checks = []
    g = json.loads(_load_golden("worked_examples.json"))
    ok = True
    for p in g["products"]:
        a = DiluteDiagram.from_json_dict(p["a"])
        b = DiluteDiagram.from_json_dict(p["b"])
        loops, d = multiply_diagrams_raw(a, b)
        if p["result"] is None:
            ok = ok and d is None
        else:
            ok = ok and d is not None and d.to_json_dict() == p["result"] \
                and loops == p["loops"]
    checks.append(("product_goldens", ok))
    ok = True
    for a in g["actions"]:
        d = DiluteDiagram.from_json_dict(a["diagram"])
        v = LinkState.from_text(a["state"])
        out = act_diagram(d, v, GENERIC)
        if a["result"] is None:
            ok = ok and out.is_zero()
        else:
            ok = ok and out.terms == {
                LinkState.from_text(a["result"]): beta() ** a["loops"]}
    checks.append(("action_goldens", ok))
    for n in range(1, 6):
        total = sum(len(enumerate_links(n, k)) for k in range(n + 1))
        checks.append(("basis_count_n%d" % n, total == sum(
            dim_standard(n, k) for k in range(n + 1))))
    # bottom-site maps compose to zero and are exact in the middle
    for n in range(2, 5):
        for k in range(1, n):
            image = set()
            for dc in (k - 1, k):
                for v in enumerate_links(n - 1, dc):
                    image.add(restriction_phi(v, k))
            kernel = {v for v in enumerate_links(n, k)
                      if restriction_psi(v) is None}
            checks.append(("exact_seq_n%d_k%d" % (n, k), image == kernel))
    for n in range(1, 4):
        for k in range(n + 1):
            bset = induced_basis(n, k)
            imgs = {phi_iso(i, u) for i, u in bset}
            checks.append(("induced_n%d_k%d" % (n, k),
                           len(bset) == dim_standard(n + 2, k)
                           and len(imgs) == len(bset)))
    return checks


def _suite_gram(rng):
    checks = []
    g = json.loads(_load_golden("worked_examples.json"))
    checks.append(("gram_goldens", all(
        gram_product(LinkState.from_text(e["x"]), LinkState.from_text(e["y"]))
        == LaurentPoly.parse(e["value"]) for e in g["gram"])))
    for n in range(1, 5):
        for k in range(n + 1):
            direct = gram_det_direct(n, k)
            closed = gram_det_closed(n, k)
            checks.append(("det_n%d_k%d" % (n, k), direct == closed))
    for m in (4, 6):
        mode = root_of_unity(m)
        for n in range(1, 6):
            for k in range(n + 1):
                checks.append(("nullity_n%d_k%d_m%d" % (n, k, m),
                               dim_standard(n, k) - gram_nullity(n, k, mode)
                               == dim_irr(n, k, mode.ell)))
    # invariance under the anti-involution: <x, u y> = <u^t x, y>
    n, k = 3, 1
    basis = enumerate_links(n, k)
    gens = all_generators(n)
    for trial in range(4):
        x, y = rng.choice(basis), rng.choice(basis)
        _lab, u = rng.choice(gens)
        lhs = sum((gram_product(x, z) * c for z, c in
                   act(u, y, quotient_k=k).terms.items()), GENERIC.zero())
        rhs = sum((gram_product(z, y) * c for z, c in
                   act(transpose(u), x, quotient_k=k).terms.items()),
                  GENERIC.zero())
        checks.append(("invariance_t%d" % trial, lhs == rhs))
    return checks


def _suite_central(rng):
    checks = []
    g = json.loads(_load_golden("central_small.json"))
    for key, n in (("F1", 1), ("F2", 2)):
        want = {DiluteDiagram.from_json_dict(t["diagram"]):
                LaurentPoly.parse(t["coeff"]) for t in g[key]["terms"]}
        checks.append(("golden_%s" % key, build_F(n).terms == want))
    for n in range(1, 4):
        checks.append(("central_n%d" % n, check_central(n)))
    for mode in (GENERIC, root_of_unity(6)):
        tag = "generic" if mode.kind == "generic" else "m%d" % mode.m
        for n in range(1, 4):
            for k in range(n + 1):
                checks.append(("eigen_n%d_k%d_%s" % (n, k, tag),
                               check_eigenvalue(n, k, mode)))
    return checks


def _suite_structure(rng):
    checks = []
    for m in (4, 6, 8):
        mode = root_of_unity(m)
        for n in range(1, 7):
            rep = structure_report(n, mode)
            checks.append(("report_n%d_m%d" % (n, m),
                           all(c["pass"] for c in rep["checks"])))
        for n in range(1, 7):
            rep = restriction_induction_report(n, mode.ell)
            checks.append(("res_ind_n%d_m%d" % (n, m), rep["all_pass"]))
        balanced = True
        for n in range(1, 8):
            try:
                regular_decomposition(n, mode)
            except CrossCheckError:  # the multiplicities miss the algebra dimension
                balanced = False
        checks.append(("regular_m%d" % m, balanced))
    checks.append(("cellularity_n2", all(
        verify_cellularity(2, k) for k in range(3))))
    return checks


_SUITES = {
    "algebra": _suite_algebra,
    "modules": _suite_modules,
    "gram": _suite_gram,
    "central": _suite_central,
    "structure": _suite_structure,
}


@_command(_option("suite", choices=sorted(_SUITES) + ["all"]),
          _option("--seed", type=int, default=0,
                  help="seed for the randomized spot checks [default: %(default)s]"))
def verify(suite, seed):
    """Run the named invariant suite and print JSON verdicts."""
    names = sorted(_SUITES) if suite == "all" else [suite]
    verdicts = []
    for name in names:
        rng = random.Random(seed)
        for check, passed in _SUITES[name](rng):
            verdicts.append({"suite": name, "check": check,
                             "pass": bool(passed)})
    all_pass = all(v["pass"] for v in verdicts)
    sys.stdout.write(json.dumps({"seed": seed, "verdicts": verdicts,
                                 "all_pass": all_pass}, indent=2, sort_keys=True) + "\n")
    if not all_pass:
        sys.exit(1)


if __name__ == "__main__":
    main()

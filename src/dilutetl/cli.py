"""
Command-line surface: compute, cross-check and export dimension tables,
Gram data, the central element and the structure reports.

Commands: `dims` (standard-module dimension table), `irr` (irreducible
dimension table, computed three independent ways), `gram` (matrix,
determinants and radical for one module) and `verify` (the invariant
suites of `dilutetl.checks`, with machine-readable verdicts; a failing
verdict also carries the two sides that disagreed, `lhs` and `rhs`, as
text).  Every command exits nonzero if any internal cross-check fails
(status 1); a command line they cannot run is a usage error (status 2).
`main` runs one command line on a single argparse parser, built at
import; `_command` adds each command to it.
"""

import argparse
import json
import os
import random
import re
import sys
from itertools import chain

from .ring import GENERIC, root_of_unity
from .link_modules import dim_standard
from . import checks
from .gram import (dim_irreducible, dim_irreducible_formula, gram_blocks,
                   gram_determinants, row_texts)
from .structure import irr_dims_recurrence

DEFAULT_DET_CAP = 5
DEFAULT_TABLE_CAP = 12
# near the cap a Gram block already takes seconds: at m = 997 (d = 498 coordinates
# of beta) `gram --n 6 --k 0` spends about 3 s in the elimination
MAX_ROOT_ORDER = 1000
# perfbench/selftest.py checks that its tracer patches gram_product in this
# module too; the command line calls it only through the checks
gram_product = checks.gram_product


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
        mot = checks.motzkin(2 * n)
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


def _text(side):
    """One side of a failed check as text; a set's members sorted, so the text is reproducible."""
    return str(sorted(side, key=str) if isinstance(side, set) else side)


@_command(_option("suite", choices=sorted(checks.SUITES) + ["all"]),
          _option("--seed", type=int, default=0,
                  help="seed for the randomized spot checks [default: %(default)s]"))
def verify(suite, seed):
    """Run the named invariant suite and print JSON verdicts."""
    names = sorted(checks.SUITES) if suite == "all" else [suite]
    verdicts = []
    for name in names:
        for check, lhs, rhs in checks.SUITES[name](random.Random(seed)):
            verdict = {"suite": name, "check": check, "pass": bool(lhs == rhs)}
            if not verdict["pass"]:
                verdict.update(lhs=_text(lhs), rhs=_text(rhs))
            verdicts.append(verdict)
    all_pass = all(v["pass"] for v in verdicts)
    sys.stdout.write(json.dumps({"seed": seed, "verdicts": verdicts,
                                 "all_pass": all_pass}, indent=2, sort_keys=True) + "\n")
    if not all_pass:
        sys.exit(1)


if __name__ == "__main__":
    main()

"""Root-of-unity bookkeeping: matrices, principal modules, reports."""

import csv
import json
import os

import pytest

from helpers import motzkin

from dilutetl import structure
from dilutetl.ring import GENERIC, beta, root_of_unity
from dilutetl.link_modules import dim_standard
from dilutetl.structure import (algebra_dim, cartan_matrix,
                                decomposition_matrix, dim_irr,
                                irr_dims_recurrence, loewy_type, pair_info,
                                principal_dims, regular_decomposition,
                                restriction_induction_report,
                                structure_report, verify_cellularity)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl",
                          "goldens")
REPORT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.jsonl")


def _golden_rows(name):
    with open(os.path.join(GOLDEN_DIR, name), newline="",
              encoding="utf-8") as fh:
        return [[int(v) for v in row] for row in csv.reader(fh)]


def test_algebra_dim_is_motzkin():
    for n in range(0, 9):
        assert algebra_dim(n) == motzkin(2 * n)


def test_pair_info_examples():
    assert pair_info(2, 4, 8)["k_plus"] == 4
    info = pair_info(3, 3, 9)
    assert (info["k_minus"], info["k_plus"]) == (1, 7)
    assert pair_info(3, 4, 8)["critical"]
    info = pair_info(6, 3, 7)
    assert info["k_plus"] == 10 and not info["k_plus_in_range"]


def test_pair_congruences():
    for ell in (2, 3, 4, 5):
        for k in range(0, 12):
            info = pair_info(k, ell, 12)
            if info["critical"]:
                continue
            kp = info["k_plus"]
            km = info["k_minus"]
            assert ((k + kp) // 2 + 1) % ell == 0
            assert 0 < (kp - k) // 2 < ell
            assert kp - km == 2 * ell


def test_decomposition_matrix():
    d = decomposition_matrix(6, 3)
    assert d[4] == [0, 0, 0, 0, 1, 0, 1]
    for k in (2, 5):  # critical rows are unit vectors
        assert d[k] == [1 if j == k else 0 for j in range(7)]


def test_cartan_matrix():
    c = cartan_matrix(6, 3)
    assert c[4][4] == 2
    for i in range(7):
        for j in range(7):
            assert c[i][j] == c[j][i]
    d = decomposition_matrix(6, 3)
    assert c == [[sum(d[i][a] * d[i][b] for i in range(7))
                  for b in range(7)] for a in range(7)]


def test_principal_dims_examples():
    assert principal_dims(8, 4)[5] == 104 + 512
    assert principal_dims(2, 2)[2] == 1 + 2
    for ell in (2, 3, 4):
        for n in range(1, 8):
            pd = principal_dims(n, ell)
            for k in range(n + 1):
                info = pair_info(k, ell, n)
                if info["critical"] or k < ell - 1:
                    assert pd[k] == dim_standard(n, k)


def test_loewy_types():
    assert loewy_type(8, 3, 4) == "a"
    assert loewy_type(8, 5, 4) == "c"
    assert loewy_type(8, 1, 4) == "d"
    assert loewy_type(6, 2, 2) == "b"


@pytest.mark.parametrize("ell,name", [(3, "dims_irreducible_ell3.csv"),
                                      (4, "dims_irreducible_ell4.csv")])
def test_recurrence_matches_golden_tables(ell, name):
    table = irr_dims_recurrence(10, ell)
    assert [list(r) for r in table] == _golden_rows(name)


def test_recurrence_table_is_one_table_per_ell():
    for ell in (2, 3, 5):
        small = irr_dims_recurrence(20, ell)
        assert irr_dims_recurrence(40, ell)[:21] == small
        assert irr_dims_recurrence(20, ell) == small


def test_regular_decomposition_generic():
    for n in range(1, 9):
        out = regular_decomposition(n, GENERIC)
        assert all(kind == "U" for (kind, _k), _m in out)
        assert sum(m * m for _id, m in out) == motzkin(2 * n)


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_regular_decomposition_root(m):
    mode = root_of_unity(m)
    for n in range(1, 9):
        out = regular_decomposition(n, mode)  # raises if the total is off
        pd = principal_dims(n, mode.ell)
        total = sum(mult * (pd[k] if kind == "P" else dim_standard(n, k))
                    for (kind, k), mult in out)
        assert total == motzkin(2 * n)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_structure_reports_pass(m):
    mode = root_of_unity(m)
    for n in range(1, 7):
        rep = structure_report(n, mode)
        assert all(c["pass"] for c in rep["checks"]), (n, m, rep["checks"])
        for row in rep["rows"]:
            assert row["dimU"] == row["dimR"] + row["dimL"]


def test_structure_report_generic():
    rep = structure_report(4, GENERIC)
    assert all(c["pass"] for c in rep["checks"])
    assert all(row["dimR"] == 0 for row in rep["rows"])
    assert rep["matrices"]["d"] == [[1 if i == j else 0 for j in range(5)]
                                    for i in range(5)]


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_restriction_induction_reports_pass(ell):
    for n in range(1, 7):
        rep = restriction_induction_report(n, ell)
        assert rep["all_pass"], (n, ell,
                                 [c for c in rep["checks"] if not c["pass"]])


def test_cellularity_small():
    for k in range(3):
        assert verify_cellularity(2, k)
    assert verify_cellularity(3, 1)


@pytest.mark.parametrize("k", range(5))
def test_cellularity_n4_at_root(k):
    assert verify_cellularity(4, k, root_of_unity(6))


def _drop_one_term(act):
    def patched(u, v, quotient_k=None):
        out = act(u, v, quotient_k)
        if out.terms:
            del out.terms[next(iter(out.terms))]
        return out
    return patched


def _drop_one_loop(raw):
    def patched(a, b):
        loops, t = raw(a, b)
        return (loops - 1 if loops else loops), t
    return patched


@pytest.mark.parametrize("target,wrap", [
    ("gram_product", lambda f: lambda y, z, mode=GENERIC: f(y, z, mode) * beta(mode)),
    ("act", _drop_one_term), ("multiply_diagrams_raw", _drop_one_loop)],
    ids=["pairing_times_beta", "act_drops_a_term", "product_drops_a_loop"])
def test_cellularity_detects_a_broken_operand(monkeypatch, target, wrap):
    """Operands built once outside the loops still reach the checks."""
    monkeypatch.setattr(structure, target, wrap(getattr(structure, target)))
    assert not verify_cellularity(3, 1)


def test_dim_irr_bounds():
    for ell in (2, 3, 4):
        for n in range(0, 9):
            for k in range(n + 1):
                l = dim_irr(n, k, ell)
                assert 1 <= l <= dim_standard(n, k)
                assert dim_irr(n, n, ell) == 1


def _check_entry(c):
    return [c["name"], c["lhs"], c["rhs"], c.get("flag")]


def report_lines():
    """
    One compact JSON line per report: `restriction_induction_report` for
    n <= 6 and ell in (2, 3, 4), then `structure_report` for n <= 6,
    generic and m in (4, 6, 8); each check as [name, lhs, rhs, flag].
    The golden was written by

        PYTHONPATH=src:tests python -c "import test_structure as t; print(*t.report_lines(), sep=chr(10))"

    Rewrite it only for a line that is a correction.
    """
    for n in range(7):
        for ell in (2, 3, 4):
            rep = restriction_induction_report(n, ell)
            yield json.dumps({"n": n, "ell": ell, "all_pass": rep["all_pass"],
                              "checks": [_check_entry(c) for c in rep["checks"]]},
                             separators=(",", ":"))
    for n in range(7):
        for mode in (GENERIC, root_of_unity(4), root_of_unity(6), root_of_unity(8)):
            rep = structure_report(n, mode)
            rows = [[list(v.values()) if isinstance(v, dict) else v for v in r.values()]
                    for r in rep["rows"]]
            yield json.dumps({"n": n, "mode": list(rep["mode"].values()), "rows": rows,
                              "matrices": rep["matrices"],
                              "checks": [_check_entry(c) for c in rep["checks"]]},
                             separators=(",", ":"))


def test_reports_match_golden():
    with open(REPORT_GOLDEN, encoding="utf-8") as fh:
        assert list(report_lines()) == fh.read().splitlines()


def test_report_records_keep_their_keys():
    for n in range(7):
        for ell in (2, 3, 4):
            for c in restriction_induction_report(n, ell)["checks"]:
                assert list(c) == ["name", "pass", "lhs", "rhs", "flag"]
                assert c["pass"] == (c["lhs"] == c["rhs"])
        for mode in (GENERIC, root_of_unity(6)):
            rep = structure_report(n, mode)
            assert [list(r) for r in rep["rows"]] == [[
                "k", "dimU", "dimR", "dimL", "dimP", "critical", "pair", "loewy_type"]] * (n + 1)
            for c in rep["checks"]:
                assert list(c) == ["name", "pass", "lhs", "rhs"]
                assert c["pass"] == (c["lhs"] == c["rhs"])

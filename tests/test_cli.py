"""The command-line surface: formats, goldens, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gram_output, motzkin, run_cli as _run

from dilutetl import checks, cli, gram
from dilutetl.cli import UsageError, main
from dilutetl.ring import GENERIC, root_of_unity

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
GOLDEN_DIR = os.path.join(SRC, "dilutetl", "goldens")
# for the tests that run the command line as a fresh process
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def _golden_text(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def test_dims_csv_matches_golden():
    res = _run(["dims", "--n-max", "10", "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == _golden_text("dims_standard.csv")


def test_dims_degenerate_sizes():
    res = _run(["dims", "--n-max", "0", "--format", "csv"])
    assert res.exit_code == 0 and res.output == "1\n"
    res = _run(["dims", "--n-max", "1", "--format", "csv"])
    assert res.exit_code == 0 and res.output == "1\n1,1\n"


def test_dims_cap():
    res = _run(["dims", "--n-max", "13"])
    assert res.exit_code != 0
    res = _run(["dims", "--n-max", "13", "--cap-override", "14",
                "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["rows"][13][0] == motzkin(13)  # zero-defect column
    assert data["totals"][13]["sum_squares"] == data["totals"][13]["motzkin"]


def test_dims_json_totals():
    res = _run(["dims", "--n-max", "8", "--format", "json"])
    data = json.loads(res.output)
    assert data["totals"][8] == {"n": 8, "sum_squares": 853467,
                                 "motzkin": 853467}


@pytest.mark.parametrize("m,name", [(6, "dims_irreducible_ell3.csv"),
                                    (8, "dims_irreducible_ell4.csv")])
def test_irr_csv_matches_golden(m, name):
    res = _run(["irr", "--n-max", "10", "--root-of-unity", str(m),
                "--nullity-n-max", "4", "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == _golden_text(name)


def test_irr_three_way_agreement_m4():
    res = _run(["irr", "--n-max", "6", "--root-of-unity", "4",
                "--nullity-n-max", "6", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["mismatches"] == []


@pytest.mark.parametrize("m", [6, 8])
def test_irr_nullity_up_to_n_max(m):
    """The Gram nullity cross-check reaches the whole n <= 10 table."""
    res = _run(["irr", "--n-max", "10", "--root-of-unity", str(m),
                "--nullity-n-max", "10", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["mismatches"] == []


@pytest.mark.parametrize("m", [5, 7])
def test_irr_nullity_at_nine_sites(m):
    """
    The nullity cross-check on 9 sites at an m with phi(m)/2 = 2 or 3,
    where a Z[beta] echelon without exact division lets its coefficients
    grow with every pivot; run as a process with a timeout, so a relapse
    fails instead of stalling.
    """
    res = subprocess.run([sys.executable, "-m", "dilutetl.cli", "irr", "--n-max", "9",
                          "--root-of-unity", str(m), "--nullity-n-max", "9",
                          "--format", "json"], env=_ENV, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["mismatches"] == []


def test_irr_invalid_m():
    res = _run(["irr", "--n-max", "4", "--root-of-unity", "2"])
    assert res.exit_code != 0


@pytest.mark.parametrize("n_max", ["-1", "13"])
@pytest.mark.parametrize("fmt", ["csv", "pretty", "json"])
def test_irr_n_max_out_of_range(n_max, fmt):
    res = _run(["irr", "--n-max", n_max, "--root-of-unity", "6",
                "--format", fmt])
    assert res.exit_code == 2 and "--n-max must be between 0 and 12" in res.output


@pytest.mark.parametrize("args,option", [
    (["dims", "--n-max", "5", "--cap-override", "-3"], "--cap-override"),
    (["gram", "--n", "2", "--k", "0", "--cap-override", "-1"], "--cap-override"),
    (["irr", "--n-max", "4", "--root-of-unity", "6", "--nullity-n-max", "-5"],
     "--nullity-n-max")])
def test_negative_counts_are_usage_errors(args, option):
    res = _run(args)
    value = args[args.index(option) + 1]
    assert res.exit_code == 2
    assert "argument %s: '%s' is not an integer >= 0" % (option, value) in res.stderr


@pytest.mark.parametrize("value", ["+7", " 7", "07"])
def test_counts_take_any_form_int_reads(value):
    res = _run(["dims", "--n-max", "6", "--cap-override", value, "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == _run(["dims", "--n-max", "6", "--cap-override", "7",
                               "--format", "csv"]).output


def test_gram_small_determinants():
    res = _run(["gram", "--n", "2", "--k", "0", "--format", "json"])
    data = json.loads(res.output)
    assert data["det_direct"] == "1*q^-1 + 1*q^1"
    assert data["det_closed"] == "1*q^-1 + 1*q^1"
    res = _run(["gram", "--n", "3", "--k", "1", "--format", "json"])
    data = json.loads(res.output)
    assert data["det_direct"] == "1*q^-2 + 1*q^0 + 1*q^2"


def test_gram_radical_at_root():
    res = _run(["gram", "--n", "6", "--k", "4", "--root-of-unity", "6",
                "--format", "json"])
    data = json.loads(res.output)
    assert data["radical_dim"] == 1
    assert len(data["radical_basis"]) == 1


@pytest.mark.parametrize("args,digest", [
    (["--n", "6", "--k", "0", "--root-of-unity", "6"],
     "51f1d60e4ac5f4da714172170c3c5325cf80534418c2e286c00c15b0323c47e2"),
    (["--n", "6", "--k", "2", "--root-of-unity", "5"],
     "f353934b1b92d2aef2ab6909448ef73f20c51738ffce3fe206cce76e965127ea"),
    (["--n", "6", "--k", "1", "--root-of-unity", "8"],
     "498504c877896b0d9121b431e3d4508355ccb6e8619726964cc349e4f620fff0"),
    (["--n", "5", "--k", "1", "--generic"],
     "38c2b37c489765f013cf2ea0331b599544294fdb8a18a5a428fc4cfe34b2071c"),
    (["--n", "7", "--k", "1", "--generic", "--cap-override", "7"],
     "012790927d1fd74795ee7df7db1b93d3337a6d464d4743a0ce0a6cb65e4a6a96"),
    (["--n", "8", "--k", "2", "--generic", "--cap-override", "8"],
     "11c4eccb4d3ee4cead01681a84019eea3b44f2cf364ea4366697e11dbdd739e3"),
    # fractional radical entries
    (["--n", "7", "--k", "3", "--root-of-unity", "12"],
     "5b5ac88ec253715fcd0f3117cee3891d8ed0c7f68f3a68833df450707c135495"),
    # psi_7 of degree 3
    (["--n", "8", "--k", "5", "--root-of-unity", "7"],
     "ef15aaa6f1f287066696a2b9ef75e0ba163166b91823a12c3916cad960e78829"),
    # the largest output of the benchmark's gram_root workload (1,862,477 bytes)
    (["--n", "8", "--k", "0", "--root-of-unity", "6"],
     "1a769a11d75eeaba2ee81d33927b5c3426535490a38bb4495933ab506794beef"),
])
def test_gram_json_bytes_pinned(args, digest):
    """Matrix, blocks, determinants and radical basis, byte for byte."""
    res = _run(["gram", "--format", "json"] + args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("args,csv_digest,pretty_digest", [
    (["--n", "8", "--k", "0", "--root-of-unity", "6"],
     "988b128b34efc9448f6d84c666e0e5b47507eb950720fd92211327d479e1384a",
     "971b7fb454a7bb4469f6427a2463b5e1485d8d880e82197985a737ca29b36fa4"),
    (["--n", "7", "--k", "1", "--generic", "--cap-override", "7"],
     "c1345fb6a70a33f54f6901f48cfa2bf4db3187201d16ac43e0a6f39f848608d2",
     "4a9676bae78ffa2137499a047d8a5f71cb5531a3ab3fcc61144a0bc69413210a"),
])
def test_gram_csv_and_pretty_bytes_pinned(args, csv_digest, pretty_digest):
    """The csv matrix and the pretty report, byte for byte."""
    for fmt, digest in (("csv", csv_digest), ("pretty", pretty_digest)):
        res = _run(["gram", "--format", fmt] + args)
        assert res.exit_code == 0
        assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == digest, fmt


@pytest.mark.parametrize("m", [None, 3, 4, 5, 6, 8])
def test_gram_output_matches_cell_rendering(m):
    """The block-spliced output equals rendering every cell on its own."""
    mode = GENERIC if m is None else root_of_unity(m)
    flag = ["--generic"] if m is None else ["--root-of-unity", str(m)]
    for n in range(7):
        for k in range(n + 1):
            for fmt in ("json", "csv", "pretty"):
                res = _run(["gram", "--n", str(n), "--k", str(k),
                            "--format", fmt] + flag)
                assert res.exit_code == 0
                assert res.output == gram_output(n, k, mode, fmt), (n, k, fmt)


@pytest.mark.parametrize("cmd", [["gram", "--n", "4", "--k", "0"],
                                 ["irr", "--n-max", "4"]])
def test_root_order_capped(cmd):
    for m in ("1001", "1000000"):
        for fmt in ("json", "csv", "pretty"):
            res = _run(cmd + ["--root-of-unity", m, "--format", fmt])
            assert res.exit_code == 2, (m, fmt)
            assert "--root-of-unity is capped at m = 1000" in res.output
    res = _run(cmd + ["--root-of-unity", "1000"])
    assert res.exit_code == 0


def test_gram_determinant_at_root():
    res = _run(["gram", "--n", "4", "--k", "2", "--root-of-unity", "6",
                "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["det_direct"] == data["det_closed"]


def test_gram_exits_nonzero_when_determinants_disagree(monkeypatch):
    # a wrong closed form of the dense (3, 1) block: the module's becomes 7
    monkeypatch.setattr(gram, "det_gram_tl", lambda m, k: GENERIC.const(7 if m == 3 else 1))
    for flag, direct in (([], "1*q^-2 + 1*q^0 + 1*q^2"), (["--root-of-unity", "6"], "0")):
        for fmt in ("json", "pretty"):
            res = _run(["gram", "--n", "3", "--k", "1", "--format", fmt] + flag)
            assert res.exit_code == 1, (flag, fmt)
            assert "det_direct %s != det_closed 7*q^0" % direct in res.stderr, (flag, fmt)


def test_gram_takes_one_determinant_product(monkeypatch):
    """When every dense factor agrees with its closed form, one product serves both."""
    calls = []

    def spy(factors):
        calls.append(factors)
        return product(factors)

    product = gram.laurent_product
    monkeypatch.setattr(gram, "laurent_product", spy)
    for flag in (["--generic"], ["--root-of-unity", "6"]):
        calls.clear()
        res = _run(["gram", "--n", "5", "--k", "1", "--format", "json"] + flag)
        data = json.loads(res.output)
        assert res.exit_code == 0 and data["det_direct"] == data["det_closed"]
        assert len(calls) == 1, flag


def test_gram_exits_nonzero_when_radical_disagrees(monkeypatch):
    monkeypatch.setattr(cli, "dim_irreducible_formula", lambda n, k, ell: 0)
    res = _run(["gram", "--n", "3", "--k", "1", "--root-of-unity", "6"])
    assert res.exit_code == 1
    assert "radical_dim 1 != dim_standard - dim_irreducible_formula 5" in res.stderr


@st.composite
def _cli_args(draw):
    """
    gram, dims or irr with sizes from -2 to 10 and m from -2 to 1002.  A gram
    run that gets past the usage checks has n <= 4, and irr computes
    nullities for n <= 3 at most, so no case takes long at m near 1000.
    """
    size, fmt = st.integers(-2, 10), st.sampled_from(["json", "csv", "pretty"])
    root = ["--root-of-unity", str(draw(st.integers(-2, 1002)))]
    cmd = draw(st.sampled_from(["gram", "dims", "irr"]))
    if cmd == "dims":
        args = ["--n-max", str(draw(size))]
    elif cmd == "irr":
        args = ["--n-max", str(draw(size)), "--nullity-n-max",
                str(draw(st.integers(-1, 3)))] + root
    else:
        n = draw(st.one_of(st.integers(-2, 4), st.integers(9, 10)))
        args = (["--n", str(n), "--k", str(draw(size))]
                + draw(st.sampled_from([[], ["--generic"], root, ["--generic"] + root])))
    return [cmd] + args + ["--format", draw(fmt)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_cli_args())
def test_cli_input_gives_an_exit_code_not_a_traceback(args):
    res = _run(args)  # any exception but SystemExit propagates and fails the test
    assert res.exit_code in (0, 1, 2), (args, res.output)


def test_option_abbreviations_are_usage_errors():
    res = _run(["gram", "--n", "2", "--k", "0", "--gen"])
    assert res.exit_code == 2 and "unrecognized arguments: --gen" in res.stderr


def test_in_process_call_without_standalone_mode(monkeypatch):
    """
    Success returns, a mismatch exits 1, bad input raises; the first call
    is the one perfbench/worker.py makes, through the main.main alias.
    """
    args = ["gram", "--n", "3", "--k", "1", "--format", "json"]
    assert main.main(args=args, prog_name="dilutetl", standalone_mode=False) is None
    with pytest.raises(UsageError, match="need 0 <= k <= n"):
        main(["gram", "--k", "5", "--n", "3"], standalone_mode=False)
    with pytest.raises(UsageError):
        main(["gram", "--n", "3"], standalone_mode=False)
    monkeypatch.setattr(gram, "det_gram_tl", lambda m, k: GENERIC.const(7))
    with pytest.raises(SystemExit) as exc:
        main(args, standalone_mode=False)
    assert exc.value.code == 1


def test_usage_error_names_the_program():
    assert _run(["gram", "--n", "3"]).stderr.startswith("usage: dilutetl gram ")


def test_import_loads_no_third_party_cli_library():
    """The command line is standard-library argparse: importing it loads no click."""
    res = subprocess.run([sys.executable, "-c", "import sys, dilutetl.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))"],
                         env=_ENV, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_closed_pipe_exits_1_without_a_traceback():
    """A reader that stops early (as `| head` does) ends the command quietly."""
    # 1.8 MB of output, more than a pipe holds, so a write must fail
    proc = subprocess.Popen([sys.executable, "-m", "dilutetl.cli", "gram", "--n", "8", "--k", "0",
                             "--root-of-unity", "6", "--format", "json"], env=_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_gram_mode_flags_exclusive():
    res = _run(["gram", "--n", "2", "--k", "0", "--generic",
                "--root-of-unity", "6"])
    assert res.exit_code != 0


@pytest.mark.parametrize("suite", ["algebra", "modules", "gram", "central",
                                   "structure"])
def test_verify_suites_pass(suite):
    res = _run(["verify", suite, "--seed", "3"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["all_pass"] and data["verdicts"]


def test_verify_deterministic():
    a = _run(["verify", "algebra", "--seed", "11"]).output
    b = _run(["verify", "algebra", "--seed", "11"]).output
    assert a == b


def test_verify_all_exit_zero():
    res = _run(["verify", "all", "--seed", "0"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    suites = {v["suite"] for v in data["verdicts"]}
    assert suites == {"algebra", "modules", "gram", "central", "structure"}


def test_verify_all_under_optimize():
    """No verdict leans on an assert, which python -O strips."""
    res = subprocess.run([sys.executable, "-O", "-m", "dilutetl.cli", "verify",
                          "all", "--seed", "0"], env=_ENV, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr
    assert json.loads(res.stdout)["all_pass"]


def test_verify_unknown_suite():
    res = _run(["verify", "nonsense"])
    assert res.exit_code != 0


def test_motzkin_matches_convolution():
    assert [checks.motzkin(n) for n in range(301)] == [motzkin(n) for n in range(301)]


def test_table_oracles_return_on_a_cold_memo():
    """Neither oracle recurses once per site, so a fresh process reaches these sizes."""
    code = ("from dilutetl import checks, tl_reference\n"
            "print(checks.motzkin(2200) > 0, tl_reference.dim_irr_tl(1100, 0, 3) > 0)")
    res = subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True,
                         text=True, timeout=120)
    assert (res.returncode, res.stdout) == (0, "True True\n"), res.stderr[-2000:]


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_output_is_pinned(seed):
    with open(os.path.join(os.path.dirname(__file__), "verify_all_seed%d.json" % seed),
              encoding="utf-8") as fh:
        assert _run(["verify", "all", "--seed", str(seed)]) == (0, fh.read(), "")


def _clear_pairing_memos():
    for memo in (gram._dense_loops, gram._dense_det, gram._dense_echelon):
        memo.cache_clear()


def test_failing_verdict_carries_both_sides(monkeypatch):
    """A pairing that drops a loop fails `gram_goldens`, whose verdict shows both sides."""
    pair_loops = gram._pair_loops

    def dropped(x, y):
        loops = pair_loops(x, y)
        return loops - 1 if loops else loops

    monkeypatch.setattr(gram, "_pair_loops", dropped)
    _clear_pairing_memos()
    try:
        res = _run(["verify", "gram"])
    finally:
        monkeypatch.undo()
        _clear_pairing_memos()
    assert res.exit_code == 1
    verdict = {v["check"]: v for v in json.loads(res.output)["verdicts"]}["gram_goldens"]
    assert verdict["pass"] is False and verdict["lhs"] != verdict["rhs"], verdict

"""
One benchmark pass: a fresh interpreter that loads dilutetl, runs one
workload's job list in a seeded order, checks every output and prints one
JSON line.  Started by run.py with PYTHONPATH pointing at the checkout's
src/; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Everything up to SETUP_END is the set-up being timed: interpreter start
(measured by the parent, which records the spawn time) plus loading
dilutetl.cli and every module it imports.
"""

import time

import dilutetl.cli  # noqa: E402,F401  (loads every dilutetl module)

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from dilutetl import central, cli, structure  # noqa: E402
from dilutetl.gram import dim_irreducible_formula  # noqa: E402
from dilutetl.link_modules import LinComb, act, dim_standard, enumerate_links  # noqa: E402
from dilutetl.ring import GENERIC, root_of_unity  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(dilutetl.cli.__file__), "goldens")

# States sampled per (n, k) for the eigenvalue check on each built F.
EIGEN_SAMPLES = 2


# -- workloads ---------------------------------------------------------------
# A job is a tuple whose first entry names its kind.  The lists are fixed:
# the seed only shuffles their order and picks the sampled check states, so
# the work done per pass does not depend on the seed.

def _gram_root_jobs():
    jobs = [("gram", 7, k, 6, None) for k in range(8)]
    jobs.append(("gram", 8, 0, 6, None))
    for m in (8, 5):
        jobs += [("gram", 6, k, m, None) for k in range(7)]
    jobs += [("irr", m) for m in (6, 8)]
    return jobs


def _det_generic_jobs():
    return [("gram", n, k, None, 7) for n in (5, 6, 7) for k in range(n + 1)]


def _central_tile_jobs():
    jobs = []
    for m in (None, 6):
        jobs += [("build_F", n, m) for n in range(1, 6)]
        jobs += [("check_central", n, m) for n in range(1, 5)]
    for m in (None, 6, 8):
        jobs += [("check_eigenvalue", n, k, m)
                 for n in range(1, 5) for k in range(n + 1)]
    jobs += [("cellularity", 3, k) for k in range(4)]
    return jobs


WORKLOADS = {
    "gram_root": _gram_root_jobs,
    "det_generic": _det_generic_jobs,
    "central_tile": _central_tile_jobs,
}


def job_list(workload, seed):
    """The workload's jobs in the order the seed gives."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


def job_id(job):
    return ":".join("-" if v is None else str(v) for v in job)


def _mode(m):
    return GENERIC if m is None else root_of_unity(m)


def cli_argv(job):
    """Command-line arguments of a CLI job."""
    if job[0] == "gram":
        _kind, n, k, m, cap = job
        argv = ["gram", "--n", str(n), "--k", str(k), "--format", "json"]
        argv += ["--generic"] if m is None else ["--root-of-unity", str(m)]
        if cap is not None:
            argv += ["--cap-override", str(cap)]
        return argv
    _kind, m = job
    return ["irr", "--n-max", "10", "--root-of-unity", str(m),
            "--nullity-n-max", "8", "--format", "json"]


def invoke_cli(argv):
    """Run the dilutetl CLI in-process; returns (exit status, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=argv, prog_name="dilutetl", standalone_mode=False)
            status = 0
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return status, buf.getvalue()


def prepare(job):
    """A zero-argument callable that runs the job through public dilutetl calls."""
    kind = job[0]
    if kind in ("gram", "irr"):
        argv = cli_argv(job)
        return lambda: invoke_cli(argv)
    if kind == "build_F":
        n, mode = job[1], _mode(job[2])
        return lambda: central.build_F(n, mode)
    if kind == "check_central":
        n, mode = job[1], _mode(job[2])
        return lambda: central.check_central(n, mode)
    if kind == "check_eigenvalue":
        n, k, mode = job[1], job[2], _mode(job[3])
        return lambda: central.check_eigenvalue(n, k, mode)
    if kind == "cellularity":
        n, k = job[1], job[2]
        return lambda: structure.verify_cellularity(n, k)
    raise ValueError("unknown job kind %r" % kind)


class JobError:
    """Stands for the output of a job that raised; its check fails."""

    def __init__(self, exc):
        self.text = "%s: %s" % (type(exc).__name__, exc)


def reduce_output(job, out):
    """
    The part of a job's output the checks need.  CLI output is parsed
    here, outside the timed interval; large matrices are reduced to the
    facts checked about them.
    """
    if job[0] not in ("gram", "irr") or isinstance(out, JobError):
        return out
    status, text = out
    res = {"status": status, "bytes": len(text.encode("utf-8"))}
    try:
        data = json.loads(text)
    except ValueError:
        return res
    if job[0] == "irr":
        res["rows"] = data.get("rows")
        res["mismatches"] = data.get("mismatches")
        return res
    mat = data.get("matrix", [])
    res["dim"] = data.get("dim")
    res["matrix_size"] = len(mat)
    res["symmetric"] = all(mat[i][j] == mat[j][i]
                           for i in range(len(mat)) for j in range(i))
    for key in ("radical_dim", "det_direct", "det_closed"):
        if key in data:
            res[key] = data[key]
    return res


# -- checks --------------------------------------------------------------------
# Each checker returns None when the output is right and a short reason when
# it is not.  The oracles are the golden tables shipped with the package and
# closed forms computed independently of the path under test.

def _read_csv(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return [[int(v) for v in line.split(",")] for line in fh if line.strip()]


def _golden_central():
    with open(os.path.join(GOLDEN_DIR, "central_small.json"), encoding="utf-8") as fh:
        g = json.load(fh)
    out = {}
    for key, n in (("F1", 1), ("F2", 2)):
        out[n] = {(json.dumps(t["diagram"], sort_keys=True), t["coeff"])
                  for t in g[key]["terms"]}
    return out


class Oracles:
    """Golden tables, loaded once per pass after the timed jobs."""

    def __init__(self):
        self.dims = _read_csv("dims_standard.csv")
        self.irr = {3: _read_csv("dims_irreducible_ell3.csv"),
                    4: _read_csv("dims_irreducible_ell4.csv")}
        self.central = _golden_central()


def check_gram(job, res, oracles):
    _kind, n, k, m, _cap = job
    if res.get("status") != 0:
        return "exit status %r" % res.get("status")
    if res.get("dim") != oracles.dims[n][k] or res.get("matrix_size") != oracles.dims[n][k]:
        return "dim %r, golden %d" % (res.get("dim"), oracles.dims[n][k])
    if not res.get("symmetric"):
        return "matrix not symmetric"
    if m is None:
        if "det_direct" not in res or res["det_direct"] != res.get("det_closed"):
            return "det_direct %r != det_closed %r" % (res.get("det_direct"),
                                                      res.get("det_closed"))
    else:
        want = dim_standard(n, k) - dim_irreducible_formula(n, k, _mode(m).ell)
        if res.get("radical_dim") != want:
            return "radical_dim %r, formula %d" % (res.get("radical_dim"), want)
    return None


def check_irr(job, res, oracles):
    ell = _mode(job[1]).ell
    if res.get("status") != 0:
        return "exit status %r" % res.get("status")
    if res.get("mismatches") != []:
        return "mismatches %r" % res.get("mismatches")
    if res.get("rows") != oracles.irr[ell]:
        return "rows differ from the ell=%d golden" % ell
    return None


def check_F(job, f, oracles, rng):
    """F against the golden terms (n <= 2, generic) and F v = delta(k) v."""
    _kind, n, m = job
    mode = _mode(m)
    if m is None and n in oracles.central:
        got = {(json.dumps(d.to_json_dict(), sort_keys=True), str(c))
               for d, c in f.terms.items()}
        if got != oracles.central[n]:
            return "F%d differs from the golden" % n
    for k in range(n + 1):
        states = enumerate_links(n, k)
        dk = mode.q_power(k + 1) + mode.q_power(-(k + 1))
        for v in rng.sample(states, min(EIGEN_SAMPLES, len(states))):
            if act(f, v, quotient_k=k) != LinComb.from_state(v, mode, dk):
                return "F v != delta(%d) v for v=%s" % (k, v.text())
    return None


def check(job, res, oracles, rng):
    """Reason the job's output is wrong, or None."""
    kind = job[0]
    if isinstance(res, JobError):
        return "raised " + res.text
    if kind == "gram":
        return check_gram(job, res, oracles)
    if kind == "irr":
        return check_irr(job, res, oracles)
    if kind == "build_F":
        return check_F(job, res, oracles, rng)
    return None if res is True else "returned %r" % (res,)


# -- one pass ----------------------------------------------------------------

def run_pass(workload, seed, tracer=None):
    jobs = job_list(workload, seed)
    if tracer is not None:
        tracer.install()
    wall = cpu = 0.0
    results = []
    try:
        for job in jobs:
            fn = prepare(job)
            if tracer is not None:
                tracer.begin_job(job_id(job))
                if job[0] in ("gram", "irr"):
                    fn = tracer.span("cli.main", fn)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a job that raises fails its check; the pass goes on
                out = JobError(exc)
            t1 = time.perf_counter()
            c1 = time.process_time()
            wall += t1 - t0
            cpu += c1 - c0
            if tracer is not None:
                tracer.end_job(t1 - t0)
            results.append(reduce_output(job, out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracles = Oracles()
    rng = random.Random(seed)
    failures = []
    for job, res in zip(jobs, results):
        reason = check(job, res, oracles, rng)
        if reason is not None:
            failures.append({"job": job_id(job), "reason": reason})
    out = {"setup_end": SETUP_END, "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mib": peak_rss_mib,
           "attempted": len(jobs), "failed": len(failures), "failures": failures,
           "cli_output_bytes": sum(r.get("bytes", 0) for r in results
                                   if isinstance(r, dict))}
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        out = {"setup_end": SETUP_END}
    else:
        if args.workload is None:
            ap.error("--workload is required")
        tracer = None
        if args.trace:
            from tracer import Tracer  # perfbench/ is sys.path[0]
            tracer = Tracer()
        out = run_pass(args.workload, args.seed, tracer)
    out["dilutetl_file"] = dilutetl.cli.__file__
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

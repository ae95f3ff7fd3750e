"""
The dilutetl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is taken from the
checkout's src/ (pure Python, nothing to compile).  A run is a closed loop
with one client: it starts one fresh interpreter at a time (worker.py),
and each of them loads dilutetl and runs the workload's whole job list
once, so every pass pays the library's cold memo caches as a CLI user
does.  Passes, each after two set-up-only starts, repeat until the next
one would end after --seconds; every metric is the median over the run.

--trace 0 prints the end-to-end metrics.  --trace 1 makes the first pass a
traced one (tracer.py) and prints the per-module metrics; the untraced
passes after it give the base of trace.overhead_frac.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds
diagnostics (host, revision, load, a fixed Fraction probe, the per-pass
values and any failed checks).  The per-job spans of a traced pass are
written to .perfbench_out/.  See perfbench/README.md for the workloads and
the metric tables.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("gram_root", "det_generic", "central_tile")
# Set-up-only interpreter starts before each pass, on top of the one each pass
# makes; spread over the run, they see the same host as the passes.
SETUP_SPAWNS_PER_PASS = 2
# A run that has not finished after this many seconds fails (the caller allows 180).
RUN_LIMIT_S = 170

SPEC = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(Exception):
    pass


def metric_units(kind):
    """(name, unit) of every metric BENCHMARK.json lists under kind, in its order."""
    try:
        with open(SPEC, encoding="utf-8") as fh:
            return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError("cannot read %s from %s: %s" % (kind, SPEC, exc))


def layer_metrics(names, trace, output_bytes, traced_wall, untraced_wall):
    """Values of the named per-module metrics from the per-job records of one traced pass."""
    calls, self_s, counts, builds, outer_self = {}, {}, {}, [], 0.0
    for job in trace:
        for op, rec in job["ops"].items():
            calls[op] = calls.get(op, 0) + rec["calls"]
            self_s[op] = self_s.get(op, 0.0) + rec["self_s"]
        for key, val in job["counts"].items():
            counts[key] = counts.get(key, 0) + val
        builds += [tuple(b) for b in job["matrix_builds"]]
        outer_self += job["outer_self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "diagram_core.glue.zero_frac": ratio(counts.get("glue_zero", 0),
                                             calls.get("diagram_core.glue", 0)),
        "diagram_core.loops": counts.get("loops", 0),
        "link_modules.act_diagram.zero_frac": ratio(
            counts.get("act_zero", 0), calls.get("link_modules.act_diagram", 0)),
        "gram.pairing.zero_frac": ratio(counts.get("pair_zero", 0),
                                        calls.get("gram.pairing", 0)),
        "gram.matrix.entries": counts.get("entries", 0),
        "gram.matrix.builds_per_module": ratio(len(builds), len(set(builds))),
        "central.assignments": counts.get("assignments", 0),
        "central.useful_frac": ratio(counts.get("useful", 0),
                                     counts.get("assignments", 0)),
        "cli.invocations": calls.get("cli.main", 0),
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        # The outermost span of each job is left out: its self time is
        # whatever the tracer does not wrap.
        "trace.coverage": ratio(sum(self_s.values()) - outer_self, traced_wall),
    }
    values = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        module_ops = [op for op in self_s if op == base or op.startswith(base + ".")]
        if name in derived:
            values[name] = derived[name]
        elif stat == "calls" and base in calls:
            values[name] = calls[base]
        elif stat == "self_s" and module_ops:
            values[name] = sum(self_s[op] for op in module_ops)
        else:
            raise BenchError("no traced op gives the metric %s" % name)
    return values


def fraction_probe():
    """Seconds taken by a fixed pure-Python Fraction loop (a host-speed diagnostic)."""
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    for i in range(1, 40001):
        Fraction(i, 7) * Fraction(3, i + 1) + third
    return time.perf_counter() - t0


def git_state():
    """(revision, dirty) of the checkout, or (None, None) unless it is a git work tree's root."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = rev.stdout.split()
        if rev.returncode != 0 or len(lines) != 2 or \
                os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return None, None
        st = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return lines[1], bool(st.stdout.strip())


def spawn(args, deadline):
    """Start one worker interpreter, wait for it and return its JSON record."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up loads bytecode, as an installed package does
    env.pop("DTL_CACHE_DIR", None)  # every pass computes the irr tables cold, as a fresh CLI call does
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("no time left for worker %s" % " ".join(args))
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s timed out" % " ".join(args))
    if proc.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                                       proc.stderr[-2000:]))
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("worker %s printed no record" % " ".join(args))
    if not rec["dilutetl_file"].startswith(SRC + os.sep):
        raise BenchError("loaded dilutetl from %s, not from %s" % (rec["dilutetl_file"], SRC))
    rec["setup_s"] = rec["setup_end"] - t0
    return rec


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "dilutetl", "cli.py")):
        raise BenchError("no dilutetl sources under %s" % SRC)
    units = metric_units("per_layer" if trace else "end_to_end")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    load_start = os.getloadavg()
    probe_s = fraction_probe()
    spawn(["--setup-only"], deadline)  # writes the bytecode caches; not timed
    pass_args = ["--workload", workload, "--seed", str(seed)]
    traced = spawn(pass_args + ["--trace"], deadline) if trace else None
    setups, passes, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        setups += [spawn(["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_SPAWNS_PER_PASS)]
        passes.append(spawn(pass_args, deadline))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break
    everything = passes + ([traced] if traced else [])
    setups += [p["setup_s"] for p in everything]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)

    def med(key):
        return statistics.median(p[key] for p in passes)

    if trace:
        values = layer_metrics([name for name, _unit in units], traced["trace"],
                               traced["cli_output_bytes"], traced["wall_s"],
                               med("wall_s"))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "jobs": traced["trace"]}, fh)
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": med("wall_s"),
                  "cpu_s": med("cpu_s"), "peak_rss_mib": med("peak_rss_mib")}
        unknown = [name for name, _unit in units if name not in values]
        if unknown:
            raise BenchError("no measurement gives the metrics %s" % ", ".join(unknown))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    rev, dirty = git_state()
    diagnostics = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_rev": rev, "git_dirty": dirty,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "fraction_probe_s": probe_s, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "setup_samples_s": setups, "failed_frac": failed / attempted,
        "failures": [f for p in everything for f in p["failures"]],
        "run_s": time.monotonic() - start,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="The dilutetl benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

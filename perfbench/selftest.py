"""
Self-tests of the benchmark itself.

    python3 perfbench/selftest.py                 # checkers and tracer
    python3 perfbench/selftest.py --determinism

The default checks take a few seconds:
  * every output checker passes a correct result and counts a corrupted
    one as failed (a wrong radical_dim, a det with flipped sign, an F with
    one term dropped, a wrong irr row, a False verdict);
  * the tracer patches a function in every dilutetl module that binds it
    and restores every binding afterwards.

--determinism runs three traced passes per workload (two with SEED, one
with SEED + 1; about a minute per workload) and requires
identical counts: every *.calls, gram.matrix.entries, diagram_core.loops,
central.assignments, cli.output_bytes and every *_frac except the
tracing overhead.  Same-seed passes must also agree job by job.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

SEED = 1


def _expect(ok, what, failures):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def test_checkers(failures):
    import random

    from dilutetl.diagram_core import AlgebraElem
    from dilutetl.ring import LaurentPoly

    import worker

    oracles = worker.Oracles()
    rng = random.Random(0)

    def verdicts(job, good, bad, corruption):
        _expect(worker.check(job, good, oracles, rng) is None,
                "%s: correct output passes" % worker.job_id(job), failures)
        _expect(worker.check(job, bad, oracles, rng) is not None,
                "%s: %s counts as failed" % (worker.job_id(job), corruption), failures)

    def output(job):
        return worker.reduce_output(job, worker.prepare(job)())

    job = ("gram", 4, 0, 6, None)
    good = output(job)
    verdicts(job, good, dict(good, radical_dim=good["radical_dim"] + 1), "wrong radical_dim")
    verdicts(job, good, dict(good, symmetric=False), "asymmetric matrix")
    verdicts(job, good, dict(good, dim=good["dim"] + 1), "wrong dim")

    job = ("gram", 4, 0, None, 7)
    good = output(job)
    flipped = str(-LaurentPoly.parse(good["det_direct"]))
    verdicts(job, good, dict(good, det_direct=flipped), "det with flipped sign")

    job = ("irr", 6)
    good = output(job)
    rows = [list(r) for r in good["rows"]]
    rows[5][2] += 1
    verdicts(job, good, dict(good, rows=rows), "wrong irr row")

    job = ("build_F", 2, None)
    f = worker.prepare(job)()
    dropped = dict(f.terms)
    dropped.pop(next(iter(dropped)))
    verdicts(job, f, AlgebraElem(f.n, f.mode, dropped), "F with one term dropped")

    job = ("check_central", 2, None)
    verdicts(job, worker.prepare(job)(), False, "False verdict")


def test_tracer(failures):
    from dilutetl import central, cli, gram, link_modules, ring, structure

    from tracer import Tracer

    bound = {"gram_product": [gram, structure, cli],
             "act": [link_modules, central, structure],
             "beta": [mod for mod in sys.modules.values()
                      if getattr(mod, "__name__", "").startswith("dilutetl.")
                      and getattr(mod, "beta", None) is ring.beta]}
    _expect(len(bound["beta"]) == 7, "beta is bound in ring and six importing modules",
            failures)
    before = {name: [getattr(m, name) for m in mods] for name, mods in bound.items()}
    mul = ring.LaurentPoly.__dict__["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        for name, mods in bound.items():
            _expect(all(getattr(m, name) is not orig
                        for m, orig in zip(mods, before[name])),
                    "%s is patched in %s" % (name, ", ".join(m.__name__ for m in mods)),
                    failures)
        _expect(ring.LaurentPoly.__dict__["__mul__"] is not mul,
                "LaurentPoly.__mul__ is patched on the class", failures)
    finally:
        tracer.uninstall()
    _expect(all(getattr(m, name) is orig for name, mods in bound.items()
                for m, orig in zip(mods, before[name]))
            and ring.LaurentPoly.__dict__["__mul__"] is mul,
            "uninstall restores every binding", failures)


def _counts(values):
    return {name: v for name, v in values.items()
            if name.endswith((".calls", "_frac", ".entries", ".loops", ".assignments",
                              ".invocations", ".output_bytes", ".builds_per_module"))
            and not name.startswith("trace.")}


def _job_counts(rec):
    return {job["job"]: ({op: r["calls"] for op, r in job["ops"].items()}, job["counts"])
            for job in rec["trace"]}


def test_determinism(failures):
    names = [name for name, _unit in run.metric_units("per_layer")]
    for workload in run.WORKLOADS:
        args = ["--workload", workload, "--trace"]
        recs = [run.spawn(args + ["--seed", str(s)], time.monotonic() + run.RUN_LIMIT_S)
                for s in (SEED, SEED, SEED + 1)]
        counts = [_counts(run.layer_metrics(names, r["trace"], r["cli_output_bytes"],
                                            r["wall_s"], r["wall_s"])) for r in recs]
        _expect(counts[0] == counts[1], "%s: same seed, identical counts" % workload,
                failures)
        _expect(_job_counts(recs[0]) == _job_counts(recs[1]),
                "%s: same seed, identical counts job by job" % workload, failures)
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[2][k])
        _expect(not diff, "%s: seed %d and %d give the same counts%s"
                % (workload, SEED, SEED + 1, (" (differ: %s)" % diff) if diff else ""),
                failures)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Self-tests of the dilutetl benchmark.")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args(argv)
    failures = []
    if args.determinism:
        test_determinism(failures)
    else:
        test_checkers(failures)
        test_tracer(failures)
    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""
Call tracer for the traced benchmark pass.

It patches dilutetl from outside: each traced function is replaced in
every dilutetl module that binds it (gram_product is bound in gram,
structure and cli; beta in six modules), and ring operators and QMode
methods are replaced on their classes.  The patches are removed again by
uninstall(); untraced passes never import this module.

A call into a traced function is a span.  The tracer keeps one stack of
open spans; a span's self time is its duration minus the time its child
spans cover.  Hot ring operations run millions of times in one pass, so
spans are not stored one by one: each job (one job id) keeps per-op
totals of calls, total time and self time, the counters named in
COUNTERS and the self time of its outermost span, all in memory until
report() is called once at the end.
"""

import sys
import time

from dilutetl import (central, diagram_core, gram, link_modules, ring, structure,
                      tl_reference)

# op name -> list of (owner, attribute).  An owner that is a class is
# patched on the class; a module function is patched in every dilutetl
# module that binds the same object.
OPS = {
    "ring.laurent_mul": [(ring.LaurentPoly, a) for a in ("__mul__", "__rmul__", "__pow__")],
    "ring.laurent_add": [(ring.LaurentPoly, a) for a in
                         ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")],
    "ring.laurent_div": [(ring.LaurentPoly, "exact_div")],
    "ring.cyclo_new": [(ring.CycloElem, "__init__")],
    "ring.cyclo_mul": [(ring.CycloElem, a) for a in ("__mul__", "__rmul__", "__pow__")],
    "ring.cyclo_add": [(ring.CycloElem, a) for a in
                       ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")],
    "ring.cyclo_inv": [(ring.CycloElem, a) for a in ("inv", "__truediv__")],
    "ring.convert": [(ring.QMode, "convert"), (ring, "beta"), (ring, "qnum")],
    "diagram_core.glue": [(diagram_core, "multiply_diagrams_raw")],
    "diagram_core.elem_mul": [(diagram_core.AlgebraElem, "__mul__")],
    "diagram_core.other": [(diagram_core.AlgebraElem, a) for a in ("__add__", "scale")]
    + [(diagram_core, a) for a in ("identity", "generator", "all_generators",
                                   "transpose", "reduce_mod_ideal",
                                   "enumerate_diagrams")],
    "link_modules.act_diagram": [(link_modules, "act_diagram")],
    "link_modules.act": [(link_modules, "act")],
    "link_modules.enumerate_links": [(link_modules, "enumerate_links")],
    "link_modules.other": [(link_modules.LinComb, a) for a in ("__add__", "scale")]
    + [(link_modules, a) for a in ("dim_standard", "diagram_from_links",
                                   "links_of_diagram")],
    "gram.pairing": [(gram, "gram_product")],
    "gram.matrix": [(gram, "gram_matrix"), (gram, "tl_gram_matrix")],
    "gram.det": [(gram, a) for a in ("gram_det_direct", "gram_det_closed", "_bareiss_det")],
    "gram.radical": [(gram, a) for a in ("radical_basis", "_nullspace_field")],
    "gram.nullity": [(gram, a) for a in ("gram_nullity", "_tl_nullity",
                                         "_nullity_field", "dim_irreducible")],
    "gram.other": [(gram, a) for a in ("gram_blocks", "dim_irreducible_formula")],
    "tl_reference": [(tl_reference, a) for a in ("dim_tl", "dim_v", "det_gram_tl",
                                                 "is_critical", "dim_irr_tl")],
    "central.build_F": [(central, "build_F")],
    "central.check_central": [(central, "check_central")],
    "central.check_eigenvalue": [(central, "check_eigenvalue")],
    "central.other": [(central, a) for a in ("delta", "_tile_links")],
    "structure.cellularity": [(structure, "verify_cellularity")],
    "structure.other": [(structure, a) for a in ("irr_dims_recurrence", "dim_irr",
                                                 "_coeff_map")],
}

COUNTERS = ("glue_zero", "loops", "act_zero", "pair_zero", "entries",
            "assignments", "useful")


def _glue(c, args, out):
    if out[1] is None:
        c["glue_zero"] += 1
    else:
        c["loops"] += out[0]


def _act_diagram(c, args, out):
    if out.is_zero():
        c["act_zero"] += 1


def _pairing(c, args, out):
    if not out:
        c["pair_zero"] += 1


def _matrix(c, args, out):
    c["entries"] += sum(len(row) for row in out)


def _build_F(c, args, out):
    c["assignments"] += 5 ** args[0]
    c["useful"] += len(out.terms)


# Counters read from a call's arguments and result, after its span closed.
POST = {"diagram_core.glue": _glue, "link_modules.act_diagram": _act_diagram,
        "gram.pairing": _pairing, "gram.matrix": _matrix, "central.build_F": _build_F}


class Tracer:
    def __init__(self):
        self._stack = [0.0]
        self._outer_self = [0.0]
        self._recs = {op: [0, 0.0, 0.0] for op in list(OPS) + ["cli.main"]}
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._builds = []
        self._patches = []
        self._jobs = []
        self._job = None

    def span(self, op, fn):
        """fn wrapped so that each call is a span of the given op."""
        rec = self._recs[op]
        stack = self._stack
        perf = time.perf_counter
        post = POST.get(op)
        counts = self._counts
        outer_self = self._outer_self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rec[0] += 1
                rec[1] += dt
                self_dt = dt - stack.pop()
                rec[2] += self_dt
                stack[-1] += dt
                if len(stack) == 1:
                    outer_self[0] += self_dt
            if post is not None:
                post(counts, args, return_value)
            return return_value

        return traced

    def _matrix_build_key(self, fn):
        builds = self._builds

        def keyed(n, k, mode=ring.GENERIC):
            builds.append((n, k, mode.kind, mode.m))
            return fn(n, k, mode)

        return keyed

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "dilutetl" or name.startswith("dilutetl.")]
        for op, targets in OPS.items():
            for owner, attr in targets:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, self.span(op, orig))
                    continue
                orig = getattr(owner, attr)
                fn = orig
                if owner is gram and attr == "gram_matrix":
                    fn = self._matrix_build_key(orig)
                wrapped = self.span(op, fn)
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def begin_job(self, job_id):
        self._job = job_id

    def end_job(self, wall):
        """Close the current job: move its op totals and counters to the job record."""
        ops = {}
        for op, rec in self._recs.items():
            ops[op] = {"calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        counts = {k: v for k, v in self._counts.items() if v}
        for k in self._counts:
            self._counts[k] = 0
        self._jobs.append({"job": self._job, "wall_s": wall, "ops": ops,
                           "counts": counts, "matrix_builds": list(self._builds),
                           "outer_self_s": self._outer_self[0]})
        self._builds.clear()
        self._outer_self[0] = 0.0
        self._job = None

    def report(self):
        return self._jobs


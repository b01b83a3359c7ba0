"""Per-layer spans and counts, recorded from outside the package.

`install()` replaces each traced public name of ``slabinv.forward``,
``dnmap``, ``cgo``, ``recovery`` and ``harness`` with a timing wrapper.
Modules import each other by name (``from .forward import solve_dirichlet``),
so every module-level binding that holds the original object is replaced,
not only the defining one; methods are replaced on their class.  Spans nest:
a span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (defining module, attribute path).  A dotted path is a method.
SPANS = {
    "forward.build": ("forward", "HelmholtzOperator.__init__"),
    "forward.admissibility": ("forward", "check_admissible"),
    "forward.solve": ("forward", "HelmholtzOperator.solve_interior"),
    "forward.dirichlet": ("forward", "solve_dirichlet"),
    "forward.source": ("forward", "solve_source"),
    "forward.trace": ("forward", "neumann_trace"),
    "dnmap.gram": ("dnmap", "BoundaryBasis.attach_triple_gram"),
    "dnmap.assemble": ("dnmap", "assemble_dn"),
    "dnmap.star": ("dnmap", "op_norm_star"),
    "cgo.remainder": ("cgo", "solve_remainder"),
    "cgo.probe": ("cgo", "build_probe"),
    "cgo.interp": ("cgo", "interpolate_box"),
    "recovery.workspace": ("recovery", "make_workspace"),
    "recovery.annulus": ("recovery", "estimate_fhat_annulus"),
    "recovery.continuation": ("recovery", "low_freq_extend"),
    "recovery.oracle": ("recovery", "true_transform"),
    "recovery.calibrate": ("recovery", "calibrate_two_constants"),
    "harness.sweep": ("harness", "stability_sweep"),
}


def _count_remainder(tracer, args, kwargs, out):
    report = out[1]
    tracer.counts["cgo.remainder_sweeps"] += report.iterations
    tracer.counts["cgo.remainder_zero_rhs"] += int(report.iterations == 0)


def _count_dn_columns(tracer, args, kwargs, out):
    tracer.counts["dnmap.dn_columns"] += out.matrix.shape[1]


def _count_frequencies(tracer, args, kwargs, out):
    tracer.counts["recovery.freq_attempted"] += len(out.estimates) + len(out.failed)
    tracer.counts["recovery.freq_failed"] += len(out.failed)


def _count_records(tracer, args, kwargs, out):
    tracer.counts["harness.sweep_records"] += len(out[0])


COUNTERS = {
    "cgo.remainder": _count_remainder,
    "dnmap.assemble": _count_dn_columns,
    "recovery.annulus": _count_frequencies,
    "harness.sweep": _count_records,
}


class Tracer:
    """Call counts and self times per span name, plus counters."""

    def __init__(self):
        self.calls: dict[str, int] = {name: 0 for name in SPANS}
        self.self_time: dict[str, float] = {name: 0.0 for name in SPANS}
        self.counts: dict[str, int] = {
            "cgo.remainder_sweeps": 0, "cgo.remainder_zero_rhs": 0,
            "dnmap.dn_columns": 0, "recovery.freq_attempted": 0,
            "recovery.freq_failed": 0, "harness.sweep_records": 0,
        }
        self.top_level = 0.0       # time inside spans that have no parent
        self._children: list[float] = []   # child time of each open span

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.calls[name] += 1
                self.self_time[name] += dt - child
                if self._children:
                    self._children[-1] += dt
                else:
                    self.top_level += dt
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced


def install() -> Tracer:
    """Wrap every binding of every traced name; returns the recording tracer."""
    import slabinv.cgo
    import slabinv.dnmap
    import slabinv.forward
    import slabinv.harness
    import slabinv.recovery

    modules = [m for n, m in sys.modules.items()
               if n.startswith("slabinv.") and m is not None]
    tracer = Tracer()
    for name, (mod_name, path) in SPANS.items():
        owner = sys.modules["slabinv." + mod_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, path)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric name -> (unit, function of a tracer)
PER_LAYER = {
    "forward.build_calls": ("count", lambda t: t.calls["forward.build"]),
    "forward.build_s": ("s", lambda t: t.self_time["forward.build"]),
    "forward.admissibility_calls": ("count", lambda t: t.calls["forward.admissibility"]),
    "forward.admissibility_s": ("s", lambda t: t.self_time["forward.admissibility"]),
    "forward.solve_calls": ("count", lambda t: t.calls["forward.solve"]),
    "forward.solve_s": ("s", lambda t: t.self_time["forward.solve"]),
    "forward.dirichlet_self_s": ("s", lambda t: t.self_time["forward.dirichlet"]),
    "forward.source_self_s": ("s", lambda t: t.self_time["forward.source"]),
    "forward.trace_calls": ("count", lambda t: t.calls["forward.trace"]),
    "forward.trace_s": ("s", lambda t: t.self_time["forward.trace"]),
    "dnmap.gram_self_s": ("s", lambda t: t.self_time["dnmap.gram"]),
    "dnmap.dn_columns": ("count", lambda t: t.counts["dnmap.dn_columns"]),
    "dnmap.assemble_self_s": ("s", lambda t: t.self_time["dnmap.assemble"]),
    "dnmap.star_calls": ("count", lambda t: t.calls["dnmap.star"]),
    "dnmap.star_s": ("s", lambda t: t.self_time["dnmap.star"]),
    "cgo.remainder_calls": ("count", lambda t: t.calls["cgo.remainder"]),
    "cgo.remainder_s": ("s", lambda t: t.self_time["cgo.remainder"]),
    "cgo.remainder_sweeps": ("count", lambda t: t.counts["cgo.remainder_sweeps"]),
    "cgo.remainder_zero_rhs": ("count", lambda t: t.counts["cgo.remainder_zero_rhs"]),
    "cgo.probe_calls": ("count", lambda t: t.calls["cgo.probe"]),
    "cgo.probe_self_s": ("s", lambda t: t.self_time["cgo.probe"]),
    "cgo.interp_calls": ("count", lambda t: t.calls["cgo.interp"]),
    "cgo.interp_s": ("s", lambda t: t.self_time["cgo.interp"]),
    "recovery.workspace_s": ("s", lambda t: t.self_time["recovery.workspace"]),
    "recovery.freq_attempted": ("count", lambda t: t.counts["recovery.freq_attempted"]),
    "recovery.freq_failed": ("count", lambda t: t.counts["recovery.freq_failed"]),
    "recovery.annulus_self_s": ("s", lambda t: t.self_time["recovery.annulus"]),
    "recovery.continuation_calls": ("count", lambda t: t.calls["recovery.continuation"]),
    "recovery.continuation_s": ("s", lambda t: t.self_time["recovery.continuation"]),
    "recovery.oracle_s": ("s", lambda t: t.self_time["recovery.oracle"]),
    "recovery.calibrate_s": ("s", lambda t: t.self_time["recovery.calibrate"]),
    "harness.sweep_records": ("count", lambda t: t.counts["harness.sweep_records"]),
    "harness.sweep_self_s": ("s", lambda t: t.self_time["harness.sweep"]),
    # ratios; their bases are the counts above
    "forward.rhs_per_build": ("ratio", lambda t: _ratio(t.calls["forward.solve"],
                                                        t.calls["forward.build"])),
    "cgo.sweeps_per_remainder": ("ratio", lambda t: _ratio(t.counts["cgo.remainder_sweeps"],
                                                           t.calls["cgo.remainder"])),
    "cgo.zero_rhs_frac": ("ratio", lambda t: _ratio(t.counts["cgo.remainder_zero_rhs"],
                                                    t.calls["cgo.remainder"])),
}


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer values of one traced repetition, plus its unattributed time."""
    out = {name: fn(tracer) for name, (_unit, fn) in PER_LAYER.items()}
    out["unattributed_s"] = wall - tracer.top_level
    return out


def missing_layers(tracer: Tracer, expected) -> list[str]:
    """Spans expected on a workload that recorded no call."""
    return [name for name in expected if tracer.calls[name] == 0]

"""The benchmark workloads: inputs, the timed body, and the oracle gates.

Each workload has three steps, run in one fresh interpreter per repetition:

* ``prepare(spec, work, seed)`` makes the inputs (config and potential files,
  manufactured fields).  It counts as set-up.
* ``execute(inputs)`` is the timed part: every call into slabinv that a user
  of the workload waits for.
* ``check(inputs, raw)`` compares the outputs with an oracle computed here,
  independently of slabinv, and returns a ``Verdict``.

The gates are plain functions of parsed outputs, so a test can hand them a
corrupted output and see them reject it.

Only ``sweep`` draws random numbers (the DN-noise perturbations, keyed by the
seed).  ``recover`` and ``forward_order`` are deterministic by construction
and ignore the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

GEOMETRY = {"L": 1.0, "R": 1.0, "R_prime": 1.5, "R_lat": 2.0, "eps_cutoff": 0.1}
BORN_ETA = 1e-3          # amplitude of the radial bump in the Born pair
RECOVER_GATE = 0.10      # criterion 6: worst relative error on the annulus
ORDER_BAND = (3.6, 4.4)  # criterion 3: error ratio when h halves
BUMP_A = 1.4             # half-width of the manufactured lateral profile


@dataclass
class Verdict:
    attempted: int
    failed: int
    oracle_err: float
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# -- shared input generation ---------------------------------------------------


def _write_inputs(work: str, h: float):
    """Geometry config and the Born-pair potential q1 (q2 is `zero`)."""
    from slabinv import fields, geometry

    cfg = os.path.join(work, "geom.cfg")
    with open(cfg, "w", encoding="ascii") as fh:
        for key, val in GEOMETRY.items():
            fh.write(f"{key} = {val!r}\n")
        fh.write(f"target_h = {h!r}\n")
    geom, target_h = geometry.parse_geometry_config(cfg)
    grid = geometry.build_domain(geom, target_h)
    q1 = fields.radial_bump_potential(grid, geom, BORN_ETA)
    q1_path = os.path.join(work, "q1.field")
    fields.write_field(q1_path, q1.field)
    return cfg, q1_path, grid, q1.field.values.real.copy()


def _run_cli(argv) -> tuple[int, str]:
    from slabinv import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# -- recover ---------------------------------------------------------------------


@dataclass(frozen=True)
class RecoverSpec:
    h: float = 0.125
    r: float = 2.25
    param: float = 8.0
    spacing: float = 0.75
    box_coarsen: int = 2
    families: tuple = ("thm2", "thm3")


def _plain_transform(values: np.ndarray, grid, xis: np.ndarray) -> np.ndarray:
    """sum_x q(x) exp(i x.xi) h^3 over all grid nodes.

    The Born bump vanishes to all orders on the plates and beyond |x'| = R,
    so this equals the trapezoidal transform of the potential difference.
    """
    coords = [grid.axis_nodes(a) for a in range(3)]
    ex = np.exp(1j * np.outer(xis[:, 0], coords[0]))
    ey = np.exp(1j * np.outer(xis[:, 1], coords[1]))
    ez = np.exp(1j * np.outer(xis[:, 2], coords[2]))
    return np.einsum("mx,my,mz,xyz->m", ex, ey, ez, values, optimize=True) * grid.h ** 3


def recover_reference(values: np.ndarray, grid, family: str, xis: np.ndarray) -> np.ndarray:
    """Target transform: FT(q1 - q2), or its even-extension version for thm3."""
    ref = _plain_transform(values, grid, xis)
    if family == "thm3":
        ref = ref + _plain_transform(values, grid, xis * np.array([1.0, 1.0, -1.0]))
    return ref


def recover_prepare(spec: RecoverSpec, work: str, seed: int) -> dict:
    cfg, q1_path, grid, q1 = _write_inputs(work, spec.h)
    return {"spec": spec, "work": work, "cfg": cfg, "q1_path": q1_path,
            "grid": grid, "q1": q1}


def recover_execute(inp: dict) -> dict:
    spec = inp["spec"]
    raw = {}
    for fam in spec.families:
        out = os.path.join(inp["work"], f"recover_{fam}.csv")
        rc, stdout = _run_cli([
            "recover", "--config", inp["cfg"], "--q1", inp["q1_path"],
            "--q2", "zero", "--variant", fam, "--r", repr(spec.r),
            "--param", repr(spec.param), "--lambda", "auto",
            "--spacing", repr(spec.spacing), "--box-coarsen", str(spec.box_coarsen),
            "--out", out,
        ])
        raw[fam] = (rc, stdout, out)
    return raw


def gate_recover(family: str, rc: int, summary: dict, rows: list[dict],
                 reference, r: float) -> Verdict:
    """Criterion 6 on one family's CSV.

    `reference(xis)` gives the independent transform.  The gate checks that
    the CSV's own true column agrees with it, that every annulus frequency
    was estimated, and that the worst relative error is within 10 %.
    """
    problems = []
    if rc != 0:
        problems.append(f"{family}: exit code {rc}")
    n_failed = int(summary.get("n_failed", 0))
    annulus = []
    for row in rows:
        xi = (float(row["xi1"]), float(row["xi2"]), float(row["xi3"]))
        if 1.0 - 1e-12 <= math.hypot(xi[0], xi[1]) < r and abs(xi[2]) < r:
            annulus.append((xi, complex(float(row["re_est"]), float(row["im_est"])),
                            complex(float(row["re_true"]), float(row["im_true"]))))
    attempted = int(summary.get("n_annulus", 0)) + n_failed
    if not annulus:
        return Verdict(max(attempted, 1), max(attempted, 1), math.inf,
                       problems + [f"{family}: no annulus rows"])
    if len(annulus) != int(summary.get("n_annulus", -1)):
        problems.append(f"{family}: {len(annulus)} annulus rows, summary says "
                        f"{summary.get('n_annulus')}")
    xis = np.array([a[0] for a in annulus])
    est = np.array([a[1] for a in annulus])
    true_csv = np.array([a[2] for a in annulus])
    ref = reference(xis)
    scale = float(np.max(np.abs(ref)))
    drift = float(np.max(np.abs(true_csv - ref))) / scale
    if drift > 1e-9:
        problems.append(f"{family}: true column differs from the oracle by {drift:.2e}")
    rel = np.abs(est - ref) / np.abs(ref)
    worst = float(np.max(rel))
    missed = int(np.count_nonzero(rel > RECOVER_GATE))
    if missed:
        problems.append(f"{family}: {missed} estimates above {RECOVER_GATE} "
                        f"(worst {worst:.3e})")
    outputs = {f"{family}.worst_rel": worst,
               f"{family}.sup_bound": summary.get("sup_bound"),
               f"{family}.linf_bound": summary.get("linf_bound")}
    return Verdict(attempted, n_failed + missed, worst, problems, outputs)


def recover_check(inp: dict, raw: dict) -> Verdict:
    spec = inp["spec"]
    total = Verdict(0, 0, 0.0)
    for fam, (rc, stdout, out) in raw.items():
        lines = stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        rows = read_csv(out) if os.path.exists(out) else []
        v = gate_recover(fam, rc, summary, rows,
                         lambda xis, fam=fam: recover_reference(inp["q1"], inp["grid"],
                                                                fam, xis),
                         spec.r)
        total.attempted += v.attempted
        total.failed += v.failed
        total.oracle_err = max(total.oracle_err, v.oracle_err)
        total.problems += v.problems
        total.outputs.update(v.outputs)
    return total


# -- sweep -------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    h: float = 0.125
    basis_n: int = 12
    noise: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    trials: int = 2


def sweep_prepare(spec: SweepSpec, work: str, seed: int) -> dict:
    cfg, q1_path, grid, q1 = _write_inputs(work, spec.h)
    return {"spec": spec, "work": work, "cfg": cfg, "q1_path": q1_path,
            "seed": seed, "linf_true": float(np.max(np.abs(q1)))}


def sweep_execute(inp: dict) -> tuple:
    spec = inp["spec"]
    out = os.path.join(inp["work"], "sweep.csv")
    rc, stdout = _run_cli([
        "sweep", "--config", inp["cfg"], "--q1", inp["q1_path"], "--q2", "zero",
        "--variant", "thm2", "--basis-n", str(spec.basis_n),
        "--noise", ",".join(repr(v) for v in spec.noise),
        "--trials", str(spec.trials), "--seed", str(inp["seed"]), "--out", out,
    ])
    return rc, stdout, out


def gate_sweep(rc: int, rows: list[dict], n_expected: int, linf_true: float) -> Verdict:
    """Criterion 9 plus two exact checks on the sweep records.

    * Each record perturbs the DN difference by exactly `noise_level` in the
      star norm, so two records' star norms differ by at most the sum of
      their levels (triangle inequality).
    * The certified L-infinity bound must dominate the true error
      max |q1 - q2|; the reported error is the worst ratio true/bound.
    """
    problems = []
    if rc != 0:
        problems.append(f"sweep: exit code {rc}")
    if len(rows) != n_expected:
        problems.append(f"sweep: {len(rows)} records, expected {n_expected}")
    recs = [{k: float(row[k]) for k in ("noise_level", "star_norm", "linf_err",
                                         "linf_bound", "hypothesis_violated",
                                         "theta_fit")} for row in rows]
    bad = set()
    for i, rec in enumerate(recs):
        if rec["hypothesis_violated"] or not math.isfinite(rec["linf_bound"]):
            bad.add(i)
        if abs(rec["linf_err"] - linf_true) > 1e-12 * linf_true:
            problems.append(f"sweep: record {i} linf_err {rec['linf_err']!r} "
                            f"!= {linf_true!r}")
    for i, a in enumerate(recs):
        for j in range(i + 1, len(recs)):
            b = recs[j]
            slack = (a["noise_level"] + b["noise_level"]) * (1 + 1e-9) + 1e-15
            if abs(a["star_norm"] - b["star_norm"]) > slack:
                bad.update((i, j))
    if bad:
        problems.append(f"sweep: records {sorted(bad)} violate a record check")
    ok = [r for i, r in enumerate(recs) if i not in bad]
    by_star = sorted(ok, key=lambda r: r["star_norm"])
    bounds = [r["linf_bound"] for r in by_star]
    if any(b2 < b1 for b1, b2 in zip(bounds, bounds[1:])):
        problems.append("sweep: bound not monotone in the star norm")
    theta_fit = recs[0]["theta_fit"] if recs else math.nan
    if not theta_fit > 0:
        problems.append(f"sweep: theta_fit {theta_fit!r} is not positive")
    worst = max((linf_true / r["linf_bound"] for r in ok), default=math.inf)
    if worst > 1.0:
        problems.append(f"sweep: true error exceeds the bound (ratio {worst:.3e})")
    quietest = min(recs, key=lambda r: r["noise_level"], default={})
    outputs = {"theta_fit": theta_fit,
               "star_norm_at_min_noise": quietest.get("star_norm")}
    failed = len(bad) + max(0, n_expected - len(rows))
    return Verdict(max(n_expected, len(rows)), failed, worst, problems, outputs)


def sweep_check(inp: dict, raw: tuple) -> Verdict:
    spec = inp["spec"]
    rc, _stdout, out = raw
    rows = read_csv(out) if os.path.exists(out) else []
    return gate_sweep(rc, rows, len(spec.noise) * spec.trials, inp["linf_true"])


# -- forward_order -------------------------------------------------------------------


@dataclass(frozen=True)
class ForwardOrderSpec:
    hs: tuple = (0.25, 0.125)
    cases: tuple = (("free", 0.0), ("free", 2.5), ("free", 4.5),
                    ("bump", 0.0), ("bump", 2.5), ("bump", 4.5))


def _bump(x):
    t = np.clip(np.abs(x) / BUMP_A, 0.0, 1.0)
    return (1.0 - t * t) ** 4


def _bump_dd(x):
    t = np.clip(np.abs(x) / BUMP_A, 0.0, 1.0)
    return 8.0 * (1.0 - t * t) ** 2 * (7.0 * t * t - 1.0) / BUMP_A ** 2


def manufactured(grid, L: float, k: float, qv) -> tuple[np.ndarray, np.ndarray]:
    """u = z (L - z) b(x) b(y) and w = (-Lap - k^2 + q) u on the node grid."""
    x, y, z = grid.node_coords()
    bx, by = _bump(x), _bump(y)
    zz = z * (L - z)
    u = zz * bx * by
    lap = -2.0 * bx * by + zz * (_bump_dd(x) * by + bx * _bump_dd(y))
    w = -lap + (qv - k * k) * u
    shape = grid.node_shape
    return (np.broadcast_to(u, shape).copy(),
            np.broadcast_to(w, shape).astype(np.complex128))


def forward_order_prepare(spec: ForwardOrderSpec, work: str, seed: int) -> dict:
    from slabinv import fields, geometry

    geom = geometry.SlabGeometry(**GEOMETRY)
    grids = {h: geometry.build_domain(geom, h) for h in spec.hs}
    bumps = {h: fields.radial_bump_potential(g, geom, 1.0) for h, g in grids.items()}
    problems = {}
    for label, k in spec.cases:
        for h, grid in grids.items():
            q = bumps[h] if label == "bump" else None
            qv = q.field.values.real if q is not None else 0.0
            u, w = manufactured(grid, geom.L, k, qv)
            problems[(label, k, h)] = (q, u, fields.GridField(grid, w))
    return {"spec": spec, "geom": geom, "grids": grids, "problems": problems}


def forward_order_execute(inp: dict) -> dict:
    from slabinv import forward

    out = {}
    for (label, k, h), (q, _u, w) in inp["problems"].items():
        try:
            op = forward.HelmholtzOperator(inp["grids"][h], inp["geom"], k, q)
            rep = op.admissibility()
            if not rep.admissible:
                out[(label, k, h)] = f"inadmissible (min singular {rep.min_singular:.3e})"
                continue
            out[(label, k, h)] = forward.solve_source(op, w).values
        except (forward.SolveError, forward.AdmissibilityError) as exc:
            out[(label, k, h)] = f"{type(exc).__name__}: {exc}"
    return out


def gate_forward_order(ratios: dict, errors: dict) -> Verdict:
    """Criterion 3: each case's error ratio lies in [3.6, 4.4]."""
    problems = [f"forward_order {case}: {msg}" for case, msg in errors.items()]
    failed = len(errors)
    for case, ratio in ratios.items():
        if not ORDER_BAND[0] <= ratio <= ORDER_BAND[1]:
            problems.append(f"forward_order {case}: ratio {ratio:.4f} outside {ORDER_BAND}")
            failed += 1
    worst = max((abs(r - 4.0) for r in ratios.values()), default=math.inf)
    outputs = {f"ratio.{label}.k{k:g}": r for (label, k), r in ratios.items()}
    return Verdict(len(ratios) + len(errors), failed, worst, problems, outputs)


def forward_order_check(inp: dict, raw: dict) -> Verdict:
    spec = inp["spec"]
    ratios, errors = {}, {}
    for label, k in spec.cases:
        errs = []
        for h in spec.hs:
            v = raw[(label, k, h)]
            if isinstance(v, str):
                errors[(label, k)] = v
                break
            u = inp["problems"][(label, k, h)][1]
            errs.append(math.sqrt(float(np.sum(np.abs(v - u) ** 2)) * h ** 3))
        else:
            ratios[(label, k)] = errs[0] / errs[1]
    return gate_forward_order(ratios, errors)


# -- registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: object
    execute: object
    check: object
    sizes: dict
    layers: tuple      # spans that must record calls in a traced run


WORKLOADS = {
    "recover": Workload(
        recover_prepare, recover_execute, recover_check,
        {"full": RecoverSpec(),
         "tiny": RecoverSpec(families=("thm2",))},
        ("recovery.calibrate", "recovery.workspace", "recovery.annulus",
         "cgo.probe", "cgo.remainder", "cgo.interp", "recovery.continuation",
         "recovery.oracle"),
    ),
    "sweep": Workload(
        sweep_prepare, sweep_execute, sweep_check,
        {"full": SweepSpec(),
         "tiny": SweepSpec(basis_n=3, noise=(1e-3, 1e-6), trials=1)},
        ("forward.build", "forward.admissibility", "forward.solve",
         "forward.dirichlet", "forward.trace", "dnmap.gram", "dnmap.assemble",
         "dnmap.star", "harness.sweep"),
    ),
    "forward_order": Workload(
        forward_order_prepare, forward_order_execute, forward_order_check,
        {"full": ForwardOrderSpec(),
         "tiny": ForwardOrderSpec(cases=(("free", 0.0),))},
        ("forward.build", "forward.admissibility", "forward.solve",
         "forward.source"),
    ),
}

"""Experiment drivers: weighted-inequality checks, transform decay, sweeps.

Everything here is measurement-first: quantities with nonconstructive
constants (the weighted a-priori inequality constant, the stability
exponent) are fitted and reported; assertions are reserved for directions
and monotonicity.  All RNG draws use a counter-based generator keyed by
(seed, record index) so that sweeps are reproducible record-by-record, and
CSV outputs are byte-deterministic for a fixed BLAS thread count.  The
boundary unique-continuation table, which no command runs yet, lives with
the tests (``tests/measures.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dnmap import BoundaryBasis, DnOperator, op_norm_star, star_whiten
from .fields import SOBOLEV_S, GridField, Potential, fourier_transform
from .forward import HelmholtzOperator, outward_derivative
from .geometry import Grid3, Plate, SlabGeometry
from .recovery import Variant, bound_chain, closing_constant

SCHEMA_LINE = "# schema-version: 1"

TEST_MODES = 4
TEST_DECAY = 2.0
SWEEP_LAMBDA = 0.5


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, record index)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )


# -- weighted-inequality verification --------------------------------------------


@dataclass
class CarlemanReport:
    tau_list: list
    lhs_interior: list     # per tau: list over trials
    lhs_boundary: list
    rhs: list
    per_tau_c: list        # max over trials of (tau^2 I + tau B) / RHS
    fitted_c: float
    top_half_variation: float
    passed: bool


def random_test_function(grid: Grid3, geom: SlabGeometry, rng) -> GridField:
    """Random smooth function vanishing on the domain boundary.

    Sine series in all three axes (TEST_MODES modes each, the coefficient of
    mode (a, b, d) scaled by (a^2 + b^2 + d^2)^-TEST_DECAY) multiplied by a
    lateral bump vanishing before the staircase truncation, so traces on the
    lateral boundary vanish identically and only the plates contribute
    boundary terms.
    """
    x, y, z = grid.node_coords()
    width = geom.R_lat - 2 * grid.h
    r = np.hypot(x, y)
    cut = np.zeros_like(r)
    inside = r < width
    cut[inside] = np.exp(-1.0 / (1.0 - (r[inside] / width) ** 2))
    lx = grid.nx * grid.h
    acc = np.zeros(grid.node_shape)
    for a in range(1, TEST_MODES + 1):
        for b in range(1, TEST_MODES + 1):
            for d in range(1, TEST_MODES + 1):
                c = rng.standard_normal() / (a * a + b * b + d * d) ** TEST_DECAY
                acc += c * (
                    np.sin(a * np.pi * (x - grid.origin[0]) / lx)
                    * np.sin(b * np.pi * (y - grid.origin[1]) / lx)
                    * np.sin(d * np.pi * z / (grid.nz * grid.h))
                )
    vals = acc * cut
    # pin the plate layers at exact zeros (sin(a pi) rounds to ~1e-16)
    vals[:, :, 0] = 0.0
    vals[:, :, -1] = 0.0
    return GridField(grid, vals)


def carleman_check(op: HelmholtzOperator, zeta, tau_list, trials: int,
                   seed: int = 0) -> CarlemanReport:
    """Measure both sides of the weighted inequality

        tau^2 int e^{-2 tau x.zeta} |u|^2 + tau int (zeta.eta) e^{-2 tau x.zeta} |d_eta u|^2
            <= C int e^{-2 tau x.zeta} |(-Lap - k^2 + q) u|^2

    over `trials` random smooth u vanishing on the boundary
    (`random_test_function`, keyed by seed and trial).  The boundary integral
    keeps its sign (zeta.eta is negative on the bottom plate), which is what
    lets the fitted constant stay bounded as tau grows.

    (-Lap_h - k^2 + q) u is op.matrix on u's values at op's active nodes and
    zero elsewhere, so every test function must vanish off the active nodes.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta[2] < 1.0:
        raise ValueError("zeta . e3 must be >= 1")
    taus = list(tau_list)
    if any(t < 1 for t in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_list must be increasing with min >= 1")
    grid, geom = op.grid, op.geom
    x, y, z = grid.node_coords()
    phase = x * zeta[0] + y * zeta[1] + z * zeta[2]
    h = grid.h
    sz = grid.node_shape[2]
    # the operator's lateral nodes (one periodic cell, or the truncated disc)
    # times a trapezoid in z
    plate_ok = op.lateral
    w_omega = np.where(plate_ok[:, :, None], 1.0, 0.0) * np.ones(grid.node_shape)
    w_omega[:, :, [0, -1]] *= 0.5
    w_omega *= h ** 3

    fields = []
    for i in range(trials):
        u = random_test_function(grid, geom, record_rng(seed, i))
        pde = np.zeros_like(u.values)
        pde[op.active] = op.matrix @ u.values[op.active]
        fields.append((u.values, pde, outward_derivative(u.values, Plate.TOP, h),
                       outward_derivative(u.values, Plate.BOTTOM, h)))

    lhs_i, lhs_b, rhs_all, per_tau_c = [], [], [], []
    for tau in taus:
        weight = np.exp(-2.0 * tau * (phase - np.min(phase)))
        scale = math.exp(-2.0 * tau * float(np.min(phase)))
        row_i, row_b, row_r = [], [], []
        best = -math.inf
        for u_vals, pde, dz_top, dz_bot in fields:
            interior = float(np.sum(w_omega * weight * np.abs(u_vals) ** 2)) * scale
            wt = weight[:, :, sz - 1] * plate_ok
            wb = weight[:, :, 0] * plate_ok
            boundary = float(
                zeta[2] * h * h * np.sum(wt * np.abs(dz_top) ** 2)
                - zeta[2] * h * h * np.sum(wb * np.abs(dz_bot) ** 2)
            ) * scale
            rhs = float(np.sum(w_omega * weight * np.abs(pde) ** 2)) * scale
            row_i.append(interior)
            row_b.append(boundary)
            row_r.append(rhs)
            if rhs > 0:
                best = max(best, (tau * tau * interior + tau * boundary) / rhs)
        lhs_i.append(row_i)
        lhs_b.append(row_b)
        rhs_all.append(row_r)
        per_tau_c.append(best)

    # the binding constant is the running max over the sweep: the per-tau max
    # decreases (and can cross zero) once the negative bottom-plate term
    # dominates, so stability means the running max has converged over the
    # top half of the sweep
    running_c = [float(v) for v in np.maximum.accumulate(per_tau_c)]
    fitted = running_c[-1]
    top = running_c[len(running_c) // 2:]
    if min(top) > 0:
        variation = (max(top) - min(top)) / min(top)
    else:
        variation = math.inf
    passed = bool(math.isfinite(fitted) and variation < 0.5)
    return CarlemanReport(taus, lhs_i, lhs_b, rhs_all, per_tau_c, fitted, variation, passed)


# -- quantified Riemann-Lebesgue measurement -----------------------------------------


# ray samples t = RL_T0 * RL_FACTOR^j, j < RL_SAMPLES
RL_T0 = 1.0
RL_FACTOR = 1.4
RL_SAMPLES = 12


def rl_decay_measure(q: Potential, directions) -> list[dict]:
    """|FT(q)| along rays at geometric spacing with a power-law decay fit."""
    ts = RL_T0 * RL_FACTOR ** np.arange(RL_SAMPLES)
    out = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        vals = np.abs(fourier_transform(q.field, np.outer(ts, d)))
        ray = {"direction": tuple(float(v) for v in d),
               "t": ts.tolist(), "ft_abs": vals.tolist(),
               "p": float("nan")}
        good = vals > 0
        if np.count_nonzero(good) >= 3:
            slope, _ = np.polyfit(np.log(ts[good]), np.log(vals[good]), 1)
            ray["p"] = float(-slope)
        out.append(ray)
    return out


# -- stability sweep -----------------------------------------------------------------


@dataclass
class SweepRecord:
    noise_level: float
    trial: int
    star_norm: float
    linf_err: float
    linf_bound: float
    r: float
    param: float
    theta: float
    seed: int
    hypothesis_violated: bool


def stability_sweep(q1: Potential, q2: Potential, variant: Variant,
                    noise_levels, trials: int, seed: int, *,
                    src_basis: BoundaryBasis, tgt_basis: BoundaryBasis, d: DnOperator,
                    delta: float = 1.0) -> tuple[list[SweepRecord], float]:
    """Perturb the DN difference d at each noise level and rerun the chain.

    The chain is `bound_chain` at lambda = SWEEP_LAMBDA and c =
    `closing_constant` of the geometry.  The perturbation is a random matrix
    normalized in the star norm (one normalization step), the same norm the
    closing chain consumes.  The whitening is linear, so d and each
    perturbation are whitened once.  Only the monotonicity of the bound and
    the sign of the fitted exponent are meant to be asserted downstream; the
    exponent itself is diagnostic.
    """
    c = closing_constant(q1.geom)
    bound_m = max(q1.bound_M, q2.bound_M)
    white_d0 = star_whiten(d.matrix, src_basis, tgt_basis)
    linf_err = float(np.max(np.abs(q1.field.values - q2.field.values)))
    records: list[SweepRecord] = []
    xs, ys = [], []  # log log Theta and log linf_bound where the hypothesis holds
    idx = 0
    for level in sorted(noise_levels):
        for t in range(trials):
            white = white_d0
            if level > 0:
                rng = record_rng(seed, idx)
                e = rng.standard_normal(d.matrix.shape) + 1j * rng.standard_normal(d.matrix.shape)
                white_e = star_whiten(e, src_basis, tgt_basis)
                white = white_d0 + (level / op_norm_star(white_e)) * white_e
            star = op_norm_star(white)
            violated = not (0 < star < 1.0 / delta)
            if violated:
                records.append(SweepRecord(level, t, star, linf_err, math.nan,
                                           math.nan, math.nan, math.nan, seed, True))
            else:
                chain = bound_chain(delta, star, SWEEP_LAMBDA, c, variant, bound_m)
                records.append(SweepRecord(
                    level, t, star, linf_err, chain.linf_bound,
                    chain.params["r"], chain.params["param"],
                    chain.params["theta"], seed, False,
                ))
                xs.append(math.log(chain.params["log_theta"]))
                ys.append(math.log(chain.linf_bound))
            idx += 1
    theta_fit = math.nan
    if len(set(xs)) >= 2:
        slope, _ = np.polyfit(xs, ys, 1)
        theta_fit = float(-slope * (SOBOLEV_S + 1.0) / (SOBOLEV_S - 1.5))
    return records, theta_fit


# -- CSV output ----------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [SCHEMA_LINE, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(path: str, records: list[SweepRecord], theta_fit: float) -> None:
    header = ["noise_level", "trial", "star_norm", "linf_err", "linf_bound",
              "r", "param", "theta", "seed", "hypothesis_violated", "theta_fit"]
    rows = [[rec.noise_level, rec.trial, rec.star_norm, rec.linf_err,
             rec.linf_bound, rec.r, rec.param, rec.theta, rec.seed,
             rec.hypothesis_violated, theta_fit] for rec in records]
    write_csv(path, header, rows)


def write_carleman_csv(path: str, report: CarlemanReport) -> None:
    header = ["tau", "trial", "lhs_interior", "lhs_boundary", "rhs", "per_tau_c",
              "fitted_c", "passed"]
    rows = []
    for i, tau in enumerate(report.tau_list):
        for t in range(len(report.lhs_interior[i])):
            rows.append([tau, t, report.lhs_interior[i][t],
                         report.lhs_boundary[i][t], report.rhs[i][t],
                         report.per_tau_c[i], report.fitted_c, report.passed])
    write_csv(path, header, rows)


def write_rl_csv(path: str, rays: list[dict]) -> None:
    header = ["ray", "dx", "dy", "dz", "t", "ft_abs", "p"]
    rows = []
    for i, ray in enumerate(rays):
        for t, v in zip(ray["t"], ray["ft_abs"]):
            rows.append([i, *ray["direction"], t, v, ray["p"]])
    write_csv(path, header, rows)

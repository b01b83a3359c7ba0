"""Experiment drivers: weighted-inequality checks, decay measurements, sweeps.

Everything here is measurement-first: quantities with nonconstructive
constants (the weighted a-priori inequality constant, the boundary
unique-continuation modulus, the stability exponent) are fitted and reported;
assertions are reserved for directions and monotonicity.  All RNG draws use a
counter-based generator keyed by (seed, record index) so that sweeps are
reproducible record-by-record, and CSV outputs are byte-deterministic for a
fixed BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dnmap import BoundaryBasis, DnOperator, op_norm_star, star_whiten
from .boundary import BoundaryField
from .fields import GridField, Potential, fourier_transform
from .forward import (HelmholtzOperator, SolveError, neumann_trace, outward_derivative,
                      solve_dirichlet)
from .geometry import Grid3, Plate, SlabGeometry, cutoff_annulus
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
                   seed: int = 0, test_functions=None) -> CarlemanReport:
    """Measure both sides of the weighted inequality

        tau^2 int e^{-2 tau x.zeta} |u|^2 + tau int (zeta.eta) e^{-2 tau x.zeta} |d_eta u|^2
            <= C int e^{-2 tau x.zeta} |(-Lap - k^2 + q) u|^2

    over random smooth u vanishing on the boundary.  The boundary integral
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

    if test_functions is None:
        test_functions = [
            random_test_function(grid, geom, record_rng(seed, i))
            for i in range(trials)
        ]
    fields = []
    for u in test_functions:
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


# -- unique-continuation decay measurement ------------------------------------------


def _masked_h1_h2(values: np.ndarray, mask: np.ndarray, h: float) -> tuple[float, float]:
    """Discrete H^1/H^2 norms over masked nodes (central and pure second diffs)."""
    l2 = np.sum(mask * np.abs(values) ** 2)
    g2 = np.zeros_like(l2)
    s2 = np.zeros_like(l2)
    for axis in range(3):
        fwd = np.roll(values, -1, axis=axis)
        bwd = np.roll(values, 1, axis=axis)
        inner = np.ones_like(mask)
        sl = [slice(None)] * 3
        sl[axis] = 0
        inner[tuple(sl)] = False
        sl[axis] = -1
        inner[tuple(sl)] = False
        grad = (fwd - bwd) / (2 * h)
        sec = (fwd - 2 * values + bwd) / (h * h)
        g2 += np.sum(mask * inner * np.abs(grad) ** 2)
        s2 += np.sum(mask * inner * np.abs(sec) ** 2)
    h3 = h ** 3
    h1 = math.sqrt(h3 * float(l2 + g2))
    h2n = math.sqrt(h3 * float(l2 + g2 + s2))
    return h1, h2n


def ucp_decay_measure(q1: Potential, q2: Potential, k: float, f_family,
                      noise: float = 0.0, *, plate: Plate = Plate.BOTTOM,
                      d_const: float = 1.0, seed: int = 0) -> dict:
    """Flux-versus-interior table for the difference of two-potential solves.

    For each datum f, w is the difference of the solutions with potentials q2
    and q1 and shared data; the table records the normal-derivative flux on
    the cutoff annulus and the H^1/H^2 norms of w on the fattened annular
    region.  The family is solved as one block per operator; data whose
    solve fails are recorded as skipped and the block is solved again
    without them.  A log-model fit quality (R^2 of H^1 against
    H^2/sqrt(log(e d H^2/flux))) is reported, never asserted.
    """
    grid = q1.grid
    geom = q1.geom
    op1 = HelmholtzOperator(grid, geom, k, q1)
    op2 = HelmholtzOperator(grid, geom, k, q2)
    annulus = cutoff_annulus(geom, plate)
    inner, outer = geom.annulus_bounds
    r = grid.lateral_radius()
    umask = np.broadcast_to(
        (r > inner - grid.h) & (r < outer + grid.h), grid.node_shape
    )
    family = list(f_family)
    rows = [None] * len(family)
    keep = list(range(len(family)))
    while keep:
        data = BoundaryField(family[0].patch, family[0].square,
                             np.stack([family[i].values for i in keep]))
        try:
            wvals = solve_dirichlet(op2, data).values - solve_dirichlet(op1, data).values
            break
        except SolveError as exc:
            bad = [keep[c] for c in exc.columns] or keep
            for i in bad:
                rows[i] = {"index": i, "skipped": str(exc)}
            keep = [i for i in keep if i not in bad]
    if keep:
        fluxes = neumann_trace(GridField(grid, wvals), annulus).l2_norm()
    for c, i in enumerate(keep):
        flux = float(fluxes[c])
        if noise > 0:
            flux *= 1.0 + noise * float(record_rng(seed, i).standard_normal())
        h1, h2 = _masked_h1_h2(wvals[c], umask, grid.h)
        rows[i] = {"index": i, "flux": flux, "h1": h1, "h2": h2}
    xs, ys = [], []
    for row in rows:
        if "skipped" in row or row["flux"] <= 0 or row["h2"] <= 0:
            continue
        arg = math.e * d_const * row["h2"] / row["flux"]
        if arg <= 1.0:
            continue
        xs.append(row["h2"] / math.sqrt(math.log(arg)))
        ys.append(row["h1"])
    fit = {"n_fit": len(xs), "slope": float("nan"), "r2": float("nan")}
    if len(xs) >= 2:
        x = np.asarray(xs)
        y = np.asarray(ys)
        slope = float(np.dot(x, y) / np.dot(x, x))
        resid = y - slope * x
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        fit["slope"] = slope
        fit["r2"] = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {"rows": rows, "fit": fit, "d": d_const}


# -- quantified Riemann-Lebesgue measurement -----------------------------------------


def rl_decay_measure(q: Potential, directions, *, t0: float = 1.0,
                     factor: float = 1.4, n_samples: int = 12) -> list[dict]:
    """|FT(q)| along rays at geometric spacing with a power-law decay fit."""
    ft = fourier_transform(q.field)
    out = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        ts = t0 * factor ** np.arange(n_samples)
        vals = np.abs(ft.batch(np.outer(ts, d)))
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
    s = min(q1.sobolev_s, q2.sobolev_s)
    bound_m = max(q1.bound_M, q2.bound_M)
    white_d0 = star_whiten(d.matrix, src_basis, tgt_basis)
    linf_err = float(np.max(np.abs(q1.field.values - q2.field.values)))
    records: list[SweepRecord] = []
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
                chain = bound_chain(delta, star, SWEEP_LAMBDA, c, variant, s, bound_m)
                records.append(SweepRecord(
                    level, t, star, linf_err, chain.linf_bound,
                    chain.params["r"], chain.params["param"],
                    chain.params["theta"], seed, False,
                ))
            idx += 1
    xs, ys = [], []
    for rec in records:
        if rec.hypothesis_violated:
            continue
        big_l = math.log1p(abs(math.log(delta * rec.star_norm)))
        xs.append(math.log(big_l))
        ys.append(math.log(rec.linf_bound))
    theta_fit = math.nan
    if len(set(xs)) >= 2:
        slope, _ = np.polyfit(xs, ys, 1)
        theta_fit = float(-slope * (s + 1.0) / (s - 1.5))
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

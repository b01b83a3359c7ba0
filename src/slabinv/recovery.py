"""Fourier-domain recovery of potential differences and stability bounds.

Pipeline: pair the potential difference against probe products over the
domain, subtract the computable cross-term corrections (the ones carried by
the mirrored phases), and read off estimates of the transform of q1 - q2
(tau-family) or of the difference of even extensions (alpha-family) on the
annulus 1 <= xi_1e < r, |xi_3| < r.  Low lateral frequencies are filled by a
Tikhonov-regularized exponential-type fit along frame lines, certified by a
two-constants interpolation inequality with a calibrated exponent.  The
closing chain converts a sup bound over |xi| < r into an H^-1 bound
(explicit Plancherel constant) and then into an L-infinity bound via Sobolev
interpolation, with the parameter schedules

    tau := r^(5/lambda),        r^((lambda+5)/lambda)   = c^-1 log Theta^(lambda/4)
    tau := r^(5/(2 lambda)),    r^((2 lambda+5)/(2 lambda)) = c^-1 log Theta^(lambda/4)

for the two families, Theta := 1 + |log(delta * star_norm)|.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .cgo import (
    CgoProbe,
    ContractionError,
    FrameError,
    ProjectionError,
    Variant,
    build_box_grid,
    build_probe,
    make_frame,
    make_phase_pair,
)
from .fields import (
    FieldError,
    FourierTransform,
    GridField,
    Potential,
    extend_even,
    extend_trivial,
    fourier_transform,
    quadrature_weights,
)
from .geometry import Grid3, SlabGeometry

logger = logging.getLogger(__name__)

OFFSET_GUARD = 700.0  # log scale beyond which exp() recombination overflows


class RecoveryError(RuntimeError):
    pass


class ContinuationError(RuntimeError):
    pass


# -- frequency bookkeeping ------------------------------------------------------


@dataclass(frozen=True)
class FrequencySet:
    """Cartesian frequency grid split by lateral magnitude.

    annulus: 1 <= xi_1e < r and |xi_3| < r (both upper bounds strict);
    low:     0 <  xi_1e < 1 and |xi_3| < r;
    axis:    xi_1e = 0 points, fillable only by continuity.
    """

    r: float
    spacing: float
    annulus: tuple
    low: tuple
    axis: tuple

    def __post_init__(self):
        for xi in self.annulus:
            x1e = math.hypot(xi[0], xi[1])
            if not (1.0 - 1e-12 <= x1e < self.r and abs(xi[2]) < self.r):
                raise RecoveryError(f"annulus point {xi} violates the frequency window")


def build_frequency_set(r: float, spacing: float = 0.25) -> FrequencySet:
    if r <= 2:
        raise RecoveryError("frequency radius must exceed 2")
    n = int(math.floor((r - 1e-12) / spacing))
    vals = spacing * np.arange(-n, n + 1)
    annulus, low, axis = [], [], []
    for x1 in vals:
        for x2 in vals:
            x1e = math.hypot(x1, x2)
            if x1e >= r:
                continue
            for x3 in vals:
                if abs(x3) >= r:
                    continue
                xi = (float(x1), float(x2), float(x3))
                if x1e >= 1.0 - 1e-12:
                    annulus.append(xi)
                elif x1e > 1e-12:
                    low.append(xi)
                else:
                    axis.append(xi)
    return FrequencySet(r, spacing, tuple(annulus), tuple(low), tuple(axis))


# -- pairing ----------------------------------------------------------------------


def _recombine(off: float) -> float:
    if off > OFFSET_GUARD:
        raise RecoveryError(
            f"exponential offsets sum to {off:.1f} > {OFFSET_GUARD}; "
            "the probe product would overflow"
        )
    return math.exp(off)


def integral_pairing(qdiff_field: GridField, probe: CgoProbe) -> complex:
    """Trapezoidal quadrature of qdiff * u1 * u2 with offsets recombined."""
    if qdiff_field.grid != probe.u1.grid:
        raise RecoveryError("potential difference and probe live on different grids")
    w = quadrature_weights(qdiff_field.grid)
    total = np.sum(w * qdiff_field.values * probe.u1.values * probe.u2.values)
    return complex(total * _recombine(probe.u1.log_offset + probe.u2.log_offset))


# -- annulus estimation ------------------------------------------------------------


@dataclass
class ProbeWorkspace:
    """Shared per-pair data: extended potentials, difference field, transform."""

    geom: SlabGeometry
    k: float
    variant: Variant
    eval_grid: Grid3
    box_grid: Grid3
    q1_box: GridField
    q2_box: GridField
    qdiff: GridField
    qdiff_ft: FourierTransform
    qdiff_l1: float


def support_subgrid(grid: Grid3, geom: SlabGeometry, margin_cells: int = 1) -> Grid3:
    """Node-aligned subgrid spanning the potential support (full slab height)."""
    m = math.ceil(geom.R / grid.h - 1e-12) + margin_cells
    m = min(m, grid.nx // 2)
    return Grid3(2 * m, 2 * m, grid.nz, grid.h, (-m * grid.h, -m * grid.h, 0.0))


def _restrict(field: GridField, sub: Grid3) -> GridField:
    src = field.grid
    i0 = round((sub.origin[0] - src.origin[0]) / src.h)
    j0 = round((sub.origin[1] - src.origin[1]) / src.h)
    k0 = round((sub.origin[2] - src.origin[2]) / src.h)
    sx, sy, sz = sub.node_shape
    vals = field.values[i0:i0 + sx, j0:j0 + sy, k0:k0 + sz]
    return GridField(sub, vals.copy())


def make_workspace(q1: Potential, q2: Potential, k: float, variant: Variant,
                   *, box_padding: float = 0.5, box_coarsen: int = 1,
                   eval_grid: Grid3 | None = None) -> ProbeWorkspace:
    if q1.grid != q2.grid:
        raise RecoveryError("potentials must share a grid")
    geom = q1.geom
    grid = q1.grid
    box = build_box_grid(geom, grid, padding=box_padding, coarsen=box_coarsen)
    if variant is Variant.SINGLE_REFLECTION:
        q1_box = extend_even(q1, box)
        q2_box = extend_trivial(q2, box)
    else:
        q1_box = extend_even(q1, box)
        q2_box = extend_even(q2, box)
    sub = eval_grid if eval_grid is not None else support_subgrid(grid, geom)
    qd_full = GridField(grid, q1.field.values - q2.field.values)
    qdiff = _restrict(qd_full, sub)
    ft = fourier_transform(qdiff)
    l1 = float(np.sum(quadrature_weights(sub) * np.abs(qdiff.values)))
    return ProbeWorkspace(geom, float(k), variant, sub, box, q1_box, q2_box,
                          qdiff, ft, l1)


@dataclass
class AnnulusResult:
    estimates: dict
    failed: dict


def estimate_fhat_annulus(ws: ProbeWorkspace, param: float, xis) -> AnnulusResult:
    """Estimate the Fourier difference at each frequency from probe pairings.

    The mirrored-phase cross terms (the full reflected term for the
    tau-family; both shifted-frequency terms for the alpha-family) are
    computed from the remainder fields and added back, so the residual error
    of each estimate is exactly the main-phase remainder contribution, the
    term controlled by the remainder decay.  Pairing plus corrections is one
    quadrature: int q d1 d2 (tau-family) or int q (d1 d2 + m1 m2)
    (alpha-family), with d and m the direct and mirrored probe factors.
    Per-frequency failures are recorded and skipped.
    """
    estimates: dict = {}
    failed: dict = {}
    wq_conj = np.conj(quadrature_weights(ws.eval_grid) * ws.qdiff.values)
    for xi in xis:
        key = (float(xi[0]), float(xi[1]), float(xi[2]))
        try:
            frame = make_frame(np.asarray(xi, dtype=float))
            phase = make_phase_pair(frame, ws.variant, param)
            probe = build_probe(ws.eval_grid, phase, ws.q1_box, ws.q2_box, ws.k)
            prod = probe.u1_direct.values * probe.u2_direct.values
            if ws.variant is Variant.DOUBLE_REFLECTION:
                prod += probe.u1_reflected.values * probe.u2_reflected.values
            scale = _recombine(probe.u1.log_offset + probe.u2.log_offset)
            estimates[key] = complex(np.vdot(wq_conj, prod) * scale)
        except (FrameError, ContractionError, ProjectionError, RecoveryError) as exc:
            failed[key] = str(exc)
            logger.warning("frequency %s skipped: %s", key, exc)
    return AnnulusResult(estimates, failed)


def true_transform(ws: ProbeWorkspace, xi) -> complex:
    """Direct-quadrature target value: FT(q1-q2), or the even-extension version."""
    xi = np.asarray(xi, dtype=float)
    if ws.variant is Variant.SINGLE_REFLECTION:
        return complex(ws.qdiff_ft(xi))
    mirrored = np.array([xi[0], xi[1], -xi[2]])
    return complex(ws.qdiff_ft(xi) + ws.qdiff_ft(mirrored))


# -- analytic continuation to low lateral frequencies ------------------------------


@dataclass
class ContinuationConfig:
    """Exponential-type model and two-constants certificate parameters.

    The complex strip is fixed: G = {|Re| < 2, |Im| < 2} with real segments
    gamma = (0, 1) and Gamma0 = (1, 2).  model_halfwidth is the exponential
    type of the line restrictions (2R by default); lam in (0, 1) is the
    interpolation exponent, calibrated on synthetic functions of that type.
    """

    lam: float
    model_halfwidth: float
    tikhonov: float = 1e-10
    c0: float = 1.0
    n_quad: int = 64

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ContinuationError("interpolation exponent must lie in (0, 1)")


@dataclass
class LowFreqResult:
    s_eval: np.ndarray
    values: np.ndarray
    sup_gamma_bound: float
    sup_gamma0: float
    condition: float


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    t, wq = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    wq.setflags(write=False)
    return t, wq


def _design_matrix(s: np.ndarray, halfwidth: float, n_quad: int):
    t, wq = _gauss_legendre(n_quad)
    t = t * halfwidth
    wq = wq * halfwidth
    return np.exp(1j * np.outer(s, t)) * wq, (t, wq)


def low_freq_extend(s_samples: np.ndarray, f_samples: np.ndarray,
                    cfg: ContinuationConfig, s_eval: np.ndarray,
                    sup_g_bound: float) -> LowFreqResult:
    """Extend line samples from Gamma0 = (1, 2) down to gamma = (0, 1).

    Fits f(s) = integral over |t| <= A of F(t) exp(i s t) dt by Tikhonov-
    regularized least squares on the Gamma0 samples, evaluates the model on
    gamma, and returns the certified interpolation bound
    sup_gamma <= c0 * sup_G^(1-lam) * sup_Gamma0^lam.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    f_samples = np.asarray(f_samples, dtype=np.complex128)
    design, _ = _design_matrix(s_samples, cfg.model_halfwidth, cfg.n_quad)
    normal = np.conj(design.T) @ design + cfg.tikhonov * np.eye(design.shape[1])
    condition = float(np.linalg.cond(normal))
    if condition > 1e12:
        raise ContinuationError(
            f"continuation fit condition {condition:.3e} > 1e12; increase tikhonov"
        )
    coef = scipy.linalg.solve(normal, np.conj(design.T) @ f_samples, assume_a="her")
    eval_design, _ = _design_matrix(np.asarray(s_eval, dtype=float),
                                    cfg.model_halfwidth, cfg.n_quad)
    values = eval_design @ coef
    sup_gamma0 = float(np.max(np.abs(f_samples))) if f_samples.size else 0.0
    bound = cfg.c0 * sup_g_bound ** (1.0 - cfg.lam) * sup_gamma0 ** cfg.lam
    return LowFreqResult(np.asarray(s_eval, float), values, float(bound),
                         sup_gamma0, condition)


def _synthetic_coefficients(halfwidth: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weighted amplitudes of a random function sum_j c_j exp(i z t_j)."""
    n = 24
    t, wq = _gauss_legendre(n)
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amp *= np.exp(-3.0 * (np.arange(n) / n) ** 2)
    return t * halfwidth, wq * halfwidth * amp


def synthetic_line_function(halfwidth: float, rng) -> tuple:
    """Random entire function of exponential type <= halfwidth (for calibration)."""
    t, coef = _synthetic_coefficients(halfwidth, rng)

    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        return np.exp(1j * np.multiply.outer(z, t)) @ coef

    return f


def calibrate_two_constants(halfwidth: float, n_funcs: int = 20, seed: int = 0,
                            lam_grid=None, c0_slack: float = 2.0) -> tuple[float, float, list]:
    """Fit (c0, lam) so sup_gamma <= c0 sup_G^(1-lam) sup_Gamma0^lam on samples.

    Synthetic entire functions of the prescribed type are measured on dense
    grids over gamma, Gamma0 and the rectangle G, all functions at once: one
    exponential matrix per grid times the matrix of their amplitudes.  The
    required c0 grows monotonically with lam here (the strip sup dominates
    the segment sup), so the selection takes the largest lam whose c0 stays
    within `c0_slack` of the minimum: a certified exponent that is still
    useful downstream, where larger lam means stronger stability.  Returns
    (c0, lam, sup table).
    """
    if lam_grid is None:
        lam_grid = np.linspace(0.05, 0.95, 19)
    s_gamma = np.linspace(0.01, 0.99, 99)
    s_g0 = np.linspace(1.0, 2.0, 101)
    re = np.linspace(-2.0, 2.0, 41)
    im = np.linspace(-2.0, 2.0, 41)
    zg = (re[:, None] + 1j * im[None, :]).ravel()
    coefs = []
    for i in range(n_funcs):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], np.uint64)))
        t, coef = _synthetic_coefficients(halfwidth, rng)
        coefs.append(coef)
    amps = np.stack(coefs, axis=1)
    sups = [np.max(np.abs(np.exp(1j * np.multiply.outer(z.astype(np.complex128), t)) @ amps),
                   axis=0) for z in (s_gamma, zg, s_g0)]
    rows = [tuple(float(v) for v in row) for row in zip(*sups)]
    table = [(max(sg / (sG ** (1 - lam) * sg0 ** lam) for sg, sG, sg0 in rows),
              float(lam)) for lam in lam_grid]
    c0_min = min(c for c, _ in table)
    eligible = [(c, lam) for c, lam in table if c <= c0_slack * c0_min]
    c0, lam = max(eligible, key=lambda t: t[1])
    return c0, lam, rows


# -- bound assembly -----------------------------------------------------------------


@dataclass
class RecoveryResult:
    sup_bound: float
    hm1_bound: float
    linf_bound: float
    params: dict
    c_plancherel: float
    c_sobolev: float
    fhat: dict = dc_field(default_factory=dict)

    def check_internal(self) -> bool:
        lhs = self.hm1_bound ** 2
        rhs = self.c_plancherel * (
            self.params["r"] ** 3 * self.sup_bound ** 2 + self.params["r"] ** -2
        )
        return lhs <= rhs * (1 + 1e-12)


def plancherel_constant(bound_m: float) -> float:
    """Explicit constant for the H^-1 split: covers both the ball volume factor
    (2 pi)^-3 * 4 pi/3 on low frequencies and the L^2 tail bound (2M)^2."""
    return max((2 * np.pi) ** -3 * 4 * np.pi / 3, 4.0 * bound_m ** 2)


def assemble_bounds_from_sup(sup: float, r: float, s: float, bound_m: float,
                             c_sobolev: float = 1.0, params: dict | None = None,
                             fhat: dict | None = None) -> RecoveryResult:
    if s <= 1.5:
        raise RecoveryError("smoothness index must exceed 3/2")
    c_p = plancherel_constant(bound_m)
    hm1 = math.sqrt(c_p * (r ** 3 * sup ** 2 + r ** -2))
    eps = (s - 1.5) / 2.0
    linf = c_sobolev * hm1 ** (eps / (s + 1.0))
    p = dict(params or {})
    p.setdefault("r", r)
    p["s"] = s
    p["M"] = bound_m
    p["eps"] = eps
    return RecoveryResult(sup, hm1, linf, p, c_p, c_sobolev, fhat or {})


def assemble_bounds(fhat: dict, r: float, s: float, bound_m: float,
                    c_sobolev: float = 1.0, params: dict | None = None) -> RecoveryResult:
    """Sup over the supplied frequency map, then the H^-1 and L-inf chain."""
    sup = max((abs(v) for v in fhat.values()), default=0.0)
    return assemble_bounds_from_sup(sup, r, s, bound_m, c_sobolev, params, fhat)


# -- parameter schedules --------------------------------------------------------------


@dataclass(frozen=True)
class ParameterChoice:
    r: float
    param: float       # tau for the tau-family, alpha for the alpha-family
    tau: float         # bound-exponent parameter in both cases
    theta: float
    small_r: bool      # r < 2: outside the frequency-set precondition
    log_theta: float   # log(1 + |log(delta * star)|)


def stability_exponent(lam: float, variant: Variant) -> float:
    if variant is Variant.SINGLE_REFLECTION:
        return lam / (2.0 * (lam + 5.0))
    return lam / (2.0 * lam + 5.0)


def choose_parameters(delta: float, star_norm: float | None, lam: float, c: float,
                      variant: Variant, log_star: float | None = None) -> ParameterChoice:
    """Solve the defining equations for (r, tau/alpha) given the data error.

    star_norm may be passed in the log domain (log_star = log of the star
    norm) for error levels too small for floating point.  Requires
    0 < star_norm < 1/delta.
    """
    if not (0 < lam < 1):
        raise RecoveryError("lambda must lie in (0, 1)")
    if c <= 0 or delta <= 0:
        raise RecoveryError("c and delta must be positive")
    if log_star is None:
        if star_norm is None or star_norm <= 0:
            raise RecoveryError("need a positive star norm (or its logarithm)")
        log_star = math.log(star_norm)
    log_delta_star = math.log(delta) + log_star
    if log_delta_star >= 0:
        raise RecoveryError(
            "hypothesis violated: star norm must be below 1/delta"
        )
    big_l = math.log1p(abs(log_delta_star))
    x = (lam / 4.0) * big_l / c
    if variant is Variant.SINGLE_REFLECTION:
        r = x ** (lam / (lam + 5.0))
        tau = r ** (5.0 / lam)
        param = tau
    else:
        r = x ** (2.0 * lam / (2.0 * lam + 5.0))
        tau = r ** (5.0 / (2.0 * lam))
        param = math.sqrt(max(tau * tau - 0.25, 0.0))
    theta = stability_exponent(lam, variant)
    return ParameterChoice(r, param, tau, theta, bool(r < 2.0), big_l)


def schedule_residual(choice: ParameterChoice, delta: float, lam: float, c: float,
                      variant: Variant, log_star: float) -> float:
    """Defining-equation residual, for round-trip verification."""
    big_l = math.log1p(abs(math.log(delta) + log_star))
    if variant is Variant.SINGLE_REFLECTION:
        lhs = choice.r ** ((lam + 5.0) / lam)
    else:
        lhs = choice.r ** ((2.0 * lam + 5.0) / (2.0 * lam))
    return abs(lhs - (lam / 4.0) * big_l / c)


def bound_chain(delta: float, star_norm: float | None, lam: float, c: float,
                variant: Variant, s: float, bound_m: float,
                c_sobolev: float = 1.0, log_star: float | None = None) -> RecoveryResult:
    """Full closing chain from a measured star norm to an L-infinity bound.

    The sup bound over |xi| < r combines the large-frequency estimate
    exp(c tau r) Theta^(-lam/2) with the remainder tail tau^(-lam/2)
    (tau-family) or tau^(-lam) (alpha-family), at the scheduled (r, tau).
    """
    choice = choose_parameters(delta, star_norm, lam, c, variant, log_star=log_star)
    if log_star is None:
        log_star = math.log(star_norm)
    log_delta_star = math.log(delta) + log_star
    theta_big = 1.0 + abs(log_delta_star)
    main = math.exp(min(c * choice.tau * choice.r, OFFSET_GUARD)) * theta_big ** (-lam / 2.0)
    if variant is Variant.SINGLE_REFLECTION:
        tail = choice.tau ** (-lam / 2.0)
    else:
        tail = choice.tau ** (-lam)
    sup = main + tail
    params = {
        "r": choice.r, "param": choice.param, "tau": choice.tau,
        "lambda": lam, "c": c, "delta": delta, "theta": choice.theta,
        "small_r": choice.small_r, "log_theta": choice.log_theta,
        "variant": variant.value,
    }
    return assemble_bounds_from_sup(sup, choice.r, s, bound_m, c_sobolev, params)

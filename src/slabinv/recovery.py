"""Fourier-domain recovery of potential differences and stability bounds.

Pipeline (`recover`): pair the potential difference against probe products
over the domain, subtract the computable cross-term corrections (the ones
carried by the mirrored phases), and read off estimates of the transform of
q1 - q2 (tau-family) or of the difference of even extensions (alpha-family)
on the annulus 1 <= xi_1e < r, |xi_3| < r.  Low lateral frequencies are
filled by a Tikhonov-regularized exponential-type fit along frame lines,
certified by a two-constants interpolation inequality with a calibrated
exponent.  The closing chain converts a sup bound over |xi| < r into an H^-1
bound (explicit Plancherel constant) and then into an L-infinity bound via
Sobolev interpolation, with the parameter schedules

    tau := r^(5/lambda),        r^((lambda+5)/lambda)   = c^-1 log Theta^(lambda/4)
    tau := r^(5/(2 lambda)),    r^((2 lambda+5)/(2 lambda)) = c^-1 log Theta^(lambda/4)

for the two families, Theta := 1 + |log(delta * star_norm)|.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cgo import (
    BoxSource,
    ContractionError,
    FrameError,
    ProjectionError,
    Variant,
    box_source,
    build_box_grid,
    build_probe,
    make_phase_pair,
)
from .fields import (
    SOBOLEV_S,
    GridField,
    Potential,
    extend_even,
    extend_trivial,
    fourier_transform,
    quadrature_weights,
)
from .dnmap import measurement_pair, op_norm_star
from .geometry import MAX_NODES, Grid3, Plate, SlabGeometry

logger = logging.getLogger(__name__)


class RecoveryError(RuntimeError):
    pass


class ContinuationError(RuntimeError):
    pass


VARIANTS = {
    "thm2": Variant.SINGLE_REFLECTION,
    "thm3": Variant.DOUBLE_REFLECTION,
}


def measurement_plate(variant: Variant) -> Plate:
    """Plate of the Neumann measurement: bottom for thm2, top for thm3."""
    return Plate.BOTTOM if variant is Variant.SINGLE_REFLECTION else Plate.TOP


def closing_constant(geom: SlabGeometry) -> float:
    """The constant c = 4(2R + L) + 2 of the parameter schedules."""
    return 4.0 * (2.0 * geom.R + geom.L) + 2.0


# -- frequency bookkeeping ------------------------------------------------------


@dataclass(frozen=True)
class FrequencySet:
    """Cartesian frequency grid split by lateral magnitude.

    annulus: 1 <= xi_1e < r and |xi_3| < r (both upper bounds strict);
    low:     0 <  xi_1e < 1 and |xi_3| < r;
    axis:    xi_1e = 0 points, fillable only by continuity.
    """

    annulus: tuple
    low: tuple
    axis: tuple


def build_frequency_set(r: float, spacing: float = 0.25) -> FrequencySet:
    if r <= 2:
        raise RecoveryError("frequency radius must exceed 2")
    # n spacings stay below r - 1e-12, so |xi_3| < r; the grid has side^3
    # points, side = 2 n + 1 (inf where a tiny spacing overflows the span)
    span = (r - 1e-12) / spacing
    side = 2 * math.floor(span) + 1 if span < math.inf else span
    if side ** 3 > MAX_NODES:
        raise RecoveryError(f"spacing {spacing:g} at r = {r:g} asks for {side:.4g}^3 frequency "
                            f"points, more than the {MAX_NODES} guard")
    n = (side - 1) // 2
    vals = spacing * np.arange(-n, n + 1)
    annulus, low, axis = [], [], []
    for x1 in vals:
        for x2 in vals:
            x1e = math.hypot(x1, x2)
            if x1e >= r:
                continue
            for x3 in vals:
                xi = (float(x1), float(x2), float(x3))
                if x1e >= 1.0 - 1e-12:
                    annulus.append(xi)
                elif x1e > 1e-12:
                    low.append(xi)
                else:
                    axis.append(xi)
    return FrequencySet(tuple(annulus), tuple(low), tuple(axis))


# -- annulus estimation ------------------------------------------------------------


@dataclass
class ProbeWorkspace:
    """Shared per-pair data: the frequency k of the phases, remainder sources
    of the extended potentials, difference field and its weighted L^1 norm."""

    k: float
    variant: Variant
    eval_grid: Grid3
    src1: BoxSource
    src2: BoxSource
    qdiff: GridField
    qdiff_l1: float


def _restrict(field: GridField, sub: Grid3) -> GridField:
    src = field.grid
    i0 = round((sub.origin[0] - src.origin[0]) / src.h)
    j0 = round((sub.origin[1] - src.origin[1]) / src.h)
    k0 = round((sub.origin[2] - src.origin[2]) / src.h)
    sx, sy, sz = sub.node_shape
    vals = field.values[i0:i0 + sx, j0:j0 + sy, k0:k0 + sz]
    return GridField(sub, vals.copy())


def make_workspace(q1: Potential, q2: Potential, k: float, variant: Variant, *,
                   box_coarsen: int = 1, eval_grid: Grid3 | None = None) -> ProbeWorkspace:
    """Everything the probes at one k share, each remainder source built once
    (the sources do not depend on k, which only the phases carry).

    q1 is extended evenly; q2 evenly for the alpha-family and by zero for
    the tau-family.  Probes are evaluated on `eval_grid`, by default the
    node-aligned subgrid spanning the support and one cell more laterally
    (full slab height).  RecoveryError when a
    potential with a nonzero sample has none on the box.
    """
    if q1.grid != q2.grid:
        raise RecoveryError("potentials must share a grid")
    geom = q1.geom
    grid = q1.grid
    box = build_box_grid(geom, grid, coarsen=box_coarsen)
    q1_box = extend_even(q1, box)
    extend2 = extend_trivial if variant is Variant.SINGLE_REFLECTION else extend_even
    q2_box = extend2(q2, box)
    for name, q, q_box in (("q1", q1, q1_box), ("q2", q2, q2_box)):
        if np.any(q.field.values) and not np.any(q_box.values):
            raise RecoveryError(f"{name} vanishes at every node of the probe box of spacing "
                                f"{box.h:g} (box_coarsen {box_coarsen}): the box is too "
                                "coarse to see it")
    sub = eval_grid
    if sub is None:
        m = min(math.ceil(geom.R / grid.h - 1e-12) + 1, grid.nx // 2)
        sub = Grid3(2 * m, 2 * m, grid.nz, grid.h, (-m * grid.h, -m * grid.h, 0.0))
    qd_full = GridField(grid, q1.field.values - q2.field.values)
    qdiff = _restrict(qd_full, sub)
    l1 = float(np.sum(quadrature_weights(sub) * np.abs(qdiff.values)))
    return ProbeWorkspace(k, variant, sub, box_source(q1_box, sub),
                          box_source(q2_box, sub), qdiff, l1)


@dataclass
class AnnulusResult:
    estimates: dict
    failed: dict


def canonical_frequency(xi) -> tuple[tuple, bool]:
    """(c, mate): c is the member of the pair {xi, -xi} whose first nonzero
    coordinate is positive, with -0.0 normalised to 0.0; mate says xi = -c."""
    c = tuple(float(v) + 0.0 for v in xi)
    mate = next((v < 0 for v in c if v), False)
    return (tuple(0.0 - v for v in c) if mate else c), mate


def estimate_fhat_annulus(ws: ProbeWorkspace, param: float, xis) -> AnnulusResult:
    """Estimate the Fourier difference at each frequency from probe pairings.

    The mirrored-phase cross terms (the full reflected term for the
    tau-family; both shifted-frequency terms for the alpha-family) are
    computed from the remainder fields and added back, so the residual error
    of each estimate is exactly the main-phase remainder contribution, the
    term controlled by the remainder decay.  Pairing plus corrections is one
    quadrature: int q d1 d2 (tau-family) or int q (d1 d2 + m1 m2)
    (alpha-family), with d and m the direct and mirrored probe factors.  As
    rho1 + rho2 = i xi, d1 d2 = exp(i x . xi) w1 w2 and m1 m2 = exp(i x* . xi)
    w1* w2* with w = 1 + psi (`CgoProbe.product`): bounded at every
    parameter, so no frequency fails for the size of its exponentials.

    Each pair {xi, -xi} costs one probe, at its `canonical_frequency`, and
    the mate is the complex conjugate.  As q and k are real this is exact in
    the continuum: rho_j(-xi) = conj rho_j(xi) (tau-family), and conj
    rho_j(xi) is the alpha pair at -xi with -alpha in the e2-reversed frame.
    On the box lattice the remainders differ from conjugates only on the
    lateral Nyquist planes, which have no partner; at the benchmark settings
    a mate differs from the direct estimate at -xi by <= 1.3e-10 |F| (tau)
    and 7.3e-6 |F| (alpha, the other-sign-alpha estimate).  No estimate
    depends on its batch.  A failure is recorded at both members and skipped.
    """
    estimates: dict = {}
    failed: dict = {}
    done: dict = {}  # canonical frequency -> estimate, or the failure's message
    wq_conj = np.conj(quadrature_weights(ws.eval_grid) * ws.qdiff.values)
    for xi in xis:
        key = (float(xi[0]), float(xi[1]), float(xi[2]))
        canon, mate = canonical_frequency(key)
        if canon not in done:
            try:
                phase = make_phase_pair(canon, ws.variant, param, ws.k)
                probe = build_probe(phase, ws.src1, ws.src2)
                done[canon] = complex(np.vdot(wq_conj, probe.product()))
            except (FrameError, ContractionError, ProjectionError) as exc:
                done[canon] = str(exc)
        if isinstance(done[canon], str):
            failed[key] = done[canon]
            logger.warning("frequency %s skipped: %s", key, done[canon])
        else:
            estimates[key] = done[canon].conjugate() if mate else done[canon]
    return AnnulusResult(estimates, failed)


def true_transform(ws: ProbeWorkspace, xis):
    """Direct-quadrature target values, FT(q1-q2) or the even-extension
    version, at one frequency (a complex) or at the rows of an (n, 3) array
    (an array, from one batch per transform)."""
    xis = np.asarray(xis, dtype=float)
    batch = xis.reshape(-1, 3)
    out = fourier_transform(ws.qdiff, batch)
    if ws.variant is Variant.DOUBLE_REFLECTION:
        out += fourier_transform(ws.qdiff, batch * np.array([1.0, 1.0, -1.0]))
    return complex(out[0]) if xis.ndim == 1 else out


# -- analytic continuation to low lateral frequencies ------------------------------


TIKHONOV = 1e-10
N_QUAD = 64
CALIBRATION_FUNCS = 20
CALIBRATION_SEED = 0
LAM_GRID = tuple(np.linspace(0.05, 0.95, 19).tolist())
C0_SLACK = 2.0


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
    c0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ContinuationError("interpolation exponent must lie in (0, 1)")


@dataclass
class LowFreqResult:
    values: np.ndarray
    sup_gamma_bound: float
    condition: float


@functools.lru_cache(maxsize=4)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    t, wq = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    wq.setflags(write=False)
    return t, wq


def _design_matrix(s: np.ndarray, halfwidth: float) -> np.ndarray:
    t, wq = _gauss_legendre(N_QUAD)
    return np.exp(1j * np.outer(s, t * halfwidth)) * (wq * halfwidth)


def low_freq_extend(s_samples: np.ndarray, f_samples: np.ndarray,
                    cfg: ContinuationConfig, s_eval: np.ndarray,
                    sup_g_bound: float) -> LowFreqResult:
    """Extend one line's samples from Gamma0 = (1, 2) down to gamma = (0, 1).

    Fits f(s) = integral over |t| <= A of F(t) exp(i s t) dt, F sampled at
    N_QUAD Gauss-Legendre nodes, by least squares with Tikhonov weight
    TIKHONOV on the n Gamma0 samples, evaluates the model on gamma, and
    returns the certified interpolation bound
    sup_gamma <= c0 * sup_G^(1-lam) * sup_Gamma0^lam.  With D the n x N_QUAD
    design, the fit is solved in its dual form D^H (D D^H + TIKHONOV I)^-1 f
    (the same estimator as the normal equations, but n x n), and the
    condition gate reads that n x n matrix.
    """
    s_samples = np.asarray(s_samples, dtype=float)
    f_samples = np.asarray(f_samples, dtype=np.complex128)
    if not s_samples.size:
        raise ContinuationError("no samples to fit")
    design = _design_matrix(s_samples, cfg.model_halfwidth)
    dual = design @ np.conj(design.T) + TIKHONOV * np.eye(len(design))
    condition = float(np.linalg.cond(dual))
    if condition > 1e12:
        raise ContinuationError(
            f"continuation fit condition {condition:.3e} > 1e12 at tikhonov weight "
            f"{TIKHONOV:.1e}"
        )
    coef = np.linalg.solve(dual, f_samples) @ np.conj(design)
    values = _design_matrix(np.asarray(s_eval, dtype=float), cfg.model_halfwidth) @ coef
    bound = cfg.c0 * sup_g_bound ** (1.0 - cfg.lam) * float(np.max(np.abs(f_samples))) ** cfg.lam
    return LowFreqResult(values, bound, condition)


def _synthetic_coefficients(halfwidth: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weighted amplitudes of a random function sum_j c_j exp(i z t_j)."""
    n = 24
    t, wq = _gauss_legendre(n)
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amp *= np.exp(-3.0 * (np.arange(n) / n) ** 2)
    return t * halfwidth, wq * halfwidth * amp


def calibrate_two_constants(halfwidth: float) -> tuple[float, float, list]:
    """Fit (c0, lam) so sup_gamma <= c0 sup_G^(1-lam) sup_Gamma0^lam on samples.

    CALIBRATION_FUNCS synthetic entire functions of the prescribed type, keyed
    by CALIBRATION_SEED, are measured on dense grids over gamma, Gamma0 and
    the rectangle G, all functions at once: one exponential matrix per grid
    times the matrix of their amplitudes.  The required c0 grows
    monotonically with lam here (the strip sup dominates the segment sup), so
    the selection takes the largest lam of LAM_GRID whose c0 stays within
    C0_SLACK times the minimum: a certified exponent that is still useful
    downstream, where larger lam means stronger stability.  Returns
    (c0, lam, sup table).
    """
    s_gamma = np.linspace(0.01, 0.99, 99)
    s_g0 = np.linspace(1.0, 2.0, 101)
    re = np.linspace(-2.0, 2.0, 41)
    im = np.linspace(-2.0, 2.0, 41)
    zg = (re[:, None] + 1j * im[None, :]).ravel()
    coefs = []
    for i in range(CALIBRATION_FUNCS):
        rng = np.random.Generator(np.random.Philox(key=np.array([CALIBRATION_SEED, i], np.uint64)))
        t, coef = _synthetic_coefficients(halfwidth, rng)
        coefs.append(coef)
    amps = np.stack(coefs, axis=1)
    sups = [np.max(np.abs(np.exp(1j * np.multiply.outer(z.astype(np.complex128), t)) @ amps),
                   axis=0) for z in (s_gamma, zg, s_g0)]
    rows = [tuple(float(v) for v in row) for row in zip(*sups)]
    table = [(max(sg / (sG ** (1 - lam) * sg0 ** lam) for sg, sG, sg0 in rows),
              float(lam)) for lam in LAM_GRID]
    c0_min = min(c for c, _ in table)
    eligible = [(c, lam) for c, lam in table if c <= C0_SLACK * c0_min]
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


def plancherel_constant(bound_m: float) -> float:
    """Explicit constant for the H^-1 split: covers both the ball volume factor
    (2 pi)^-3 * 4 pi/3 on low frequencies and the L^2 tail bound (2M)^2."""
    return max((2 * np.pi) ** -3 * 4 * np.pi / 3, 4.0 * bound_m ** 2)


def assemble_bounds_from_sup(sup: float, r: float, bound_m: float,
                             params: dict) -> RecoveryResult:
    """The H^-1 and L-inf chain from a sup bound over |xi| < r, for the
    H^s ball of radius bound_m at s = SOBOLEV_S; `params` with r, s, M and
    eps added become the result's params."""
    s = SOBOLEV_S
    c_p = plancherel_constant(bound_m)
    hm1 = math.sqrt(c_p * (r ** 3 * sup ** 2 + r ** -2))
    eps = (s - 1.5) / 2.0
    linf = hm1 ** (eps / (s + 1.0))
    p = {**params, "r": r, "s": s, "M": bound_m, "eps": eps}
    return RecoveryResult(sup, hm1, linf, p, c_p)


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


def choose_parameters(delta: float, star_norm: float, lam: float, c: float,
                      variant: Variant) -> ParameterChoice:
    """Solve the defining equations for (r, tau/alpha) given the data error.

    Requires a float star norm with 0 < star_norm < 1/delta; a zero or
    missing (None) one raises RecoveryError.
    """
    if not (0 < lam < 1):
        raise RecoveryError("lambda must lie in (0, 1)")
    if c <= 0 or delta <= 0:
        raise RecoveryError("c and delta must be positive")
    if star_norm is None or star_norm <= 0:
        raise RecoveryError("need a positive star norm")
    log_delta_star = math.log(delta) + math.log(star_norm)
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


def bound_chain(delta: float, star_norm: float, lam: float, c: float,
                variant: Variant, bound_m: float) -> RecoveryResult:
    """Full closing chain from a measured float star norm to an L-infinity
    bound, for the H^SOBOLEV_S ball of radius bound_m.

    The sup bound over |xi| < r combines the large-frequency estimate
    exp(c tau r) Theta^(-lam/2) with the remainder tail tau^(-lam/2)
    (tau-family) or tau^(-lam) (alpha-family), at the scheduled (r, tau).
    The schedule makes c tau r = (lam/4) log Theta.  For float delta and
    star norm, |log(delta * star_norm)| < 1489, so c tau r < 1.83 and the
    exponential never overflows.
    """
    choice = choose_parameters(delta, star_norm, lam, c, variant)
    theta_big = 1.0 + abs(math.log(delta) + math.log(star_norm))
    main = math.exp(c * choice.tau * choice.r) * theta_big ** (-lam / 2.0)
    if variant is Variant.SINGLE_REFLECTION:
        tail = choice.tau ** (-lam / 2.0)
    else:
        tail = choice.tau ** (-lam)
    sup = main + tail
    params = {
        "param": choice.param, "tau": choice.tau, "lambda": lam, "c": c,
        "delta": delta, "theta": choice.theta, "small_r": choice.small_r,
        "log_theta": choice.log_theta, "variant": variant.value,
    }
    return assemble_bounds_from_sup(sup, choice.r, bound_m, params)


# -- the recovery pipeline ------------------------------------------------------------


@dataclass
class RecoveryRun:
    """What one `recover` run produced.

    estimates and oracle map each frequency (sorted) to its estimate and its
    direct-quadrature target; star_norm is None unless the schedule measured
    it; counts holds n_annulus, n_failed (annulus frequencies skipped) and
    n_axis_filled; warnings lists schedule clamps and skipped continuation
    samples and lines.  continuation_sup_bound and continuation_condition
    are the largest two-constants certificate and fit condition over the
    fitted continuation lines, None when no line was fitted.
    """

    estimates: dict
    oracle: dict
    bounds: RecoveryResult
    star_norm: float | None
    counts: dict
    warnings: list
    continuation_sup_bound: float | None
    continuation_condition: float | None


def _continue_low(ws: ProbeWorkspace, param: float, low, spacing: float,
                  known: dict, cfg: ContinuationConfig, warnings: list) -> tuple[dict, list]:
    """Estimates at the low lateral frequencies by continuation along frame lines.

    Each line (lateral direction, xi_3) is sampled at max(3, floor(1 /
    spacing) + 1) equispaced lateral magnitudes s from 1 to 2, so the sup
    over Gamma0 never rests on two samples; at spacing 1/m they are
    s = 1, 1 + spacing, ..., 2.  Samples that are annulus frequencies reuse
    `known`; the others are estimated in one batch.  Each line is fitted on
    its own successful samples by one `low_freq_extend` call; failed samples,
    and each line whose fit fails, are skipped and reported in `warnings`.
    Returns the estimates and the `LowFreqResult` of each fitted line.
    """
    s_grid = np.linspace(1.0, 2.0, max(3, math.floor(1.0 / spacing + 1e-9) + 1))
    lines: dict = {}
    for xi in low:
        x1e = math.hypot(xi[0], xi[1])
        key = (round(xi[0] / x1e, 9), round(xi[1] / x1e, 9), xi[2])
        lines.setdefault(key, []).append(xi)
    samples = {d: [(float(s * d[0]), float(s * d[1]), float(d[2])) for s in s_grid]
               for d in sorted(lines)}
    res = estimate_fhat_annulus(
        ws, param, [xi for keys in samples.values() for xi in keys if xi not in known])
    warnings.extend(f"continuation sample {xi} skipped: {msg}"
                    for xi, msg in res.failed.items())
    found = {**known, **res.estimates}
    sup_g = ws.qdiff_l1 * math.exp(2.0 * cfg.model_halfwidth)
    out, fits = {}, []
    for d, keys in samples.items():
        ok = [i for i, xi in enumerate(keys) if xi in found]
        try:
            ext = low_freq_extend(s_grid[ok], [found[keys[i]] for i in ok], cfg,
                                  [math.hypot(p[0], p[1]) for p in lines[d]], sup_g)
        except ContinuationError as exc:
            warnings.append(f"continuation line {d} skipped: {exc}")
            continue
        fits.append(ext)
        out.update(((float(p[0]), float(p[1]), float(p[2])), complex(v))
                   for p, v in zip(lines[d], ext.values))
    return out, fits


def recover(q1: Potential, q2: Potential, k: float, variant: Variant, *,
            r: float | None, param: float | None, lam: float | None,
            spacing: float, delta: float, basis_n: int, box_coarsen: int) -> RecoveryRun:
    """Fourier-difference estimates of q1 - q2 for |xi| < r and the closing bounds.

    None schedules a parameter.  lam (with c0) comes from the two-constants
    calibration at model half-width 2R.  r and param come from
    `choose_parameters` at delta and the star norm of the DN difference
    measured on basis_n^2 modes; a scheduled r < 2 is clamped to 2.25 and a
    scheduled param < 1 to 1, each with a warning.  The annulus is estimated
    from probe pairings, the low lateral frequencies by continuation along
    frame lines, and each axis point (xi_1e = 0) by the mean of its lateral
    neighbours.
    """
    geom = q1.geom
    ws = make_workspace(q1, q2, k, variant, box_coarsen=box_coarsen)
    if lam is None:
        c0, lam, _ = calibrate_two_constants(2.0 * geom.R)
    else:
        c0 = 1.0
    c = closing_constant(geom)
    star = None
    warnings: list = []
    if r is None or param is None:
        src, tgt, d = measurement_pair(q1.grid, geom, k, q1, q2,
                                       measurement_plate(variant), basis_n)
        star = op_norm_star(d.matrix, src, tgt)
        choice = choose_parameters(delta, star, lam, c, variant)
        if r is None:
            r = choice.r
            if r < 2.0:
                warnings.append(f"scheduled r={r:.4g} < 2; clamped to 2.25")
                r = 2.25
        if param is None:
            param = choice.param
            if param < 1.0:
                warnings.append(f"scheduled parameter {param:.4g} < 1; clamped to 1")
                param = 1.0
    freqs = build_frequency_set(r, spacing)
    ann = estimate_fhat_annulus(ws, param, freqs.annulus)
    if not ann.estimates:
        raise RecoveryError(f"none of the {len(freqs.annulus)} annulus frequencies was estimated")
    cfg = ContinuationConfig(lam=lam, model_halfwidth=2.0 * geom.R, c0=c0)
    continued, fits = _continue_low(ws, param, freqs.low, spacing, ann.estimates, cfg,
                                    warnings)
    fhat = {**ann.estimates, **continued}
    n_axis = 0
    for xi in freqs.axis:
        nbrs = [(xi[0] + spacing, xi[1], xi[2]), (xi[0] - spacing, xi[1], xi[2]),
                (xi[0], xi[1] + spacing, xi[2]), (xi[0], xi[1] - spacing, xi[2])]
        vals = [fhat[n] for n in nbrs if n in fhat]
        if vals:
            fhat[xi] = sum(vals) / len(vals)
            n_axis += 1
    estimates = {xi: fhat[xi] for xi in sorted(fhat)}
    oracle = dict(zip(estimates, map(complex, true_transform(ws, np.array(list(estimates))))))
    name = next(n for n, v in VARIANTS.items() if v is variant)
    bounds = assemble_bounds_from_sup(
        max(map(abs, estimates.values())), r, max(q1.bound_M, q2.bound_M),
        {"param": param, "lambda": lam, "c": c, "delta": delta,
         "theta": stability_exponent(lam, variant), "variant": name})
    counts = {"n_annulus": len(ann.estimates), "n_failed": len(ann.failed),
              "n_axis_filled": n_axis}
    return RecoveryRun(estimates, oracle, bounds, star, counts, warnings,
                       max((f.sup_gamma_bound for f in fits), default=None),
                       max((f.condition for f in fits), default=None))

"""Complex-geometrical-optics probes with reflection across the bottom plate.

For a frequency xi with nonzero lateral part, an adapted orthonormal frame
(e1 along xi', e3 vertical, e2 = e3 x e1) carries two families of complex
phase vectors rho with rho . rho = 0:

* a tau-family whose product phase is exp(i x . xi) and whose first probe is
  antisymmetrized across x3 = 0 (data and measurements on opposite plates);
* an alpha-family in which both probes are antisymmetrized (data and
  measurements on the same plate), at the price of shifted-frequency cross
  terms exp(i x . (xi_1e, 0, +-2 alpha xi_1e)_e) in the product.

Each probe is exp(x . rho) (1 + psi) with the remainder psi solving the
conjugated equation (-Lap - 2 rho . grad) psi = -(Q - k^2)(1 + psi) on a
periodic box containing the domain and its mirror image; the solve inverts
the Fourier symbol |zeta|^2 - 2 i rho . zeta with near-singular modes
projected out and reported.  Exponentials are evaluated against a per-probe
log offset so that large parameters never overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft
import scipy.sparse

from .fields import FieldError, GridField
from .geometry import Grid3, SlabGeometry


class FrameError(ValueError):
    pass


class ContractionError(RuntimeError):
    """Remainder iteration failed to contract; advise a larger parameter."""


class ProjectionError(RuntimeError):
    """Too many Fourier modes fell inside the near-singular symbol set."""


class Variant(Enum):
    SINGLE_REFLECTION = "single"   # tau-family, first probe reflected
    DOUBLE_REFLECTION = "double"   # alpha-family, both probes reflected


@dataclass(frozen=True)
class Frame:
    xi: np.ndarray
    xi_1e: float
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    def to_ambient(self, comps) -> np.ndarray:
        c1, c2, c3 = comps
        return c1 * self.e1 + c2 * self.e2 + c3 * self.e3

    @property
    def xi_norm(self) -> float:
        return float(np.linalg.norm(self.xi))


def make_frame(xi) -> Frame:
    xi = np.asarray(xi, dtype=float)
    xi_1e = math.hypot(xi[0], xi[1])
    if xi_1e <= 0:
        raise FrameError("frame undefined: frequency has no lateral component")
    e1 = np.array([xi[0] / xi_1e, xi[1] / xi_1e, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    e2 = np.array([-xi[1] / xi_1e, xi[0] / xi_1e, 0.0])  # e3 x e1
    return Frame(xi.copy(), xi_1e, e1, e2, e3)


@dataclass(frozen=True)
class PhasePair:
    variant: Variant
    param: float
    frame: Frame
    rho1: np.ndarray
    rho2: np.ndarray

    @property
    def xi(self) -> np.ndarray:
        return self.frame.xi

    @property
    def decay_scale(self) -> float:
        """|rho| / sqrt(2): tau |xi| or (alpha^2 + 1/4)^{1/2} |xi|."""
        return float(np.sqrt(np.sum(np.abs(self.rho1) ** 2) / 2.0))


def make_phase_pair(frame: Frame, variant: Variant, param: float) -> PhasePair:
    """Phase vectors in ambient coordinates for either family; param >= 1."""
    if param < 1:
        raise FrameError("phase parameter must be >= 1")
    xi_1e = frame.xi_1e
    xi3 = float(frame.xi[2])
    xin = frame.xi_norm
    if variant is Variant.SINGLE_REFLECTION:
        tau = param
        root = math.sqrt(tau * tau - 0.25)
        c1 = (-tau * xi3 + 0.5j * xi_1e, 1j * xin * root, tau * xi_1e + 0.5j * xi3)
        c2 = (tau * xi3 + 0.5j * xi_1e, -1j * xin * root, -tau * xi_1e + 0.5j * xi3)
    else:
        alpha = param
        root = math.sqrt(alpha * alpha + 0.25)
        c1 = (1j * (xi_1e / 2 - alpha * xi3), -root * xin, 1j * (xi3 / 2 + alpha * xi_1e))
        c2 = (1j * (xi_1e / 2 + alpha * xi3), root * xin, 1j * (xi3 / 2 - alpha * xi_1e))
    rho1 = frame.to_ambient(c1)
    rho2 = frame.to_ambient(c2)
    return PhasePair(variant, float(param), frame, rho1, rho2)


def isotropy_residual(pp: PhasePair) -> float:
    """max_m |rho_m . rho_m| (complex bilinear dot; zero in exact arithmetic)."""
    return max(abs(complex(np.sum(pp.rho1 * pp.rho1))),
               abs(complex(np.sum(pp.rho2 * pp.rho2))))


def norm_identity_residual(pp: PhasePair) -> float:
    """Relative deviation of |rho_m| from its closed form."""
    xin = pp.frame.xi_norm
    if pp.variant is Variant.SINGLE_REFLECTION:
        expected = math.sqrt(2.0) * pp.param * xin
    else:
        expected = math.sqrt(2.0) * xin * math.sqrt(pp.param ** 2 + 0.25)
    out = 0.0
    for rho in (pp.rho1, pp.rho2):
        out = max(out, abs(float(np.sqrt(np.sum(np.abs(rho) ** 2))) - expected) / expected)
    return out


# -- probe box ----------------------------------------------------------------


def build_box_grid(geom: SlabGeometry, omega_grid: Grid3, padding: float = 0.5,
                   coarsen: int = 1) -> Grid3:
    """Periodic cube containing the domain and its mirror image, node-aligned.

    The cube is centred at the origin (so reflection is node-exact) and its
    spacing is an integer multiple of the domain spacing (so potential
    extensions copy node values instead of interpolating).
    """
    if coarsen < 1:
        raise ValueError("coarsen must be a positive integer")
    h_b = omega_grid.h * coarsen
    lateral_half = -omega_grid.origin[0]
    need = max(lateral_half, geom.L) * (1.0 + padding)
    half_cells = math.ceil(need / h_b - 1e-12)
    n = 2 * half_cells
    o = -half_cells * h_b
    return Grid3(n, n, n, h_b, (o, o, o), periodic=True)


# -- remainder solves -----------------------------------------------------------


@dataclass
class RemainderReport:
    l2: float
    h1: float
    iterations: int
    projected_modes: int
    total_modes: int
    residual: float


LATTICE_SHIFT = (0.0, 0.0, 0.5)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=4)
def _box_lattice(grid: Grid3, lattice_shift: tuple) -> tuple:
    """Shifted frequency lattice of a box: (z0, z1, z2, |zeta|^2, mod, conj(mod)).

    The zeta axes broadcast against each other; mod is the modulation that
    turns the shifted transform into a plain FFT.  Cached per box and shift,
    read-only.
    """
    zetas = []
    mods = []
    for axis, n in enumerate(grid.node_shape):
        shift = lattice_shift[axis]
        freq = 2 * np.pi * (scipy.fft.fftfreq(n, d=grid.h) + shift / (n * grid.h))
        zetas.append(freq)
        j = np.arange(n)
        mods.append(np.exp(-2j * np.pi * shift * j / n))
    z0 = zetas[0][:, None, None]
    z1 = zetas[1][None, :, None]
    z2 = zetas[2][None, None, :]
    mod = (mods[0][:, None, None] * mods[1][None, :, None] * mods[2][None, None, :])
    return tuple(_frozen(a) for a in
                 (z0, z1, z2, z0 ** 2 + z1 ** 2 + z2 ** 2, mod, np.conj(mod)))


_SPECTRA: list = []   # [((box, shift, k), q samples, first spectrum)], newest first
_SPECTRA_KEPT = 4


def _first_spectrum(qfield: GridField, k: float, lattice_shift: tuple,
                    rhs_mod: np.ndarray) -> np.ndarray:
    """fftn(-(Q - k^2) mod): the first sweep's spectrum, which no phase enters.

    Memoized for the last few (box, shift, k, potential samples); an entry is
    used only if its stored samples equal qfield.values.  Read-only.
    """
    key = (qfield.grid, lattice_shift, k)
    for i, (entry_key, q, spec) in enumerate(_SPECTRA):
        if entry_key == key and np.array_equal(q, qfield.values):
            _SPECTRA.insert(0, _SPECTRA.pop(i))
            return spec
    spec = _frozen(scipy.fft.fftn(rhs_mod))
    _SPECTRA.insert(0, (key, _frozen(qfield.values.copy()), spec))
    del _SPECTRA[_SPECTRA_KEPT:]
    return spec


def _norm_sq(arr: np.ndarray) -> float:
    """sum |arr|^2 as one real dot product over the float64 view.

    The complex BLAS dot is multithreaded at box sizes and then several times
    slower than this.
    """
    flat = arr.view(np.float64).ravel()
    return float(np.vdot(flat, flat))


def solve_remainder(rho: np.ndarray, qfield: GridField, k: float,
                    max_iter: int = 400, residual_tol: float = 1e-8,
                    projection_rel: float = 1e-8,
                    lattice_shift: tuple = LATTICE_SHIFT) -> tuple[GridField, RemainderReport]:
    """Fixed-point solve of (-Lap - 2 rho . grad) psi = -(Q - k^2)(1 + psi).

    Spectral derivatives on the box; the inverse Fourier symbol
    1/(|zeta|^2 - 2 i rho . zeta) is applied with any remaining zero mode and
    any mode with |symbol| < projection_rel * |rho|^2 removed.  The frequency
    lattice is shifted by half a cell in the vertical axis (antiperiodic
    representation): the symbol vanishes identically at zeta = -xi and stays
    order-one along that whole lattice line for every parameter value, so an
    unshifted lattice pins the remainder norm at a parameter-independent
    floor; the shifted lattice keeps every mode off the critical plane and
    restores the expected decay.  Raises ContractionError when increments
    grow over five consecutive sweeps and ProjectionError when more than
    0.1 percent of the modes are removed.

    The sweeps iterate on phi = psi * mod (mod is unimodular, so every norm
    is psi's): one inverse and one forward FFT each.  The first spectrum is
    memoized per potential and k; the last forward transform is the
    residual's right-hand side, and the last inverted spectrum is psi's
    transform.
    """
    grid = qfield.grid
    if not grid.periodic:
        raise FieldError("remainder solves need a periodic box grid")
    rho = np.asarray(rho, dtype=np.complex128)
    rho_sq = float(np.sum(np.abs(rho) ** 2))
    vol_factor = grid.h ** 3
    n_total = qfield.values.size
    lattice_shift = tuple(lattice_shift)
    z0, z1, z2, zeta_sq, mod, mod_inv = _box_lattice(grid, lattice_shift)

    c = -2j * rho
    symbol = zeta_sq + (c[0] * z0 + c[1] * z1 + c[2] * z2)
    keep = np.abs(symbol) >= projection_rel * rho_sq
    projected = int(n_total - np.count_nonzero(keep))
    if projected > 1e-3 * n_total:
        raise ProjectionError(
            f"{projected} of {n_total} Fourier modes near the symbol zero set "
            f"({projected / n_total:.2%} > 0.1%)"
        )
    rhs_base = k ** 2 - qfield.values
    if not np.any(rhs_base):
        psi = GridField(grid, np.zeros(grid.node_shape, dtype=np.complex128))
        return psi, RemainderReport(0.0, 0.0, 0, projected, n_total, 0.0)
    mult = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)
    rhs_mod = rhs_base * mod
    spec = _first_spectrum(qfield, k, lattice_shift, rhs_mod)

    phi = np.zeros(grid.node_shape, dtype=np.complex128)
    prev_inc = math.inf
    grew = 0
    for it in range(1, max_iter + 1):
        phi_hat = mult * spec
        new = scipy.fft.ifftn(phi_hat)
        inc = math.sqrt(_norm_sq(new - phi) * vol_factor)
        phi = new
        if inc > prev_inc:
            grew += 1
            if grew >= 5:
                raise ContractionError(
                    f"remainder iteration diverging after {it} sweeps "
                    "(increase the phase parameter)"
                )
        else:
            grew = 0
        prev_inc = inc
        l2 = math.sqrt(_norm_sq(phi) * vol_factor)
        spec = scipy.fft.fftn(rhs_mod + rhs_base * phi)
        if inc <= 1e-14 * max(1.0, l2):
            break

    num = _norm_sq(np.where(keep, symbol * phi_hat - spec, 0.0))
    den = _norm_sq(np.where(keep, spec, 0.0))
    residual = math.sqrt(num / den) if den > 0 else 0.0
    if residual > residual_tol:
        raise ContractionError(
            f"remainder residual {residual:.3e} above {residual_tol:.1e} after "
            f"{it} sweeps (increase the phase parameter)"
        )

    grad_sq = float(np.vdot(zeta_sq, phi_hat.real ** 2 + phi_hat.imag ** 2))
    grad_sq *= vol_factor / n_total
    h1 = math.sqrt(l2 ** 2 + grad_sq)
    report = RemainderReport(l2, h1, it, projected, n_total, residual)
    return GridField(grid, phi * mod_inv), report


# -- probe assembly --------------------------------------------------------------


@dataclass(frozen=True)
class OffsetField:
    """Field stored as exp(log_offset) * values to keep magnitudes bounded."""

    grid: Grid3
    values: np.ndarray
    log_offset: float


@functools.lru_cache(maxsize=8)
def _interp_stencil(box: Grid3, eval_grid: Grid3, mirrored: bool) -> scipy.sparse.csr_array:
    """Sparse trilinear periodic interpolation from box nodes to evaluation nodes.

    Row p holds the eight corner weights of evaluation node p (of its mirror
    image (x1, x2, -x3) when `mirrored`), corners ordered (dx, dy, dz)
    lexicographically.  Cached per grid pair, read-only.
    """
    x, y, z = eval_grid.node_coords()
    shape = eval_grid.node_shape
    coords = []
    fracs = []
    for axis, c in enumerate((x, y, -z if mirrored else z)):
        t = (c - box.origin[axis]) / box.h
        i0 = np.floor(t).astype(np.int64)
        fracs.append(np.broadcast_to(t - i0, shape).ravel())
        coords.append(np.broadcast_to(i0, shape).ravel())
    n = box.node_shape
    weights = []
    cols = []
    for dx in (0, 1):
        wx = (1.0 - fracs[0]) if dx == 0 else fracs[0]
        ix = (coords[0] + dx) % n[0]
        for dy in (0, 1):
            wy = (1.0 - fracs[1]) if dy == 0 else fracs[1]
            iy = (coords[1] + dy) % n[1]
            for dz in (0, 1):
                wz = (1.0 - fracs[2]) if dz == 0 else fracs[2]
                iz = (coords[2] + dz) % n[2]
                weights.append(wx * wy * wz)
                cols.append(np.ravel_multi_index((ix, iy, iz), n))
    n_eval = weights[0].size
    stencil = scipy.sparse.csr_array(
        (np.stack(weights, axis=1).ravel(), np.stack(cols, axis=1).ravel(),
         np.arange(0, 8 * n_eval + 1, 8)),
        shape=(n_eval, math.prod(n)))
    for arr in (stencil.data, stencil.indices, stencil.indptr):
        _frozen(arr)
    return stencil


def interpolate_box(box_field: GridField, eval_grid: Grid3,
                    mirrored: bool = False) -> np.ndarray:
    """Trilinear periodic interpolation onto the evaluation nodes (or their
    mirror images); exact lookup at node coincidences."""
    stencil = _interp_stencil(box_field.grid, eval_grid, mirrored)
    return (stencil @ box_field.values.ravel()).reshape(eval_grid.node_shape)


@dataclass
class CgoProbe:
    phase: PhasePair
    box_grid: Grid3
    psi1: GridField
    psi2: GridField
    u1: OffsetField
    u2: OffsetField
    u1_direct: OffsetField
    u1_reflected: OffsetField
    u2_direct: OffsetField
    u2_reflected: OffsetField | None
    decay_report: dict


def _exp_terms(eval_grid: Grid3, rho: np.ndarray, psi_box: GridField,
               reflected: bool) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Direct and (optionally) mirrored exponential-times-remainder factors.

    Returns (direct, mirrored, log_offset) with both arrays divided by
    exp(log_offset); the mirrored factor evaluates every ingredient at
    x* = (x1, x2, -x3), which makes the antisymmetrized difference vanish
    identically on the x3 = 0 plane.  The exponential is the tensor product
    of one factor per axis, each scaled by its own maximum (the offset is
    their sum); the two factors share the lateral ones.  An identically zero
    remainder leaves the factor 1 + psi = 1 exactly, so nothing is
    interpolated.
    """
    px, py, pz = (eval_grid.axis_nodes(axis) * rho[axis] for axis in range(3))
    top_x, top_y = float(np.max(px.real)), float(np.max(py.real))
    top_z = float(np.max(np.abs(pz.real) if reflected else pz.real))
    lateral = np.multiply.outer(np.exp(px - top_x), np.exp(py - top_y))
    live = bool(np.any(psi_box.values))

    def factor(phase_z, mirrored):
        out = np.multiply.outer(lateral, np.exp(phase_z - top_z))
        if live:
            out *= 1.0 + interpolate_box(psi_box, eval_grid, mirrored)
        return out

    direct = factor(pz, False)
    mirrored = factor(-pz, True) if reflected else None
    return direct, mirrored, top_x + top_y + top_z


def build_probe(eval_grid: Grid3, phase: PhasePair, q1_box: GridField,
                q2_box: GridField, k: float, **solve_kw) -> CgoProbe:
    """Assemble the probe pair on an evaluation grid.

    q1_box / q2_box are the already-extended potentials on a shared periodic
    box (even extension for every reflected probe; the tau-family second probe
    uses the extension by zero).  Remainders are interpolated trilinearly from
    the box onto the evaluation nodes.
    """
    if q1_box.grid != q2_box.grid:
        raise FieldError("extended potentials must share one box grid")
    box_grid = q1_box.grid
    psi1, rep1 = solve_remainder(phase.rho1, q1_box, k, **solve_kw)
    psi2, rep2 = solve_remainder(phase.rho2, q2_box, k, **solve_kw)

    reflect2 = phase.variant is Variant.DOUBLE_REFLECTION
    d1, m1, off1 = _exp_terms(eval_grid, phase.rho1, psi1, reflected=True)
    d2, m2, off2 = _exp_terms(eval_grid, phase.rho2, psi2, reflected=reflect2)

    u1 = OffsetField(eval_grid, d1 - m1, off1)
    u1_direct = OffsetField(eval_grid, d1, off1)
    u1_reflected = OffsetField(eval_grid, m1, off1)
    if reflect2:
        u2 = OffsetField(eval_grid, d2 - m2, off2)
        u2_reflected = OffsetField(eval_grid, m2, off2)
    else:
        u2 = OffsetField(eval_grid, d2, off2)
        u2_reflected = None
    u2_direct = OffsetField(eval_grid, d2, off2)
    report = {
        "psi1_l2": rep1.l2, "psi1_h1": rep1.h1,
        "psi2_l2": rep2.l2, "psi2_h1": rep2.h1,
        "iterations": (rep1.iterations, rep2.iterations),
        "projected_modes": (rep1.projected_modes, rep2.projected_modes),
        "residuals": (rep1.residual, rep2.residual),
    }
    return CgoProbe(phase, box_grid, psi1, psi2, u1, u2,
                    u1_direct, u1_reflected, u2_direct, u2_reflected, report)


def calibrate_min_param(q_boxes: list[GridField], k: float, bounds: list[float],
                        xi=(2.0, 0.0, 0.0), variant: Variant = Variant.SINGLE_REFLECTION,
                        max_c0: int = 64) -> tuple[int, float]:
    """Smallest power-of-two C0 whose parameter max(C0 (M + k^2), 1) contracts.

    M is the largest a-priori norm bound across the supplied potential family;
    returns (C0, param_min).
    """
    m_bound = max(bounds) if bounds else 1.0
    frame = make_frame(xi)
    c0 = 1
    while c0 <= max_c0:
        param = max(c0 * (m_bound + k ** 2), 1.0)
        try:
            pp = make_phase_pair(frame, variant, param)
            for qb in q_boxes:
                solve_remainder(pp.rho1, qb, k)
            return c0, param
        except (ContractionError, ProjectionError):
            c0 *= 2
    raise ContractionError(f"no contraction up to C0={max_c0}")

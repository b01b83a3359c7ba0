"""Complex-geometrical-optics probes with reflection across the bottom plate.

For a frequency xi with nonzero lateral part, an adapted orthonormal frame
(e1 along xi', e3 vertical, e2 = e3 x e1) carries two families of complex
phase vectors rho with rho . rho = -k^2 (Sylvester and Uhlmann, Annals of
Math. 125, 1987):

* a tau-family whose product phase is exp(i x . xi) and whose first probe is
  antisymmetrized across x3 = 0 (data and measurements on opposite plates);
* an alpha-family in which both probes are antisymmetrized (data and
  measurements on the same plate), at the price of shifted-frequency cross
  terms exp(i x . (xi_1e, 0, +-2 alpha xi_1e)_e) in the product.

Each probe is exp(x . rho) (1 + psi) with the remainder psi solving the
conjugated equation (-Lap - 2 rho . grad) psi = -Q (1 + psi) on a periodic
box containing the domain and its mirror image; the solve inverts
the Fourier symbol |zeta|^2 - 2 i rho . zeta with near-singular modes
projected out and reported.  A probe carries only its factors 1 + psi at
the evaluation nodes and their mirror images: the pairing reads the product
of the two probes, whose exponentials combine into exp(i x . xi) since
rho1 + rho2 = i xi, so it is bounded at every parameter.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
class PhasePair:
    variant: Variant
    param: float
    xi: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    k: float


def make_phase_pair(xi, variant: Variant, param: float, k: float) -> PhasePair:
    """Phase vectors in ambient coordinates for either family; param >= 1.

    Their components c1 e1 + c2 e2 + c3 e3 are taken in the frame adapted to
    xi (see the module docstring), which needs a lateral part xi', else
    FrameError.  Both satisfy rho . rho = -k^2 and rho1 + rho2 = i xi; k
    enters only the e2 components, through (k / |xi|)^2.  The alpha-family
    needs alpha^2 + 1/4 > (k / |xi|)^2, else FrameError.
    """
    xi = np.array(xi, dtype=float)
    xi_1e = math.hypot(xi[0], xi[1])
    if xi_1e <= 0:
        raise FrameError("frame undefined: frequency has no lateral component")
    if param < 1:
        raise FrameError("phase parameter must be >= 1")
    e1 = np.array([xi[0] / xi_1e, xi[1] / xi_1e, 0.0])
    e2 = np.array([-xi[1] / xi_1e, xi[0] / xi_1e, 0.0])  # e3 x e1
    e3 = np.array([0.0, 0.0, 1.0])
    xi3 = float(xi[2])
    xin = float(np.linalg.norm(xi))
    kk = (k / xin) ** 2
    if variant is Variant.SINGLE_REFLECTION:
        tau = param
        root = math.sqrt(tau * tau - 0.25 + kk)
        c1 = (-tau * xi3 + 0.5j * xi_1e, 1j * xin * root, tau * xi_1e + 0.5j * xi3)
        c2 = (tau * xi3 + 0.5j * xi_1e, -1j * xin * root, -tau * xi_1e + 0.5j * xi3)
    else:
        alpha = param
        radicand = alpha * alpha + 0.25 - kk
        if radicand <= 0:
            raise FrameError(f"alpha-family needs (k/|xi|)^2 = {kk:.4g} below "
                             f"alpha^2 + 1/4 = {alpha * alpha + 0.25:.4g}")
        root = math.sqrt(radicand)
        c1 = (1j * (xi_1e / 2 - alpha * xi3), -root * xin, 1j * (xi3 / 2 + alpha * xi_1e))
        c2 = (1j * (xi_1e / 2 + alpha * xi3), root * xin, 1j * (xi3 / 2 - alpha * xi_1e))
    rho1, rho2 = (a * e1 + b * e2 + c * e3 for a, b, c in (c1, c2))
    return PhasePair(variant, float(param), xi, rho1, rho2, float(k))


def isotropy_residual(pp: PhasePair) -> float:
    """max_m |rho_m . rho_m + k^2| (complex bilinear dot; zero in exact arithmetic)."""
    return max(abs(complex(np.sum(rho * rho)) + pp.k ** 2) for rho in (pp.rho1, pp.rho2))


def norm_identity_residual(pp: PhasePair) -> float:
    """Relative deviation of |rho_m| from its closed form: |rho|^2 is
    2 tau^2 |xi|^2 + k^2 (tau-family) or 2 (alpha^2 + 1/4) |xi|^2 - k^2."""
    xin = float(np.linalg.norm(pp.xi))
    if pp.variant is Variant.SINGLE_REFLECTION:
        expected = math.sqrt(2.0 * (pp.param * xin) ** 2 + pp.k ** 2)
    else:
        expected = math.sqrt(2.0 * xin ** 2 * (pp.param ** 2 + 0.25) - pp.k ** 2)
    out = 0.0
    for rho in (pp.rho1, pp.rho2):
        out = max(out, abs(float(np.sqrt(np.sum(np.abs(rho) ** 2))) - expected) / expected)
    return out


# -- probe box ----------------------------------------------------------------

BOX_PADDING = 0.5


def build_box_grid(geom: SlabGeometry, omega_grid: Grid3, coarsen: int = 1) -> Grid3:
    """Periodic box containing the domain and its mirror image, node-aligned.

    The box is centred at the origin (so reflection is node-exact) and each
    axis pads its own extent: the half-widths are (1 + BOX_PADDING) times
    the lateral half-width on x1 and x2 and times L on x3, where the slab
    and its mirror span |x3| <= L.  The spacing is an integer multiple of
    the domain spacing (so potential extensions copy node values instead of
    interpolating).
    """
    if coarsen < 1:
        raise ValueError("coarsen must be a positive integer")
    h_b = omega_grid.h * coarsen
    half_cells = [math.ceil(extent * (1.0 + BOX_PADDING) / h_b - 1e-12)
                  for extent in (-omega_grid.origin[0], -omega_grid.origin[1], geom.L)]
    return Grid3(*(2 * m for m in half_cells), h_b, tuple(-m * h_b for m in half_cells),
                 periodic=True)


# -- remainder solves -----------------------------------------------------------


@dataclass
class RemainderReport:
    l2: float
    h1: float
    iterations: int
    projected_modes: int
    residual: float


# the box lattice's shift in cells per axis: lateral fractions with no
# rational relation keep every mode off the critical line zeta = t xi, and
# the vertical 1/2, its own negative mod 1, keeps the reflection exact
LATTICE_SHIFT = (0.309, 0.118, 0.5)
MAX_SWEEPS = 400
RESIDUAL_TOL = 1e-8
PROJECTION_REL = 1e-8


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=4)
def _box_lattice(grid: Grid3) -> tuple:
    """Frequency lattice of a box, shifted by LATTICE_SHIFT cells:
    (z0, z1, z2, |zeta|^2), the zeta axes broadcasting against each other.
    Cached per box, read-only."""
    z0, z1, z2 = (2 * np.pi * (np.fft.fftfreq(n, d=grid.h) + shift / (n * grid.h))
                  for n, shift in zip(grid.node_shape, LATTICE_SHIFT))
    z0, z1, z2 = z0[:, None, None], z1[None, :, None], z2[None, None, :]
    return tuple(_frozen(a) for a in (z0, z1, z2, z0 ** 2 + z1 ** 2 + z2 ** 2))


def _dft_factors(n: int, window: slice, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Pruned DFT of one axis for the indices j of `window` on the lattice
    shifted by `shift` cells: forward (n, m) exp(-2 pi i (k + shift) j / n)
    and inverse (m, n) exp(2 pi i j (k + shift) / n) / n; read-only."""
    j = np.arange(window.start, window.stop)
    inverse = np.exp(2j * np.pi / n * (np.outer(j, np.arange(n)) % n + shift * j[:, None]))
    return _frozen(np.ascontiguousarray(inverse.conj().T)), _frozen(inverse / n)


def _pruned_dft(arr: np.ndarray, mats) -> np.ndarray:
    """Separable product with one (out, in) matrix per axis: three matmuls,
    pruned where a factor maps from or to a block of its axis.  The first
    axis goes first when its factor shrinks the array and last when it grows
    it, the faster order for these shapes."""
    m0, m1, m2 = mats
    if len(m0) <= len(arr):
        out = m1 @ (m0 @ arr.reshape(len(arr), -1)).reshape((len(m0),) + arr.shape[1:])
        return (out.reshape(-1, arr.shape[2]) @ m2.T).reshape(len(m0), len(m1), len(m2))
    out = m1 @ (arr.reshape(-1, arr.shape[2]) @ m2.T).reshape(arr.shape[:2] + (len(m2),))
    return (m0 @ out.reshape(len(arr), -1)).reshape(len(m0), len(m1), len(m2))


def _norm_sq(arr: np.ndarray) -> float:
    """sum |arr|^2 as one real dot product over the float64 view (the complex
    BLAS dot is multithreaded at box sizes, and then several times slower)."""
    flat = arr.view(np.float64).ravel()
    return float(np.vdot(flat, flat))


def _taps(grid: Grid3, eval_grid: Grid3, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Along `axis`, the positions t of the evaluation nodes in node units of
    `grid` (on the third axis, those of the nodes x3 over those of their
    mirror images -x3) and the left taps of their 2-tap stencils, floor(t)
    clamped to [0, n - 2] so that the last node reads exactly.  FieldError
    where a node lies outside the grid's nodes: its stencil would wrap."""
    c = eval_grid.axis_nodes(axis)
    if axis == 2:
        c = np.concatenate([c, -c])
    t = (c - grid.origin[axis]) / grid.h
    n = grid.node_shape[axis]
    if t.min() < -1e-9 or t.max() > n - 1 + 1e-9:
        raise FieldError(f"grid does not cover the interpolation nodes on axis {axis}")
    return t, np.clip(np.floor(t), 0, n - 2).astype(np.int64)


def _window(box: Grid3, block: tuple, eval_grid: Grid3) -> tuple[slice, ...]:
    """Per axis, the smallest range of box nodes that holds the support block
    (if any) and the nodes that the stencils of `eval_grid` read, at least
    two as every stencil reads two; FieldError where a stencil would wrap
    across the box edge."""
    window = []
    for axis in range(3):
        taps = _taps(box, eval_grid, axis)[1]
        lo, hi = int(taps.min()), int(taps.max()) + 2
        if block:
            lo, hi = min(lo, block[axis].start), max(hi, block[axis].stop)
        window.append(slice(lo, hi))
    return tuple(window)


@dataclass(frozen=True, eq=False)
class BoxSource:
    """What every remainder solve against one box potential Q shares.

    r = -Q.  The support block holds, per axis, the first to last index
    where r is nonzero (empty for a zero r).  Solves return psi on `window`
    (see `_window`), placed by the node grid `window_grid`;
    `block_in_window` is the block's place in it.  A nonzero r also carries
    the pruned DFTs between the shifted spectrum and the block, r on the
    block, the first spectrum (the transform of r) and the pruned inverse
    DFT onto the window.
    """

    grid: Grid3
    lattice: tuple
    eval_grid: Grid3
    window: tuple
    window_grid: Grid3
    block: tuple
    block_in_window: tuple
    to_block: Callable | None = None
    from_block: Callable | None = None
    rhs: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    to_window: Callable | None = None


def _pruned_transforms(grid: Grid3, slices) -> tuple:
    """Per axis, the forward and inverse DFT factors for the indices of `slices`."""
    return tuple(zip(*map(_dft_factors, grid.node_shape, slices, LATTICE_SHIFT)))


def box_source(q_box: GridField, eval_grid: Grid3) -> BoxSource:
    """The rho-independent part of remainder solves against q_box, whose
    solves return psi on the nodes that hold its support block and that the
    probes on `eval_grid` read."""
    grid = q_box.grid
    if not grid.periodic:
        raise FieldError("remainder solves need a periodic box grid")
    lattice = _box_lattice(grid)
    rhs = -q_box.values
    live = rhs != 0
    block = ()
    if live.any():
        live_xy = live.any(axis=2)
        block = tuple(slice(int(run[0]), int(run[-1]) + 1) for run in map(np.flatnonzero, (
            live_xy.any(axis=1), live_xy.any(axis=0), live.any(axis=(0, 1)))))
    window = _window(grid, block, eval_grid)
    window_grid = Grid3(*(w.stop - w.start - 1 for w in window), grid.h,
                        tuple(o + w.start * grid.h for o, w in zip(grid.origin, window)))
    if not block:
        return BoxSource(grid, lattice, eval_grid, window, window_grid, (), ())
    block_in_window = tuple(slice(b.start - w.start, b.stop - w.start)
                            for w, b in zip(window, block))
    fwd, inv = _pruned_transforms(grid, block)
    to_block, from_block = (functools.partial(_pruned_dft, mats=m) for m in (inv, fwd))
    to_window = functools.partial(_pruned_dft, mats=_pruned_transforms(grid, window)[1])
    rhs_blk = _frozen(rhs[block])
    return BoxSource(grid, lattice, eval_grid, window, window_grid, block,
                     block_in_window, to_block, from_block, rhs_blk,
                     _frozen(from_block(rhs_blk)), to_window)


def solve_remainder(rho: np.ndarray, source: BoxSource) -> tuple[GridField, RemainderReport]:
    """Fixed-point solve of (-Lap - 2 rho . grad) psi = -Q (1 + psi): psi on
    the source's window, and the solve's report.

    A zero source returns psi = 0, which solves its equation exactly, before
    any symbol is formed.  Otherwise: spectral derivatives on the box; the
    inverse Fourier symbol 1/(|zeta|^2 - 2 i rho . zeta) is applied with any
    remaining zero mode and any mode with |symbol| < PROJECTION_REL * |rho|^2
    removed, the mask and the inverse conj(symbol) / |symbol|^2 both from
    |symbol|^2 in real arithmetic.  The symbol of the first probe is
    |xi|^2 t (t + 1) on the critical line zeta = t xi at every parameter, so
    a lattice mode on that line pins the remainder norm at a
    parameter-independent floor.  The lattice is therefore shifted by
    LATTICE_SHIFT cells: lateral fractions with no rational relation, which
    no frequency with rational component ratios lines up with, and 1/2 on
    the vertical axis, its own negative mod 1, which keeps zeta = 0 off the
    line and the reflection exact.  At most MAX_SWEEPS sweeps run.  Raises
    ContractionError when increments grow over five consecutive sweeps or
    the final relative residual exceeds RESIDUAL_TOL, and ProjectionError
    when more than 0.1 percent of the modes are removed.

    The sweeps read psi only on the source's support block: psi there is
    the pruned inverse DFT of psi_hat = mult * spec, the next spectrum the
    pruned DFT F_b from the block, and the increment inc and L2 norm come
    from psi_hat by Parseval.  F_b^H F_b = N I over the N box modes, so the
    sweep map psi_hat -> mult * F_b(r (1 + F_b^-1 psi_hat)) is Lipschitz in
    that norm with constant at most L = max|r| sqrt(min(max |1/s|^2, n_src
    sum |1/s|^2 / N)), s the symbol over the kept modes and n_src the
    nonzero source nodes.  The iteration stops once inc <= tol = 1e-14
    max(1, l2) or, from the second sweep on, L inc <= (1 - L) tol: by
    Banach's a-posteriori bound |psi_hat - psi_hat*| <= L inc / (1 - L),
    psi_hat is then within tol of the fixed point, with no sweep run only to
    confirm it.  L stops no solve at its first sweep: that sweep's residual
    below is the remainder's own relative size, which can exceed
    RESIDUAL_TOL however small L is.  The stop rule
    is tested before each sweep's pair of transforms, so the last psi_hat
    pays for none; one pruned inverse DFT takes it onto the window.
    Without projected modes symbol * psi_hat is the previous spectrum, so
    the residual is |r (phi_prev - phi)| / |r (1 + phi)| on the block by
    Parseval, phi the last psi on the block (read from the window) and
    phi_prev the one before (0 after one sweep); with projected modes it is
    formed over the box's kept modes from one more spectrum.
    """
    if not source.block:
        psi = np.zeros(source.window_grid.node_shape)
        return GridField(source.window_grid, psi), RemainderReport(0.0, 0.0, 0, 0, 0.0)
    grid = source.grid
    n_total = grid.n_nodes
    rho = np.asarray(rho, dtype=np.complex128)
    rho_sq = float(np.sum(np.abs(rho) ** 2))
    z0, z1, z2, zeta_sq = source.lattice

    # the symbol |zeta|^2 - 2 i rho . zeta in real arithmetic: its real
    # part and minus its imaginary part, 2 Re(rho) . zeta
    a, b = 2 * rho.real, 2 * rho.imag
    re = b[0] * z0 + b[1] * z1 + b[2] * z2
    re += zeta_sq
    neg_im = a[0] * z0 + a[1] * z1 + a[2] * z2
    mag_sq = re * re
    mag_sq += neg_im * neg_im
    keep = mag_sq >= (PROJECTION_REL * rho_sq) ** 2
    projected = int(n_total - np.count_nonzero(keep))
    if projected > 1e-3 * n_total:
        raise ProjectionError(
            f"{projected} of {n_total} Fourier modes near the symbol zero set "
            f"({projected / n_total:.2%} > 0.1%)"
        )
    # 1 / symbol = conj(symbol) / |symbol|^2, written into the real and
    # imaginary halves of mult; without projected modes no mask is needed
    mult = (np.zeros if projected else np.empty)(mag_sq.shape, dtype=np.complex128)
    where = keep if projected else True
    np.divide(re, mag_sq, out=mult.real, where=where)
    np.divide(neg_im, mag_sq, out=mult.imag, where=where)
    to_block, from_block = source.to_block, source.from_block
    rhs_blk, spec = source.rhs, source.spectrum
    # L, the bound on the sweep map's Lipschitz constant (see above)
    inv_sq_max = 1.0 / float(np.min(mag_sq, where=where, initial=np.inf))
    inv_sq_sum = np.count_nonzero(rhs_blk) * _norm_sq(mult) / n_total
    lip = float(np.max(np.abs(rhs_blk))) * math.sqrt(min(inv_sq_max, inv_sq_sum))

    parseval = grid.h ** 3 / n_total
    prev_inc = math.inf
    grew = 0
    phi = 0.0  # psi on the block, transformed from the previous psi_hat
    for it in range(1, MAX_SWEEPS + 1):
        psi_hat = mult * spec
        l2 = math.sqrt(_norm_sq(psi_hat) * parseval)
        # the first increment is psi_hat itself
        inc = l2 if it == 1 else math.sqrt(_norm_sq(psi_hat - prev_hat) * parseval)
        prev_hat = psi_hat
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
        tol = 1e-14 * max(1.0, l2)
        if inc <= tol or (it > 1 and lip * inc <= (1.0 - lip) * tol) or it == MAX_SWEEPS:
            break
        phi = to_block(psi_hat)
        spec = from_block(rhs_blk + rhs_blk * phi)

    psi = source.to_window(psi_hat)
    phi_n = psi[source.block_in_window]
    rhs_n = rhs_blk + rhs_blk * phi_n
    if projected:
        spec_n = from_block(rhs_n)
        num = _norm_sq(np.where(keep, (re - 1j * neg_im) * psi_hat - spec_n, 0.0))
        den = _norm_sq(np.where(keep, spec_n, 0.0))
    else:
        # symbol psi_hat is the last spectrum, the pruned DFT of
        # rhs (1 + phi), and that DFT scales norms by sqrt(n_total)
        num = _norm_sq(rhs_blk * (phi - phi_n))
        den = _norm_sq(rhs_n)
    residual = math.sqrt(num / den) if den > 0 else 0.0
    if residual > RESIDUAL_TOL:
        raise ContractionError(
            f"remainder residual {residual:.3e} above {RESIDUAL_TOL:.1e} after "
            f"{it} sweeps (increase the phase parameter)"
        )

    grad_sq = float(np.vdot(zeta_sq, psi_hat.real ** 2 + psi_hat.imag ** 2)) * parseval
    h1 = math.sqrt(l2 ** 2 + grad_sq)
    return (GridField(source.window_grid, psi),
            RemainderReport(l2, h1, it, projected, residual))


# -- probe assembly --------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _interp_factors(field_grid: Grid3, eval_grid: Grid3) -> tuple:
    """Per axis, the (n_eval, n_field) linear interpolation matrix, two taps
    per row (see `_taps`; FieldError where the field grid does not cover the
    nodes read).  The third axis stacks the rows of the evaluation nodes x3
    over those of their mirror images -x3.  Cached, read-only."""
    mats = []
    for axis, n in enumerate(field_grid.node_shape):
        t, i0 = _taps(field_grid, eval_grid, axis)
        rows = np.arange(len(t))
        mat = np.zeros((len(t), n), dtype=np.complex128)
        mat[rows, i0] = 1.0 - (t - i0)
        mat[rows, i0 + 1] = t - i0
        mats.append(_frozen(mat))
    return tuple(mats)


def interpolate_box(field: GridField, eval_grid: Grid3, mirrored: bool) -> tuple:
    """Trilinear interpolation onto the evaluation nodes and onto their
    mirror images (x1, x2, -x3), as one pruned DFT whose third-axis factor
    stacks both, or onto the evaluation nodes only (mirror None) unless
    `mirrored`; exact lookup at node coincidences.  The field's nodes, such
    as a probe window, must cover the nodes read; no stencil wraps.
    """
    nz, (m0, m1, m2) = eval_grid.node_shape[2], _interp_factors(field.grid, eval_grid)
    both = _pruned_dft(field.values, (m0, m1, m2 if mirrored else m2[:nz]))
    return both[..., :nz], (both[..., nz:] if mirrored else None)


def _factors(psi: GridField, eval_grid: Grid3, mirrored: bool) -> tuple:
    """1 + psi at the evaluation nodes and at their mirror images (None unless
    `mirrored`); an identically zero remainder gives 1 exactly, uninterpolated."""
    if not np.any(psi.values):
        one = np.ones(eval_grid.node_shape, dtype=np.complex128)
        return one, (one if mirrored else None)
    direct, mirror = interpolate_box(psi, eval_grid, mirrored)
    return 1.0 + direct, (None if mirror is None else 1.0 + mirror)


@dataclass
class CgoProbe:
    """A probe pair on its evaluation grid, without its exponentials.

    w1 / w2 are the factors 1 + psi_j of the remainders psi_j at the
    evaluation nodes x and w1_star / w2_star at their mirror images
    x* = (x1, x2, -x3); w2_star is None for the
    tau-family, whose second probe is not reflected.  The probes are

        u1 = exp(x . rho1) w1 - exp(x* . rho1) w1*,
        u2 = exp(x . rho2) w2 [- exp(x* . rho2) w2*  (alpha-family)],

    so u_j = exp(x . rho_j) (w_j - w_j*) on the plane x3 = 0, where x = x*.
    report1 / report2 are the reports of the solves for psi_1 / psi_2.
    """

    phase: PhasePair
    eval_grid: Grid3
    w1: np.ndarray
    w1_star: np.ndarray
    w2: np.ndarray
    w2_star: np.ndarray | None
    report1: RemainderReport
    report2: RemainderReport

    def product(self) -> np.ndarray:
        """exp(i x . xi) w1 w2, plus exp(i x* . xi) w1* w2* for the alpha-family.

        These are the direct products of the probe factors, and for the
        alpha-family the mirrored ones too: rho1 + rho2 = i xi, so each is
        bounded at every parameter.  The phase is one exponential per axis.
        """
        ex, ey, ez = (np.exp(1j * self.phase.xi[axis] * self.eval_grid.axis_nodes(axis))
                      for axis in range(3))
        lateral = np.multiply.outer(ex, ey)
        out = np.multiply.outer(lateral, ez) * self.w1 * self.w2
        if self.w2_star is not None:
            out += np.multiply.outer(lateral, ez.conj()) * self.w1_star * self.w2_star
        return out


def build_probe(phase: PhasePair, src1: BoxSource, src2: BoxSource) -> CgoProbe:
    """Assemble the probe pair on the evaluation grid of its sources.

    src1 / src2 prepare the remainder solves against the extended potentials
    (even extension for every reflected probe; the tau-family second probe
    uses the extension by zero) on one periodic box grid and for one
    evaluation grid, else FieldError.  Remainders are interpolated
    trilinearly from their windows onto the evaluation nodes and their
    mirror images, both in one `interpolate_box` call per nonzero remainder;
    the unreflected tau-family second one onto the evaluation nodes only.
    """
    if (src1.grid, src1.eval_grid) != (src2.grid, src2.eval_grid):
        raise FieldError("remainder sources must share one box grid and one evaluation grid")
    eval_grid = src1.eval_grid
    psi1, rep1 = solve_remainder(phase.rho1, src1)
    psi2, rep2 = solve_remainder(phase.rho2, src2)
    w1, w1_star = _factors(psi1, eval_grid, True)
    w2, w2_star = _factors(psi2, eval_grid, phase.variant is Variant.DOUBLE_REFLECTION)
    return CgoProbe(phase, eval_grid, w1, w1_star, w2, w2_star, rep1, rep2)

"""Grid-sampled fields, compactly supported potentials, reflections.

Fields are stored node-wise as arrays of shape ``grid.node_shape`` indexed
``values[ix, iy, iz]``.  `samples` builds the array of every volume and
plate field once: float64 unless an imaginary part is nonzero, complex128
then.  So real potentials, k and data give real solutions and traces with
no later test; complex numbers enter through CGO phases and transforms.
The Fourier transform convention throughout is

    FT(f)(xi) = integral of exp(+i x . xi) f(x) dx

with no 2*pi normalization in the forward direction; Plancherel-type formulas
downstream carry the matching (2*pi)^-3 factor explicitly.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .geometry import Grid3, SlabGeometry


class FieldError(ValueError):
    """Raised for shape/support/grid-compatibility violations."""


# frequencies per block of fourier_transform; zero-padding of sobolev_norm
FT_CHUNK = 64
SOBOLEV_PAD = 2
# smoothness index of the a-priori class H^s (s > 3/2) of every potential
SOBOLEV_S = 2.0


def samples(values) -> np.ndarray:
    """`values` as contiguous float64 when no imaginary part is nonzero, else
    complex128; a NaN imaginary part is nonzero, so it stays for the finite check."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals) and np.any(vals.imag):
        return np.ascontiguousarray(vals, dtype=np.complex128)
    return np.ascontiguousarray(vals.real, dtype=np.float64)


@dataclass(frozen=True)
class GridField:
    """Node samples on `grid` (by `samples`); a leading axis of m makes a block of m fields."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        vals = samples(self.values)
        if vals.ndim not in (3, 4) or vals.shape[-3:] != self.grid.node_shape:
            raise FieldError(
                f"values shape {vals.shape} does not match grid nodes {self.grid.node_shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise FieldError("field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def copy_with(self, values: np.ndarray) -> "GridField":
        return GridField(self.grid, values)


def quadrature_weights(grid: Grid3) -> np.ndarray:
    """Trapezoidal node weights for volume integrals over the grid box.

    Periodic grids use the uniform weight h^3 (exact for periodic sums);
    node grids halve the weight on each outermost layer per axis.
    """
    h3 = grid.h ** 3
    if grid.periodic:
        return np.full(grid.node_shape, h3)
    w = np.ones(grid.node_shape)
    for axis in range(3):
        edge = [slice(None)] * 3
        for idx in (0, -1):
            edge[axis] = idx
            w[tuple(edge)] *= 0.5
    return w * h3


def reflect(field: GridField) -> GridField:
    """Pullback under x -> x* = (x1, x2, -x3); requires a z-symmetric grid."""
    grid = field.grid
    if not grid.z_symmetric():
        raise FieldError("grid is not symmetric under reflection in the x3 axis")
    if grid.periodic:
        nz = grid.nz
        # node j at z_j maps to node (shift - j) mod nz where shift fixes z=-origin.
        shift = round(-2 * grid.origin[2] / grid.h) % nz
        idx = (shift - np.arange(nz)) % nz
        return field.copy_with(field.values[:, :, idx])
    return field.copy_with(field.values[:, :, ::-1])


@dataclass(frozen=True)
class Potential:
    """Real (float64) potential supported in {|x'| <= R, 0 <= x3 <= L}.

    The a-priori class is the H^SOBOLEV_S ball of radius ``bound_M``: the
    discrete H^SOBOLEV_S norm of the samples must not exceed bound_M by more
    than 5 percent.  ``measured_norm`` passes that norm in when the caller
    has already measured it; an all-zero field has norm 0 without a transform.
    """

    field: GridField
    geom: SlabGeometry
    bound_M: float
    measured_norm: InitVar[float | None] = None

    def __post_init__(self, measured_norm):
        vals = self.field.values
        if np.iscomplexobj(vals):
            raise FieldError("potential must be real-valued")
        r = self.field.grid.lateral_radius()
        _, _, z = self.field.grid.node_coords()
        outside = (r > self.geom.R) | (z < -1e-12) | (z > self.geom.L + 1e-12)
        if np.any(vals[np.broadcast_to(outside, vals.shape)] != 0):
            raise FieldError("potential support violates {|x'| <= R} x [0, L]")
        norm = measured_norm
        if norm is None:
            norm = sobolev_norm(self.field, SOBOLEV_S) if np.any(vals) else 0.0
        if norm > 1.05 * self.bound_M:
            raise FieldError(
                f"discrete H^s norm {norm:.6g} exceeds bound M={self.bound_M:.6g} by >5%"
            )

    @property
    def grid(self) -> Grid3:
        return self.field.grid


def smooth_bump(t: np.ndarray) -> np.ndarray:
    """C-infinity bump exp(-1/(1-t^2)) on |t|<1, zero outside; peak value exp(-1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def radial_bump_potential(grid: Grid3, geom: SlabGeometry, amplitude: float) -> Potential:
    """Smooth bump potential: the radial bump of radius R in x' times a
    vertical profile that vanishes to all orders at both plates.  bound_M is
    set to the measured discrete H^SOBOLEV_S norm, so the a-priori class is
    tight by construction.
    """
    x, y, z = grid.node_coords()
    r = np.hypot(x, y)
    prof = smooth_bump((z - geom.L / 2) / (geom.L / 2))
    vals = amplitude * smooth_bump(r / geom.R) * prof
    fld = GridField(grid, np.broadcast_to(vals, grid.node_shape))
    return _measured_potential(fld, geom)


def zero_potential(grid: Grid3, geom: SlabGeometry) -> Potential:
    fld = GridField(grid, np.zeros(grid.node_shape))
    return Potential(fld, geom, np.finfo(float).tiny)


def _measured_potential(fld: GridField, geom: SlabGeometry) -> Potential:
    """Potential whose bound M is its own discrete H^SOBOLEV_S norm, measured once."""
    m = sobolev_norm(fld, SOBOLEV_S)
    return Potential(fld, geom, max(m, np.finfo(float).tiny), measured_norm=m)


def _box_to_slab_index(box_grid: Grid3, slab_grid: Grid3) -> tuple:
    """Map box nodes onto slab nodes; needs h_box = c*h_slab with aligned offsets.

    Returns (inside_mask, ix, iy, iz) where the index arrays address the slab
    nodes under each inside box node.
    """
    c = box_grid.h / slab_grid.h
    ci = round(c)
    if abs(c - ci) > 1e-9 or ci < 1:
        raise FieldError(
            f"box spacing {box_grid.h} is not an integer multiple of slab spacing {slab_grid.h}"
        )
    idx = []
    for axis in range(3):
        off = (box_grid.origin[axis] - slab_grid.origin[axis]) / slab_grid.h
        offi = round(off)
        if abs(off - offi) > 1e-9:
            raise FieldError(f"box grid is not node-aligned with the slab grid on axis {axis}")
        n_box = box_grid.node_shape[axis]
        idx.append(offi + ci * np.arange(n_box))
    sx, sy, sz = slab_grid.node_shape
    ix = idx[0][:, None, None]
    iy = idx[1][None, :, None]
    iz = idx[2][None, None, :]
    inside = (
        (ix >= 0) & (ix < sx) & (iy >= 0) & (iy < sy) & (iz >= 0) & (iz < sz)
    )
    return inside, np.clip(ix, 0, sx - 1), np.clip(iy, 0, sy - 1), np.clip(iz, 0, sz - 1)


def extend_trivial(q: Potential, box_grid: Grid3) -> GridField:
    """Extension of q by zero: equals q on slab nodes, zero elsewhere."""
    inside, ix, iy, iz = _box_to_slab_index(box_grid, q.grid)
    return GridField(box_grid, np.where(inside, q.field.values[ix, iy, iz], 0.0))


def extend_even(q: Potential, box_grid: Grid3) -> GridField:
    """Even extension about x3 = 0: q(x) on the slab plus q(x*) on its mirror.

    Equals extend_trivial(q) + reflect(extend_trivial(q)) node-exactly; the
    x3 = 0 layer picks up both contributions.
    """
    triv = extend_trivial(q, box_grid)
    return GridField(box_grid, triv.values + reflect(triv).values)


def fourier_transform(field: GridField, xis) -> np.ndarray:
    """FT(field) at the rows of an (n, 3) array of frequencies, by separable
    trapezoidal quadrature: the per-axis factorization of exp(i x . xi)
    makes each frequency O(N), FT_CHUNK frequencies per block."""
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != 3:
        raise FieldError("expected an (n, 3) array of frequencies")
    grid = field.grid
    wf = field.values * quadrature_weights(grid)
    coords = [grid.axis_nodes(a) for a in range(3)]
    out = np.empty(len(xis), dtype=np.complex128)
    for lo in range(0, len(xis), FT_CHUNK):
        hi = min(lo + FT_CHUNK, len(xis))
        sub = xis[lo:hi]
        ex = np.exp(1j * np.outer(sub[:, 0], coords[0]))  # (m, sx)
        ey = np.exp(1j * np.outer(sub[:, 1], coords[1]))  # (m, sy)
        ez = np.exp(1j * np.outer(sub[:, 2], coords[2]))  # (m, sz)
        t1 = np.tensordot(ex, wf, axes=(1, 0))            # (m, sy, sz)
        t2 = np.einsum("myz,my->mz", t1, ey)              # (m, sz)
        out[lo:hi] = np.einsum("mz,mz->m", t2, ez)
    return out


def sobolev_norm(field: GridField, s: float) -> float:
    """Discrete H^s norm via zero-padded FFT with weight (1+|xi|^2)^(s/2).

    Uses ||f||^2 = (2 pi)^-3 * sum (1+|xi_m|^2)^s |FT(f)(xi_m)|^2 dxi over the
    padded frequency lattice, FT approximated by the rectangle rule h^3*FFT.
    """
    grid = field.grid
    vals = field.values
    shape = [SOBOLEV_PAD * n for n in vals.shape]
    spec = np.fft.fftn(vals, s=shape, axes=range(len(shape)))
    h = grid.h
    freqs = [2 * np.pi * np.fft.fftfreq(n, d=h) for n in shape]
    w2 = (
        1.0
        + freqs[0][:, None, None] ** 2
        + freqs[1][None, :, None] ** 2
        + freqs[2][None, None, :] ** 2
    )
    dxi = np.prod([2 * np.pi / (n * h) for n in shape])
    total = np.sum(w2 ** s * np.abs(spec * h ** 3) ** 2) * dxi
    return float(np.sqrt(total / (2 * np.pi) ** 3))


# --- field file format -----------------------------------------------------
#
# One ASCII header line: "nx ny nz h ox oy oz", then raw little-endian
# float64 data: all real parts followed by all imaginary parts, x-fastest
# ordering.  Cell counts follow the grid convention (node counts are +1 on
# each axis for non-periodic grids; only non-periodic fields are serialized).


def write_binary(path: str, header: str, values: np.ndarray) -> None:
    """Write the ASCII `header` line, then the little-endian float64 real
    parts of `values` followed by their imaginary parts, x-fastest; the
    counterpart of `read_binary`."""
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for part in (values.real, values.imag):
            fh.write(np.ascontiguousarray(part.ravel(order="F"), dtype="<f8").tobytes())


def write_field(path: str, field: GridField) -> None:
    grid = field.grid
    if grid.periodic:
        raise FieldError("field files store non-periodic node grids only")
    header = "%d %d %d %.17g %.17g %.17g %.17g\n" % (
        grid.nx, grid.ny, grid.nz, grid.h, *grid.origin
    )
    write_binary(path, header, field.values)


def read_binary(path: str, error: type, layout, dtype: str) -> tuple:
    """(layout, data) of a file of one ASCII header line and binary data, by
    layout(header entries) -> (layout, count of `dtype` items) or ValueError;
    a rejected header, fewer items or a non-finite item raise `error` naming the path."""
    with open(path, "rb") as fh:
        header, data = fh.readline(), fh.read()
    try:
        out, count = layout(header.decode("ascii").split())
    except ValueError as exc:  # the decode error and GeometryError among them
        raise error(f"{path}: malformed header: {exc}") from None
    if len(data) < count * np.dtype(dtype).itemsize:
        raise error(f"{path}: truncated data")
    data = np.frombuffer(data, dtype=dtype, count=count)
    if not np.all(np.isfinite(data)):
        raise error(f"{path}: non-finite data")
    return out, data


def _field_layout(header: list[str]) -> tuple[Grid3, int]:
    nx, ny, nz, h, *origin = header
    grid = Grid3(int(nx), int(ny), int(nz), float(h), tuple(map(float, origin)))
    return grid, 2 * grid.n_nodes


def read_field(path: str) -> GridField:
    """The field of a field file; FieldError names a path `read_binary` rejects."""
    grid, raw = read_binary(path, FieldError, _field_layout, "<f8")
    count = grid.n_nodes
    re = raw[:count].reshape(grid.node_shape, order="F")
    im = raw[count:].reshape(grid.node_shape, order="F")
    return GridField(grid, re + 1j * im)


def read_potential(path: str, geom: SlabGeometry) -> Potential:
    """Load a field file as a potential; bound M is the measured H^SOBOLEV_S norm."""
    return _measured_potential(read_field(path), geom)

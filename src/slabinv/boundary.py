"""Plate boundary fields on grid-aligned bounding squares.

A boundary field lives on the node grid of the smallest grid-aligned square
containing its patch and is zero-extended to the full plate by convention.
Spectral machinery (discrete sine transforms on the bounding square) backs
the fractional Sobolev norms used by the measurement-operator module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPatch, Grid3, Plate


class BoundaryError(ValueError):
    pass


@dataclass(frozen=True)
class SquareGrid2:
    """ns x ns cells of spacing h with lower corner at (x0, y0)."""

    ns: int
    h: float
    x0: float
    y0: float

    @property
    def side(self) -> float:
        return self.ns * self.h

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.ns + 1, self.ns + 1)

    def axis_nodes(self, axis: int) -> np.ndarray:
        o = (self.x0, self.y0)[axis]
        return o + self.h * np.arange(self.ns + 1)

    def node_radius(self) -> np.ndarray:
        x = self.axis_nodes(0)[:, None]
        y = self.axis_nodes(1)[None, :]
        return np.hypot(x, y)


def bounding_square(grid: Grid3, patch: BoundaryPatch) -> SquareGrid2:
    """Smallest grid-aligned square centred at the axis covering the patch."""
    a = math.ceil(patch.r_outer / grid.h - 1e-9) * grid.h
    half = min(a, -grid.origin[0])  # never exceed the plate extent
    m = round(half / grid.h)
    return SquareGrid2(2 * m, grid.h, -m * grid.h, -m * grid.h)


def full_plate_square(grid: Grid3) -> SquareGrid2:
    """Bounding square spanning the whole (possibly periodic) plate."""
    return SquareGrid2(grid.nx, grid.h, grid.origin[0], grid.origin[1])


@dataclass(frozen=True)
class BoundaryField:
    """Complex samples on a patch bounding square, zero outside by convention.

    A leading axis of length m makes a block of m fields on the same square.
    """

    patch: BoundaryPatch
    square: SquareGrid2
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.ndim not in (2, 3) or vals.shape[-2:] != self.square.node_shape:
            raise BoundaryError(
                f"values shape {vals.shape} != square nodes {self.square.node_shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise BoundaryError("boundary field contains non-finite values")
        object.__setattr__(self, "values", vals)

    def copy_with(self, values: np.ndarray) -> "BoundaryField":
        return BoundaryField(self.patch, self.square, values)

    def patch_mask(self) -> np.ndarray:
        r = self.square.node_radius()
        return (r >= self.patch.r_inner) & (r < self.patch.r_outer)

    def masked(self) -> "BoundaryField":
        return self.copy_with(np.where(self.patch_mask(), self.values, 0.0))

    def l2_norm(self):
        """Plate L^2 norm; one per field (an array) for a block."""
        norm = np.sqrt(np.sum(np.abs(self.values) ** 2, axis=(-2, -1))) * self.square.h
        return float(norm) if norm.ndim == 0 else norm

    def plate_values(self, grid: Grid3) -> np.ndarray:
        """Zero-extend onto the full plate node grid of `grid`."""
        sx, sy, _ = grid.node_shape
        out = np.zeros(self.values.shape[:-2] + (sx, sy), dtype=np.complex128)
        i0 = round((self.square.x0 - grid.origin[0]) / grid.h)
        j0 = round((self.square.y0 - grid.origin[1]) / grid.h)
        ni, nj = self.square.node_shape
        if grid.periodic:
            # assignment semantics: a duplicated seam node (full-plate squares
            # carry ns+1 nodes) overwrites node 0 with an identical value.
            ii = (i0 + np.arange(ni)) % grid.nx
            jj = (j0 + np.arange(nj)) % grid.ny
            out[(...,) + np.ix_(ii, jj)] = self.values
            return out
        if i0 < 0 or j0 < 0 or i0 + ni > sx or j0 + nj > sy:
            raise BoundaryError("bounding square does not fit inside the plate")
        out[..., i0:i0 + ni, j0:j0 + nj] = self.values
        return out


def from_plate_values(grid: Grid3, patch: BoundaryPatch, plate_vals: np.ndarray,
                      square: SquareGrid2 | None = None,
                      apply_mask: bool = True) -> BoundaryField:
    """Window full-plate node samples (optionally a block of them) down to the
    patch bounding square."""
    sq = bounding_square(grid, patch) if square is None else square
    i0 = round((sq.x0 - grid.origin[0]) / grid.h)
    j0 = round((sq.y0 - grid.origin[1]) / grid.h)
    ni, nj = sq.node_shape
    if grid.periodic:
        ii = (i0 + np.arange(ni)) % grid.nx
        jj = (j0 + np.arange(nj)) % grid.ny
        vals = plate_vals[(...,) + np.ix_(ii, jj)].astype(np.complex128)
    else:
        vals = plate_vals[..., i0:i0 + ni, j0:j0 + nj].astype(np.complex128)
    bf = BoundaryField(patch, sq, vals)
    return bf.masked() if apply_mask else bf


# --- bounding-square sine spectrum ------------------------------------------
#
# The interior nodes of the square carry the discrete sine basis
#   phi_m(x, y) = (2/S) sin(m1 pi (x-x0)/S) sin(m2 pi (y-y0)/S),
# orthonormal in the discrete L^2 inner product h^2 * sum.  The associated
# frequencies are kappa_m = pi m / S componentwise.


@functools.lru_cache(maxsize=8)
def dst1_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I S on the n - 1 interior nodes of n cells,
    S_jm = sqrt(2/n) sin(pi j m / n); S = S^T = S^{-1}, read-only."""
    j = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j, j) / n)
    s.flags.writeable = False
    return s


def sine_frequencies(square: SquareGrid2, n_modes: int | None = None) -> np.ndarray:
    """|kappa|^2 on the (m1, m2) mode grid; full spectrum when n_modes is None."""
    n = square.ns - 1 if n_modes is None else n_modes
    k = np.pi * np.arange(1, n + 1) / square.side
    return k[:, None] ** 2 + k[None, :] ** 2


def sine_coefficients(field: BoundaryField) -> np.ndarray:
    """Full-spectrum coefficients in the orthonormal sine basis; one array
    per field (a leading axis) for a block.

    Valid for fields vanishing on the square edge (patch fields do, since the
    patch lies strictly inside the square by the membership convention).
    """
    sq = field.square
    d = dst1_matrix(sq.ns)
    # the orthonormal coefficient h^2 (2/side) sum g sin sin is h * D g D
    return sq.h * (d @ field.values[..., 1:-1, 1:-1] @ d)


def mode_field(patch: BoundaryPatch, square: SquareGrid2, m1: int, m2: int,
               apply_mask: bool = True) -> BoundaryField:
    """Unit-L^2 sine mode (m1, m2), optionally masked to the patch node set."""
    if not (1 <= m1 <= square.ns - 1 and 1 <= m2 <= square.ns - 1):
        raise BoundaryError(f"mode ({m1},{m2}) not representable on {square.ns} cells")
    t = np.arange(square.ns + 1) / square.ns
    sx = np.sin(np.pi * m1 * t)
    sy = np.sin(np.pi * m2 * t)
    vals = (2.0 / square.side) * np.outer(sx, sy).astype(np.complex128)
    bf = BoundaryField(patch, square, vals)
    return bf.masked() if apply_mask else bf


# --- boundary file format -----------------------------------------------------
#
# Same layout as a volume field file with nz = 0 marking plate data:
# header "ns ns 0 h x0 y0 z", then little-endian float64 real parts followed
# by imaginary parts, x-fastest over the (ns+1)^2 square nodes.


def write_boundary_field(path: str, bf: BoundaryField, plate_z: float) -> None:
    sq = bf.square
    header = "%d %d 0 %.17g %.17g %.17g %.17g\n" % (sq.ns, sq.ns, sq.h, sq.x0,
                                                    sq.y0, plate_z)
    re = np.ascontiguousarray(bf.values.real.ravel(order="F"), dtype="<f8")
    im = np.ascontiguousarray(bf.values.imag.ravel(order="F"), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(re.tobytes())
        fh.write(im.tobytes())


def read_boundary_field(path: str, patch: BoundaryPatch) -> tuple[BoundaryField, float]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 7 or int(header[2]) != 0:
            raise BoundaryError(f"{path}: not a boundary-field file")
        ns = int(header[0])
        h = float(header[3])
        x0, y0, plate_z = (float(v) for v in header[4:7])
        sq = SquareGrid2(ns, h, x0, y0)
        count = (ns + 1) ** 2
        raw = np.frombuffer(fh.read(16 * count), dtype="<f8")
        if raw.size != 2 * count:
            raise BoundaryError(f"{path}: truncated boundary data")
    re = raw[:count].reshape(sq.node_shape, order="F")
    im = raw[count:].reshape(sq.node_shape, order="F")
    return BoundaryField(patch, sq, re + 1j * im), plate_z

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

from .fields import read_binary, samples, write_binary
from .geometry import BoundaryPatch, Grid3


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


@dataclass(frozen=True)
class BoundaryField:
    """Samples (by `fields.samples`) on a patch bounding square, zero outside
    by convention.  A leading axis of length m makes a block of m fields on
    the same square.
    """

    patch: BoundaryPatch
    square: SquareGrid2
    values: np.ndarray

    def __post_init__(self):
        vals = samples(self.values)
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

    def plate_values(self, grid: Grid3) -> np.ndarray:
        """Zero-extend onto the full plate node grid of `grid`, in the dtype of
        the samples."""
        out = np.zeros(self.values.shape[:-2] + grid.node_shape[:2], dtype=self.values.dtype)
        out[_plate_index(self.square, grid)] = self.values
        return out


def _plate_index(square: SquareGrid2, grid: Grid3) -> tuple:
    """Index of the square's nodes in full-plate node arrays (..., sx, sy);
    BoundaryError unless the square has the grid spacing, its corner is a grid
    node (both to 1e-9 relative to the spacing) and it fits inside the plate."""
    offsets = [(c - o) / grid.h for c, o in zip((square.x0, square.y0), grid.origin)]
    if abs(square.h - grid.h) > 1e-9 * grid.h or any(abs(t - round(t)) > 1e-9 for t in offsets):
        raise BoundaryError(
            f"square of spacing {square.h:.17g} with corner ({square.x0:.17g}, "
            f"{square.y0:.17g}) does not lie on the grid nodes of spacing {grid.h:.17g}")
    (i0, j0), (ni, nj) = map(round, offsets), square.node_shape
    sx, sy = grid.node_shape[:2]
    if i0 < 0 or j0 < 0 or i0 + ni > sx or j0 + nj > sy:
        raise BoundaryError("bounding square does not fit inside the plate")
    return ..., slice(i0, i0 + ni), slice(j0, j0 + nj)


def from_plate_values(grid: Grid3, patch: BoundaryPatch, plate_vals: np.ndarray) -> BoundaryField:
    """Full-plate node samples (optionally a block of them) on the patch
    bounding square, masked to the patch."""
    sq = bounding_square(grid, patch)
    return BoundaryField(patch, sq, plate_vals[_plate_index(sq, grid)]).masked()


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


def sine_frequencies(square: SquareGrid2) -> np.ndarray:
    """|kappa|^2 on the full (m1, m2) mode grid, m1, m2 = 1 .. ns - 1."""
    k = np.pi * np.arange(1, square.ns) / square.side
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


# --- boundary file format -----------------------------------------------------
#
# Same layout as a volume field file with nz = 0 marking plate data:
# header "ns ns 0 h x0 y0 z", then little-endian float64 real parts followed
# by imaginary parts, x-fastest over the (ns+1)^2 square nodes.


def write_boundary_field(path: str, bf: BoundaryField, plate_z: float) -> None:
    sq = bf.square
    header = "%d %d 0 %.17g %.17g %.17g %.17g\n" % (sq.ns, sq.ns, sq.h, sq.x0,
                                                    sq.y0, plate_z)
    write_binary(path, header, bf.values)


def _boundary_layout(header: list[str]) -> tuple[tuple, int]:
    ns, ns_y, nz, *lengths = header
    h, x0, y0, plate_z = map(float, lengths)
    if int(ns) < 1 or ns_y != ns or nz != "0" or not 0 < h < math.inf:
        raise ValueError(f"expected 'ns ns 0 h x0 y0 z' with ns >= 1 and h > 0, got {header}")
    if not all(map(math.isfinite, (x0, y0, plate_z))):
        raise ValueError(f"non-finite position in {header}")
    return (SquareGrid2(int(ns), h, x0, y0), plate_z), 2 * (int(ns) + 1) ** 2


def read_boundary_field(path: str, patch: BoundaryPatch) -> tuple[BoundaryField, float]:
    """(field, plate height); BoundaryError names a path `read_binary` rejects."""
    (sq, plate_z), raw = read_binary(path, BoundaryError, _boundary_layout, "<f8")
    count = (sq.ns + 1) ** 2
    re = raw[:count].reshape(sq.node_shape, order="F")
    im = raw[count:].reshape(sq.node_shape, order="F")
    return BoundaryField(patch, sq, re + 1j * im), plate_z

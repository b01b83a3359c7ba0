"""Slab geometry, lateral truncation, uniform grids and boundary patches.

The working region is the slab ``0 < x3 < L`` in R^3.  Potentials live in the
cylinder ``|x'| <= R``; Neumann measurements are taken on plate discs of radius
``R_prime``; the computational domain truncates the slab laterally at radius
``R_lat`` (homogeneous Dirichlet data on the staircase approximation of the
lateral cylinder).  Everything downstream samples fields on the uniform
Cartesian grids built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_NODES = 10**8


class GeometryError(ValueError):
    """Raised for inconsistent geometry parameters or grid requests."""


@dataclass(frozen=True)
class SlabGeometry:
    """Continuous region parameters.

    L        : slab thickness (> 0)
    R        : support radius of the potentials (> 0)
    R_prime  : Neumann patch radius, R < R_prime < 2R
    R_lat    : lateral truncation radius, R_prime < R_lat <= 2R
    eps_cutoff : half-gap of the cutoff annulus, 0 < eps and
                 R + eps < R_prime - eps
    """

    L: float
    R: float
    R_prime: float
    R_lat: float
    eps_cutoff: float

    def __post_init__(self):
        if not (0 < self.L < math.inf):
            raise GeometryError(f"slab thickness must be positive and finite, got L={self.L}")
        if not (0 < self.R < self.R_prime < self.R_lat <= 2 * self.R):
            raise GeometryError(
                "radii must satisfy 0 < R < R_prime < R_lat <= 2R, got "
                f"R={self.R}, R_prime={self.R_prime}, R_lat={self.R_lat}"
            )
        if not (self.eps_cutoff > 0):
            raise GeometryError("eps_cutoff must be positive")
        if not (self.R + self.eps_cutoff < self.R_prime - self.eps_cutoff):
            raise GeometryError(
                "eps_cutoff too large: need R + eps < R_prime - eps, got "
                f"R+eps={self.R + self.eps_cutoff}, R'-eps={self.R_prime - self.eps_cutoff}"
            )


_CONFIG_KEYS = ("L", "R", "R_prime", "R_lat", "eps_cutoff", "target_h")


def parse_geometry_config(path: str) -> tuple[SlabGeometry, float]:
    """Read a flat key=value text file; returns (geometry, target_h).

    Recognized keys: L, R, R_prime, R_lat, eps_cutoff, target_h, each with a
    number, else GeometryError naming the path.  Blank lines and '#' comments
    are ignored.  All lengths share one arbitrary unit.
    """
    values: dict[str, float] = {}
    # a byte that is not ASCII reads as U+FFFD, which no key or number holds
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise GeometryError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise GeometryError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = float(val)
            except ValueError:
                raise GeometryError(f"{path}:{lineno}: {key} needs a number, got "
                                    f"{val.strip()!a}") from None
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise GeometryError(f"{path}: missing keys {missing}")
    target_h = values.pop("target_h")
    return SlabGeometry(**values), target_h


class Plate(Enum):
    TOP = "top"        # x3 = L
    BOTTOM = "bottom"  # x3 = 0


@dataclass(frozen=True)
class BoundaryPatch:
    """A radially bounded patch on one of the two plates.

    Membership convention: a plate point belongs to the patch iff
    ``r_inner <= |x'| < r_outer`` (points exactly on a radius go to the
    outer region).
    """

    plate: Plate
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (0 <= self.r_inner < self.r_outer):
            raise GeometryError(
                f"patch radii must satisfy 0 <= r_inner < r_outer, got "
                f"[{self.r_inner}, {self.r_outer})"
            )


def dirichlet_patch(geom: SlabGeometry) -> BoundaryPatch:
    """Top-plate patch carrying Dirichlet data: the full truncated plate."""
    return BoundaryPatch(Plate.TOP, 0.0, geom.R_lat)


def neumann_patch(geom: SlabGeometry, plate: Plate) -> BoundaryPatch:
    """Measurement patch of radius R_prime on the requested plate."""
    return BoundaryPatch(plate, 0.0, geom.R_prime)


@dataclass(frozen=True)
class Grid3:
    """Uniform Cartesian grid: nx, ny, nz cells of spacing h from `origin`.

    Non-periodic grids carry (n+1) nodes per axis.  Fully periodic grids
    (used for the probe construction boxes) carry n sample nodes per axis,
    node n being identified with node 0.
    """

    nx: int
    ny: int
    nz: int
    h: float
    origin: tuple[float, float, float]
    periodic: bool = False

    def __post_init__(self):
        if (min(self.nx, self.ny, self.nz) < 1 or not 0 < self.h < math.inf
                or not all(map(math.isfinite, self.origin))):
            raise GeometryError("grid needs positive cell counts and spacing and a finite origin")

    @property
    def node_shape(self) -> tuple[int, int, int]:
        if self.periodic:
            return (self.nx, self.ny, self.nz)
        return (self.nx + 1, self.ny + 1, self.nz + 1)

    @property
    def n_nodes(self) -> int:
        sx, sy, sz = self.node_shape
        return sx * sy * sz

    def axis_nodes(self, axis: int) -> np.ndarray:
        n = (self.nx, self.ny, self.nz)[axis]
        count = n if self.periodic else n + 1
        return self.origin[axis] + self.h * np.arange(count)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays X, Y, Z of shapes (sx,1,1), (1,sy,1), (1,1,sz)."""
        x = self.axis_nodes(0)[:, None, None]
        y = self.axis_nodes(1)[None, :, None]
        z = self.axis_nodes(2)[None, None, :]
        return x, y, z

    def lateral_radius(self) -> np.ndarray:
        """|x'| at every node, shape (sx, sy, 1)."""
        x, y, _ = self.node_coords()
        return np.hypot(x, y)

    def z_symmetric(self) -> bool:
        """True when the node set is invariant under x3 -> -x3."""
        if self.periodic:
            # sample nodes cover [o, o + n h); symmetric iff the reflection of
            # node j lands on node (-j) mod n, which needs 2*o/h integral.
            return abs(round(2 * self.origin[2] / self.h) - 2 * self.origin[2] / self.h) < 1e-9
        zmax = self.origin[2] + self.nz * self.h
        return abs(self.origin[2] + zmax) < 1e-12 * max(1.0, abs(zmax))


def build_domain(geom: SlabGeometry, target_h: float) -> Grid3:
    """Grid for the truncated slab: spacing h <= target_h with nz*h = L exactly.

    The grid covers {|x'| <= R_lat} x [0, L]; plate nodes sit exactly on
    x3 = 0 and x3 = L.  Requests producing more than ``MAX_NODES`` nodes are
    rejected.
    """
    if not target_h > 0:
        raise GeometryError("target_h must be positive")
    if target_h > geom.L / 3 * (1 + 1e-12):
        # the one-sided trace stencils need three node layers per plate
        raise GeometryError(f"target_h must not exceed L/3 = {geom.L / 3}")
    nz = math.ceil(geom.L / target_h - 1e-12)
    h = geom.L / nz
    m = math.ceil(geom.R_lat / h - 1e-12)
    nx = ny = 2 * m
    n_nodes = (nx + 1) * (ny + 1) * (nz + 1)
    if n_nodes > MAX_NODES:
        raise GeometryError(
            f"requested grid has {n_nodes} nodes, exceeding the {MAX_NODES} guard"
        )
    return Grid3(nx, ny, nz, h, (-m * h, -m * h, 0.0))


def interior_mask(grid: Grid3, geom: SlabGeometry) -> np.ndarray:
    """Node mask of the solver unknowns on a conforming slab grid: |x'| < R_lat
    times the layers 0 < x3 < L; |x'| >= R_lat is the lateral staircase."""
    if grid.periodic:
        raise GeometryError("interior_mask expects a non-periodic slab grid")
    if abs(grid.nz * grid.h - geom.L) > 1e-12 * geom.L:
        raise GeometryError("grid does not conform to the slab thickness")
    mask = np.zeros(grid.node_shape, dtype=bool)
    mask[:, :, 1:-1] = grid.lateral_radius() < geom.R_lat
    return mask

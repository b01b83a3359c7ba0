import numpy as np
import pytest

from slabinv import fields, forward, geometry


@pytest.fixture(scope="session")
def geom():
    return geometry.SlabGeometry(L=1.0, R=1.0, R_prime=1.5, R_lat=2.0,
                                 eps_cutoff=0.1)


@pytest.fixture(scope="session")
def grid8(geom):
    return geometry.build_domain(geom, 0.125)


@pytest.fixture(scope="session")
def grid16(geom):
    return geometry.build_domain(geom, 0.0625)


@pytest.fixture(scope="session")
def op0_8(geom, grid8):
    return forward.HelmholtzOperator(grid8, geom, 0.0, None)


@pytest.fixture(scope="session")
def bump8(geom, grid8):
    return fields.radial_bump_potential(grid8, geom, 1.0)


@pytest.fixture(scope="session")
def born_pair8(geom, grid8):
    q1 = fields.radial_bump_potential(grid8, geom, 1e-3)
    q2 = fields.zero_potential(grid8, geom)
    return q1, q2


# manufactured solutions: z(L-z) times a separable lateral profile whose
# fourth derivatives stay bounded, with support comfortably inside the
# truncation cylinder (the support square's corners stay inside |x'| < R_lat).
BUMP_A = 1.4


def poly_bump(x):
    t = np.clip(np.abs(x) / BUMP_A, 0.0, 1.0)
    return (1.0 - t * t) ** 4


def poly_bump_dd(x):
    t = np.asarray(x) / BUMP_A
    out = np.zeros_like(t)
    m = np.abs(t) < 1
    tm = t[m]
    out[m] = 8.0 * (1.0 - tm * tm) ** 2 * (7.0 * tm * tm - 1.0) / BUMP_A ** 2
    return out


def manufactured_case(geom, grid, k=0.0, q=None):
    """Returns (u_exact GridField, source GridField) for (-Lap - k^2 + q) u = w."""
    x, y, z = grid.node_coords()
    bx, by = poly_bump(x), poly_bump(y)
    uex = z * (geom.L - z) * bx * by
    lap = -2.0 * bx * by + z * (geom.L - z) * (poly_bump_dd(x) * by + bx * poly_bump_dd(y))
    qv = q.field.values.real if q is not None else 0.0
    w = -lap - k ** 2 * uex + qv * uex
    shape = grid.node_shape
    uex_f = fields.GridField(grid, np.broadcast_to(uex * np.ones_like(y), shape).copy())
    w_f = fields.GridField(grid, np.broadcast_to(w, shape).astype(np.complex128).copy())
    return uex_f, w_f


class CorruptingLU:
    """Wraps a factorization; every solved column whose right-hand side equals
    `rhs` comes back shifted by one, so its residual check fails."""

    def __init__(self, lu, rhs):
        self.lu = lu
        self.rhs = rhs

    def solve(self, b):
        x = self.lu.solve(b)
        cols = np.reshape(b, (len(b), -1))
        hit = np.all(cols == self.rhs[:, None], axis=0)
        np.reshape(x, (len(x), -1))[:, hit] += 1.0
        return x


def corrupt_datum(monkeypatch, f):
    """Make every operator's factorized solve corrupt the column of datum f."""
    orig = forward.HelmholtzOperator._lu

    def lu(self):
        plate = f.plate_values(self.grid).real
        return CorruptingLU(orig(self), forward._top_plate_rhs(self, plate))

    monkeypatch.setattr(forward.HelmholtzOperator, "_lu", lu)

import math

import numpy as np
import pytest

from slabinv import boundary, cgo, fields, forward, geometry, recovery


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


def l2_inner(a, b):
    """Discrete plate L^2 pairing h^2 * sum conj(a) b on a shared square."""
    assert a.square == b.square
    return complex(a.square.h ** 2 * np.vdot(a.values, b.values))


def norm_h32(g):
    """Spectral H^{3/2} norm from the bounding-square sine spectrum."""
    coef = boundary.sine_coefficients(g)
    w = (1.0 + boundary.sine_frequencies(g.square)) ** 1.5
    return float(np.sqrt(np.sum(w * np.abs(coef) ** 2)))


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


def exponential_probe(eval_grid, phase, box_grid, reflect1=False, reflect2=False):
    """Probe with remainders forced to zero (pure exponentials)."""
    zero = fields.GridField(box_grid, np.zeros(box_grid.node_shape, dtype=np.complex128))
    d1, m1, off1 = cgo._exp_terms(eval_grid, phase.rho1, zero, reflected=reflect1)
    d2, m2, off2 = cgo._exp_terms(eval_grid, phase.rho2, zero, reflected=reflect2)
    u1 = cgo.OffsetField(eval_grid, d1 - m1 if reflect1 else d1, off1)
    u2 = cgo.OffsetField(eval_grid, d2 - m2 if reflect2 else d2, off2)
    rep = {"psi1_l2": 0.0, "psi1_h1": 0.0, "psi2_l2": 0.0, "psi2_h1": 0.0,
           "iterations": (0, 0), "projected_modes": (0, 0), "residuals": (0.0, 0.0)}
    return cgo.CgoProbe(phase, box_grid, zero, zero, u1, u2,
                        cgo.OffsetField(eval_grid, d1, off1),
                        cgo.OffsetField(eval_grid, m1 if m1 is not None else np.zeros_like(d1),
                                        off1),
                        cgo.OffsetField(eval_grid, d2, off2),
                        cgo.OffsetField(eval_grid, m2, off2) if m2 is not None else None,
                        rep)


def reflect_remainder(psi):
    """Reflection x -> x* of a remainder in the antiperiodic-z representation.

    The node permutation of a plain periodic reflection, except that the seam
    layer (the single z-node whose mirror wraps across the box period) picks
    up the antiperiodic sign.  Involution; agrees with fields.reflect away
    from the seam.
    """
    grid = psi.grid
    assert grid.periodic and grid.z_symmetric()
    assert round(-2 * grid.origin[2] / grid.h) % grid.nz == 0
    out = fields.reflect(psi).values.copy()
    out[:, :, 0] = -out[:, :, 0]
    return fields.GridField(grid, out)


def schedule_residual(choice, delta, lam, c, variant, log_star):
    """Residual of the defining equation of the (r, param) schedule."""
    big_l = math.log1p(abs(math.log(delta) + log_star))
    if variant is cgo.Variant.SINGLE_REFLECTION:
        lhs = choice.r ** ((lam + 5.0) / lam)
    else:
        lhs = choice.r ** ((2.0 * lam + 5.0) / (2.0 * lam))
    return abs(lhs - (lam / 4.0) * big_l / c)


def bounds_consistent(res):
    """hm1^2 <= C_P (r^3 sup^2 + r^-2), the H^-1 split, to round-off."""
    r = res.params["r"]
    rhs = res.c_plancherel * (r ** 3 * res.sup_bound ** 2 + r ** -2)
    return res.hm1_bound ** 2 <= rhs * (1 + 1e-12)


def synthetic_line_function(halfwidth, rng):
    """Random entire function of exponential type <= halfwidth, drawn as in
    the two-constants calibration."""
    t, coef = recovery._synthetic_coefficients(halfwidth, rng)
    return lambda z: np.exp(1j * np.multiply.outer(np.asarray(z, np.complex128), t)) @ coef

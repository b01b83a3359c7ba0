import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

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


def bottom_bump_potential(grid, geom, amplitude):
    """The radial bump of radius R in x' times a vertical profile that peaks
    on the bottom plate: smooth inside the slab, with a jump across x3 = 0
    under extension by zero, the class the quantified transform-decay
    arguments are designed for.  bound_M is its measured H^SOBOLEV_S norm."""
    x, y, z = grid.node_coords()
    prof = np.where(z >= 0, fields.smooth_bump(z / geom.L), 0.0)
    vals = amplitude * fields.smooth_bump(np.hypot(x, y) / geom.R) * prof
    fld = fields.GridField(grid, np.broadcast_to(vals, grid.node_shape))
    norm = fields.sobolev_norm(fld, fields.SOBOLEV_S)
    return fields.Potential(fld, geom, norm, measured_norm=norm)


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


def field_from_function(grid, func):
    """Sample ``func(x, y, z)`` (broadcastable) at the grid nodes."""
    x, y, z = grid.node_coords()
    vals = np.broadcast_to(np.asarray(func(x, y, z), dtype=np.complex128),
                           grid.node_shape).copy()
    return fields.GridField(grid, vals)


def full_plate_square(grid):
    """Bounding square spanning the whole (possibly periodic) plate."""
    return boundary.SquareGrid2(grid.nx, grid.h, grid.origin[0], grid.origin[1])


def _whitened(r, basis):
    """W r: the pairings h^2 <b_i, r> whitened by the H^{3/2} Gram."""
    if r.square != basis.square:
        raise boundary.BoundaryError("field and test basis live on different squares")
    return basis.whitener @ r.values.ravel()


def norm_hm32(r, test_basis):
    """Dual norm sup |<r, g>| / ||g||_{H^{3/2}} over the span of the test basis."""
    return float(np.linalg.norm(_whitened(r, test_basis)))


def hm32_maximizer(r, test_basis):
    """The test function attaining the dual norm (inverse-Gram image of r)."""
    upper = scipy.linalg.cholesky(test_basis.gram_h32)
    c = scipy.linalg.solve_triangular(upper, _whitened(r, test_basis))
    vals = np.tensordot(c, test_basis.block.values, axes=(0, 0))
    return boundary.BoundaryField(test_basis.patch, test_basis.square, vals)


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


def basis_fields(basis):
    """The data of a basis, one BoundaryField per row of its block."""
    return [basis.block.copy_with(v) for v in basis.block.values]


def corrupt_datum(monkeypatch, f):
    """Make every operator's factorized solve corrupt the column of datum f."""
    orig = forward.HelmholtzOperator._lu

    def lu(self):
        plate = f.plate_values(self.grid).real
        return CorruptingLU(orig(self), forward._top_plate_rhs(self, plate))

    monkeypatch.setattr(forward.HelmholtzOperator, "_lu", lu)


@dataclass(frozen=True)
class OffsetField:
    """Field stored as exp(log_offset) * values to keep magnitudes bounded."""

    grid: geometry.Grid3
    values: np.ndarray
    log_offset: float


def adapted_frame(xi):
    """The frame (e1, e2, e3) adapted to xi that `cgo.make_phase_pair` uses,
    by the same arithmetic: e1 along the lateral part of xi, e3 vertical,
    e2 = e3 x e1."""
    xi_1e = math.hypot(xi[0], xi[1])
    return (np.array([xi[0] / xi_1e, xi[1] / xi_1e, 0.0]),
            np.array([-xi[1] / xi_1e, xi[0] / xi_1e, 0.0]), np.array([0.0, 0.0, 1.0]))


def exp_terms(eval_grid, rho, w, w_star=None):
    """A probe factor in the per-probe offset form, the reference for
    `CgoProbe.product`: (exp(x . rho) w, exp(x* . rho) w_star or None,
    log_offset), both arrays divided by exp(log_offset).

    The exponential is the tensor product of one factor per axis, each scaled
    by its own maximum (the offset is their sum); the two factors share the
    lateral ones.
    """
    px, py, pz = (eval_grid.axis_nodes(axis) * rho[axis] for axis in range(3))
    top_x, top_y = float(np.max(px.real)), float(np.max(py.real))
    top_z = float(np.max(pz.real if w_star is None else np.abs(pz.real)))
    lateral = np.multiply.outer(np.exp(px - top_x), np.exp(py - top_y))
    direct = np.multiply.outer(lateral, np.exp(pz - top_z)) * w
    mirrored = None
    if w_star is not None:
        mirrored = np.multiply.outer(lateral, np.exp(-pz - top_z)) * w_star
    return direct, mirrored, top_x + top_y + top_z


@dataclass(frozen=True)
class OffsetProbe:
    """The full probes u1, u2 of a pair and their direct and mirrored factors."""

    u1: OffsetField
    u2: OffsetField
    u1_direct: OffsetField
    u1_reflected: OffsetField
    u2_direct: OffsetField
    u2_reflected: OffsetField | None


def offset_probe(probe):
    """The probes of a `CgoProbe`, built from its phases and its factors w in
    the offset form: u1 = d1 - m1, and u2 = d2 - m2 (alpha-family) or d2."""
    grid, pp = probe.eval_grid, probe.phase
    d1, m1, off1 = exp_terms(grid, pp.rho1, probe.w1, probe.w1_star)
    d2, m2, off2 = exp_terms(grid, pp.rho2, probe.w2, probe.w2_star)
    return OffsetProbe(
        OffsetField(grid, d1 - m1, off1),
        OffsetField(grid, d2 if m2 is None else d2 - m2, off2),
        OffsetField(grid, d1, off1), OffsetField(grid, m1, off1),
        OffsetField(grid, d2, off2), None if m2 is None else OffsetField(grid, m2, off2))


def exponential_probe(eval_grid, phase):
    """Probe with remainders forced to zero (pure exponentials): w = 1."""
    one = np.ones(eval_grid.node_shape, dtype=np.complex128)
    rep = cgo.RemainderReport(0.0, 0.0, 0, 0, 0.0)
    alpha = phase.variant is cgo.Variant.DOUBLE_REFLECTION
    return cgo.CgoProbe(phase, eval_grid, one, one, one, one if alpha else None, rep, rep)


def schedule_residual(choice, delta, lam, c, variant, star_norm):
    """Residual of the defining equation of the (r, param) schedule."""
    big_l = math.log1p(abs(math.log(delta) + math.log(star_norm)))
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

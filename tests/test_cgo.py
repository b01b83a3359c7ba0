import dataclasses
import math

import numpy as np
import pytest
import scipy.fft
from conftest import adapted_frame, exp_terms, exponential_probe, offset_probe
from measures import calibrate_min_param
from hypothesis import example, given, settings, strategies as st

from slabinv import cgo, fields, recovery
from slabinv.cgo import (
    ContractionError,
    FrameError,
    ProjectionError,
    Variant,
    box_source,
    build_box_grid,
    build_probe,
    interpolate_box,
    isotropy_residual,
    make_phase_pair,
    norm_identity_residual,
    solve_remainder,
)
from slabinv.fields import FieldError, GridField, extend_even, extend_trivial
from slabinv.geometry import Grid3


# -- phase pairs ---------------------------------------------------------------------


def test_frame_axis_case_and_degenerate():
    # the frame adapted to xi = (0, 2, 0) is e1 = (0, 1, 0), e2 = e3 x e1 =
    # (-1, 0, 0), e3 = (0, 0, 1); the alpha-family rho1 is i (|xi| / 2,
    # alpha |xi|) along (e1, e3) and -sqrt(alpha^2 + 1/4) |xi| along e2
    pp = make_phase_pair((0.0, 2.0, 0.0), Variant.DOUBLE_REFLECTION, 1.0, 0.0)
    assert np.array_equal(pp.rho1, [2 * np.sqrt(1.25), 1j, 2j])
    with pytest.raises(FrameError, match="no lateral component"):
        make_phase_pair((0.0, 0.0, 1.0), Variant.SINGLE_REFLECTION, 1.0, 0.0)


def test_phase_hand_arithmetic():
    pp = make_phase_pair((1.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 1.0, 0.0)
    expected = np.array([0.5j, 1j * np.sqrt(3) / 2, 1.0])
    assert np.max(np.abs(pp.rho1 - expected)) < 1e-15
    assert abs(np.sum(pp.rho1 * pp.rho1)) < 1e-15
    assert np.sqrt(np.sum(np.abs(pp.rho1) ** 2)) == pytest.approx(np.sqrt(2))


def test_phase_sum_is_frequency():
    pp = make_phase_pair((1.3, -0.4, 0.9), Variant.SINGLE_REFLECTION, 3.7, 0.0)
    assert np.max(np.abs(pp.rho1 + pp.rho2 - 1j * pp.xi)) < 1e-12


def test_phase_alpha_norm():
    pp = make_phase_pair((1.0, 0.0, 0.0), Variant.DOUBLE_REFLECTION, 1.0, 0.0)
    assert np.sqrt(np.sum(np.abs(pp.rho1) ** 2)) == pytest.approx(
        np.sqrt(2) * np.sqrt(1.25))


def test_phase_param_below_one_rejected():
    with pytest.raises(FrameError):
        make_phase_pair((1.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 0.5, 0.0)


KS = (0.0, 1.5, 2.5, 4.5)
# two nodes per axis next to the origin: on a box centred there, their
# stencils (mirror images included) read only box nodes near the origin,
# inside the support block of a potential centred there
NEAR_ORIGIN = Grid3(1, 1, 1, 0.125, (0.0, 0.0, 0.125))


@given(
    x1=st.floats(-8, 8), x2=st.floats(-8, 8), x3=st.floats(-8, 8),
    param=st.floats(1.0, 64.0),
    variant=st.sampled_from(list(Variant)),
    k=st.sampled_from(KS),
)
@settings(max_examples=300, deadline=None)
def test_phase_invariants_random(x1, x2, x3, param, variant, k):
    if np.hypot(x1, x2) < 1e-3:
        return
    xi = np.array([x1, x2, x3])
    if variant is Variant.DOUBLE_REFLECTION and param ** 2 + 0.25 <= (k / np.linalg.norm(xi)) ** 2:
        with pytest.raises(FrameError, match="alpha-family"):
            make_phase_pair(xi, variant, param, k)
        return
    pp = make_phase_pair(xi, variant, param, k)
    rho_sq = float(np.sum(np.abs(pp.rho1) ** 2))
    assert isotropy_residual(pp) <= 1e-12 * rho_sq
    assert norm_identity_residual(pp) <= 1e-12
    assert np.max(np.abs(pp.rho1 + pp.rho2 - 1j * xi)) <= 1e-12 * np.sqrt(rho_sq)


def _phase_pair_k0_reference(xi, variant, param):
    """The rho . rho = 0 phases in closed form, as written before k entered
    the phase."""
    e1, e2, e3 = adapted_frame(xi)
    xi_1e, xi3, xin = math.hypot(xi[0], xi[1]), float(xi[2]), float(np.linalg.norm(xi))
    if variant is Variant.SINGLE_REFLECTION:
        root = np.sqrt(param * param - 0.25)
        c1 = (-param * xi3 + 0.5j * xi_1e, 1j * xin * root, param * xi_1e + 0.5j * xi3)
        c2 = (param * xi3 + 0.5j * xi_1e, -1j * xin * root, -param * xi_1e + 0.5j * xi3)
    else:
        root = np.sqrt(param * param + 0.25)
        c1 = (1j * (xi_1e / 2 - param * xi3), -root * xin, 1j * (xi3 / 2 + param * xi_1e))
        c2 = (1j * (xi_1e / 2 + param * xi3), root * xin, 1j * (xi3 / 2 - param * xi_1e))
    return tuple(a * e1 + b * e2 + c * e3 for a, b, c in (c1, c2))


@pytest.mark.parametrize("variant", list(Variant))
def test_phase_carries_k(variant):
    # rho . rho = -k^2 and rho1 + rho2 = i xi at every k; k = 0 gives the
    # isotropic phases bit for bit
    for xi in ((1.0, 0.0, 0.0), (1.5, 0.75, -0.75), (-2.0, 0.5, 1.0), (0.25, -1.0, 2.0)):
        for param in (1.0, 8.0, 64.0):
            ref = _phase_pair_k0_reference(xi, variant, param)
            pp = make_phase_pair(xi, variant, param, 0.0)
            assert np.array_equal(pp.rho1, ref[0]) and np.array_equal(pp.rho2, ref[1])
            for k in KS:
                if variant is Variant.DOUBLE_REFLECTION and param ** 2 + 0.25 <= (
                        k / np.linalg.norm(xi)) ** 2:
                    continue  # see test_phase_alpha_family_rejects_large_k
                pp = make_phase_pair(xi, variant, param, k)
                rho_sq = float(np.sum(np.abs(pp.rho1) ** 2))
                for rho in (pp.rho1, pp.rho2):
                    assert abs(np.sum(rho * rho) + k * k) <= 1e-12 * rho_sq
                assert np.max(np.abs(pp.rho1 + pp.rho2 - 1j * pp.xi)) <= 1e-13 * np.sqrt(rho_sq)
                assert isotropy_residual(pp) <= 1e-12 * rho_sq
                assert norm_identity_residual(pp) <= 1e-12


def test_phase_alpha_family_rejects_large_k():
    # alpha^2 + 1/4 must exceed (k / |xi|)^2: at alpha = 1, |xi| = 1 the
    # limit is k^2 = 1.25
    xi = (1.0, 0.0, 0.0)
    make_phase_pair(xi, Variant.DOUBLE_REFLECTION, 1.0, 1.1)
    for k in (np.sqrt(1.25), 1.2, 4.5):
        with pytest.raises(FrameError, match="alpha-family"):
            make_phase_pair(xi, Variant.DOUBLE_REFLECTION, 1.0, k)
    # the tau-family has no such limit
    make_phase_pair(xi, Variant.SINGLE_REFLECTION, 1.0, 4.5)


# -- remainder solves ----------------------------------------------------------------


@pytest.fixture(scope="module")
def box(geom, grid8):
    return build_box_grid(geom, grid8)


@pytest.fixture(scope="module")
def q_even_box(geom, grid8, bump8, box):
    return extend_even(bump8, box)


def test_box_geometry(geom, grid8, box):
    assert box.periodic and box.z_symmetric()
    assert box.h == grid8.h
    # covers the domain and its mirror image
    assert box.origin[2] <= -geom.L
    assert box.origin[2] + box.nz * box.h >= geom.L
    assert box.origin[0] <= grid8.origin[0]


def test_remainder_zero_rhs(grid8, box):
    # the phase carries k, so Q = 0 (the tau-family second probe) wipes the
    # right-hand side at every k
    q = GridField(box, np.zeros(box.node_shape, dtype=np.complex128))
    for k in KS:
        for variant in Variant:
            pp = make_phase_pair((1.5, 0.75, -0.75), variant, 8.0, k)
            for rho in (pp.rho1, pp.rho2):
                psi, rep = solve_remainder(rho, box_source(q, grid8))
                assert np.max(np.abs(psi.values)) == 0.0
                assert rep.l2 == 0.0 and rep.h1 == 0.0 and rep.iterations == 0


def test_remainder_lattice_cache_keyed_by_spacing():
    # same node count, different spacing: a warm cache must not mix lattices
    rho = np.array([3.0 + 0.5j, 1.0 - 2.0j, 0.5 + 3.5j])
    fields_by_h = []
    for h in (0.75, 0.5):
        grid = Grid3(8, 8, 8, h, (-4 * h,) * 3, periodic=True)
        x, y, z = grid.node_coords()
        prof = 0.3 * np.exp(-(x ** 2 + y ** 2 + z ** 2)) * np.ones(grid.node_shape)
        fields_by_h.append(GridField(grid, prof.astype(np.complex128)))
    warm = [solve_remainder(rho, box_source(q, NEAR_ORIGIN)) for q in fields_by_h]
    for q, (psi, rep) in zip(fields_by_h, warm):
        cgo._box_lattice.cache_clear()
        cold_psi, cold_rep = solve_remainder(rho, box_source(q, NEAR_ORIGIN))
        assert np.array_equal(psi.values, cold_psi.values)
        assert rep == cold_rep


def test_remainder_born_quadratic(geom, grid8, box, bump8, monkeypatch):
    pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 8.0, 0.0)
    diffs = []
    etas = (4e-2, 2e-2, 1e-2)
    for eta in etas:
        q = fields.radial_bump_potential(grid8, geom, eta)
        qb = extend_even(q, box)
        source = box_source(qb, grid8)
        psi, _ = solve_remainder(pp.rho1, source)
        with monkeypatch.context() as m:  # one sweep, the Born term
            m.setattr(cgo, "MAX_SWEEPS", 1)
            m.setattr(cgo, "RESIDUAL_TOL", np.inf)
            single, _ = solve_remainder(pp.rho1, source)
        diffs.append(np.sqrt(np.sum(np.abs(psi.values - single.values) ** 2)))
    slope = np.polyfit(np.log(etas), np.log(diffs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_remainder_dense_oracle(geom):
    # independent dense solve of the conjugated system on a tiny box
    grid = Grid3(8, 8, 8, 0.75, (-3.0, -3.0, -3.0), periodic=True)
    rng = np.random.default_rng(17)
    x, y, z = grid.node_coords()
    prof = (np.exp(-(x ** 2 + y ** 2 + z ** 2))
            * (np.abs(x) < 2) * (np.abs(y) < 2) * (np.abs(z) < 2))
    q = GridField(grid, (0.8 * prof * np.ones(grid.node_shape)).astype(np.complex128))
    rho = np.array([3.0 + 0.5j, 1.0 - 2.0j, 0.5 + 3.5j])
    rho = rho / np.sqrt(abs(np.sum(rho * rho))) * 6.0  # not isotropic on purpose

    source = box_source(q, NEAR_ORIGIN)
    psi, rep = solve_remainder(rho, source)

    # dense operator: psi - G[rhs * psi] = G[rhs], same shifted lattice
    n = grid.node_shape[0]
    shift = cgo.LATTICE_SHIFT
    zetas, mods = [], []
    for axis in range(3):
        freq = 2 * np.pi * (scipy.fft.fftfreq(n, d=grid.h) + shift[axis] / (n * grid.h))
        zetas.append(freq)
        mods.append(np.exp(-2j * np.pi * shift[axis] * np.arange(n) / n))
    z0 = zetas[0][:, None, None]
    z1 = zetas[1][None, :, None]
    z2 = zetas[2][None, None, :]
    mod = mods[0][:, None, None] * mods[1][None, :, None] * mods[2][None, None, :]
    symbol = (z0 ** 2 + z1 ** 2 + z2 ** 2) - 2j * (rho[0] * z0 + rho[1] * z1 + rho[2] * z2)
    keep = np.abs(symbol) >= 1e-8 * float(np.sum(np.abs(rho) ** 2))
    mult = np.where(keep, 1.0 / np.where(keep, symbol, 1.0), 0.0)

    def greens(arr):
        return scipy.fft.ifftn(mult * scipy.fft.fftn(arr * mod)) * np.conj(mod)

    rhs = -q.values
    ntot = rhs.size
    eye = np.eye(ntot, dtype=np.complex128)
    cols = np.empty((ntot, ntot), dtype=np.complex128)
    for j in range(ntot):
        e = eye[:, j].reshape(grid.node_shape)
        cols[:, j] = (e - greens(rhs * e)).reshape(-1)
    dense = np.linalg.solve(cols, greens(rhs).reshape(-1)).reshape(grid.node_shape)
    # psi is returned on its window, here the support block
    assert source.window == source.block
    rel = (np.linalg.norm(dense[source.window] - psi.values)
           / np.linalg.norm(dense[source.window]))
    assert rel <= 1e-8


def test_remainder_non_contraction_error(geom, grid8, box):
    big = fields.radial_bump_potential(grid8, geom, 400.0)
    qb = extend_even(big, box)
    pp = make_phase_pair((1.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 1.0, 0.0)
    with pytest.raises(ContractionError, match="parameter"):
        solve_remainder(pp.rho1, box_source(qb, grid8))


def test_remainder_projection_guard(grid8, box, q_even_box, monkeypatch):
    pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 4.0, 0.0)
    monkeypatch.setattr(cgo, "PROJECTION_REL", 10.0)
    with pytest.raises(ProjectionError):
        solve_remainder(pp.rho1, box_source(q_even_box, grid8))
    # psi = 0 solves a zero source's equation exactly, so it returns before
    # any symbol is formed: its lattice is never read and no mode is projected
    q_zero = GridField(box, np.zeros(box.node_shape, dtype=np.complex128))
    zero = dataclasses.replace(box_source(q_zero, grid8), lattice=None)
    psi, rep = solve_remainder(pp.rho1, zero)
    assert not np.any(psi.values)
    assert rep.projected_modes == 0 and rep.iterations == 0 and rep.residual == 0.0


def test_remainder_decay_slope_small_box(geom, grid8, q_even_box):
    taus = np.array([4.0, 8.0, 16.0, 32.0])
    source = box_source(q_even_box, grid8)
    l2s, h1s = [], []
    for tau in taus:
        pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, tau, 0.0)
        _, rep = solve_remainder(pp.rho1, source)
        l2s.append(rep.l2)
        h1s.append(rep.h1)
    slope = np.polyfit(np.log(taus), np.log(l2s), 1)[0]
    assert -1.2 <= slope <= -0.8
    # first-derivative norm bounded uniformly in tau
    assert max(h1s) <= 1.2 * h1s[0]


def test_reflection_commutes_with_remainder(geom, grid8, q_even_box):
    # for even Q the reflected remainder solves the equation with the
    # reflected phase vector
    pp = make_phase_pair((1.5, 0.7, 1.1), Variant.SINGLE_REFLECTION, 6.0, 0.0)
    source = box_source(q_even_box, NEAR_ORIGIN)
    psi, _ = solve_remainder(pp.rho1, source)
    rho_star = np.array([pp.rho1[0], pp.rho1[1], -pp.rho1[2]])
    psi_star, _ = solve_remainder(rho_star, source)
    # the stencils of NEAR_ORIGIN read nodes inside the support block, so the
    # window is the block of the even Q, symmetric in x3 and away from the
    # seam, and the reflection flips it
    assert psi.grid.z_symmetric() and source.window[2].start > 0
    assert np.max(np.abs(fields.reflect(psi).values - psi_star.values)) < 1e-10


def _lattice_modulation(grid):
    """exp(-2 pi i shift j / n) over the box: multiplied in before a plain FFT
    (and its conjugate after the inverse), it makes the transform one on the
    shifted lattice."""
    phases = np.zeros(grid.node_shape)
    for axis, n in enumerate(grid.node_shape):
        shape = [1, 1, 1]
        shape[axis] = n
        phases = phases + (cgo.LATTICE_SHIFT[axis] * np.arange(n) / n).reshape(shape)
    return np.exp(-2j * np.pi * phases)


def _box_transforms(grid):
    """The box DFT on the shifted lattice and its inverse, as modulated FFTs."""
    mod = _lattice_modulation(grid)
    return (lambda arr: scipy.fft.fftn(arr * mod),
            lambda spec: scipy.fft.ifftn(spec) * np.conj(mod))


def _box_symbol(rho, grid):
    """|zeta|^2 - 2 i rho . zeta on the box's shifted lattice."""
    z0, z1, z2, zeta_sq = cgo._box_lattice(grid)
    return zeta_sq - 2j * (rho[0] * z0 + rho[1] * z1 + rho[2] * z2)


def _four_mode_projection(rho, grid):
    """A PROJECTION_REL between the fourth and fifth smallest |symbol|, so
    that four modes are projected."""
    mags = np.sort(np.abs(_box_symbol(rho, grid)).ravel())
    return 0.5 * (mags[3] + mags[4]) / float(np.sum(np.abs(rho) ** 2))


def _sweep_lipschitz(symbol, keep, rhs):
    """max|r| sqrt(min(max |1/s|^2, n_src sum |1/s|^2 / N)) over the kept
    modes of the box symbol s, for the source r = -Q with n_src nonzero
    nodes.  The sweep's linear part is D F R F^-1, with D = diag(1/s) on the
    kept modes, R = diag(r) and F the DFT of the N box nodes (F^H F = N I),
    so its norm is at most max|r| min(|D|_2, |D F_S|_F / sqrt(N)), F_S the
    columns of F at the nonzero nodes, whose entries have modulus one."""
    inv_sq = 1.0 / np.abs(symbol[keep]) ** 2
    return float(np.max(np.abs(rhs))
                 * np.sqrt(min(inv_sq.max(), np.count_nonzero(rhs) * inv_sq.sum() / rhs.size)))


def _solve_remainder_reference(rho, qfield, max_iter=400, residual_tol=1e-8,
                               projection_rel=1e-8):
    """The remainder fixed point iterated on psi itself over the whole box,
    by modulated FFTs, with fresh transforms for the residual and the H1
    norm; the source is -Q, and a zero source gives psi = 0 at once.  It
    stops once the increment is at most tol = 1e-14 max(1, |psi|) or
    Banach's a-posteriori bound L inc / (1 - L), L from `_sweep_lipschitz`,
    is."""
    grid = qfield.grid
    rho = np.asarray(rho, dtype=np.complex128)
    rho_sq = float(np.sum(np.abs(rho) ** 2))
    vol_factor = grid.h ** 3
    n_total = qfield.values.size
    zeta_sq = cgo._box_lattice(grid)[3]
    tf, itf = _box_transforms(grid)
    rhs_base = -qfield.values
    if np.max(np.abs(rhs_base)) == 0.0:  # psi = 0 solves it exactly
        psi = GridField(grid, np.zeros(grid.node_shape, dtype=np.complex128))
        return psi, cgo.RemainderReport(0.0, 0.0, 0, 0, 0.0)
    symbol = _box_symbol(rho, grid)
    keep = np.abs(symbol) >= projection_rel * rho_sq
    projected = int(n_total - np.count_nonzero(keep))
    if projected > 1e-3 * n_total:
        raise ProjectionError("too many projected modes")
    mult = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)
    lip = _sweep_lipschitz(symbol, keep, rhs_base)

    psi = np.zeros(grid.node_shape, dtype=np.complex128)
    inc_hist = []
    grew = 0
    for it in range(1, max_iter + 1):
        new = itf(mult * tf(rhs_base * (1.0 + psi)))
        inc = float(np.sqrt(np.sum(np.abs(new - psi) ** 2) * vol_factor))
        psi = new
        if inc_hist and inc > inc_hist[-1]:
            grew += 1
            if grew >= 5:
                raise ContractionError("remainder iteration diverging")
        else:
            grew = 0
        inc_hist.append(inc)
        tol = 1e-14 * max(1.0, float(np.sqrt(np.sum(np.abs(psi) ** 2) * vol_factor)))
        if inc <= tol or lip * inc <= (1.0 - lip) * tol:
            break

    psi_hat = tf(psi)
    rhs_hat = tf(rhs_base * (1.0 + psi))
    lhs_hat = symbol * psi_hat
    num = np.sqrt(np.sum(np.abs(lhs_hat[keep] - rhs_hat[keep]) ** 2))
    den = np.sqrt(np.sum(np.abs(rhs_hat[keep]) ** 2))
    residual = float(num / den) if den > 0 else 0.0
    if residual > residual_tol:
        raise ContractionError("remainder residual above tolerance")
    l2 = float(np.sqrt(np.sum(np.abs(psi) ** 2) * vol_factor))
    grad_sq = np.sum(zeta_sq * np.abs(psi_hat) ** 2) * vol_factor / n_total
    h1 = float(np.sqrt(l2 ** 2 + grad_sq))
    return GridField(grid, psi), cgo.RemainderReport(l2, h1, it, projected, residual)


@pytest.fixture(scope="module")
def box2(geom, grid8):
    return build_box_grid(geom, grid8, coarsen=2)


@pytest.fixture(scope="module")
def box2_potentials(geom, grid8, bump8, box2):
    return {"bump": extend_even(bump8, box2),
            "zero": extend_trivial(fields.zero_potential(grid8, geom), box2)}


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [0.0, 1.5])
@pytest.mark.parametrize("potential", ["bump", "zero"])
def test_remainder_matches_reference_loop(grid8, box2_potentials, variant, k, potential):
    q = box2_potentials[potential]
    pp = make_phase_pair((1.5, 0.75, -0.75), variant, 16.0, k)
    for cold in (True, False):
        if cold:
            cgo._box_lattice.cache_clear()
        source = box_source(q, grid8)
        psi, rep = solve_remainder(pp.rho1, source)
        ref, ref_rep = _solve_remainder_reference(pp.rho1, q)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(psi.values - ref.values[source.window])) <= 1e-12 * scale
        assert rep.l2 == pytest.approx(ref_rep.l2, rel=1e-12, abs=0.0)
        assert rep.h1 == pytest.approx(ref_rep.h1, rel=1e-12, abs=0.0)
        assert rep.iterations == ref_rep.iterations
        assert rep.projected_modes == ref_rep.projected_modes
        assert max(rep.residual, ref_rep.residual) <= 1e-8
        assert abs(rep.residual - ref_rep.residual) <= 1e-13
    assert (rep.iterations == 0) == (potential == "zero")


@pytest.mark.parametrize("k", [0.0, 1.5])
def test_remainder_projected_modes_match_reference(grid8, box2_potentials, k, monkeypatch):
    # a threshold between the fourth and fifth smallest |symbol| projects
    # four modes: the sweeps and the residual leave them out
    q = box2_potentials["bump"]
    rho = make_phase_pair((1.5, 0.75, -0.75), Variant.SINGLE_REFLECTION, 16.0,
                          k).rho1
    rel = _four_mode_projection(rho, q.grid)
    monkeypatch.setattr(cgo, "PROJECTION_REL", rel)
    source = box_source(q, grid8)
    psi, rep = solve_remainder(rho, source)
    ref, ref_rep = _solve_remainder_reference(rho, q, projection_rel=rel)
    assert rep.projected_modes == ref_rep.projected_modes == 4
    assert (np.max(np.abs(psi.values - ref.values[source.window]))
            <= 1e-12 * np.max(np.abs(ref.values)))
    assert rep.l2 == pytest.approx(ref_rep.l2, rel=1e-12, abs=0.0)
    assert rep.h1 == pytest.approx(ref_rep.h1, rel=1e-12, abs=0.0)
    assert rep.iterations == ref_rep.iterations
    assert abs(rep.residual - ref_rep.residual) <= 1e-13


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [0.0, 1.5])
@pytest.mark.parametrize("projected", [0, 4])
def test_sweep_lipschitz_bounds_the_sweep_map(box2_potentials, variant, k, projected):
    # L bounds |K delta| / |delta| for the sweep's linear part
    # K = mult F R F^-1, at a seeded random delta and at the power iterates
    # of K^H K from it, which come within a few times of L
    q = box2_potentials["bump"]
    rho = make_phase_pair((1.5, 0.75, -0.75), variant, 16.0, k).rho1
    symbol = _box_symbol(rho, q.grid)
    rel = _four_mode_projection(rho, q.grid) if projected else cgo.PROJECTION_REL
    keep = np.abs(symbol) >= rel * float(np.sum(np.abs(rho) ** 2))
    assert np.count_nonzero(~keep) == projected
    mult = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)
    r = -q.values
    lip = _sweep_lipschitz(symbol, keep, r)
    tf, itf = _box_transforms(q.grid)
    rng = np.random.default_rng(7)
    delta = rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
    ratios = []
    for _ in range(20):
        image = mult * tf(r * itf(delta))
        ratios.append(np.linalg.norm(image) / np.linalg.norm(delta))
        delta = tf(np.conj(r) * itf(np.conj(mult) * image))
    assert 0.1 * lip <= max(ratios) <= lip


def _fixed_point_spectrum(rho, q, sweeps=30):
    """psi_hat after a fixed number of whole-box sweeps from zero, far more
    than the contraction needs to reach rounding."""
    tf, itf = _box_transforms(q.grid)
    symbol = _box_symbol(rho, q.grid)
    keep = np.abs(symbol) >= cgo.PROJECTION_REL * float(np.sum(np.abs(rho) ** 2))
    mult = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)
    psi_hat = np.zeros(q.grid.node_shape, dtype=np.complex128)
    for _ in range(sweeps):
        psi_hat = mult * tf(-q.values * (1.0 + itf(psi_hat)))
    return psi_hat


def _stopped_within_tolerance(rho, source, q):
    """Solve; check that psi_hat lies within tol = 1e-14 max(1, l2) of the
    fixed point in the Parseval norm; return the report, tol and the last
    increment."""
    traced, calls = _traced(source)
    _, rep = solve_remainder(rho, traced)
    (psi_hat,) = calls["to_window"]
    parseval = q.grid.h ** 3 / q.grid.n_nodes
    tol = 1e-14 * max(1.0, rep.l2)
    error = np.sqrt(np.sum(np.abs(psi_hat - _fixed_point_spectrum(rho, q)) ** 2) * parseval)
    assert error <= tol, (error, tol)
    inc = np.sqrt(np.sum(np.abs(psi_hat - calls["to_block"][-1]) ** 2) * parseval)
    return rep, tol, inc


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [0.0, 1.5])
def test_remainder_within_tolerance_of_the_fixed_point(grid8, box2_potentials, variant, k):
    q = box2_potentials["bump"]
    rho = make_phase_pair((1.5, 0.75, -0.75), variant, 16.0, k).rho1
    rep, _, _ = _stopped_within_tolerance(rho, box_source(q, grid8), q)
    assert rep.residual <= cgo.RESIDUAL_TOL


@pytest.mark.parametrize("variant", list(Variant))
def test_bench_probe_stops_after_two_sweeps(geom, grid8, born_pair8, variant):
    # the benchmark's probe xi = (1.5, 0.75, 0) at parameter 8 (Born pair,
    # box coarsen 2): its second increment is far above tol, but L times it
    # is not, so no third sweep runs only to confirm it
    ws = recovery.make_workspace(*born_pair8, 0.0, variant, box_coarsen=2)
    q = extend_even(born_pair8[0], ws.src1.grid)
    rho = make_phase_pair((1.5, 0.75, 0.0), variant, 8.0, 0.0).rho1
    rep, tol, inc = _stopped_within_tolerance(rho, ws.src1, q)
    assert rep.iterations == 2 and inc > 100 * tol
    assert 0 < rep.residual <= cgo.RESIDUAL_TOL


def test_remainder_contraction_error_matches_reference(geom, grid8, box2):
    qb = extend_even(fields.radial_bump_potential(grid8, geom, 400.0), box2)
    pp = make_phase_pair((1.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 1.0, 0.0)
    with pytest.raises(ContractionError):
        _solve_remainder_reference(pp.rho1, qb)
    with pytest.raises(ContractionError):
        solve_remainder(pp.rho1, box_source(qb, grid8))


@pytest.fixture
def fft_counter(monkeypatch):
    counts = {}
    for module in (np.fft, scipy.fft):
        for name in ("fftn", "ifftn", "fft", "ifft"):
            key = f"{module.__name__}.{name}"
            counts[key] = 0

            def counted(*args, _orig=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def test_remainder_fft_budget(grid8, box2_potentials, fft_counter):
    q = box2_potentials["bump"]
    # set-up: the first spectrum of the support block is a pruned DFT, for
    # a window wider than the block and for one that is the block
    windowed = box_source(q, grid8)
    bare = box_source(q, NEAR_ORIGIN)
    block = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(q.values))
    assert windowed.block == bare.block == bare.window == block != windowed.window
    # every sweep and the last inverse onto the window are pruned DFTs, at
    # every k and whatever the iteration count
    iterations = set()
    for k in KS:
        for param in (2.0, 8.0, 64.0):
            pp = make_phase_pair((2.0, -0.5, 1.0), Variant.DOUBLE_REFLECTION, param, k)
            for source in (windowed, bare):
                psi, rep = solve_remainder(pp.rho1, source)
                assert psi.grid == source.window_grid
                iterations.add(rep.iterations)
    assert len(iterations) > 1 and 0 not in iterations
    # a zero source transforms nothing
    zero = box_source(box2_potentials["zero"], grid8)
    assert not zero.block and zero.spectrum is None
    _, rep = solve_remainder(pp.rho1, zero)
    assert rep.iterations == 0
    assert not any(fft_counter.values()), fft_counter


def _full_box_residual(rho, q, psi_hat, projection_rel=1e-8):
    """||kept(symbol psi_hat - spec)|| / ||kept(spec)|| over the whole box,
    spec the transform of -Q (1 + psi) for the psi of psi_hat, both
    transforms modulated FFTs of the box."""
    grid = q.grid
    rho = np.asarray(rho, dtype=np.complex128)
    tf, itf = _box_transforms(grid)
    symbol = _box_symbol(rho, grid)
    keep = np.abs(symbol) >= projection_rel * float(np.sum(np.abs(rho) ** 2))
    spec = tf(-q.values * (1.0 + itf(psi_hat)))
    return float(np.linalg.norm((symbol * psi_hat - spec)[keep])
                 / np.linalg.norm(spec[keep]))


def _residual_matches_full_box(rep, full):
    # the two agree to 1e-12 relative while the residual is far above
    # rounding; a converged residual is rounding noise in both (below 1e-18
    # by Parseval, up to about 1e-15 through the box FFTs)
    return abs(rep.residual - full) <= 1e-12 * full + 1e-14


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [0.0, 1.5])
@pytest.mark.parametrize("sweeps", [1, 2, 3, None])
def test_parseval_residual_matches_full_box(grid8, box2_potentials, variant, k, sweeps,
                                            monkeypatch):
    # the reference-loop cases, stopped after 1, 2 or 3 sweeps (residuals
    # from 3e-4 down to 1e-11) or converged (None), on a source whose window
    # is the block and on one whose window is wider; psi on the block comes
    # from the window transform in both
    q = box2_potentials["bump"]
    rho = make_phase_pair((1.5, 0.75, -0.75), variant, 16.0, k).rho1
    if sweeps is not None:
        monkeypatch.setattr(cgo, "MAX_SWEEPS", sweeps)
        monkeypatch.setattr(cgo, "RESIDUAL_TOL", np.inf)
    bare, windowed = box_source(q, NEAR_ORIGIN), box_source(q, grid8)
    assert bare.window == bare.block != windowed.window
    for source in (bare, windowed):
        traced, calls = _traced(source)
        _, rep = solve_remainder(rho, traced)
        (psi_hat,) = calls["to_window"]
        assert rep == solve_remainder(rho, source)[1]
        assert rep.iterations == (sweeps or _solve_remainder_reference(rho, q)[1].iterations)
        full = _full_box_residual(rho, q, psi_hat)
        if sweeps == 1:  # far above rounding, so the relative bound binds
            assert full > 1e-4
        assert _residual_matches_full_box(rep, full), (rep.residual, full)


@pytest.mark.parametrize("sweeps", [2, None])
def test_projected_residual_matches_full_box(grid8, box2_potentials, sweeps, monkeypatch):
    # four projected modes keep the full-box formula
    q = box2_potentials["bump"]
    rho = make_phase_pair((1.5, 0.75, -0.75), Variant.SINGLE_REFLECTION, 16.0,
                          0.0).rho1
    rel = _four_mode_projection(rho, q.grid)
    monkeypatch.setattr(cgo, "PROJECTION_REL", rel)
    if sweeps is not None:  # None: run to convergence
        monkeypatch.setattr(cgo, "MAX_SWEEPS", sweeps)
        monkeypatch.setattr(cgo, "RESIDUAL_TOL", np.inf)
    source, calls = _traced(box_source(q, grid8))
    _, rep = solve_remainder(rho, source)
    (psi_hat,) = calls["to_window"]
    assert rep.projected_modes == 4
    full = _full_box_residual(rho, q, psi_hat, projection_rel=rel)
    assert _residual_matches_full_box(rep, full), (rep.residual, full)


@pytest.mark.parametrize("sweeps", [2, None])
def test_residual_of_a_window_grown_to_the_block(box2_potentials, sweeps, monkeypatch):
    # the stencils of NEAR_ORIGIN read nodes inside the support block, so
    # the window grows to the block
    q = box2_potentials["bump"]
    source = box_source(q, NEAR_ORIGIN)
    assert source.window == source.block
    assert source.block_in_window == tuple(slice(0, b.stop - b.start) for b in source.block)
    rho = make_phase_pair((2.0, -0.5, 1.0), Variant.DOUBLE_REFLECTION, 16.0,
                          0.0).rho1
    if sweeps is not None:  # None: run to convergence
        monkeypatch.setattr(cgo, "MAX_SWEEPS", sweeps)
        monkeypatch.setattr(cgo, "RESIDUAL_TOL", np.inf)
    traced, calls = _traced(source)
    psi, rep = solve_remainder(rho, traced)
    (psi_hat,) = calls["to_window"]
    assert rep == solve_remainder(rho, source)[1]
    assert np.array_equal(psi.values, source.to_window(psi_hat))
    full = _full_box_residual(rho, q, psi_hat)
    assert _residual_matches_full_box(rep, full), (rep.residual, full)


def _traced(source):
    """The source with the input of each call of its three transforms
    recorded: the window transform's input is the solve's psi_hat."""
    calls = {"to_block": [], "from_block": [], "to_window": []}

    def traced(name):
        fn = getattr(source, name)

        def call(arr):
            calls[name].append(arr)
            return fn(arr)
        return call

    return dataclasses.replace(source, **{name: traced(name) for name in calls}), calls


def test_converged_solve_transform_count(grid8, box2_potentials):
    # the stop rule runs before each sweep's pair of block transforms, and
    # the residual reads psi on the block from the window transform, for a
    # window wider than the block (grid8) and for one that is the block
    q = box2_potentials["bump"]
    for variant in Variant:
        rho = make_phase_pair((2.0, -0.5, 1.0), variant, 8.0, 1.5).rho1
        for eval_grid in (grid8, NEAR_ORIGIN):
            source, calls = _traced(box_source(q, eval_grid))
            _, rep = solve_remainder(rho, source)
            assert rep.iterations > 1
            assert {name: len(args) for name, args in calls.items()} == {
                "to_block": rep.iterations - 1, "from_block": rep.iterations - 1,
                "to_window": 1}


_PROPERTY_BOX = Grid3(12, 12, 12, 0.25, (-1.5, -1.5, -1.5), periodic=True)


@settings(max_examples=40, deadline=None)
@given(lo=st.tuples(*[st.integers(0, 11)] * 3), width=st.tuples(*[st.integers(1, 12)] * 3),
       k=st.sampled_from(KS), variant=st.sampled_from(list(Variant)),
       seed=st.integers(0, 2 ** 31))
@example(lo=(0, 5, 3), width=(4, 3, 5), k=0.0, variant=Variant.SINGLE_REFLECTION, seed=1)
@example(lo=(2, 9, 8), width=(3, 3, 4), k=0.0, variant=Variant.DOUBLE_REFLECTION, seed=2)
@example(lo=(10, 7, 11), width=(5, 4, 3), k=0.0, variant=Variant.SINGLE_REFLECTION, seed=3)
@example(lo=(4, 0, 6), width=(1, 12, 1), k=0.0, variant=Variant.DOUBLE_REFLECTION, seed=4)
@example(lo=(3, 3, 3), width=(6, 6, 6), k=0.8, variant=Variant.SINGLE_REFLECTION, seed=5)
@example(lo=(0, 0, 0), width=(12, 12, 12), k=0.0, variant=Variant.DOUBLE_REFLECTION, seed=6)
# contracts too slowly for 400 sweeps at parameter 8 in both loops
@example(lo=(0, 0, 0), width=(12, 12, 12), k=0.0, variant=Variant.SINGLE_REFLECTION, seed=40)
def test_remainder_support_block_matches_reference(lo, width, k, variant, seed):
    # compact supports anywhere in the box: touching index 0 or n - 1,
    # wrapping across the periodic edge, one node wide, or the whole box;
    # the window also holds the stencils of NEAR_ORIGIN
    box = _PROPERTY_BOX
    rng = np.random.default_rng(seed)
    idx = np.ix_(*[(a + np.arange(m)) % n for a, m, n in zip(lo, width, box.node_shape)])
    values = np.zeros(box.node_shape, dtype=np.complex128)
    values[idx] = rng.uniform(0.2, 1.0, values[idx].shape) * rng.choice([-1.0, 1.0])
    q = GridField(box, values)
    xi = rng.uniform(-2.0, 2.0, 3)
    xi[0] += 1.0 if xi[0] >= 0 else -1.0
    pp = make_phase_pair(xi, variant, 8.0, k)
    try:
        ref, ref_rep = _solve_remainder_reference(pp.rho1, q)
    except ContractionError:
        # a support too strong for the parameter diverges in both loops
        with pytest.raises(ContractionError):
            solve_remainder(pp.rho1, box_source(q, NEAR_ORIGIN))
        return
    source = box_source(q, NEAR_ORIGIN)
    psi, rep = solve_remainder(pp.rho1, source)
    assert (np.max(np.abs(psi.values - ref.values[source.window]))
            <= 1e-12 * np.max(np.abs(ref.values)))
    assert rep.iterations == ref_rep.iterations
    assert rep.projected_modes == ref_rep.projected_modes


def _stencil_nodes(box, eval_grid, axis):
    """The box indices t of the evaluation nodes along `axis` (on the third,
    with their mirror images), and whether they all lie on box nodes 0 to
    n - 1, so that no 2-tap stencil wraps."""
    c = eval_grid.axis_nodes(axis)
    if axis == 2:
        c = np.concatenate([c, -c])
    t = (c - box.origin[axis]) / box.h
    return t, -1e-9 <= t.min() and t.max() <= box.node_shape[axis] - 1 + 1e-9


@settings(max_examples=100, deadline=None)
@given(lo=st.tuples(*[st.integers(0, 11)] * 3), width=st.tuples(*[st.integers(1, 12)] * 3),
       eval_origin=st.tuples(*[st.floats(-1.7, 1.2)] * 3),
       eval_cells=st.tuples(*[st.integers(1, 6)] * 3),
       eval_h=st.sampled_from([0.1, 0.125, 0.25, 0.3]),
       k=st.sampled_from(KS), variant=st.sampled_from(list(Variant)),
       seed=st.integers(0, 2 ** 31))
# windows reaching index 0 (x) and index n - 1 (y), strictly inside the box
@example(lo=(3, 4, 4), width=(5, 4, 3), eval_origin=(-1.5, 0.05, 0.1), eval_cells=(4, 4, 2),
         eval_h=0.25, k=0.0, variant=Variant.SINGLE_REFLECTION, seed=1)
# a support block far from the stencils: the window spans both
@example(lo=(0, 9, 0), width=(2, 3, 2), eval_origin=(0.1, -1.2, 0.05), eval_cells=(2, 2, 2),
         eval_h=0.125, k=0.8, variant=Variant.DOUBLE_REFLECTION, seed=4)
# the last box node on every axis, read exactly
@example(lo=(5, 5, 5), width=(2, 2, 2), eval_origin=(0.75, 0.75, 0.25), eval_cells=(2, 2, 1),
         eval_h=0.25, k=0.0, variant=Variant.SINGLE_REFLECTION, seed=5)
# x and z ranges would wrap across the periodic edge: FieldError
@example(lo=(2, 9, 8), width=(3, 3, 4), eval_origin=(-1.7, -0.4, 0.0), eval_cells=(3, 2, 6),
         eval_h=0.25, k=0.0, variant=Variant.DOUBLE_REFLECTION, seed=2)
# every range would wrap: FieldError
@example(lo=(4, 4, 4), width=(4, 4, 4), eval_origin=(-1.6, -1.6, 0.0), eval_cells=(6, 6, 6),
         eval_h=0.3, k=0.8, variant=Variant.SINGLE_REFLECTION, seed=3)
def test_remainder_window_matches_whole_box(lo, width, eval_origin, eval_cells, eval_h, k,
                                            variant, seed):
    # psi on the window of any support and evaluation grid is the reference
    # loop's whole-box psi there, and the window holds the block and every
    # node the stencils read
    box = _PROPERTY_BOX
    rng = np.random.default_rng(seed)
    idx = np.ix_(*[(a + np.arange(m)) % n for a, m, n in zip(lo, width, box.node_shape)])
    values = np.zeros(box.node_shape, dtype=np.complex128)
    values[idx] = rng.uniform(0.2, 1.0, values[idx].shape) * rng.choice([-1.0, 1.0])
    q = GridField(box, values)
    eval_grid = Grid3(*eval_cells, eval_h, eval_origin)
    if not all(_stencil_nodes(box, eval_grid, axis)[1] for axis in range(3)):
        with pytest.raises(FieldError, match="does not cover"):
            box_source(q, eval_grid)
        return
    source = box_source(q, eval_grid)
    # per axis the smallest range that holds the block and the stencils'
    # nodes, the left tap clamped to n - 2
    for axis, (w, b) in enumerate(zip(source.window, source.block)):
        taps = np.clip(np.floor(_stencil_nodes(box, eval_grid, axis)[0]), 0,
                       box.node_shape[axis] - 2)
        assert (w.start, w.stop) == (min(b.start, int(taps.min())),
                                     max(b.stop, int(taps.max()) + 2))
        assert np.allclose(source.window_grid.axis_nodes(axis), box.axis_nodes(axis)[w],
                           rtol=0, atol=1e-12)
    assert not source.window_grid.periodic
    xi = rng.uniform(-2.0, 2.0, 3)
    xi[0] += 1.0 if xi[0] >= 0 else -1.0
    pp = make_phase_pair(xi, variant, 8.0, k)
    try:
        full, full_rep = _solve_remainder_reference(pp.rho1, q)
    except ContractionError:
        # a support too strong for the parameter diverges on the window too
        with pytest.raises(ContractionError):
            solve_remainder(pp.rho1, source)
        return
    psi, rep = solve_remainder(pp.rho1, source)
    assert psi.grid == source.window_grid
    scale = np.max(np.abs(full.values))
    assert np.max(np.abs(psi.values - full.values[source.window])) <= 1e-12 * scale
    assert rep.iterations == full_rep.iterations
    assert rep.projected_modes == full_rep.projected_modes
    # the window holds every node the stencils read
    for got, want in zip(interpolate_box(psi, eval_grid, True), interpolate_box(full, eval_grid, True)):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_window_stencils_that_wrap_are_rejected(box2_potentials):
    # nodes beyond the box's last node (or their mirror images below its
    # first) would read across the periodic edge
    q = box2_potentials["bump"]
    last = q.grid.axis_nodes(0)[-1]
    for eval_grid, axis in ((Grid3(1, 1, 1, 0.1, (last - 0.05, 0.0, 0.1)), 0),
                            (Grid3(1, 1, 1, 0.1, (0.0, 0.0, last - 0.05)), 2)):
        with pytest.raises(FieldError, match=f"axis {axis}"):
            box_source(q, eval_grid)
    # up to the last node is fine: its stencil's left tap is node n - 2
    source = box_source(q, Grid3(1, 1, 1, 0.25, (last - 0.25, 0.0, 0.0)))
    assert source.window[0].stop == q.grid.nx


# -- probes --------------------------------------------------------------------------


def test_probe_vanishes_on_bottom_plate(geom, grid8, bump8, box):
    q2b = extend_trivial(fields.zero_potential(grid8, geom), box)
    q1b = extend_even(bump8, box)
    for variant in Variant:
        q2 = extend_even(bump8, box) if variant is Variant.DOUBLE_REFLECTION else q2b
        pp = make_phase_pair((1.2, 0.5, -0.8), variant, 4.0, 0.0)
        probe = offset_probe(build_probe(pp, box_source(q1b, grid8),
                                         box_source(q2, grid8)))
        assert np.max(np.abs(probe.u1.values[:, :, 0])) == 0.0
        if variant is Variant.DOUBLE_REFLECTION:
            assert np.max(np.abs(probe.u2.values[:, :, 0])) == 0.0


def test_probe_rejects_sources_for_another_eval_grid(geom, grid8, box, box2):
    # a probe lives on the evaluation grid of its sources, which must share
    # it and their box grid
    zb = extend_trivial(fields.zero_potential(grid8, geom), box)
    zb2 = extend_trivial(fields.zero_potential(grid8, geom), box2)
    pp = make_phase_pair((1.2, 0.5, -0.8), Variant.SINGLE_REFLECTION, 4.0, 0.0)
    other = Grid3(4, 4, 4, 0.25, (-0.5, -0.5, 0.0))
    for src2 in (box_source(zb, grid8), box_source(zb2, other)):
        with pytest.raises(FieldError, match="share one box grid and one evaluation grid"):
            build_probe(pp, box_source(zb, other), src2)
    probe = build_probe(pp, box_source(zb, other), box_source(zb, other))
    assert probe.eval_grid == other
    assert probe.w1.shape == probe.w1_star.shape == probe.w2.shape == other.node_shape


def test_probe_free_case_closed_form(geom, grid8, box):
    # q1 = q2 = 0, k = 0: remainders vanish and the probe product reduces to
    # pure exponentials
    zero = box_source(extend_trivial(fields.zero_potential(grid8, geom), box), grid8)
    pp = make_phase_pair((1.0, 0.8, 0.6), Variant.SINGLE_REFLECTION, 3.0, 0.0)
    xi_1e = np.hypot(*pp.xi[:2])
    built = build_probe(pp, zero, zero)
    assert built.report1.l2 == built.report2.l2 == 0.0
    probe = offset_probe(built)
    rng = np.random.default_rng(31)
    x, y, z = grid8.node_coords()
    xf = np.broadcast_to(x, grid8.node_shape)
    yf = np.broadcast_to(y, grid8.node_shape)
    zf = np.broadcast_to(z, grid8.node_shape)
    idx = tuple(rng.integers(0, s, size=10) for s in grid8.node_shape)
    pts = np.stack([xf[idx], yf[idx], zf[idx]], axis=1)
    prod = (probe.u1.values[idx] * probe.u2.values[idx]
            * np.exp(probe.u1.log_offset + probe.u2.log_offset))
    for point, got in zip(pts, prod):
        direct = np.exp(1j * point @ pp.xi)
        x1e = point[:2] @ pp.xi[:2] / xi_1e
        reflected = np.exp(1j * x1e * xi_1e - 2 * pp.param * xi_1e * point[2])
        assert abs(got - (direct - reflected)) < 1e-10 * max(1.0, abs(direct - reflected))


def test_exponential_factorization(geom, grid8, box):
    # exp(x.rho1) exp(x.rho2) = exp(i x.xi) at every node
    zero = box_source(extend_trivial(fields.zero_potential(grid8, geom), box), grid8)
    pp = make_phase_pair((2.0, -1.0, 1.5), Variant.SINGLE_REFLECTION, 9.0, 0.0)
    built = build_probe(pp, zero, zero)
    probe = offset_probe(built)
    x, y, z = grid8.node_coords()
    phase = np.exp(1j * (x * pp.xi[0] + y * pp.xi[1] + z * pp.xi[2]))
    prod = (probe.u1_direct.values * probe.u2_direct.values
            * np.exp(probe.u1_direct.log_offset + probe.u2_direct.log_offset))
    assert np.max(np.abs(prod - phase)) < 1e-10
    assert np.max(np.abs(built.product() - phase)) < 1e-10


def _exp_terms_reference(eval_grid, rho, w, w_star):
    """Exponential factors from the full 3-D phase, offset by its maximum."""
    x, y, z = eval_grid.node_coords()
    phase_d = x * rho[0] + y * rho[1] + z * rho[2]
    offset = float(np.max(phase_d.real))
    if w_star is not None:
        phase_m = x * rho[0] + y * rho[1] + (-z) * rho[2]
        offset = max(offset, float(np.max(phase_m.real)))
    direct = np.exp(phase_d - offset) * w
    mirrored = np.exp(phase_m - offset) * w_star if w_star is not None else None
    return direct, mirrored, offset


@pytest.mark.parametrize("param", [1.0, 8.0, 64.0])
@pytest.mark.parametrize("variant", list(Variant))
def test_exp_terms_separable_matches_direct(grid8, box, variant, param):
    # the offset reference that the probe tests use, against the full 3-D phase
    one = np.ones(grid8.node_shape, dtype=np.complex128)
    psi = GridField(box, 0.1 * _random_box_field(box, 5).values)
    factors = ((one, one), tuple(1.0 + w for w in interpolate_box(psi, grid8, True)))
    for xi in ((1.5, 0.75, -0.75), (-2.0, 1.0, 2.0), (0.0, 1.0, 0.0)):
        pp = make_phase_pair(xi, variant, param, 0.0)
        for rho in (pp.rho1, pp.rho2):
            for w, mirror in factors:
                for w_star in (None, mirror):
                    reflected = w_star is not None
                    d, m, off = exp_terms(grid8, rho, w, w_star)
                    d_ref, m_ref, off_ref = _exp_terms_reference(grid8, rho, w, w_star)
                    assert abs(off - off_ref) <= 1e-12
                    assert np.max(np.abs(d - d_ref)) <= 1e-13 * np.max(np.abs(d_ref))
                    if reflected:
                        assert np.max(np.abs(m - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))
                    else:
                        assert m is None and m_ref is None


def _interpolate_reference(box_field, x, y, z):
    """Trilinear periodic interpolation at arbitrary points, one gather per corner."""
    grid = box_field.grid
    vals = box_field.values
    out_shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
    coords = []
    fracs = []
    for axis, c in enumerate((x, y, z)):
        t = (np.asarray(c, dtype=float) - grid.origin[axis]) / grid.h
        i0 = np.floor(t).astype(np.int64)
        fracs.append(np.broadcast_to(t - i0, out_shape))
        coords.append(np.broadcast_to(i0, out_shape))
    n = grid.node_shape
    acc = np.zeros(out_shape, dtype=np.complex128)
    for dx in (0, 1):
        wx = (1.0 - fracs[0]) if dx == 0 else fracs[0]
        ix = (coords[0] + dx) % n[0]
        for dy in (0, 1):
            wy = (1.0 - fracs[1]) if dy == 0 else fracs[1]
            iy = (coords[1] + dy) % n[1]
            for dz in (0, 1):
                wz = (1.0 - fracs[2]) if dz == 0 else fracs[2]
                iz = (coords[2] + dz) % n[2]
                acc += (wx * wy * wz) * vals[ix, iy, iz]
    return acc


def _random_box_field(box, seed):
    rng = np.random.default_rng(seed)
    return GridField(box, rng.standard_normal(box.node_shape)
                     + 1j * rng.standard_normal(box.node_shape))


def test_interpolation_exact_at_nodes(box):
    f = _random_box_field(box, 8)
    xs, ys, zs = (box.axis_nodes(a)[i] for a, i in enumerate((3, 5, 7)))
    at_node = Grid3(2, 2, 2, box.h, (xs, ys, zs))
    direct, mirror = interpolate_box(f, at_node, True)
    assert np.array_equal(direct, f.values[3:6, 5:8, 7:10])
    # the box is centred at the origin, so z node j mirrors to node n - j
    nz = box.node_shape[2]
    assert np.array_equal(mirror, f.values[3:6, 5:8, [nz - 7, nz - 8, nz - 9]])
    # midpoint: average of the two z-neighbours
    mid = Grid3(1, 1, 1, box.h, (xs, ys, zs + box.h / 2))
    expected = 0.5 * (f.values[3, 5, 7] + f.values[3, 5, 8])
    assert interpolate_box(f, mid, True)[0][0, 0, 0] == pytest.approx(expected)


def test_interpolation_rejects_node_grid_that_does_not_cover():
    # 4 nodes per axis, at 0, 1, 2, 3 laterally and at -1, 0, 1, 2
    # vertically: nodes 4.0 and 4.25 lie beyond the grid, where wrapping
    # would read nodes 0 and 1
    field = GridField(Grid3(3, 3, 3, 1.0, (0.0, 0.0, -1.0)),
                      np.arange(64.0).reshape(4, 4, 4).astype(np.complex128))
    with pytest.raises(FieldError, match="does not cover"):
        interpolate_box(field, Grid3(1, 1, 1, 0.25, (4.0, 4.0, 1.0)), True)
    # the nodes x3 = 1.5, 1.75 are covered, their mirror images are not
    with pytest.raises(FieldError, match="axis 2"):
        interpolate_box(field, Grid3(1, 1, 1, 0.25, (1.0, 1.0, 1.5)), True)
    # up to and including the last node is covered: exact lookup
    inside = Grid3(2, 2, 2, 1.0, (1.0, 1.0, -1.0))
    direct, mirror = interpolate_box(field, inside, True)
    assert np.array_equal(direct, field.values[1:, 1:, :3])
    assert np.array_equal(mirror, field.values[1:, 1:, 2::-1])


def test_probe_window_interpolates_like_the_box(geom, grid8, born_pair8):
    # the recover set-up: the Born bump on the coarsened box, a window that is
    # a strict part of it on every axis
    box = build_box_grid(geom, grid8, coarsen=2)
    source = box_source(extend_even(born_pair8[0], box), grid8)
    assert not source.window_grid.periodic
    assert all(w.stop - w.start < n for w, n in zip(source.window, box.node_shape))
    pp = make_phase_pair((2.0, 0.5, -1.0), Variant.SINGLE_REFLECTION, 8.0, 0.0)
    psi, _ = solve_remainder(pp.rho1, source)
    full, _ = _solve_remainder_reference(pp.rho1, extend_even(born_pair8[0], box))
    scale = np.max(np.abs(full.values))
    for got, want in zip(interpolate_box(psi, grid8, True), interpolate_box(full, grid8, True)):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_tau_second_remainder_interpolated_at_the_direct_nodes_only(geom, grid8, bump8, box,
                                                                    monkeypatch):
    # a thm2 probe with the zero-extended bump as q2: psi2's probe is not
    # reflected, so its third-axis factor has the nz + 1 direct rows only,
    # and its factor and the product match the stacked interpolation
    rows = []
    pruned = cgo._pruned_dft

    def recorded(arr, mats):
        rows.append(len(mats[2]))
        return pruned(arr, mats)

    monkeypatch.setattr(cgo, "_pruned_dft", recorded)
    pp = make_phase_pair((1.0, -1.0, 0.5), Variant.SINGLE_REFLECTION, 8.0, 0.0)
    src2 = box_source(extend_trivial(bump8, box), grid8)
    probe = build_probe(pp, box_source(extend_even(bump8, box), grid8), src2)
    nz = grid8.node_shape[2]
    assert rows[-2:] == [2 * nz, nz] and probe.w2_star is None  # the remainder solves come first
    psi2, _ = solve_remainder(pp.rho2, src2)
    want = 1.0 + pruned(psi2.values, cgo._interp_factors(psi2.grid, grid8))[..., :nz]
    assert np.max(np.abs(probe.w2 - want)) <= 1e-15 * np.max(np.abs(want))
    stacked = dataclasses.replace(probe, w2=want).product()
    assert np.max(np.abs(probe.product() - stacked)) <= 1e-15 * np.max(np.abs(stacked))


@pytest.mark.parametrize("coarsen", [1, 2])
def test_interpolation_matches_reference(geom, grid8, coarsen):
    box = build_box_grid(geom, grid8, coarsen=coarsen)
    f = _random_box_field(box, 40 + coarsen)
    h = grid8.h
    off_node = Grid3(5, 7, 6, 0.9 * h, (grid8.origin[0] + 0.37 * h,
                                         grid8.origin[1] + 0.61 * h, -0.13 * h))
    for eval_grid in (grid8, off_node):
        x, y, z = eval_grid.node_coords()
        shape = eval_grid.node_shape
        for zz, got in zip((z, -z), interpolate_box(f, eval_grid, True)):
            want = _interpolate_reference(f, x, y, np.broadcast_to(zz, shape))
            assert got.shape == shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_calibrate_min_param(geom, grid8, bump8, box):
    q1b = extend_even(bump8, box)
    c0, param = calibrate_min_param([q1b], grid8, 0.0, [bump8.bound_M])
    assert c0 in {1, 2, 4, 8, 16, 32, 64}
    assert param == max(c0 * bump8.bound_M, 1.0)


def test_calibrate_min_param_doubles_c0(geom, grid8):
    # an amplitude-1000 bump against a bound of 0.75 at k = 0.5: the
    # parameters C0 (M + k^2) = 1 and 2 do not contract, 4 does
    box = build_box_grid(geom, grid8, coarsen=2)
    qb = extend_even(fields.radial_bump_potential(grid8, geom, 1000.0), box)
    assert calibrate_min_param([qb], grid8, 0.5, [0.75]) == (4, 4.0)
    pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, 2.0, 0.5)
    with pytest.raises(ContractionError):
        solve_remainder(pp.rho1, box_source(qb, grid8))
    with pytest.raises(ContractionError, match="C0=2"):
        calibrate_min_param([qb], grid8, 0.5, [0.75], max_c0=2)


def test_exponential_probe_matches_build(geom, grid8, box):
    zero = box_source(extend_trivial(fields.zero_potential(grid8, geom), box), grid8)
    pp = make_phase_pair((1.0, 0.4, 0.2), Variant.SINGLE_REFLECTION, 2.0, 0.0)
    built = build_probe(pp, zero, zero)
    pure = exponential_probe(grid8, pp)
    assert built.w2_star is pure.w2_star is None
    for name in ("w1", "w1_star", "w2"):
        assert np.array_equal(getattr(built, name), getattr(pure, name))
    built, pure = offset_probe(built), offset_probe(pure)
    assert np.allclose(built.u1.values, pure.u1.values)
    assert built.u1.log_offset == pure.u1.log_offset


@pytest.mark.parametrize("param", [1.0, 8.0, 64.0])
@pytest.mark.parametrize("variant", list(Variant))
def test_product_matches_offset_reference(geom, grid8, bump8, box, variant, param):
    # the combined phase exp(i x . xi) against the per-probe offset form,
    # with both remainders nonzero.  The reference rounds its exponentials to
    # about (off1 + off2) ulp, so the frequencies keep that sum below 600
    q1b = box_source(extend_even(bump8, box), grid8)
    extend2 = extend_even if variant is Variant.DOUBLE_REFLECTION else extend_trivial
    q2b = box_source(extend2(bump8, box), grid8)
    for xi in ((1.0, -1.0, 0.5), (0.0, 1.0, 0.0), (2.0, 0.0, 1.0)):
        pp = make_phase_pair(xi, variant, param, 0.0)
        probe = build_probe(pp, q1b, q2b)
        assert probe.report1.l2 > 0 and probe.report2.l2 > 0
        ref = offset_probe(probe)
        off = ref.u1.log_offset + ref.u2.log_offset
        assert off < 600
        want = ref.u1_direct.values * ref.u2_direct.values * np.exp(off)
        if variant is Variant.DOUBLE_REFLECTION:
            want += ref.u1_reflected.values * ref.u2_reflected.values * np.exp(off)
        assert np.max(np.abs(probe.product() - want)) <= 1e-13 * np.max(np.abs(want))

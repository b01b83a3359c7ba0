import numpy as np
import pytest
import scipy.fft
from conftest import exponential_probe, reflect_remainder
from hypothesis import given, settings, strategies as st

from slabinv import cgo, fields
from slabinv.cgo import (
    ContractionError,
    FrameError,
    ProjectionError,
    Variant,
    build_box_grid,
    build_probe,
    calibrate_min_param,
    interpolate_box,
    isotropy_residual,
    make_frame,
    make_phase_pair,
    norm_identity_residual,
    solve_remainder,
)
from slabinv.fields import GridField, extend_even, extend_trivial
from slabinv.geometry import Grid3


# -- frames -------------------------------------------------------------------------


def test_frame_example():
    fr = make_frame((3.0, 4.0, 2.0))
    assert fr.xi_1e == pytest.approx(5.0)
    assert np.allclose(fr.e1, (0.6, 0.8, 0.0))
    assert np.allclose(fr.e2, (-0.8, 0.6, 0.0))
    assert np.allclose(fr.e3, (0.0, 0.0, 1.0))


def test_frame_axis_case_and_degenerate():
    fr = make_frame((1.0, 0.0, 0.0))
    assert np.allclose(fr.e1, (1.0, 0.0, 0.0))
    assert np.allclose(fr.e2, (0.0, 1.0, 0.0))
    with pytest.raises(FrameError):
        make_frame((0.0, 0.0, 1.0))


def test_frame_orthonormal_right_handed():
    fr = make_frame((0.3, -1.7, 2.2))
    basis = np.stack([fr.e1, fr.e2, fr.e3])
    assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-14
    assert np.allclose(np.cross(fr.e1, fr.e2), fr.e3)
    recon = fr.xi_1e * fr.e1 + fr.xi[2] * fr.e3
    assert np.max(np.abs(recon - fr.xi)) < 1e-14


# -- phase pairs ---------------------------------------------------------------------


def test_phase_hand_arithmetic():
    fr = make_frame((1.0, 0.0, 0.0))
    pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, 1.0)
    expected = np.array([0.5j, 1j * np.sqrt(3) / 2, 1.0])
    assert np.max(np.abs(pp.rho1 - expected)) < 1e-15
    assert abs(np.sum(pp.rho1 * pp.rho1)) < 1e-15
    assert np.sqrt(np.sum(np.abs(pp.rho1) ** 2)) == pytest.approx(np.sqrt(2))


def test_phase_sum_is_frequency():
    fr = make_frame((1.3, -0.4, 0.9))
    pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, 3.7)
    assert np.max(np.abs(pp.rho1 + pp.rho2 - 1j * fr.xi)) < 1e-12


def test_phase_alpha_norm():
    fr = make_frame((1.0, 0.0, 0.0))
    pp = make_phase_pair(fr, Variant.DOUBLE_REFLECTION, 1.0)
    assert np.sqrt(np.sum(np.abs(pp.rho1) ** 2)) == pytest.approx(
        np.sqrt(2) * np.sqrt(1.25))


def test_phase_param_below_one_rejected():
    fr = make_frame((1.0, 0.0, 0.0))
    with pytest.raises(FrameError):
        make_phase_pair(fr, Variant.SINGLE_REFLECTION, 0.5)


@given(
    x1=st.floats(-8, 8), x2=st.floats(-8, 8), x3=st.floats(-8, 8),
    param=st.floats(1.0, 64.0),
    variant=st.sampled_from(list(Variant)),
)
@settings(max_examples=300, deadline=None)
def test_phase_invariants_random(x1, x2, x3, param, variant):
    if np.hypot(x1, x2) < 1e-3:
        return
    pp = make_phase_pair(make_frame((x1, x2, x3)), variant, param)
    rho_sq = float(np.sum(np.abs(pp.rho1) ** 2))
    assert isotropy_residual(pp) <= 1e-12 * rho_sq
    assert norm_identity_residual(pp) <= 1e-12


# -- remainder solves ----------------------------------------------------------------


@pytest.fixture(scope="module")
def box(geom, grid8):
    return build_box_grid(geom, grid8, padding=0.5)


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


def test_remainder_zero_rhs(box):
    # Q identical to k^2 wipes the right-hand side; so does q = 0 at k = 0,
    # the tau-family second probe
    for k in (0.7, 0.0):
        q = GridField(box, np.full(box.node_shape, k * k, dtype=np.complex128))
        psi, rep = solve_remainder(np.array([1.0, 0.0, 2.0j]), q, k)
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
    warm = [solve_remainder(rho, q, 0.0) for q in fields_by_h]
    for q, (psi, rep) in zip(fields_by_h, warm):
        cgo._box_lattice.cache_clear()
        cold_psi, cold_rep = solve_remainder(rho, q, 0.0)
        assert np.array_equal(psi.values, cold_psi.values)
        assert rep == cold_rep


def test_remainder_born_quadratic(geom, grid8, box, bump8):
    fr = make_frame((2.0, 0.0, 0.0))
    pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, 8.0)
    diffs = []
    etas = (4e-2, 2e-2, 1e-2)
    for eta in etas:
        q = fields.radial_bump_potential(grid8, geom, eta)
        qb = extend_even(q, box)
        psi, _ = solve_remainder(pp.rho1, qb, 0.0)
        single, _ = solve_remainder(pp.rho1, qb, 0.0, max_iter=1, residual_tol=np.inf)
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

    psi, rep = solve_remainder(rho, q, 0.0)

    # dense operator: psi - G[rhs * psi] = G[rhs], same shifted lattice
    n = grid.node_shape[0]
    shift = (0.0, 0.0, 0.5)
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
    dense = np.linalg.solve(cols, greens(rhs).reshape(-1))
    rel = (np.linalg.norm(dense - psi.values.reshape(-1))
           / np.linalg.norm(dense))
    assert rel <= 1e-8


def test_remainder_non_contraction_error(geom, grid8, box):
    big = fields.radial_bump_potential(grid8, geom, 400.0)
    qb = extend_even(big, box)
    pp = make_phase_pair(make_frame((1.0, 0.0, 0.0)), Variant.SINGLE_REFLECTION, 1.0)
    with pytest.raises(ContractionError, match="parameter"):
        solve_remainder(pp.rho1, qb, 0.0)


def test_remainder_projection_guard(box, q_even_box):
    pp = make_phase_pair(make_frame((2.0, 0.0, 0.0)), Variant.SINGLE_REFLECTION, 4.0)
    # a zero right-hand side is still checked
    q_zero = GridField(box, np.zeros(box.node_shape, dtype=np.complex128))
    for q in (q_even_box, q_zero):
        with pytest.raises(ProjectionError):
            solve_remainder(pp.rho1, q, 0.0, projection_rel=10.0)


def test_remainder_decay_slope_small_box(geom, grid8, q_even_box):
    fr = make_frame((2.0, 0.0, 0.0))
    taus = np.array([4.0, 8.0, 16.0, 32.0])
    l2s, h1s = [], []
    for tau in taus:
        pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, tau)
        _, rep = solve_remainder(pp.rho1, q_even_box, 0.0)
        l2s.append(rep.l2)
        h1s.append(rep.h1)
    slope = np.polyfit(np.log(taus), np.log(l2s), 1)[0]
    assert -1.2 <= slope <= -0.8
    # first-derivative norm bounded uniformly in tau
    assert max(h1s) <= 1.2 * h1s[0]


def test_reflection_commutes_with_remainder(geom, grid8, q_even_box):
    # for even Q the reflected remainder solves the equation with the
    # reflected phase vector (seam layer carries the antiperiodic sign)
    fr = make_frame((1.5, 0.7, 1.1))
    pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, 6.0)
    psi, _ = solve_remainder(pp.rho1, q_even_box, 0.0)
    rho_star = np.array([pp.rho1[0], pp.rho1[1], -pp.rho1[2]])
    psi_star, _ = solve_remainder(rho_star, q_even_box, 0.0)
    assert np.max(np.abs(reflect_remainder(psi).values - psi_star.values)) < 1e-10
    # involution of the representation-aware reflection
    assert np.array_equal(reflect_remainder(reflect_remainder(psi)).values,
                          psi.values)


def _solve_remainder_reference(rho, qfield, k, max_iter=400, residual_tol=1e-8,
                               projection_rel=1e-8, lattice_shift=cgo.LATTICE_SHIFT):
    """The remainder fixed point iterated on psi itself, with fresh transforms
    for the residual and the H1 norm."""
    grid = qfield.grid
    rho = np.asarray(rho, dtype=np.complex128)
    rho_sq = float(np.sum(np.abs(rho) ** 2))
    vol_factor = grid.h ** 3
    n_total = qfield.values.size
    z0, z1, z2, zeta_sq, mod, mod_inv = cgo._box_lattice(grid, tuple(lattice_shift))

    def tf(arr):
        return scipy.fft.fftn(arr * mod)

    def itf(spec):
        return scipy.fft.ifftn(spec) * mod_inv

    symbol = zeta_sq - 2j * (rho[0] * z0 + rho[1] * z1 + rho[2] * z2)
    keep = np.abs(symbol) >= projection_rel * rho_sq
    projected = int(n_total - np.count_nonzero(keep))
    if projected > 1e-3 * n_total:
        raise ProjectionError("too many projected modes")
    rhs_base = -(qfield.values - k ** 2)
    if np.max(np.abs(rhs_base)) == 0.0:
        psi = GridField(grid, np.zeros(grid.node_shape, dtype=np.complex128))
        return psi, cgo.RemainderReport(0.0, 0.0, 0, projected, n_total, 0.0)
    mult = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=keep)

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
        scale = float(np.sqrt(np.sum(np.abs(psi) ** 2) * vol_factor))
        if inc <= 1e-14 * max(1.0, scale):
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
    return GridField(grid, psi), cgo.RemainderReport(l2, h1, it, projected, n_total, residual)


@pytest.fixture(scope="module")
def box2(geom, grid8):
    return build_box_grid(geom, grid8, padding=0.5, coarsen=2)


@pytest.fixture(scope="module")
def box2_potentials(geom, grid8, bump8, box2):
    return {"bump": extend_even(bump8, box2),
            "zero": extend_trivial(fields.zero_potential(grid8, geom), box2)}


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [0.0, 1.5])
@pytest.mark.parametrize("potential", ["bump", "zero"])
def test_remainder_matches_reference_loop(box2_potentials, variant, k, potential):
    q = box2_potentials[potential]
    pp = make_phase_pair(make_frame((1.5, 0.75, -0.75)), variant, 16.0)
    for cold in (True, False):
        if cold:
            cgo._SPECTRA.clear()
        psi, rep = solve_remainder(pp.rho1, q, k)
        ref, ref_rep = _solve_remainder_reference(pp.rho1, q, k)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(psi.values - ref.values)) <= 1e-12 * scale
        assert rep.l2 == pytest.approx(ref_rep.l2, rel=1e-12, abs=0.0)
        assert rep.h1 == pytest.approx(ref_rep.h1, rel=1e-12, abs=0.0)
        assert rep.iterations == ref_rep.iterations
        assert rep.projected_modes == ref_rep.projected_modes
        assert rep.total_modes == ref_rep.total_modes
        assert max(rep.residual, ref_rep.residual) <= 1e-8
        assert abs(rep.residual - ref_rep.residual) <= 1e-13
    assert (rep.iterations == 0) == (potential == "zero" and k == 0.0)


def test_remainder_contraction_error_matches_reference(geom, grid8, box2):
    qb = extend_even(fields.radial_bump_potential(grid8, geom, 400.0), box2)
    pp = make_phase_pair(make_frame((1.0, 0.0, 0.0)), Variant.SINGLE_REFLECTION, 1.0)
    with pytest.raises(ContractionError):
        _solve_remainder_reference(pp.rho1, qb, 0.0)
    with pytest.raises(ContractionError):
        solve_remainder(pp.rho1, qb, 0.0)


@pytest.fixture
def fft_counter(monkeypatch):
    counts = {"fftn": 0, "ifftn": 0}
    for name in counts:
        orig = getattr(scipy.fft, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return counts


def test_remainder_fft_budget(box2, box2_potentials, fft_counter):
    q = box2_potentials["bump"]
    pp = make_phase_pair(make_frame((2.0, -0.5, 1.0)), Variant.DOUBLE_REFLECTION, 8.0)
    cgo._SPECTRA.clear()
    for extra in (1, 0):   # cold memo, then warm
        fft_counter.update(fftn=0, ifftn=0)
        _, rep = solve_remainder(pp.rho1, q, 0.0)
        assert rep.iterations > 1
        assert fft_counter["ifftn"] == rep.iterations
        assert fft_counter["fftn"] == rep.iterations + extra
    # a zero right-hand side transforms nothing, and is still checked first
    fft_counter.update(fftn=0, ifftn=0)
    zero = box2_potentials["zero"]
    _, rep = solve_remainder(pp.rho1, zero, 0.0)
    assert rep.iterations == 0
    with pytest.raises(ProjectionError):
        solve_remainder(pp.rho1, zero, 0.0, projection_rel=10.0)
    assert fft_counter == {"fftn": 0, "ifftn": 0}


def test_remainder_first_spectrum_memo(box2, box2_potentials, fft_counter):
    q = GridField(box2, box2_potentials["bump"].values.copy())
    pp = make_phase_pair(make_frame((1.25, 1.0, 0.5)), Variant.SINGLE_REFLECTION, 8.0)
    cgo._SPECTRA.clear()
    cold, _ = solve_remainder(pp.rho1, q, 0.0)
    fft_counter.update(fftn=0, ifftn=0)
    warm, rep = solve_remainder(pp.rho1, q, 0.0)
    assert fft_counter["fftn"] == rep.iterations
    assert np.array_equal(cold.values, warm.values)
    # same box, same k, same array object, changed samples: the memo misses
    q.values[12, 12, 12] += 0.25
    fft_counter.update(fftn=0, ifftn=0)
    mutated, rep = solve_remainder(pp.rho1, q, 0.0)
    assert fft_counter["fftn"] == rep.iterations + 1
    ref, _ = _solve_remainder_reference(pp.rho1, q, 0.0)
    assert np.max(np.abs(mutated.values - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))
    # another k misses too, and the memo stays bounded
    for k in (0.25, 0.5, 0.75, 1.0, 1.25):
        solve_remainder(pp.rho1, q, k)
    assert len(cgo._SPECTRA) == cgo._SPECTRA_KEPT


# -- probes --------------------------------------------------------------------------


def test_probe_vanishes_on_bottom_plate(geom, grid8, bump8, box):
    q2b = extend_trivial(fields.zero_potential(grid8, geom), box)
    q1b = extend_even(bump8, box)
    for variant in Variant:
        q2 = extend_even(bump8, box) if variant is Variant.DOUBLE_REFLECTION else q2b
        pp = make_phase_pair(make_frame((1.2, 0.5, -0.8)), variant, 4.0)
        probe = build_probe(grid8, pp, q1b, q2, 0.0)
        assert np.max(np.abs(probe.u1.values[:, :, 0])) == 0.0
        if variant is Variant.DOUBLE_REFLECTION:
            assert np.max(np.abs(probe.u2.values[:, :, 0])) == 0.0


def test_probe_free_case_closed_form(geom, grid8, box):
    # q1 = q2 = 0, k = 0: remainders vanish and the probe product reduces to
    # pure exponentials
    zb = extend_trivial(fields.zero_potential(grid8, geom), box)
    fr = make_frame((1.0, 0.8, 0.6))
    pp = make_phase_pair(fr, Variant.SINGLE_REFLECTION, 3.0)
    probe = build_probe(grid8, pp, zb, zb, 0.0)
    assert probe.decay_report["psi1_l2"] == 0.0
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
        direct = np.exp(1j * point @ fr.xi)
        x1e = point[:2] @ fr.e1[:2]
        reflected = np.exp(1j * x1e * fr.xi_1e - 2 * pp.param * fr.xi_1e * point[2])
        assert abs(got - (direct - reflected)) < 1e-10 * max(1.0, abs(direct - reflected))


def test_exponential_factorization(geom, grid8, box):
    # exp(x.rho1) exp(x.rho2) = exp(i x.xi) at every node
    zb = extend_trivial(fields.zero_potential(grid8, geom), box)
    pp = make_phase_pair(make_frame((2.0, -1.0, 1.5)), Variant.SINGLE_REFLECTION, 9.0)
    probe = build_probe(grid8, pp, zb, zb, 0.0)
    x, y, z = grid8.node_coords()
    phase = np.exp(1j * (x * pp.xi[0] + y * pp.xi[1] + z * pp.xi[2]))
    prod = (probe.u1_direct.values * probe.u2_direct.values
            * np.exp(probe.u1_direct.log_offset + probe.u2_direct.log_offset))
    assert np.max(np.abs(prod - phase)) < 1e-10


def _exp_terms_reference(eval_grid, rho, psi_box, reflected):
    """Exponential factors from the full 3-D phase, offset by its maximum."""
    x, y, z = eval_grid.node_coords()
    phase_d = x * rho[0] + y * rho[1] + z * rho[2]
    offset = float(np.max(phase_d.real))
    if reflected:
        phase_m = x * rho[0] + y * rho[1] + (-z) * rho[2]
        offset = max(offset, float(np.max(phase_m.real)))
    live = bool(np.any(psi_box.values))

    def factor(phase, mirrored):
        out = np.exp(phase - offset)
        if live:
            out *= 1.0 + interpolate_box(psi_box, eval_grid, mirrored)
        return out

    direct = factor(phase_d, False)
    mirrored = factor(phase_m, True) if reflected else None
    return direct, mirrored, offset


@pytest.mark.parametrize("param", [1.0, 8.0, 64.0])
@pytest.mark.parametrize("variant", list(Variant))
def test_exp_terms_separable_matches_direct(grid8, box, variant, param):
    psis = (GridField(box, np.zeros(box.node_shape, dtype=np.complex128)),
            GridField(box, 0.1 * _random_box_field(box, 5).values))
    for xi in ((1.5, 0.75, -0.75), (-2.0, 1.0, 2.0), (0.0, 1.0, 0.0)):
        pp = make_phase_pair(make_frame(xi), variant, param)
        for rho in (pp.rho1, pp.rho2):
            for psi in psis:
                for reflected in (False, True):
                    d, m, off = cgo._exp_terms(grid8, rho, psi, reflected)
                    d_ref, m_ref, off_ref = _exp_terms_reference(grid8, rho, psi, reflected)
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
    assert np.array_equal(interpolate_box(f, at_node), f.values[3:6, 5:8, 7:10])
    # midpoint: average of the two z-neighbours
    mid = Grid3(1, 1, 1, box.h, (xs, ys, zs + box.h / 2))
    expected = 0.5 * (f.values[3, 5, 7] + f.values[3, 5, 8])
    assert interpolate_box(f, mid)[0, 0, 0] == pytest.approx(expected)


@pytest.mark.parametrize("coarsen", [1, 2])
def test_interpolation_matches_reference(geom, grid8, coarsen):
    box = build_box_grid(geom, grid8, padding=0.5, coarsen=coarsen)
    f = _random_box_field(box, 40 + coarsen)
    h = grid8.h
    off_node = Grid3(5, 7, 6, 0.9 * h, (grid8.origin[0] + 0.37 * h,
                                         grid8.origin[1] + 0.61 * h, -0.13 * h))
    for eval_grid in (grid8, off_node):
        x, y, z = eval_grid.node_coords()
        shape = eval_grid.node_shape
        for mirrored in (False, True):
            zz = np.broadcast_to(-z if mirrored else z, shape)
            want = _interpolate_reference(f, x, y, zz)
            got = interpolate_box(f, eval_grid, mirrored)
            assert got.shape == shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_calibrate_min_param(geom, grid8, bump8, box):
    q1b = extend_even(bump8, box)
    c0, param = calibrate_min_param([q1b], 0.0, [bump8.bound_M])
    assert c0 in {1, 2, 4, 8, 16, 32, 64}
    assert param == max(c0 * bump8.bound_M, 1.0)


def test_exponential_probe_matches_build(geom, grid8, box):
    zb = extend_trivial(fields.zero_potential(grid8, geom), box)
    pp = make_phase_pair(make_frame((1.0, 0.4, 0.2)), Variant.SINGLE_REFLECTION, 2.0)
    built = build_probe(grid8, pp, zb, zb, 0.0)
    pure = exponential_probe(grid8, pp, box, reflect1=True, reflect2=False)
    assert np.allclose(built.u1.values, pure.u1.values)
    assert built.u1.log_offset == pure.u1.log_offset

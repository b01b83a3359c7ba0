import math

import numpy as np
import pytest
from conftest import (
    bounds_consistent,
    exponential_probe,
    schedule_residual,
    synthetic_line_function,
)

from slabinv import cgo, fields, recovery
from slabinv.cgo import Variant, make_frame, make_phase_pair
from slabinv.recovery import (
    ContinuationConfig,
    ContinuationError,
    RecoveryError,
    assemble_bounds,
    assemble_bounds_from_sup,
    bound_chain,
    build_frequency_set,
    calibrate_two_constants,
    choose_parameters,
    canonical_frequency,
    estimate_fhat_annulus,
    low_freq_extend,
    make_workspace,
    plancherel_constant,
    stability_exponent,
    true_transform,
)


@pytest.fixture(scope="module")
def ws_single(born_pair8):
    q1, q2 = born_pair8
    return make_workspace(q1, q2, 0.0, Variant.SINGLE_REFLECTION)


@pytest.fixture(scope="module")
def ws_double(born_pair8):
    q1, q2 = born_pair8
    return make_workspace(q1, q2, 0.0, Variant.DOUBLE_REFLECTION)


# -- frequency bookkeeping -------------------------------------------------------


def test_frequency_set_windows():
    fs = build_frequency_set(3.0, spacing=0.5)
    for xi in fs.annulus:
        x1e = math.hypot(xi[0], xi[1])
        assert 1.0 - 1e-12 <= x1e < 3.0 and abs(xi[2]) < 3.0
    for xi in fs.low:
        assert 0 < math.hypot(xi[0], xi[1]) < 1.0
    for xi in fs.axis:
        assert xi[0] == xi[1] == 0.0
    with pytest.raises(RecoveryError):
        build_frequency_set(2.0)


# -- pairing ------------------------------------------------------------------------


def integral_pairing(qdiff_field, a, b):
    """Trapezoidal quadrature of qdiff * a * b, two probe factors, with their
    offsets recombined."""
    assert qdiff_field.grid == a.grid == b.grid
    w = fields.quadrature_weights(qdiff_field.grid)
    total = np.sum(w * qdiff_field.values * a.values * b.values)
    return complex(total * math.exp(a.log_offset + b.log_offset))


def test_pairing_zero_for_equal_potentials(geom, grid8, bump8, ws_single):
    ws = make_workspace(bump8, bump8, 0.0, Variant.SINGLE_REFLECTION)
    pp = make_phase_pair(make_frame((2.0, 0.0, 0.0)), Variant.SINGLE_REFLECTION, 4.0, 0.0)
    probe = cgo.build_probe(ws.eval_grid, pp, ws.src1, ws.src2)
    assert integral_pairing(ws.qdiff, probe.u1, probe.u2) == 0


def test_pairing_plane_wave_oracle(ws_single):
    # remainders forced to zero and no reflection: the pairing is exactly the
    # trapezoid transform at xi
    pp = make_phase_pair(make_frame((1.5, -0.5, 0.5)), Variant.SINGLE_REFLECTION, 5.0, 0.0)
    probe = exponential_probe(ws_single.eval_grid, pp, ws_single.box_grid,
                              reflect1=False, reflect2=False)
    got = integral_pairing(ws_single.qdiff, probe.u1, probe.u2)
    want = complex(ws_single.qdiff_ft(pp.xi))
    assert got == pytest.approx(want, rel=1e-10)


def test_pairing_decay_in_param(geom, grid16):
    # |pairing - FT| is dominated by the reflected-phase boundary layer
    # exp(-2 tau xi_1e x3): the 1/tau rate needs a difference that does not
    # vanish on the bottom plate and a sweep whose layer width 1/(2 tau
    # xi_1e) stays resolved by the grid
    q1 = fields.radial_bump_potential(grid16, geom, 1e-3, z_profile="bottom")
    q2 = fields.zero_potential(grid16, geom)
    ws = make_workspace(q1, q2, 0.0, Variant.SINGLE_REFLECTION)
    xi = (1.0, 0.0, 0.0)
    errs, params = [], (1.0, 1.5, 2.25, 3.375)
    want = true_transform(ws, xi)
    for param in params:
        pp = make_phase_pair(make_frame(xi), Variant.SINGLE_REFLECTION, param, 0.0)
        probe = cgo.build_probe(ws.eval_grid, pp, ws.src1, ws.src2)
        errs.append(abs(integral_pairing(ws.qdiff, probe.u1, probe.u2) - want))
    slope = np.polyfit(np.log(params), np.log(errs), 1)[0]
    assert -1.3 <= slope <= -0.7


# -- annulus estimation ----------------------------------------------------------------


def test_estimates_noise_floor_for_equal_potentials(bump8):
    ws = make_workspace(bump8, bump8, 0.0, Variant.SINGLE_REFLECTION)
    res = estimate_fhat_annulus(ws, 4.0, [(1.0, 0.0, 0.0), (2.0, 0.5, -1.0)])
    assert all(abs(v) < 1e-14 for v in res.estimates.values())


@pytest.mark.parametrize("variant", list(Variant))
def test_born_estimates_match_direct_transform(born_pair8, variant):
    q1, q2 = born_pair8
    ws = make_workspace(q1, q2, 0.0, variant)
    xis = [(1.0, 0.0, 0.0), (2.0, 1.0, 1.5), (1.25, -0.75, -2.0)]
    res = estimate_fhat_annulus(ws, 8.0, xis)
    assert not res.failed
    for xi in xis:
        key = tuple(float(v) for v in xi)
        want = true_transform(ws, xi)
        assert abs(res.estimates[key] - want) <= 0.1 * abs(want)


@pytest.mark.parametrize("variant", list(Variant))
def test_fused_estimate_matches_pairing_plus_cross_terms(born_pair8, variant):
    # pairing plus the mirrored-phase corrections, each its own quadrature,
    # at the canonical member of each pair and conjugated for a mate
    q1, q2 = born_pair8
    ws = make_workspace(q1, q2, 0.0, variant, box_coarsen=2)
    param = 8.0
    xis = build_frequency_set(2.25, 0.75).annulus[::7]
    res = estimate_fhat_annulus(ws, param, xis)
    assert len(res.estimates) == len(xis) and not res.failed
    assert any(canonical_frequency(xi)[1] for xi in xis)
    for xi in xis:
        canon, mate = canonical_frequency(xi)
        pp = make_phase_pair(make_frame(canon), variant, param, 0.0)
        probe = cgo.build_probe(ws.eval_grid, pp, ws.src1, ws.src2)
        want = integral_pairing(ws.qdiff, probe.u1, probe.u2)
        want += integral_pairing(ws.qdiff, probe.u1_reflected, probe.u2_direct)
        if variant is Variant.DOUBLE_REFLECTION:
            want += integral_pairing(ws.qdiff, probe.u1_direct, probe.u2_reflected)
        if mate:
            want = want.conjugate()
        assert abs(res.estimates[xi] - want) <= 1e-12 * abs(want)


def test_recover_builds_sources_once_per_workspace(born_pair8, monkeypatch):
    # the rho-independent remainder set-up is made twice per workspace (one
    # source per potential) and never per frequency; one probe per +-xi pair
    calls = {"workspace": 0, "source": 0, "probe": 0}
    batches = []
    orig_estimate = recovery.estimate_fhat_annulus

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    counted_source = counted("source", cgo.box_source)
    monkeypatch.setattr(cgo, "box_source", counted_source)
    monkeypatch.setattr(recovery, "box_source", counted_source)
    monkeypatch.setattr(recovery, "make_workspace",
                        counted("workspace", recovery.make_workspace))
    monkeypatch.setattr(recovery, "build_probe", counted("probe", recovery.build_probe))
    monkeypatch.setattr(recovery, "estimate_fhat_annulus",
                        lambda ws, param, xis: batches.append(list(xis))
                        or orig_estimate(ws, param, xis))
    run = recovery.recover(*born_pair8, 0.0, Variant.DOUBLE_REFLECTION, r=2.25, param=8.0,
                           lam=0.5, spacing=0.75, delta=1.0, basis_n=3, box_coarsen=2)
    # 100 annulus frequencies and 40 new continuation samples: 50 + 20 pairs
    pairs = [len({canonical_frequency(xi)[0] for xi in batch}) for batch in batches]
    assert [len(batch) for batch in batches] == [100, 40] and pairs == [50, 20]
    assert run.counts["n_annulus"] == 100 and calls["probe"] == sum(pairs) == 70
    assert calls["workspace"] == 1
    assert calls["source"] == 2 * calls["workspace"]


@pytest.mark.parametrize("variant", list(Variant))
def test_true_transform_batch_matches_single(born_pair8, variant, monkeypatch):
    ws = make_workspace(*born_pair8, 0.0, variant, box_coarsen=2)
    xis = np.array(build_frequency_set(2.25, 0.75).annulus[:70])  # two chunks of `batch`
    batch = true_transform(ws, xis)
    single = np.array([true_transform(ws, xi) for xi in xis])
    assert isinstance(true_transform(ws, xis[0]), complex) and batch.shape == (70,)
    assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-14
    # recover asks the oracle once, for every estimate
    calls = []
    monkeypatch.setattr(recovery, "true_transform",
                        lambda ws, xis: calls.append(np.shape(xis)) or true_transform(ws, xis))
    run = recovery.recover(*born_pair8, 0.0, variant, r=2.25, param=8.0, lam=0.5,
                           spacing=0.75, delta=1.0, basis_n=3, box_coarsen=2)
    assert calls == [(len(run.estimates), 3)]


def test_continuation_samples_three_points_on_gamma0(born_pair8, monkeypatch):
    # spacing 0.75: every low line is fitted on s = 1, 1.5, 2; s = 1.5 is an
    # annulus frequency and reused, so each of the 20 lines costs 2 probes
    batches, fits = [], []
    orig_estimate, orig_extend = recovery.estimate_fhat_annulus, recovery.low_freq_extend
    monkeypatch.setattr(recovery, "estimate_fhat_annulus",
                        lambda ws, param, xis: batches.append(list(xis))
                        or orig_estimate(ws, param, xis))
    monkeypatch.setattr(recovery, "low_freq_extend",
                        lambda s, f, *args: fits.append((np.asarray(s), np.shape(f)))
                        or orig_extend(s, f, *args))
    run = recovery.recover(*born_pair8, 0.0, Variant.SINGLE_REFLECTION, r=2.25, param=8.0,
                           lam=0.5, spacing=0.75, delta=1.0, basis_n=3, box_coarsen=2)
    annulus, continued = batches
    assert len(annulus) == run.counts["n_annulus"] == 100
    assert len(continued) == 40
    assert {round(math.hypot(x, y), 12) for x, y, _ in continued} == {1.0, 2.0}
    # every line succeeded on the same three samples: one fit for all 20
    assert len(fits) == 1
    assert np.array_equal(fits[0][0], [1.0, 1.5, 2.0]) and fits[0][1] == (3, 20)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("k", [1.5, 2.5, 4.5])
def test_annulus_estimates_at_nonzero_k(born_pair8, variant, k):
    # the phases carry k, so every remainder source is -Q on its support:
    # at the benchmark settings every annulus frequency is estimated, each
    # as well as at k = 0
    ws = make_workspace(*born_pair8, k, variant, box_coarsen=2)
    xis = build_frequency_set(2.25, 0.75).annulus
    res = estimate_fhat_annulus(ws, 8.0, xis)
    assert not res.failed and len(res.estimates) == len(xis) == 100
    worst = max(abs(est - true_transform(ws, xi)) / abs(true_transform(ws, xi))
                for xi, est in res.estimates.items())
    assert worst <= 1e-4


@pytest.mark.parametrize("variant", list(Variant))
def test_recover_at_nonzero_k_meets_criterion_6(born_pair8, variant):
    run = recovery.recover(*born_pair8, 2.5, variant, r=2.25, param=8.0, lam=0.5,
                           spacing=0.75, delta=1.0, basis_n=3, box_coarsen=2)
    assert run.counts["n_failed"] == 0 and run.counts["n_annulus"] == 100
    assert not run.warnings
    annulus = [xi for xi in run.estimates if math.hypot(xi[0], xi[1]) >= 1.0 - 1e-12]
    worst = max(abs(run.estimates[xi] - run.oracle[xi]) / abs(run.oracle[xi]) for xi in annulus)
    assert worst <= 0.10


def test_estimator_error_decays_with_param(ws_single):
    xi = (1.5, 0.5, 1.0)
    key = tuple(float(v) for v in xi)
    want = true_transform(ws_single, xi)
    errs, params = [], (4.0, 8.0, 16.0, 32.0)
    for param in params:
        res = estimate_fhat_annulus(ws_single, param, [xi])
        errs.append(abs(res.estimates[key] - want))
    slope = np.polyfit(np.log(params), np.log(errs), 1)[0]
    assert slope <= -0.4


def test_double_variant_even_in_xi3(ws_double):
    res = estimate_fhat_annulus(ws_double, 6.0, [(1.5, 0.5, 1.25), (1.5, 0.5, -1.25)])
    a = res.estimates[(1.5, 0.5, 1.25)]
    b = res.estimates[(1.5, 0.5, -1.25)]
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_conjugate_symmetry(ws_single):
    res = estimate_fhat_annulus(ws_single, 8.0, [(1.5, 0.5, 1.0), (-1.5, -0.5, -1.0)])
    a = res.estimates[(1.5, 0.5, 1.0)]
    b = res.estimates[(-1.5, -0.5, -1.0)]
    assert abs(b - np.conj(a)) <= 1e-8 * max(1.0, abs(a))


def test_canonical_frequency():
    assert canonical_frequency((1.5, -0.5, 1.0)) == ((1.5, -0.5, 1.0), False)
    assert canonical_frequency((-1.5, 0.5, -1.0)) == ((1.5, -0.5, 1.0), True)
    assert canonical_frequency((0.0, -0.75, 1.5)) == ((0.0, 0.75, -1.5), True)
    assert canonical_frequency((-0.0, 0.0, -1.0)) == ((0.0, 0.0, 1.0), True)
    for xi in build_frequency_set(2.25, 0.75).annulus:
        canon, mate = canonical_frequency(xi)
        assert canon == (tuple(-v for v in xi) if mate else xi)
        assert all(math.copysign(1.0, v) > 0 for v in canon if v == 0)
        assert canonical_frequency(canon) == (canon, False)


@pytest.mark.parametrize("variant", list(Variant))
def test_mate_is_bitwise_conjugate_in_any_batch(born_pair8, variant):
    ws = make_workspace(*born_pair8, 0.0, variant, box_coarsen=2)
    xi, neg = (1.5, -0.75, 0.75), (-1.5, 0.75, -0.75)
    want = estimate_fhat_annulus(ws, 8.0, [xi]).estimates[xi]
    for batch in ([neg], [xi, neg], [neg, xi], [neg, (2.0, 0.0, 0.0), xi]):
        res = estimate_fhat_annulus(ws, 8.0, batch).estimates
        assert res[neg] == want.conjugate()
        if xi in res:
            assert res[xi] == want


def _direct_estimate(ws, phase):
    """The fused estimate from a probe pair built at the phase's own frequency."""
    probe = cgo.build_probe(ws.eval_grid, phase, ws.src1, ws.src2)
    total = integral_pairing(ws.qdiff, probe.u1_direct, probe.u2_direct)
    if ws.variant is Variant.DOUBLE_REFLECTION:
        total += integral_pairing(ws.qdiff, probe.u1_reflected, probe.u2_reflected)
    return total


def _alpha_pair_reversed(xi, alpha, k):
    """Alpha-family phases at xi with parameter alpha (of either sign) in the
    frame whose e2 is e1 x e3, the opposite of `make_frame`'s."""
    frame = make_frame(xi)
    frame = cgo.Frame(frame.xi, frame.xi_1e, frame.e1, -frame.e2, frame.e3)
    xi_1e, xi3, xin = frame.xi_1e, float(xi[2]), frame.xi_norm
    root = math.sqrt(alpha * alpha + 0.25 - (k / xin) ** 2)
    c1 = (1j * (xi_1e / 2 - alpha * xi3), -root * xin, 1j * (xi3 / 2 + alpha * xi_1e))
    c2 = (1j * (xi_1e / 2 + alpha * xi3), root * xin, 1j * (xi3 / 2 - alpha * xi_1e))
    return cgo.PhasePair(Variant.DOUBLE_REFLECTION, alpha, frame, frame.to_ambient(c1),
                         frame.to_ambient(c2), k)


@pytest.mark.parametrize("variant", list(Variant))
def test_mate_matches_direct_estimate_at_minus_xi(born_pair8, variant):
    # tau-family: rho_j(-xi) = conj rho_j(xi), so a mate is the direct
    # estimate at -xi; alpha-family: conj rho_j(xi) is the alpha pair at -xi
    # with -alpha in the e2-reversed frame.  Both hold up to the lateral
    # Nyquist planes of the box lattice.
    ws = make_workspace(*born_pair8, 0.0, variant, box_coarsen=2)
    mates = [xi for xi in build_frequency_set(2.25, 0.75).annulus
             if canonical_frequency(xi)[1]]
    res = estimate_fhat_annulus(ws, 8.0, mates)
    assert len(mates) == 50 and len(res.estimates) == 50
    for xi in mates:
        if variant is Variant.SINGLE_REFLECTION:
            phase = make_phase_pair(make_frame(xi), variant, 8.0, 0.0)
        else:
            phase = _alpha_pair_reversed(xi, -8.0, 0.0)
        canon = make_phase_pair(make_frame(canonical_frequency(xi)[0]), variant, 8.0, 0.0)
        assert np.array_equal(phase.rho1, np.conj(canon.rho1))
        assert np.array_equal(phase.rho2, np.conj(canon.rho2))
        want = _direct_estimate(ws, phase)
        assert abs(res.estimates[xi] - want) <= 1e-9 * abs(true_transform(ws, xi))


@pytest.mark.parametrize("variant", list(Variant))
def test_bench_annulus_builds_one_probe_per_pair(born_pair8, variant, monkeypatch):
    ws = make_workspace(*born_pair8, 0.0, variant, box_coarsen=2)
    built = []
    orig = recovery.build_probe
    monkeypatch.setattr(recovery, "build_probe",
                        lambda grid, phase, *a: built.append(tuple(phase.xi))
                        or orig(grid, phase, *a))
    xis = build_frequency_set(2.25, 0.75).annulus
    res = estimate_fhat_annulus(ws, 8.0, xis)
    assert len(res.estimates) == len(xis) == 100 and not res.failed
    assert len(built) == len(set(built)) == 50
    assert set(built) == {canonical_frequency(xi)[0] for xi in xis}


def test_canonical_failure_recorded_at_both_members(ws_single, monkeypatch):
    xi, neg = (1.5, 0.5, 1.0), (-1.5, -0.5, -1.0)
    built = []
    orig = recovery.build_probe

    def probe(grid, phase, *args):
        built.append(tuple(phase.xi))
        if tuple(phase.xi) == xi:
            raise cgo.ContractionError("remainder iteration is not contracting")
        return orig(grid, phase, *args)

    monkeypatch.setattr(recovery, "build_probe", probe)
    res = estimate_fhat_annulus(ws_single, 8.0, [neg, (2.0, 0.0, 0.0), xi])
    assert res.failed == {neg: "remainder iteration is not contracting",
                          xi: "remainder iteration is not contracting"}
    assert list(res.estimates) == [(2.0, 0.0, 0.0)]
    assert built == [xi, (2.0, 0.0, 0.0)]


def test_failed_frequencies_recorded(ws_single):
    res = estimate_fhat_annulus(ws_single, 4.0, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    assert (0.0, 0.0, 1.0) in res.failed
    assert (1.0, 0.0, 0.0) in res.estimates


def test_workspace_transform_matches_full_grid(born_pair8):
    # restriction to the support subgrid loses nothing of the transform
    q1, q2 = born_pair8
    ws = make_workspace(q1, q2, 0.0, Variant.SINGLE_REFLECTION)
    full = fields.fourier_transform(
        fields.GridField(q1.grid, q1.field.values - q2.field.values))
    xi = np.array([1.3, -0.7, 2.0])
    assert complex(ws.qdiff_ft(xi)) == pytest.approx(complex(full(xi)), rel=1e-12)


# -- low-frequency continuation ----------------------------------------------------------


def test_low_freq_zero_samples():
    cfg = ContinuationConfig(lam=0.5, model_halfwidth=2.0)
    s = np.linspace(1.0, 2.0, 5)
    res = low_freq_extend(s, np.zeros(5, dtype=complex), cfg,
                          np.linspace(0.1, 0.9, 9), sup_g_bound=1.0)
    assert np.max(np.abs(res.values)) <= 1e-10
    assert res.sup_gamma_bound == 0.0


def test_low_freq_synthetic_forward_model():
    # extrapolation from (1, 2) to (0, 1) is exponentially ill-posed; the fit
    # reaches the regularization-limited accuracy, reported and bounded here
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], np.uint64)))
    f = synthetic_line_function(2.0, rng)
    cfg = ContinuationConfig(lam=0.5, model_halfwidth=2.0)
    s_samp = np.linspace(1.0, 2.0, 21)
    s_eval = np.linspace(0.05, 0.95, 19)
    res = low_freq_extend(s_samp, f(s_samp), cfg, s_eval, sup_g_bound=10.0)
    truth = f(s_eval)
    rel = np.max(np.abs(res.values - truth)) / np.max(np.abs(truth))
    assert rel < 0.05
    assert res.condition < 1e12
    # on the sampled segment itself the fit reproduces the data closely
    on_seg = low_freq_extend(s_samp, f(s_samp), cfg, s_samp, sup_g_bound=10.0)
    rel_seg = np.max(np.abs(on_seg.values - f(s_samp))) / np.max(np.abs(f(s_samp)))
    assert rel_seg < 1e-4


def test_low_freq_without_samples_is_an_error():
    cfg = ContinuationConfig(lam=0.5, model_halfwidth=2.0)
    with pytest.raises(ContinuationError, match="no samples"):
        low_freq_extend(np.array([]), np.array([], dtype=complex), cfg,
                        np.array([0.5]), 1.0)


def test_low_freq_condition_guard():
    cfg = ContinuationConfig(lam=0.5, model_halfwidth=2.0, tikhonov=1e-300)
    s = np.linspace(1.0, 2.0, 4)
    with pytest.raises(ContinuationError, match="tikhonov"):
        low_freq_extend(s, np.ones(4, dtype=complex), cfg, np.array([0.5]), 1.0)


def test_two_constants_certificate():
    c0, lam, rows = calibrate_two_constants(2.0, n_funcs=20, seed=0)
    assert 0.0 < lam < 1.0 and np.isfinite(c0)
    for sup_gamma, sup_g, sup_g0 in rows:
        assert sup_gamma <= c0 * sup_g ** (1 - lam) * sup_g0 ** lam * (1 + 1e-12)


def test_two_constants_match_per_function_loop():
    # every synthetic function measured on its own exponential matrices
    halfwidth = 2.0
    s_gamma = np.linspace(0.01, 0.99, 99)
    s_g0 = np.linspace(1.0, 2.0, 101)
    grid = np.linspace(-2.0, 2.0, 41)
    zg = (grid[:, None] + 1j * grid[None, :]).ravel()
    rows = []
    for i in range(20):
        rng = np.random.Generator(np.random.Philox(key=np.array([0, i], np.uint64)))
        f = synthetic_line_function(halfwidth, rng)
        rows.append(tuple(float(np.max(np.abs(f(z)))) for z in (s_gamma, zg, s_g0)))
    table = [(max(sg / (sG ** (1 - lam) * sg0 ** lam) for sg, sG, sg0 in rows), float(lam))
             for lam in np.linspace(0.05, 0.95, 19)]
    c0_min = min(c for c, _ in table)
    c0_ref, lam_ref = max(((c, lam) for c, lam in table if c <= 2.0 * c0_min),
                          key=lambda t: t[1])
    c0, lam, got = calibrate_two_constants(halfwidth, n_funcs=20, seed=0)
    assert lam == lam_ref
    assert c0 == pytest.approx(c0_ref, rel=1e-14)
    assert np.allclose(got, rows, rtol=1e-14, atol=0.0)


# -- bound assembly -------------------------------------------------------------------------


def test_assemble_bounds_tail_only():
    res = assemble_bounds({}, r=4.0, s=2.0, bound_m=1.0)
    assert res.sup_bound == 0.0
    assert res.hm1_bound == pytest.approx(math.sqrt(plancherel_constant(1.0)) / 4.0)
    res2 = assemble_bounds({}, r=8.0, s=2.0, bound_m=1.0)
    assert res2.hm1_bound == pytest.approx(res.hm1_bound / 2.0)
    assert bounds_consistent(res) and bounds_consistent(res2)


def test_assemble_bounds_exponent_arithmetic():
    res = assemble_bounds_from_sup(0.5, r=3.0, s=2.0, bound_m=1.0, c_sobolev=2.0)
    assert res.params["eps"] == pytest.approx(0.25)
    # exponent eps/(s+1) = 1/12
    assert res.linf_bound == pytest.approx(2.0 * res.hm1_bound ** (1.0 / 12.0))


# -- parameter schedules -----------------------------------------------------------------------


def test_choose_parameters_roundtrip_log_domain():
    # data error exp(-exp(40)) only representable through its logarithm
    choice = choose_parameters(1.0, None, 0.5, 10.0, Variant.SINGLE_REFLECTION,
                               log_star=-math.exp(40.0))
    resid = schedule_residual(choice, 1.0, 0.5, 10.0, Variant.SINGLE_REFLECTION,
                              log_star=-math.exp(40.0))
    assert resid <= 1e-12 * max(1.0, choice.r ** (5.5 / 0.5))
    assert choice.tau == pytest.approx(choice.r ** (5.0 / 0.5))


def test_stability_exponents_against_stated_windows():
    # lam = 0.5: exponent 1/22 for the cross-plate case (window (0, 1/10)),
    # 1/12 for the same-plate case (window (0, 1/5))
    th2 = stability_exponent(0.5, Variant.SINGLE_REFLECTION)
    th3 = stability_exponent(0.5, Variant.DOUBLE_REFLECTION)
    assert th2 == pytest.approx(1.0 / 22.0)
    assert 0.0 < th2 < 0.1
    assert th3 == pytest.approx(1.0 / 12.0)
    assert 0.0 < th3 < 0.2


def test_choose_parameters_alpha_identity():
    choice = choose_parameters(1.0, None, 0.5, 10.0, Variant.DOUBLE_REFLECTION,
                               log_star=-math.exp(40.0))
    assert choice.tau == pytest.approx(choice.r ** (5.0 / (2 * 0.5)))
    assert choice.param == pytest.approx(math.sqrt(max(choice.tau ** 2 - 0.25, 0.0)))


def test_choose_parameters_hypothesis_violation():
    with pytest.raises(RecoveryError, match="hypothesis"):
        choose_parameters(2.0, 0.7, 0.5, 10.0, Variant.SINGLE_REFLECTION)


def test_choose_parameters_small_r_flagged():
    choice = choose_parameters(1.0, 1e-4, 0.5, 14.0, Variant.SINGLE_REFLECTION)
    assert choice.small_r


def test_bound_chain_monotone_in_star_norm():
    bounds = [bound_chain(1.0, star, 0.5, 14.0, Variant.SINGLE_REFLECTION,
                          s=2.0, bound_m=1.0).linf_bound
              for star in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    for star in (1e-3, 1e-7):
        res = bound_chain(1.0, star, 0.5, 14.0, Variant.DOUBLE_REFLECTION,
                          s=2.5, bound_m=1.0)
        assert bounds_consistent(res)

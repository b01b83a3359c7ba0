import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from conftest import (
    basis_fields,
    CorruptingLU,
    field_from_function,
    full_plate_square,
    manufactured_case,
    offset_probe,
)
from measures import runge_approximate
from slabinv import boundary, dnmap, fields, forward, geometry
from slabinv.fields import GridField
from slabinv.forward import (
    PERIODIC,
    TRUNCATED,
    AdmissibilityError,
    HelmholtzOperator,
    SolveError,
    _min_singular,
    check_admissible,
    l2_omega,
    neumann_trace,
    reference_eigenvalue,
    solve_dirichlet,
    solve_source,
)
from slabinv.geometry import BoundaryPatch, Plate


def full_square_field(grid, func, plate=Plate.TOP):
    patch = BoundaryPatch(plate, 0.0, 1e9)
    sq = full_plate_square(grid)
    x = sq.axis_nodes(0)[:, None]
    y = sq.axis_nodes(1)[None, :]
    return boundary.BoundaryField(patch, sq, np.broadcast_to(
        np.asarray(func(x, y), dtype=np.complex128), sq.node_shape).copy())


def lateral_mode(grid, mx, my):
    per = grid.nx * grid.h
    k2p = 2 * np.pi / per
    return (full_square_field(grid, lambda x, y: np.exp(1j * k2p * (mx * x + my * y))),
            k2p * np.hypot(mx, my))


# -- admissibility ----------------------------------------------------------------


def test_admissible_coercive(op0_8):
    rep = check_admissible(op0_8)
    assert rep.admissible and rep.min_singular > 1.0


def test_inadmissible_at_eigenvalue(geom, grid8):
    lam1 = reference_eigenvalue(grid8, geom, forward.TRUNCATED)
    op = HelmholtzOperator(grid8, geom, np.sqrt(lam1), None)
    assert not check_admissible(op).admissible
    f = full_square_field(grid8, lambda x, y: np.exp(-x * x - y * y)
                          * (np.hypot(x, y) < geom.R_lat))
    with pytest.raises(AdmissibilityError):
        solve_dirichlet(op, f)


def test_monotone_shift_up(geom, grid8, op0_8):
    r = grid8.lateral_radius()
    vals = np.where(np.broadcast_to(r <= geom.R, grid8.node_shape), 1.0, 0.0)
    qp = fields.Potential(GridField(grid8, vals.astype(np.complex128)),
                          geom, 1e12)
    op1 = HelmholtzOperator(grid8, geom, 0.0, qp)
    # min q = 0, so both Weyl certificates are lambda_ref; the smallest
    # singular values themselves (11.73 against 11.14) must be ordered
    assert _min_singular(op1) >= _min_singular(op0_8) - 1e-9


def test_reference_eigenvalue_dense_oracle(geom):
    # the separated value against a dense eigensolve of the assembled q = 0,
    # k = 0 operator (579 unknowns truncated at h = 1/4)
    grid = geometry.build_domain(geom, 0.25)
    for mode in (forward.TRUNCATED, PERIODIC):
        a0 = HelmholtzOperator(grid, geom, 0.0, None, mode).matrix.toarray()
        dense = np.linalg.eigvalsh(a0).min()
        assert reference_eigenvalue(grid, geom, mode) == pytest.approx(dense, rel=1e-12)
    closed = 4.0 / grid.h ** 2 * np.sin(np.pi * grid.h / (2 * geom.L)) ** 2
    assert reference_eigenvalue(grid, geom, PERIODIC) == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("target_h", [0.25, 0.125])
def test_reference_eigenvalue_interlacing(geom, target_h):
    # the truncated operator is a principal submatrix of the periodic one
    grid = geometry.build_domain(geom, target_h)
    assert (reference_eigenvalue(grid, geom, forward.TRUNCATED)
            >= reference_eigenvalue(grid, geom, PERIODIC))


@pytest.mark.parametrize("label", ["free", "bump"])
@pytest.mark.parametrize("k", [0.0, 2.5, 4.5])
def test_min_singular_dense_oracle(geom, label, k):
    grid = geometry.build_domain(geom, 0.25)
    q = fields.radial_bump_potential(grid, geom, 1.0) if label == "bump" else None
    for mode in (TRUNCATED, PERIODIC):
        op = HelmholtzOperator(grid, geom, k, q, mode)
        dense = np.abs(np.linalg.eigvalsh(op.matrix.toarray())).min()
        assert _min_singular(op) == pytest.approx(dense, rel=1e-8)


def _random_supported_potential(grid, geom, seed):
    """Random values at every node of {|x'| <= R} x [0, L]."""
    rng = np.random.default_rng(seed)
    inside = np.broadcast_to(grid.lateral_radius() <= geom.R, grid.node_shape)
    vals = np.where(inside, rng.uniform(-2.0, 2.0, grid.node_shape), 0.0)
    return fields.Potential(GridField(grid, vals.astype(np.complex128)), geom, 1e12)


def _potential(grid, geom, label):
    """None, the amplitude-1 bump, the bump times cos(3 x1), which changes
    sign, -100 times the bump, a well below -lambda_ref, or random values."""
    if label == "zero":
        return None
    if label == "random":
        return _random_supported_potential(grid, geom, 11)
    bump = fields.radial_bump_potential(grid, geom, 1.0)
    if label == "bump":
        return bump
    scale = np.cos(3 * grid.node_coords()[0]) if label == "bump_cos3x" else -100.0
    return fields.Potential(GridField(grid, scale * bump.field.values), geom, 1e12)


@pytest.mark.parametrize("label", ["zero", "bump", "bump_cos3x"])
@pytest.mark.parametrize("k", [0.0, 2.5])
def test_weyl_certificate_dense_oracle(geom, monkeypatch, label, k):
    # lambda_ref - k^2 + min q clears the threshold: the report holds that
    # bound, below the dense sigma_min and equal to it for q = 0, and neither
    # an eigensolve nor a factorization runs
    def no_eigensolve(op):
        raise AssertionError("a certified k runs no eigensolve")

    monkeypatch.setattr(forward, "_min_singular", no_eigensolve)
    grid = geometry.build_domain(geom, 0.25)
    for mode in (TRUNCATED, PERIODIC):
        op = HelmholtzOperator(grid, geom, k, _potential(grid, geom, label), mode)
        rep = check_admissible(op)
        assert rep.certified and rep.admissible and op._lu_cache is None
        dense = np.abs(np.linalg.eigvalsh(op.matrix.toarray())).min()
        assert rep.min_singular <= dense * (1 + 1e-12)
        if label == "zero":
            assert rep.min_singular == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("label, k", [("zero", 4.5), ("bump", 4.5), ("bump_cos3x", 4.5),
                                      ("deep_well", 0.0), ("deep_well", 2.5)])
def test_lanczos_below_weyl_threshold(geom, monkeypatch, label, k):
    # k^2 >= lambda_ref + min q to within the threshold: Lanczos finds sigma_min
    runs = []
    orig = forward._min_singular
    monkeypatch.setattr(forward, "_min_singular", lambda op: runs.append(op) or orig(op))
    grid = geometry.build_domain(geom, 0.25)
    for mode in (TRUNCATED, PERIODIC):
        op = HelmholtzOperator(grid, geom, k, _potential(grid, geom, label), mode)
        rep = check_admissible(op)
        assert not rep.certified and runs[-1] is op
        lam = reference_eigenvalue(grid, geom, mode)
        assert lam - k ** 2 + op.q_active.min() <= rep.threshold
        dense = np.abs(np.linalg.eigvalsh(op.matrix.toarray())).min()
        assert rep.min_singular == pytest.approx(dense, rel=1e-8)
    assert len(runs) == 2


def test_eigensolve_only_at_indefinite_k(geom, monkeypatch):
    # the benchmark's forward-order operators, {free, bump} x k in
    # {0, 2.5, 4.5} at h in {1/4, 1/8}: k^2 exceeds lambda_ref (about 11)
    # only at k = 4.5, so 4 of the 12 checks run Lanczos
    runs = []
    orig = forward._min_singular
    monkeypatch.setattr(forward, "_min_singular", lambda op: runs.append(op) or orig(op))
    for h in (0.25, 0.125):
        grid = geometry.build_domain(geom, h)
        bump = fields.radial_bump_potential(grid, geom, 1.0)
        for q in (None, bump):
            for k in (0.0, 2.5, 4.5):
                assert HelmholtzOperator(grid, geom, k, q).admissibility().admissible
    assert [op.k for op in runs] == [4.5] * 4


def test_lanczos_no_convergence_is_admissibility_error(op0_8, monkeypatch):
    def stalled(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(AdmissibilityError, match="did not converge"):
        _min_singular(op0_8)


# -- Dirichlet and source solves ----------------------------------------------------


def test_zero_data_zero_solution(geom, grid8, op0_8):
    f = full_square_field(grid8, lambda x, y: 0.0 * x * y)
    u = solve_dirichlet(op0_8, f)
    assert np.max(np.abs(u.values)) == 0.0
    w = GridField(grid8, np.zeros(grid8.node_shape))
    assert np.max(np.abs(solve_source(op0_8, w).values)) == 0.0


def test_periodic_single_mode_oracle(geom):
    # u = exp(i kappa x') sinh(mu z)/sinh(mu L) with mu^2 = |kappa|^2 - k^2
    errs = []
    for target_h in (0.125, 0.0625):
        grid = geometry.build_domain(geom, target_h)
        op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
        f, kap = lateral_mode(grid, 1, 0)
        u = solve_dirichlet(op, f)
        x, y, z = grid.node_coords()
        mu = kap
        uex = np.exp(1j * kap * x) * np.sinh(mu * z) / np.sinh(mu * geom.L)
        errs.append(np.max(np.abs(u.values - uex * np.ones_like(y))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_manufactured_source_second_order(geom, grid8, bump8):
    uex, w = manufactured_case(geom, grid8, q=bump8)
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    v = solve_source(op, w)
    err = l2_omega(GridField(grid8, v.values - uex.values), geom)
    assert err < 1e-3  # fine-grid ratios are covered by the acceptance suite


def test_symmetric_mode_pivoting_matches_partial_pivoting(geom, grid8, bump8):
    # k = 7 is indefinite and admissible; the threshold forces row swaps, so
    # the factorization leaves the symmetric ordering (19 swaps of the
    # sine-basis factor)
    k = 7.0
    _, w = manufactured_case(geom, grid8, k=k, q=bump8)
    op = HelmholtzOperator(grid8, geom, k, bump8)
    lu = op._lu().lu
    assert np.any(lu.perm_r != lu.perm_c)
    v = solve_source(op, w).values[op.active]  # residual 1e-10 checked inside
    rhs = w.values[op.active]
    ref_lu = scipy.sparse.linalg.splu(op.matrix.tocsc())
    ref = ref_lu.solve(rhs.real.copy()) + 1j * ref_lu.solve(rhs.imag.copy())
    assert np.linalg.norm(v - ref) <= 1e-9 * np.linalg.norm(ref)


def test_solver_linearity(geom, grid8, op0_8):
    _, w1 = manufactured_case(geom, grid8)
    rng = np.random.default_rng(5)
    mask = geometry.interior_mask(grid8, geom)
    w2v = np.where(mask, rng.standard_normal(grid8.node_shape), 0.0)
    w2 = GridField(grid8, w2v.astype(np.complex128))
    a, b = 2.0, -0.7
    lhs = solve_source(op0_8, GridField(grid8, a * w1.values + b * w2.values))
    rhs = a * solve_source(op0_8, w1).values + b * solve_source(op0_8, w2).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-11 * max(1, np.max(np.abs(rhs)))


def test_maximum_principle_sanity(geom, grid8, op0_8):
    f = full_square_field(grid8, lambda x, y: np.where(np.hypot(x, y) < geom.R_lat,
                                                       1.0 + 0.2 * np.cos(x), 0.0))
    u = solve_dirichlet(op0_8, f)
    assert u.values.real.max() <= f.values.real.max() + 1e-9
    assert u.values.real.min() >= min(0.0, f.values.real.min()) - 1e-9


# -- traces ---------------------------------------------------------------------------


def test_trace_linear_field(geom, grid8):
    u = field_from_function(grid8, lambda x, y, z: z + 0 * x + 0 * y)
    top = neumann_trace(u, BoundaryPatch(Plate.TOP, 0.0, 1e9))
    bot = neumann_trace(u, BoundaryPatch(Plate.BOTTOM, 0.0, 1e9))
    assert np.allclose(top.values, 1.0)
    assert np.allclose(bot.values, -1.0)


def test_trace_zero_field(grid8, geom):
    u = GridField(grid8, np.zeros(grid8.node_shape))
    tr = neumann_trace(u, geometry.neumann_patch(geom, Plate.TOP))
    assert np.max(np.abs(tr.values)) == 0.0


def test_trace_separation_oracle(geom):
    errs = []
    for target_h in (0.125, 0.0625):
        grid = geometry.build_domain(geom, target_h)
        op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
        f, kap = lateral_mode(grid, 1, 1)
        u = solve_dirichlet(op, f)
        mu = kap
        tr = neumann_trace(u, BoundaryPatch(Plate.TOP, 0.0, 1e9))
        expected = mu / np.tanh(mu * geom.L) * f.values
        errs.append(np.max(np.abs(tr.values - expected)) / np.max(np.abs(expected)))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_discrete_reciprocity(geom, grid8, bump8):
    # symmetry of the assembled operator: with the adjoint (two-point) flux
    # the Green pairing of two solves is symmetric to solver accuracy.
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    f1 = full_square_field(grid8, lambda x, y: np.where(np.hypot(x, y) < geom.R_lat,
                                                        np.exp(-x * x - y * y), 0.0))
    f2 = full_square_field(grid8, lambda x, y: np.where(np.hypot(x, y) < geom.R_lat,
                                                        np.cos(x) * np.sin(y + 0.3), 0.0))
    u1 = solve_dirichlet(op, f1)
    u2 = solve_dirichlet(op, f2)
    h = grid8.h
    sz = grid8.node_shape[2]

    def adjoint_pairing(u, g):
        flux = (u.values[:, :, sz - 1] - u.values[:, :, sz - 2]) / h
        return np.sum(flux * g.plate_values(grid8)) * h * h

    lhs = adjoint_pairing(u1, f2)
    rhs = adjoint_pairing(u2, f1)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_truncation_vs_periodic_evanescent(geom):
    # data supported inside |x'| < R_prime: plate traces agree up to the
    # evanescent factor of the gap R_lat - R_prime
    grid = geometry.build_domain(geom, 0.125)
    f = full_square_field(grid, lambda x, y: np.where(
        np.hypot(x, y) < geom.R_prime,
        np.cos(np.pi * np.hypot(x, y) / (2 * geom.R_prime)) ** 2, 0.0))
    patch = geometry.neumann_patch(geom, Plate.BOTTOM)
    traces = {}
    for mode in (forward.TRUNCATED, PERIODIC):
        op = HelmholtzOperator(grid, geom, 0.0, None, mode)
        u = solve_dirichlet(op, f)
        traces[mode] = neumann_trace(u, patch).values
    diff = np.max(np.abs(traces[forward.TRUNCATED] - traces[PERIODIC]))
    scale = np.max(np.abs(traces[PERIODIC]))
    bound = np.exp(-np.pi * (geom.R_lat - geom.R_prime) / geom.L)
    assert diff <= bound * scale


# -- solution-by-data approximation ----------------------------------------------------


@pytest.fixture(scope="module")
def runge_setup(geom, grid8, op0_8):
    basis = dnmap.build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    return basis


def test_runge_zero_target(geom, grid8, op0_8, runge_setup):
    target = GridField(grid8, np.zeros(grid8.node_shape))
    f, res = runge_approximate(target, op0_8, 1e-8, runge_setup)
    assert res <= 1e-10
    assert np.max(np.abs(f.values)) <= 1e-8


def test_runge_realizable_target(geom, grid8, op0_8, runge_setup):
    coef = np.zeros(len(runge_setup))
    coef[5] = 1.0
    mode = basis_fields(runge_setup)[5]
    target = solve_dirichlet(op0_8, mode)
    f, res = runge_approximate(target, op0_8, 1e-12, runge_setup)
    assert res <= 1e-6 * l2_omega(target, geom)
    got = np.vdot(mode.values, f.values)
    assert got.real == pytest.approx(np.sum(np.abs(mode.values) ** 2), rel=1e-4)


def test_runge_residual_monotone_in_reg(geom, grid8, op0_8, runge_setup, bump8):
    # target: a solution of the q-problem on the domain, approximated by free
    # solutions with data in the admissible patch
    opq = HelmholtzOperator(grid8, geom, 0.0, bump8)
    seed_f = full_square_field(grid8, lambda x, y: np.where(
        np.hypot(x, y) < geom.R_lat, np.exp(-(x - 0.3) ** 2 - y * y), 0.0))
    target = solve_dirichlet(opq, seed_f)
    residuals = [runge_approximate(target, opq, reg, runge_setup)[1]
                 for reg in (1e-2, 1e-5, 1e-8)]
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_solve_rejects_data_outside_truncation(geom, grid8, op0_8):
    f = full_square_field(grid8, lambda x, y: np.ones_like(x * y))
    with pytest.raises(SolveError, match="vanish"):
        solve_dirichlet(op0_8, f)


def test_runge_probe_target_refinement_study(geom, bump8):
    # approximating a reflected probe restricted to the domain by boundary
    # data in the admissible patch: residual improves under grid refinement
    # and under smaller regularization
    from slabinv import cgo
    from slabinv.cgo import Variant, make_phase_pair

    residuals = {}
    for target_h, n_modes in ((0.25, 3), (0.125, 6)):
        grid = geometry.build_domain(geom, target_h)
        q1 = fields.radial_bump_potential(grid, geom, 1.0)
        box = cgo.build_box_grid(geom, grid)
        q1_even = fields.extend_even(q1, box)
        q2_triv = fields.extend_trivial(fields.zero_potential(grid, geom), box)
        pp = make_phase_pair((1.0, 0.5, 0.0), Variant.SINGLE_REFLECTION, 2.0, 0.0)
        u1 = offset_probe(cgo.build_probe(pp, cgo.box_source(q1_even, grid),
                                          cgo.box_source(q2_triv, grid))).u1
        target = GridField(grid, u1.values * np.exp(u1.log_offset))
        opq = HelmholtzOperator(grid, geom, 0.0, q1)
        basis = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom),
                                           n_modes)
        scale = forward.l2_omega(target, geom)
        for reg in (1e-4, 1e-8):
            _, res = runge_approximate(target, opq, reg, basis)
            residuals[(target_h, reg)] = res / scale
    # regularization monotonicity at fixed discretization
    assert residuals[(0.25, 1e-8)] <= residuals[(0.25, 1e-4)]
    assert residuals[(0.125, 1e-8)] <= residuals[(0.125, 1e-4)]
    # refining the grid and enriching the data space improves the residual
    assert residuals[(0.125, 1e-8)] <= residuals[(0.25, 1e-8)]


# -- admissibility cache and block solves -------------------------------------------------


def test_admissibility_threshold_does_not_stick(geom, monkeypatch):
    # the eigensolve runs once per operator, however many solves follow; at
    # k = 4.5, k^2 is above lambda_ref, so the Weyl bound cannot certify k
    grid = geometry.build_domain(geom, 0.25)
    op = HelmholtzOperator(grid, geom, 4.5, None)
    runs = []
    orig = forward._min_singular
    monkeypatch.setattr(forward, "_min_singular",
                        lambda *a, **kw: runs.append(1) or orig(*a, **kw))
    rep = op.admissibility()
    assert rep.admissible
    assert rep.threshold == 1e-6 * reference_eigenvalue(grid, geom, forward.TRUNCATED)
    f = full_square_field(grid, lambda x, y: np.exp(-x * x - y * y)
                          * (np.hypot(x, y) < geom.R_lat))
    solve_dirichlet(op, f)
    solve_source(op, manufactured_case(geom, grid)[1])
    assert op.admissibility() is rep
    assert len(runs) == 1 and not rep.certified


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_interior_block_matches_columns(geom, grid8, bump8, dtype):
    op = HelmholtzOperator(grid8, geom, 2.5, bump8)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((op.n_active, 5)).astype(dtype)
    if dtype is complex:
        block += 1j * rng.standard_normal(block.shape)
    block[:, 2] = 0.0  # a zero column solves to zero and passes the check
    u = op.solve_interior(block)
    assert u.shape == block.shape and u.dtype == block.dtype
    for j in range(block.shape[1]):
        ref = op.solve_interior(block[:, j])
        assert np.linalg.norm(u[:, j] - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)
    assert not np.any(u[:, 2])


def test_solve_interior_names_failing_column(geom, grid8, monkeypatch):
    op = HelmholtzOperator(grid8, geom, 0.0, None)
    rng = np.random.default_rng(4)
    block = rng.standard_normal((op.n_active, 4))
    lu = op._lu()
    monkeypatch.setattr(op, "_lu", lambda: CorruptingLU(lu, block[:, 1]))
    with pytest.raises(SolveError, match=r"column\(s\) \[1\]") as info:
        op.solve_interior(block)
    assert info.value.columns == [1]
    res = info.value.residual_history
    assert len(res) == 4 and res[1] > 1e-10
    assert max(res[0], res[2], res[3]) <= 1e-10


def test_solve_dirichlet_block_matches_columns(geom, grid8, bump8):
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    basis = dnmap.build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 2)
    u = solve_dirichlet(op, basis.block)
    assert u.values.shape == (len(basis),) + grid8.node_shape
    assert u.values.dtype == np.float64  # real data stay real
    for j, f in enumerate(basis_fields(basis)):
        ref = solve_dirichlet(op, f).values
        assert np.max(np.abs(u.values[j] - ref)) <= 1e-12 * np.max(np.abs(ref))


def _runge_gram_reference(op, basis, u_target):
    """The per-column normal equations: one solve per basis function and an
    O(m^2) loop of weighted full-grid sums."""
    w = forward.omega_weights(op.grid, op.geom)
    sols = [solve_dirichlet(op, f).values for f in basis_fields(basis)]
    m = len(sols)
    gram = np.empty((m, m), dtype=np.complex128)
    rhs = np.empty(m, dtype=np.complex128)
    for i in range(m):
        wi = w * np.conj(sols[i])
        rhs[i] = np.sum(wi * u_target.values)
        for j in range(i, m):
            gram[i, j] = np.sum(wi * sols[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram, rhs


def test_runge_gram_matches_column_reference(geom, grid8, bump8, runge_setup,
                                             monkeypatch):
    opq = HelmholtzOperator(grid8, geom, 0.0, bump8)
    seed_f = full_square_field(grid8, lambda x, y: np.where(
        np.hypot(x, y) < geom.R_lat, np.exp(-(x - 0.3) ** 2 - y * y), 0.0))
    target = solve_dirichlet(opq, seed_f)
    target = GridField(grid8, target.values * (1.0 + 0.5j))
    captured = []
    orig = scipy.linalg.solve

    def spy(a, b, **kw):
        captured.append((a, b))
        return orig(a, b, **kw)

    monkeypatch.setattr(scipy.linalg, "solve", spy)
    reg = 1e-5
    f, res = runge_approximate(target, opq, reg, runge_setup)
    system, rhs = captured[-1]
    gram_ref, rhs_ref = _runge_gram_reference(opq, runge_setup, target)
    gram = system - reg * runge_setup.gram_h32
    assert np.max(np.abs(gram - gram_ref)) <= 1e-13 * np.max(np.abs(gram_ref))
    assert np.max(np.abs(rhs - rhs_ref)) <= 1e-13 * np.max(np.abs(rhs_ref))
    # the reported residual is the weighted L^2(Omega) misfit of the fit
    coef = orig(gram_ref + reg * runge_setup.gram_h32, rhs_ref, assume_a="her")
    sols = np.array([solve_dirichlet(opq, g).values for g in basis_fields(runge_setup)])
    misfit = np.tensordot(coef, sols, axes=(0, 0)) - target.values
    w = forward.omega_weights(grid8, geom)
    ref_res = np.sqrt(np.sum(w * np.abs(misfit) ** 2))
    assert res == pytest.approx(ref_res, rel=1e-8)


# -- the 7-point stencil ----------------------------------------------------------


def seven_point(op, u):
    """(-Lap_h - k^2 + q) u at op's active nodes (in op's unknown order) from
    the full node array u, so its plate and lateral values enter; the
    periodic mode wraps the lateral axes around the unique nodes."""
    ix, iy, iz = np.nonzero(op.active)
    acc = 6.0 * u[ix, iy, iz]
    for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
        jx, jy = ix + dx, iy + dy
        if op.boundary_mode == PERIODIC:
            jx, jy = jx % op.grid.nx, jy % op.grid.ny
        acc -= u[jx, jy, iz + dz]
    return acc / op.grid.h ** 2 + (op.q_active - op.k ** 2) * u[ix, iy, iz]


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from([TRUNCATED, PERIODIC]),
       k=st.sampled_from([0.0, 1.5, 2.5]), amplitude=st.sampled_from([0.0, 1.0]))
def test_dirichlet_solution_satisfies_the_stencil(geom, seed, mode, k, amplitude):
    # a Dirichlet solution, the plate data included: the full-grid stencil
    # vanishes on the active nodes to the solver's relative residual 1e-10
    grid = geometry.build_domain(geom, 0.25)
    q = fields.radial_bump_potential(grid, geom, amplitude) if amplitude else None
    op = HelmholtzOperator(grid, geom, k, q, mode)
    rng = np.random.default_rng(seed)
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid, patch)
    f = boundary.BoundaryField(patch, sq, rng.standard_normal(sq.node_shape)).masked()
    pde = seven_point(op, solve_dirichlet(op, f).values)
    bound = 1e-10 * np.linalg.norm(f.plate_values(grid)) / grid.h ** 2
    assert np.linalg.norm(pde) <= bound


@pytest.mark.parametrize("k", [1e200, np.inf, np.nan, -1.0])
def test_operator_rejects_k_without_a_finite_square(geom, k):
    grid = geometry.build_domain(geom, 0.25)
    with pytest.raises(ValueError, match="frequency k must be >= 0 with a finite square"):
        HelmholtzOperator(grid, geom, k)


# -- the sine-basis factorization ---------------------------------------------------


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
@pytest.mark.parametrize("label", ["zero", "bump", "random"])
@pytest.mark.parametrize("k", [0.0, 2.5, 4.5])
def test_sine_basis_matrix_is_the_rotated_operator(geom, mode, label, k):
    # M = (I_lat x S) A (I_lat x S) with the orthonormal DST-I S on the layers
    grid = geometry.build_domain(geom, 0.25)
    op = HelmholtzOperator(grid, geom, k, _potential(grid, geom, label), mode)
    m = grid.nz - 1
    j = np.arange(1, grid.nz)
    sine = np.sqrt(2.0 / grid.nz) * np.sin(np.pi * np.outer(j, j) / grid.nz)
    rot = np.kron(np.eye(op.n_active // m), sine)
    a = op.matrix.toarray()
    want = rot @ a @ rot
    got = op.sine_basis_matrix()
    assert got.shape == a.shape
    assert np.max(np.abs(got.toarray() - want)) <= 1e-13 * np.max(np.abs(a))
    # the vertical part is diagonal: a q = 0 operator couples no two layers
    rows, cols = got.nonzero()
    if label == "zero":
        assert np.all(rows % m == cols % m)


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sine_basis_solve_matches_physical_lu(geom, grid8, mode, dtype):
    q = _random_supported_potential(grid8, geom, 12)
    op = HelmholtzOperator(grid8, geom, 2.5, q, mode)
    rng = np.random.default_rng(6)
    block = rng.standard_normal((op.n_active, 6)).astype(dtype)
    if dtype is complex:
        block += 1j * rng.standard_normal(block.shape)
    ref_lu = scipy.sparse.linalg.splu(op.matrix.tocsc())
    ref = ref_lu.solve(block.real.copy())
    if dtype is complex:
        ref = ref + 1j * ref_lu.solve(block.imag.copy())
    u = op.solve_interior(block)
    assert u.dtype == block.dtype
    err = np.linalg.norm(u - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-12
    # one column through the factor itself, as the admissibility check uses it
    col = op._lu().solve(block[:, 0].real.copy())
    assert np.linalg.norm(col - ref[:, 0].real) <= 1e-12 * np.linalg.norm(ref[:, 0].real)


@pytest.mark.parametrize("label", ["zero", "bump"])
def test_sine_basis_fill_below_physical_fill(geom, grid8, label):
    op = HelmholtzOperator(grid8, geom, 2.5, _potential(grid8, geom, label))
    physical = scipy.sparse.linalg.splu(
        op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=forward.DIAG_PIVOT_THRESH, options=dict(SymmetricMode=True))
    lu = op._lu().lu
    sine_fill = lu.L.nnz + lu.U.nnz
    physical_fill = physical.L.nnz + physical.U.nnz
    assert sine_fill < physical_fill
    if label == "zero":
        assert 4 * sine_fill <= physical_fill


# -- one plate stencil --------------------------------------------------------------


def _coo_reference(op):
    """A and M as the 3-D COO assembly built them before the plate stencil:
    the active set from the lateral radius, every 7-point neighbour pair
    from shifted index arrays, and M from A's lateral entries."""
    grid, h2, m = op.grid, op.grid.h ** 2, op.grid.nz - 1
    periodic = op.boundary_mode == PERIODIC
    active = np.zeros(grid.node_shape, dtype=bool)
    if periodic:
        active[: grid.nx, : grid.ny, 1: grid.nz] = True
    else:
        active[:, :, 1:-1] = grid.lateral_radius() < op.geom.R_lat
    idx = np.full(grid.node_shape, -1, dtype=np.int64)
    n = int(np.count_nonzero(active))
    idx[active] = np.arange(n)
    q_active = np.zeros(n) if op.q is None else op.q.field.values.real[active]
    rows, cols, data = [np.arange(n)], [np.arange(n)], [6.0 / h2 - op.k ** 2 + q_active]
    for axis in range(3):
        for step in (-1, 1):
            nbr = np.full_like(idx, -1)
            dst, src = [slice(None)] * 3, [slice(None)] * 3
            if periodic and axis in (0, 1):
                dst[axis] = slice(0, (grid.nx, grid.ny)[axis])
                nbr[tuple(dst)] = np.roll(idx[tuple(dst)], -step, axis=axis)
            else:
                dst[axis] = slice(0, -1) if step == 1 else slice(1, None)
                src[axis] = slice(1, None) if step == 1 else slice(0, -1)
                nbr[tuple(dst)] = idx[tuple(src)]
            here = active & (nbr >= 0)
            rows.append(idx[here])
            cols.append(nbr[here])
            data.append(np.full(int(np.count_nonzero(here)), -1.0 / h2))
    a = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()
    coo = a.tocoo()
    lateral = coo.row // m != coo.col // m
    qv = q_active.reshape(-1, m)
    nodes = np.flatnonzero(np.any(qv, axis=1))
    j = np.arange(1, grid.nz)
    s = np.sqrt(2.0 / grid.nz) * np.sin(np.pi * np.outer(j, j) / grid.nz)
    blocks = (s * qv[nodes, None, :]) @ s
    first = np.broadcast_to((m * nodes)[:, None, None], blocks.shape)
    nu = np.tile((4.0 / h2) * np.sin(np.pi * j / (2 * grid.nz)) ** 2, n // m)
    mm = scipy.sparse.csc_matrix((
        np.concatenate([coo.data[lateral], 4.0 / h2 - op.k ** 2 + nu, blocks.ravel()]),
        (np.concatenate([coo.row[lateral], np.arange(n), (first + np.arange(m)[:, None]).ravel()]),
         np.concatenate([coo.col[lateral], np.arange(n), (first + np.arange(m)).ravel()]))),
        shape=(n, n))
    return idx, a, mm


def _same_bits(got, want):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
@pytest.mark.parametrize("target_h", [0.25, 0.125])
@pytest.mark.parametrize("label", ["zero", "bump"])
def test_operators_match_the_3d_coo_assembly_bit_for_bit(geom, mode, target_h, label):
    grid = geometry.build_domain(geom, target_h)
    q = _potential(grid, geom, label)
    for k in (0.0, 2.5, 4.5):
        op = HelmholtzOperator(grid, geom, k, q, mode)
        idx, a, mm = _coo_reference(op)
        assert np.array_equal(op.index, idx)
        assert np.array_equal(op.active, idx >= 0)
        assert np.array_equal(op.lateral, op.active[:, :, 1])
        _same_bits(op.matrix, a)
        _same_bits(op.sine_basis_matrix(), mm)


def _kron_stencil(grid, geom, mode):
    """The plate stencil as scipy's kron and kronsum built it before index
    arithmetic: the lateral mask, the plate couplings (CSR) and A's CSR
    pattern, couplings x I + I x T_z plus the diagonal on the nz - 1 layers,
    from COO triples."""
    periodic = mode == PERIODIC
    nx, ny = (grid.nx, grid.ny) if periodic else grid.node_shape[:2]
    mask = np.zeros(grid.node_shape[:2], dtype=bool)
    mask[:nx, :ny] = True if periodic else geometry.interior_mask(grid, geom)[:, :, 1]

    def chain(n):  # neighbours along one axis: a line of n nodes, or a ring
        i = np.arange(n if periodic else n - 1)
        a = scipy.sparse.coo_matrix((np.full(i.size, -1.0 / grid.h ** 2), (i, (i + 1) % n)),
                                    shape=(n, n))
        return a + a.T

    keep = mask[:nx, :ny].ravel()
    couplings = scipy.sparse.kronsum(chain(ny), chain(nx), format="csr")[keep][:, keep]
    m, p = grid.nz - 1, couplings.shape[0]
    parts = [scipy.sparse.kron(couplings, scipy.sparse.identity(m), format="coo"),
             scipy.sparse.identity(m * p, format="coo"),
             scipy.sparse.kron(scipy.sparse.identity(p), scipy.sparse.diags_array(
                 [-1.0 / grid.h ** 2, -1.0 / grid.h ** 2], offsets=[-1, 1], shape=(m, m)),
                 format="coo")]
    rows, cols, data = (np.concatenate(x) for x in zip(*((a.row, a.col, a.data) for a in parts)))
    pattern = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(m * p, m * p)).tocsr()
    return mask, couplings, pattern


def _check_stencil(st, grid, geom, mode):
    """st against `_kron_stencil`: bits, index dtypes and read-only flags."""
    mask, couplings, pattern = _kron_stencil(grid, geom, mode)
    assert st.mask.dtype == bool and np.array_equal(st.mask, mask)
    _same_bits(st.couplings, couplings)
    for name in ("indptr", "indices"):
        got, want = getattr(st, name), getattr(pattern, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    assert np.array_equal(st.diagonal, np.flatnonzero(rows == pattern.indices))
    active = np.zeros(grid.node_shape, dtype=bool)
    active[:, :, 1:-1] = mask[:, :, None]
    assert np.array_equal(st.active, active)
    assert np.array_equal(st.index[active], np.arange(pattern.shape[0]))
    assert np.all(st.index[~active] == -1) and st.index.dtype == np.int64
    for a in (st.mask, st.couplings.data, st.couplings.indices, st.couplings.indptr, st.active,
              st.index, st.indices, st.indptr, st.diagonal, st.doubled, st.cells):
        assert not a.flags.writeable


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
@pytest.mark.parametrize("target_h", [0.25, 0.125])
def test_plate_stencil_matches_the_kron_construction(geom, mode, target_h):
    grid = geometry.build_domain(geom, target_h)
    st = forward.plate_stencil(grid, geom, mode)
    _check_stencil(st, grid, geom, mode)
    assert len(st.doubled) == 0


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (2, 2)])
def test_ring_of_two_nodes_doubles_its_couplings(geom, shape):
    # on a periodic ring of two nodes both neighbours along that axis are the
    # other node: kronsum sums the two couplings to -2/h^2, and so do the
    # stencil and the operator
    grid = geometry.Grid3(*shape, 4, 0.25, (0.0, 0.0, 0.0))
    st = forward.plate_stencil(grid, geom, PERIODIC)
    _check_stencil(st, grid, geom, PERIODIC)
    h2 = grid.h ** 2
    assert np.all(np.isin(st.couplings.data, (-1.0 / h2, -2.0 / h2)))
    assert np.any(st.couplings.data == -2.0 / h2) and len(st.doubled) > 0
    op = HelmholtzOperator(grid, geom, 1.5, None, PERIODIC)
    _, a, mm = _coo_reference(op)
    _same_bits(op.matrix, a)
    _same_bits(op.sine_basis_matrix(), mm)
    with pytest.raises(ValueError, match="two nodes or more"):
        forward.plate_stencil(geometry.Grid3(1, 5, 4, 0.25, (0.0, 0.0, 0.0)), geom, PERIODIC)


def _forward_order_operators(geom, mode):
    """The twelve operators of the forward-order benchmark, in one mode."""
    for grid in (geometry.build_domain(geom, h) for h in (0.25, 0.125)):
        bump = fields.radial_bump_potential(grid, geom, 1.0)
        for q in (None, bump):
            for k in (0.0, 2.5, 4.5):
                yield HelmholtzOperator(grid, geom, k, q, mode)


def test_plate_stencil_built_once_per_grid_and_read_only(geom):
    # the twelve operators of the forward-order benchmark share two stencils,
    # whose arrays they hold without a copy
    forward.plate_stencil.cache_clear()
    ops = list(_forward_order_operators(geom, TRUNCATED))
    assert forward.plate_stencil.cache_info().misses == 2
    grid = ops[0].grid
    st = forward.plate_stencil(grid, geom, TRUNCATED)
    for op in ops[:6]:
        assert np.shares_memory(op.matrix.indices, st.indices)
        assert np.shares_memory(op.matrix.indptr, st.indptr)
        assert op.active is st.active and op.index is st.index and op.lateral is st.mask
    for a in (st.mask, st.couplings.data, st.active, st.index, st.indices, st.diagonal):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert np.array_equal(st.mask, geometry.interior_mask(grid, geom)[:, :, 1])
    # every node of the periodic cell has four neighbours
    periodic = forward.plate_stencil(grid, geom, PERIODIC).couplings
    assert np.all(np.diff(periodic.indptr) == 4)
    with pytest.raises(ValueError, match="unknown boundary mode"):
        forward.plate_stencil(grid, geom, "neumann")


def _count_calls(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends name to calls."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
def test_operators_on_a_cached_pattern_do_no_coo_work(geom, monkeypatch, mode):
    # once its grid's pattern is cached, an operator only writes its values,
    # and its sine-basis matrix is written into the same pattern
    list(_forward_order_operators(geom, mode))
    calls = []
    for cls in (scipy.sparse.coo_matrix, scipy.sparse.coo_array):
        for name in ("tocsr", "tocsc", "asformat"):
            _count_calls(monkeypatch, cls, name, calls)
    _count_calls(monkeypatch, scipy.sparse, "coo_matrix", calls)
    ops = list(_forward_order_operators(geom, mode))
    assert len(ops) == 12
    for op in ops:
        op.sine_basis_matrix()
    assert calls == []


# -- CG preconditioned by the box solve ------------------------------------------


class Counting:
    """Wraps a function and counts its calls."""

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


def _counted_box_solve(op, monkeypatch):
    counter = Counting(op._box_solve)
    monkeypatch.setattr(op, "_box_solve", counter)
    return counter


def _single_datum(geom, grid, seed):
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid, patch)
    rng = np.random.default_rng(seed)
    return boundary.BoundaryField(patch, sq, rng.standard_normal(sq.node_shape)).masked()


def _chain(n, periodic):
    """Dense 1-D second difference times h^2 on n nodes: Dirichlet or a ring."""
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if periodic:
        t[0, -1] -= 1.0
        t[-1, 0] -= 1.0
    return t


def _box_matrix(grid, mode):
    """L_box assembled densely as a Kronecker sum on the lateral box (the
    interior nodes of the lateral node square, or the periodic cell) times the
    layers, C order with z fastest, and the box node of each lateral node."""
    periodic = mode == PERIODIC
    nx, ny = (grid.nx, grid.ny) if periodic else (grid.nx - 1, grid.ny - 1)
    tx, ty, tz = _chain(nx, periodic), _chain(ny, periodic), _chain(grid.nz - 1, False)
    ix, iy, iz = np.eye(nx), np.eye(ny), np.eye(grid.nz - 1)
    box = (np.kron(np.kron(tx, iy), iz) + np.kron(np.kron(ix, ty), iz)
           + np.kron(np.kron(ix, iy), tz)) / grid.h ** 2
    return box, nx, ny


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
def test_box_solve_is_the_box_inverse(geom, mode):
    # h = 1/4: B = R (L_box - k^2)^{-1} R^T against the dense Kronecker sum,
    # the free operator is R (L_box - k^2) R^T, and lambda_box is the box's
    # smallest eigenvalue
    grid = geometry.build_domain(geom, 0.25)
    k = 1.5
    op = HelmholtzOperator(grid, geom, k, None, mode)
    box, nx, ny = _box_matrix(grid, mode)
    m = grid.nz - 1
    lateral = op.lateral[:nx, :ny] if mode == PERIODIC else op.lateral[1:-1, 1:-1]
    keep = np.repeat(lateral.ravel(), m)
    shifted = box - k ** 2 * np.eye(len(box))
    assert np.array_equal(op.matrix.toarray(), shifted[np.ix_(keep, keep)])
    want = np.linalg.inv(shifted)[np.ix_(keep, keep)]
    got = np.column_stack([op._box_solve(e) for e in np.eye(op.n_active)])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    lam = forward.box_eigenvalues(grid, mode)
    dense = np.linalg.eigvalsh(box)
    assert lam[0, 0, 0] == pytest.approx(dense[0], rel=1e-12)
    assert lam.min() == lam[0, 0, 0] and not lam.flags.writeable
    if mode == TRUNCATED:  # the whole spectrum
        assert np.allclose(np.sort(lam.ravel()), dense, rtol=1e-12, atol=0)
    assert lam[0, 0, 0] <= reference_eigenvalue(grid, geom, mode) * (1 + 1e-12)


@pytest.mark.parametrize("target_h", [0.25, 0.125])
def test_box_solve_matches_the_masked_reference_bit_for_bit(geom, target_h):
    # the flat cell index scatters and gathers what the boolean mask of the
    # interior box nodes did, with the same bits
    grid = geometry.build_domain(geom, target_h)
    op = HelmholtzOperator(grid, geom, 2.5, fields.radial_bump_potential(grid, geom, 1.0))
    r = np.random.default_rng(3).standard_normal(op.n_active)
    m, inner = grid.nz - 1, op.lateral[1:-1, 1:-1]
    sx, sy, sz = (boundary.dst1_matrix(n) for n in (grid.nx, grid.ny, grid.nz))
    v = np.zeros(inner.shape + (m,))
    v[inner] = r.reshape(-1, m)
    v = forward._sine3(v, sx, sy, sz) / (forward.box_eigenvalues(grid, TRUNCATED) - 2.5 ** 2)
    want = forward._sine3(v, sx, sy, sz)[inner].ravel()
    assert op._box_solve(r).tobytes() == want.tobytes()


def test_disc_must_lie_inside_the_box(geom):
    narrow = geometry.Grid3(8, 8, 4, 0.25, (-0.75, -0.75, 0.0))  # plate edge inside R_lat
    with pytest.raises(ValueError, match="edge of the lateral node square"):
        forward.plate_stencil(narrow, geom, TRUNCATED)


@pytest.mark.parametrize("mode", [TRUNCATED, PERIODIC])
@pytest.mark.parametrize("target_h", [0.25, 0.125])
@pytest.mark.parametrize("label", ["zero", "bump", "bump_cos3x", "random"])
@pytest.mark.parametrize("k", [0.0, 2.5])
def test_single_rhs_by_cg_matches_lu(geom, monkeypatch, mode, target_h, label, k):
    # A and the box operator are certified positive definite: one source and
    # one datum go by CG through the box solve, within the iteration cap, and
    # the operator never factors itself
    grid = geometry.build_domain(geom, target_h)
    q = _potential(grid, geom, label)
    op = HelmholtzOperator(grid, geom, k, q, mode)
    ref = HelmholtzOperator(grid, geom, k, q, mode)._lu()
    cap = op.cg_iteration_cap()
    assert cap == forward.CG_MAX_ITERATIONS
    counter = _counted_box_solve(op, monkeypatch)
    rng = np.random.default_rng(8)
    w = np.zeros(grid.node_shape, dtype=np.complex128)
    w[op.active] = rng.standard_normal(op.n_active) + 1j * rng.standard_normal(op.n_active)
    got = solve_source(op, GridField(grid, w)).values[op.active]
    b = w[op.active]
    want = ref.solve(b.real.copy()) + 1j * ref.solve(b.imag.copy())
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert counter.calls <= 2 * cap
    calls = counter.calls
    f = _single_datum(geom, grid, 9)
    got = solve_dirichlet(op, f).values[op.active]
    want = ref.solve(forward._top_plate_rhs(op, f.plate_values(grid).real))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert 0 < counter.calls - calls <= cap
    assert op._lu_cache is None


def test_periodic_free_operator_converges_in_one_iteration(geom, grid8):
    # in periodic mode the box solve is the free operator's exact inverse
    op = HelmholtzOperator(grid8, geom, 2.5, None, PERIODIC)
    b = np.random.default_rng(15).standard_normal(op.n_active)
    x = forward._pcg(op.matrix, op._box_solve, b, cap=1)
    want = scipy.sparse.linalg.splu(op.matrix.tocsc()).solve(b)
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("k, block_first, rtol", [(0.0, False, 1e-14), (2.5, True, 1e-14),
                                                  (4.5, False, 1e-13)])
def test_real_source_solved_as_one_real_column(geom, grid8, bump8, monkeypatch, k,
                                               block_first, rtol):
    # a complex source with zero imaginary part costs one real column, by CG
    # (k = 0) or through the LU (a factor held, or an uncertified k); the
    # field is real and matches the solve of the complex column.  At
    # k = 4.5, sigma_min = 0.77, one- and two-column LU solves round apart by
    # 2e-14
    op = HelmholtzOperator(grid8, geom, k, bump8)
    op.admissibility()
    if block_first:
        op.solve_interior(np.ones((op.n_active, 2)))
    w = np.zeros(grid8.node_shape, dtype=np.complex128)
    w[op.active] = np.random.default_rng(16).standard_normal(op.n_active)
    shapes = []
    orig = op.solve_interior
    monkeypatch.setattr(op, "solve_interior", lambda rhs: shapes.append(
        (rhs.shape, rhs.dtype)) or orig(rhs))
    got = solve_source(op, GridField(grid8, w)).values
    assert shapes == [((op.n_active,), np.float64)] and got.dtype == np.float64
    assert (op._lu_cache is None) == (k == 0.0)
    want = orig(w[op.active])
    assert np.linalg.norm(got[op.active] - want) <= rtol * np.linalg.norm(want)


def test_cg_skips_a_zero_column(geom, grid8, bump8, monkeypatch):
    # a real right-hand side split into real and imaginary halves: the zero
    # half costs no preconditioner call
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    counter = _counted_box_solve(op, monkeypatch)
    b = np.random.default_rng(10).standard_normal(op.n_active)
    u = op.solve_interior(b.astype(np.complex128))
    assert not np.any(u.imag)
    real_calls = counter.calls
    counter.calls = 0
    assert np.array_equal(op.solve_interior(b), u.real)
    assert counter.calls == real_calls


def _uses_lu(op, rhs, monkeypatch):
    counter = _counted_box_solve(op, monkeypatch)
    op.solve_interior(rhs)
    return op._lu_cache is not None and counter.calls == 0


def test_blocks_and_uncertified_operators_use_lu(geom, grid8, bump8, monkeypatch):
    rng = np.random.default_rng(12)
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    assert _uses_lu(op, rng.standard_normal((op.n_active, 3)), monkeypatch)
    # a factor held: one right-hand side goes through it too
    assert op.cg_iteration_cap() == 0
    assert _uses_lu(op, rng.standard_normal(op.n_active), monkeypatch)
    # a one-column block is still a block
    op = HelmholtzOperator(grid8, geom, 0.0, None)
    assert _uses_lu(op, rng.standard_normal((op.n_active, 1)), monkeypatch)
    # k^2 above lambda_ref: no certificate for A
    op = HelmholtzOperator(grid8, geom, 4.5, bump8)
    assert op.cg_iteration_cap() == 0
    assert _uses_lu(op, rng.standard_normal(op.n_active), monkeypatch)
    # q = 10 at k^2 = 15 > lambda_ref: A is certified, the box operator is not
    inside = np.broadcast_to(grid8.lateral_radius() <= 2.0, grid8.node_shape)
    wide = geometry.SlabGeometry(1.0, 2.0, 2.5, 3.0, 0.1)  # q = 10 on every active node
    ten = fields.Potential(GridField(grid8, np.where(inside, 10.0 + 0j, 0.0)), wide, 1e12)
    op = HelmholtzOperator(grid8, geom, np.sqrt(15.0), ten)
    assert 15.0 > reference_eigenvalue(grid8, geom, TRUNCATED)
    assert op.admissibility().certified
    assert op.cg_iteration_cap() == 0
    assert _uses_lu(op, rng.standard_normal(op.n_active), monkeypatch)


@pytest.mark.parametrize("label", ["zero", "bump"])
def test_truncated_k_between_box_and_reference_uses_lu(geom, grid8, monkeypatch, label):
    # lambda_box <= k^2 < lambda_ref + min q: Weyl certifies A, but the box
    # operator is indefinite, so the solve factors A
    lam_ref = reference_eigenvalue(grid8, geom, TRUNCATED)
    lam_box = forward.box_eigenvalues(grid8, TRUNCATED)[0, 0, 0]
    assert lam_box < lam_ref
    q = _potential(grid8, geom, label)
    op = HelmholtzOperator(grid8, geom, np.sqrt(0.5 * (lam_box + lam_ref)), q)
    assert op.admissibility().certified
    assert op.cg_iteration_cap() == 0
    assert _uses_lu(op, np.random.default_rng(17).standard_normal(op.n_active), monkeypatch)


def test_cg_iteration_cap_from_the_certificate(geom, grid8, bump8, monkeypatch):
    # the cap is the stated constant wherever the certificate holds, with
    # margin over the iterations a certified source takes (19 here)
    op = HelmholtzOperator(grid8, geom, 2.5, bump8)
    assert op.cg_iteration_cap() == forward.CG_MAX_ITERATIONS
    counter = _counted_box_solve(op, monkeypatch)
    op.solve_interior(np.random.default_rng(18).standard_normal(op.n_active))
    assert 0 < counter.calls <= 30 < forward.CG_MAX_ITERATIONS // 10
    assert HelmholtzOperator(grid8, geom, 4.5, bump8).cg_iteration_cap() == 0


@pytest.mark.parametrize("shift", [1.0, np.nan])
def test_corrupt_preconditioner_fails_the_residual_check(geom, grid8, bump8, monkeypatch,
                                                         shift):
    # a shifted preconditioner stalls CG; a NaN one must not pass the check
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    box_solve = op._box_solve
    monkeypatch.setattr(op, "_box_solve", lambda r: box_solve(r) + shift)
    with pytest.raises(SolveError, match=r"column\(s\) \[0\]") as info:
        op.solve_interior(np.random.default_rng(13).standard_normal(op.n_active))
    assert not info.value.residual_history[0] <= 1e-10


def test_forward_order_operators_factor_only_at_indefinite_k(geom, monkeypatch):
    # the benchmark's forward-order set, {free, bump} x k in {0, 2.5, 4.5} at
    # h in {1/4, 1/8}, one source each: only the four k = 4.5 operators,
    # which Lanczos checks, build a sparse LU
    factored = Counting(scipy.sparse.linalg.splu)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", factored)
    for h in (0.25, 0.125):
        grid = geometry.build_domain(geom, h)
        bump = fields.radial_bump_potential(grid, geom, 1.0)
        w = GridField(grid, np.random.default_rng(19).standard_normal(grid.node_shape))
        for q in (None, bump):
            for k in (0.0, 2.5, 4.5):
                solve_source(HelmholtzOperator(grid, geom, k, q), w)
    assert factored.calls == 4


def test_measurement_pair_never_calls_the_box_solve(geom, monkeypatch):
    def no_box_solve(self, r):
        raise AssertionError("blocks go through the LU")

    monkeypatch.setattr(HelmholtzOperator, "_box_solve", no_box_solve)
    grid = geometry.build_domain(geom, 0.25)
    q1 = fields.radial_bump_potential(grid, geom, 1.0)
    _src, _tgt, d = dnmap.measurement_pair(grid, geom, 0.0, q1, fields.zero_potential(grid, geom),
                                           Plate.BOTTOM, 3)
    assert np.all(np.isfinite(d.matrix)) and np.any(d.matrix)


def test_source_constant_logged_only_at_info(geom, grid8, bump8, caplog, monkeypatch):
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    w = np.zeros(grid8.node_shape, dtype=np.complex128)
    w[op.active] = np.random.default_rng(14).standard_normal(op.n_active)
    w = GridField(grid8, w)
    caplog.set_level(logging.INFO, logger="slabinv.forward")
    v = solve_source(op, w)
    want = f"source solve: ||v|| <= C ||w|| with C = {l2_omega(v, geom) / l2_omega(w, geom):.6g}"
    assert [r.getMessage() for r in caplog.records] == [want]
    caplog.clear()
    caplog.set_level(logging.WARNING, logger="slabinv.forward")

    def no_norm(*args):
        raise AssertionError("l2_omega runs only for the INFO message")

    monkeypatch.setattr(forward, "l2_omega", no_norm)
    assert np.array_equal(solve_source(op, w).values, v.values)
    assert not caplog.records

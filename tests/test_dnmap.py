import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from conftest import corrupt_datum, l2_inner, norm_h32, poly_bump, poly_bump_dd
from slabinv import boundary, dnmap, fields, forward, geometry
from slabinv.boundary import BoundaryField, mode_field
from slabinv.dnmap import (
    BoundaryBasis,
    assemble_dn,
    build_boundary_basis,
    hm32_maximizer,
    norm_hm32,
    op_norm_star,
    read_matrix,
    write_matrix,
)
from slabinv.forward import PERIODIC, HelmholtzOperator, l2_omega, solve_dirichlet
from slabinv.geometry import BoundaryPatch, PatchKind, Plate


@pytest.fixture(scope="module")
def open_patch():
    # patch whose disc circumscribes every bounding square in these tests:
    # masks become no-ops, making the spectral formulas exact
    return BoundaryPatch(Plate.BOTTOM, PatchKind.NEUMANN, 0.0, 1e9)


@pytest.fixture(scope="module")
def open_basis(grid8, open_patch):
    return build_boundary_basis(grid8, open_patch, 8, apply_mask=False)


@pytest.fixture(scope="module")
def masked_bases(geom, grid8, op0_8):
    src = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    src.attach_triple_gram(op0_8)
    tgt = build_boundary_basis(grid8, geometry.neumann_patch(geom, Plate.BOTTOM), 4)
    return src, tgt


# -- H^{3/2} norm -------------------------------------------------------------------


def test_norm_h32_zero(open_basis, open_patch):
    z = BoundaryField(open_patch, open_basis.square,
                      np.zeros(open_basis.square.node_shape))
    assert norm_h32(z) == 0.0


def test_norm_h32_single_mode(open_basis, open_patch):
    sq = open_basis.square
    g = mode_field(open_patch, sq, 2, 3, apply_mask=False)
    assert g.l2_norm() == pytest.approx(1.0, rel=1e-12)
    kap2 = (2 * np.pi / sq.side) ** 2 + (3 * np.pi / sq.side) ** 2
    assert norm_h32(g) == pytest.approx((1 + kap2) ** 0.75, rel=1e-12)


def test_norm_h32_gram_consistency(open_basis):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(len(open_basis))
    vals = np.tensordot(c, np.array([f.values for f in open_basis.functions]),
                        axes=(0, 0))
    g = BoundaryField(open_basis.patch, open_basis.square, vals)
    direct = norm_h32(g) ** 2
    through_gram = float(c @ open_basis.gram_h32 @ c)
    assert abs(direct - through_gram) <= 1e-10 * max(1.0, direct)


# -- dual norm ----------------------------------------------------------------------


def test_norm_hm32_zero(open_basis, open_patch):
    z = BoundaryField(open_patch, open_basis.square,
                      np.zeros(open_basis.square.node_shape))
    assert norm_hm32(z, open_basis) == 0.0


def test_norm_hm32_single_mode(open_basis, open_patch):
    sq = open_basis.square
    r = mode_field(open_patch, sq, 2, 3, apply_mask=False)
    kap2 = (2 * np.pi / sq.side) ** 2 + (3 * np.pi / sq.side) ** 2
    assert norm_hm32(r, open_basis) == pytest.approx((1 + kap2) ** -0.75, rel=1e-12)


def test_norm_hm32_random_search(open_basis, open_patch):
    # the closed-form maximizer attains the sup; random candidates never beat it
    rng = np.random.default_rng(23)
    sq = open_basis.square
    rvals = np.tensordot(rng.standard_normal(len(open_basis))
                         + 1j * rng.standard_normal(len(open_basis)),
                         np.array([f.values for f in open_basis.functions]),
                         axes=(0, 0))
    r = BoundaryField(open_patch, sq, rvals)
    dual = norm_hm32(r, open_basis)
    gstar = hm32_maximizer(r, open_basis)
    candidates = [gstar]
    for _ in range(1000):
        c = rng.standard_normal(len(open_basis)) + 1j * rng.standard_normal(len(open_basis))
        vals = np.tensordot(c, np.array([f.values for f in open_basis.functions]),
                            axes=(0, 0))
        candidates.append(BoundaryField(open_patch, sq, vals))
    ratios = [abs(l2_inner(g, r)) / norm_h32(g) for g in candidates]
    best = max(ratios)
    assert best <= dual * (1 + 1e-10)
    assert (dual - best) / dual <= 1e-3


# -- triple norm --------------------------------------------------------------------


def triple_norm(f, op0):
    """L^2 norm over the truncated domain of the free solution with data f."""
    if op0.q is not None and np.max(np.abs(op0.q.field.values)) > 0:
        raise ValueError("triple norm is defined through the zero potential")
    return l2_omega(solve_dirichlet(op0, f), op0.geom)


def test_triple_norm_zero_and_homogeneity(geom, grid8, op0_8):
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid8, patch)
    z = BoundaryField(patch, sq, np.zeros(sq.node_shape))
    assert triple_norm(z, op0_8) == 0.0
    f = mode_field(patch, sq, 2, 1)
    t = triple_norm(f, op0_8)
    assert triple_norm(f.copy_with(-3.5 * f.values), op0_8) == pytest.approx(
        3.5 * t, rel=1e-12)


def test_triple_norm_rejects_nonzero_potential(geom, grid8, bump8):
    opq = HelmholtzOperator(grid8, geom, 0.0, bump8)
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid8, patch)
    f = mode_field(patch, sq, 1, 1)
    with pytest.raises(ValueError, match="zero potential"):
        triple_norm(f, opq)


def test_triple_norm_separation_closed_form(geom):
    # periodic single mode: || sinh(mu z)/sinh(mu L) ||_{L^2} in closed form
    errs = []
    for target_h in (0.125, 0.0625):
        grid = geometry.build_domain(geom, target_h)
        op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
        per = grid.nx * grid.h
        kap = 2 * np.pi / per
        patch = BoundaryPatch(Plate.TOP, PatchKind.DIRICHLET, 0.0, 1e9)
        sq = boundary.full_plate_square(grid)
        x = sq.axis_nodes(0)[:, None]
        f = BoundaryField(patch, sq,
                          np.exp(1j * kap * x) * np.ones((1, sq.ns + 1)))
        mu = kap
        # integral of sinh^2(mu z)/sinh^2(mu L) over the slab times the
        # truncated plate area (|exp(i kap x)| = 1 on the cylinder)
        z_int = (np.sinh(2 * mu * geom.L) / (4 * mu) - geom.L / 2) / np.sinh(mu * geom.L) ** 2
        r = grid.lateral_radius()[:, :, 0]
        area = grid.h ** 2 * np.count_nonzero(r < geom.R_lat)
        expected = np.sqrt(area * z_int)
        got = triple_norm(f, op)
        errs.append(abs(got - expected) / expected)
    assert errs[1] < errs[0] and errs[1] < 4 * 0.0625 ** 2


# -- DN assembly --------------------------------------------------------------------


def test_assemble_dn_deterministic(geom, grid8, op0_8, masked_bases):
    src, _ = masked_bases
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    d1 = assemble_dn(op0_8, src, target)
    d2 = assemble_dn(op0_8, src, target)
    assert np.array_equal(d1.matrix, d2.matrix)


def test_assemble_dn_matches_partial_pivoting(geom, grid8, bump8, masked_bases):
    src, _ = masked_bases
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    ref_op = HelmholtzOperator(grid8, geom, 0.0, bump8)
    ref_op.admissibility()  # on the sine-basis factor, before the swap below
    ref_op._lu_cache = scipy.sparse.linalg.splu(ref_op.matrix.tocsc())
    dn = assemble_dn(op, src, target).matrix
    ref = assemble_dn(ref_op, src, target).matrix
    assert np.linalg.norm(dn - ref) <= 1e-10 * np.linalg.norm(ref)


def test_assemble_dn_near_diagonal_periodic(geom):
    # periodic exponential basis diagonalizes the free DN map
    grid = geometry.build_domain(geom, 0.125)
    op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
    patch = BoundaryPatch(Plate.TOP, PatchKind.DIRICHLET, 0.0, 1e9)
    sq = boundary.full_plate_square(grid)
    x = sq.axis_nodes(0)[:, None]
    y = sq.axis_nodes(1)[None, :]
    per = grid.nx * grid.h
    k2p = 2 * np.pi / per
    modes = [(1, 0), (0, 1), (1, 1)]
    functions = [BoundaryField(patch, sq, np.exp(1j * k2p * (mx * x + my * y)))
                 for mx, my in modes]
    basis = BoundaryBasis.raw(patch, sq, functions)
    target_top = BoundaryPatch(Plate.TOP, PatchKind.NEUMANN, 0.0, 1e9)
    target_bot = BoundaryPatch(Plate.BOTTOM, PatchKind.NEUMANN, 0.0, 1e9)
    for target, formula in (
        (target_top, lambda mu: mu / np.tanh(mu * geom.L)),
        (target_bot, lambda mu: -mu / np.sinh(mu * geom.L)),
    ):
        dn = assemble_dn(op, basis, target)
        for j, (mx, my) in enumerate(modes):
            mu = k2p * np.hypot(mx, my)
            expected = formula(mu) * functions[j].values.ravel()
            rel = (np.max(np.abs(dn.matrix[:, j] - expected))
                   / np.max(np.abs(expected)))
            assert rel < 4 * grid.h ** 2


def test_dn_sensitivity_linear_in_potential(geom, grid8, op0_8, masked_bases):
    src, _ = masked_bases
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    d0 = assemble_dn(op0_8, src, target)
    norms = []
    for eta in (2e-3, 1e-3, 5e-4):
        q = fields.radial_bump_potential(grid8, geom, eta)
        opq = HelmholtzOperator(grid8, geom, 0.0, q)
        dq = assemble_dn(opq, src, target)
        norms.append(np.linalg.norm(dq.matrix - d0.matrix))
    assert norms[0] == pytest.approx(2 * norms[1], rel=0.05)
    assert norms[1] == pytest.approx(2 * norms[2], rel=0.05)


# -- star norm ----------------------------------------------------------------------


def _star_pencil(matrix: np.ndarray, src_basis: BoundaryBasis,
                 tgt_basis: BoundaryBasis) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian pencil (M, G) whose top eigenvalue is the squared star norm:
    M = P^H H^{-1} P with the pairings P = h^2 conj(test modes) D, H the
    H^{3/2} Gram of the test basis and G the triple Gram of the source basis."""
    h2 = tgt_basis.square.h ** 2
    conj_stack = np.conj(tgt_basis.block.values.reshape(len(tgt_basis), -1))
    pair = h2 * (conj_stack @ matrix)
    cho = scipy.linalg.cho_factor(tgt_basis.gram_h32)
    m_mat = np.conj(pair).T @ scipy.linalg.cho_solve(cho, pair)
    return m_mat, src_basis.gram_triple


def op_norm_star_pencil(matrix_diff, src_basis, tgt_basis) -> float:
    """The star norm as the top eigenvalue of the dense generalized pencil."""
    m_mat, g = _star_pencil(matrix_diff, src_basis, tgt_basis)
    vals = scipy.linalg.eigh(m_mat, g, eigvals_only=True)
    return float(np.sqrt(max(float(vals[-1]), 0.0)))


def op_norm_star_power(matrix_diff: np.ndarray, src_basis: BoundaryBasis,
                       tgt_basis: BoundaryBasis, seed: int = 0,
                       max_iter: int = 500, rel_tol: float = 1e-6) -> float:
    """Power-iteration evaluation of the star norm (cross-check oracle)."""
    m_mat, g = _star_pencil(matrix_diff, src_basis, tgt_basis)
    n = m_mat.shape[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], np.uint64)))
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cho_g = scipy.linalg.cho_factor(g)
    lam_prev = None
    for _ in range(max_iter):
        z = scipy.linalg.cho_solve(cho_g, m_mat @ c)
        nz = np.linalg.norm(z)
        if nz == 0:
            return 0.0
        c = z / nz
        num = np.real(np.vdot(c, m_mat @ c))
        den = np.real(np.vdot(c, g @ c))
        lam = num / den
        if lam_prev is not None and abs(lam - lam_prev) <= rel_tol * max(abs(lam), 1e-300):
            break
        lam_prev = lam
    return float(np.sqrt(max(lam, 0.0)))


def test_op_norm_star_zero_and_homogeneity(masked_bases):
    src, tgt = masked_bases
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    rng = np.random.default_rng(2)
    d = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
    assert op_norm_star(np.zeros_like(d), src, tgt) == 0.0
    n1 = op_norm_star(d, src, tgt)
    assert op_norm_star(-2.5 * d, src, tgt) == pytest.approx(2.5 * n1, rel=1e-12)


def test_op_norm_star_triangle_and_random_search(masked_bases):
    src, tgt = masked_bases
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        a = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
        b = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
        na, nb, nab = (op_norm_star(m, src, tgt) for m in (a, b, a + b))
        worst = max(worst, (nab - na - nb) / (na + nb))
    assert worst <= 1e-10

    # power-iteration evaluation agrees with the dense pencil solve
    d = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
    dense = op_norm_star(d, src, tgt)
    power = op_norm_star_power(d, src, tgt)
    assert power == pytest.approx(dense, rel=1e-6)

    # random coefficient search never exceeds the reported norm
    gt = src.gram_triple
    best = 0.0
    for _ in range(200):
        c = rng.standard_normal(len(src)) + 1j * rng.standard_normal(len(src))
        img = boundary.BoundaryField(tgt.patch, tgt.square,
                                     (d @ c).reshape(tgt.square.node_shape))
        best = max(best, norm_hm32(img, tgt) / np.sqrt(np.real(np.vdot(c, gt @ c))))
    assert best <= dense * (1 + 1e-10)


def test_equal_potentials_noise_floor(geom, grid8, masked_bases):
    src, tgt = masked_bases
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    q = fields.radial_bump_potential(grid8, geom, 0.5)
    op_a = HelmholtzOperator(grid8, geom, 0.0, q)
    op_b = HelmholtzOperator(grid8, geom, 0.0, q)
    da = assemble_dn(op_a, src, target)
    db = assemble_dn(op_b, src, target)
    floor = op_norm_star(da.matrix - db.matrix, src, tgt)
    assert floor < 1e-8


def test_dual_norm_monotone_in_patch(geom, grid8, op0_8):
    # enlarging the measurement patch enlarges the test space, so the dual
    # norm of a fixed trace never decreases
    small = build_boundary_basis(
        grid8, BoundaryPatch(Plate.BOTTOM, PatchKind.NEUMANN, 0.0, 1.0), 4)
    src = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 3)
    f = src.functions[4]
    u = solve_dirichlet(op0_8, f)
    tr_small = forward.neumann_trace(u, small.patch)
    big_patch = BoundaryPatch(Plate.BOTTOM, PatchKind.NEUMANN, 0.0, geom.R_prime)
    big = build_boundary_basis(grid8, big_patch, 4)
    tr_big = boundary.from_plate_values(
        grid8, big_patch,
        forward.neumann_trace(u, big_patch, apply_mask=False).plate_values(grid8),
        square=big.square)
    n_small = norm_hm32(tr_small.masked(), small)
    n_big = norm_hm32(tr_big, big)
    assert n_big >= n_small - 1e-12


def test_boundedness_constant_stable_under_refinement(geom, bump8):
    # || DN f ||_{H^{-3/2}} <= C * triple(f): fitted C stable within +-20%
    cs = []
    for target_h in (0.25, 0.125):
        grid = geometry.build_domain(geom, target_h)
        op0 = HelmholtzOperator(grid, geom, 0.0, None)
        q = fields.radial_bump_potential(grid, geom, 1.0)
        opq = HelmholtzOperator(grid, geom, 0.0, q)
        src = build_boundary_basis(grid, geometry.dirichlet_patch(geom), 3)
        tgt = build_boundary_basis(grid, geometry.neumann_patch(geom, Plate.BOTTOM), 4)
        target = geometry.neumann_patch(geom, Plate.BOTTOM)
        ratios = []
        for f in src.functions:
            u = solve_dirichlet(opq, f)
            tr = forward.neumann_trace(u, target)
            ratios.append(norm_hm32(tr, tgt) / triple_norm(f, op0))
        cs.append(max(ratios))
    assert abs(cs[1] - cs[0]) <= 0.2 * max(cs)


def test_degenerate_triple_gram_raises(geom, grid8, op0_8, masked_bases):
    # duplicated data functions make the triple Gram singular; the norm must
    # refuse rather than silently regularize
    src, tgt = masked_bases
    dup = dnmap.BoundaryBasis.raw(src.patch, src.square,
                                  [src.functions[0], src.functions[0]])
    dup.gram_triple = np.ones((2, 2))  # rank one
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    with pytest.raises(dnmap.NormDegeneracyError):
        op_norm_star(np.ones((nrows, 2), dtype=complex), dup, tgt)


def test_admissibility_deterministic(op0_8):
    a = forward.check_admissible(op0_8)
    b = forward.check_admissible(op0_8)
    assert a.min_singular == b.min_singular


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    path = tmp_path / "m.bin"
    write_matrix(str(path), m)
    back = read_matrix(str(path))
    assert np.array_equal(back, m)
    with open(path, "rb") as fh:
        assert fh.readline() == b"7 5\n"


# -- block path against per-column references ----------------------------------------


def _dn_columns_reference(op, basis, target):
    """One Dirichlet solve and one trace per basis function."""
    cols = [forward.neumann_trace(solve_dirichlet(op, f), target).values.ravel()
            for f in basis.functions]
    return np.stack(cols, axis=1)


def _triple_gram_reference(op0, basis):
    """The O(m^2) loop of weighted full-grid sums over per-column solves."""
    w = forward.omega_weights(op0.grid, op0.geom)
    sols = [solve_dirichlet(op0, f).values for f in basis.functions]
    m = len(sols)
    gram = np.empty((m, m), dtype=np.complex128)
    for i in range(m):
        wi = w * np.conj(sols[i])
        for j in range(i, m):
            gram[i, j] = np.sum(wi * sols[j])
            gram[j, i] = np.conj(gram[i, j])
    return np.real(gram)


def _assert_columns_close(got, ref, tol):
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(got - ref), axis=0) <= tol * scale)


@pytest.mark.parametrize("k", [0.0, 4.5])
def test_assemble_dn_block_matches_columns(geom, grid8, bump8, masked_bases, k):
    src, _ = masked_bases
    op = HelmholtzOperator(grid8, geom, k, bump8)
    for plate in (Plate.BOTTOM, Plate.TOP):
        target = geometry.neumann_patch(geom, plate)
        dn = assemble_dn(op, src, target).matrix
        _assert_columns_close(dn, _dn_columns_reference(op, src, target), 1e-12)


def test_triple_gram_matches_loop_reference(geom, grid8, op0_8):
    basis = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    gram = basis.attach_triple_gram(op0_8)
    ref = _triple_gram_reference(op0_8, basis)
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(gram, gram.T)


def _exponential_basis(grid, modes):
    patch = BoundaryPatch(Plate.TOP, PatchKind.DIRICHLET, 0.0, 1e9)
    sq = boundary.full_plate_square(grid)
    x = sq.axis_nodes(0)[:, None]
    y = sq.axis_nodes(1)[None, :]
    k2p = 2 * np.pi / (grid.nx * grid.h)
    return BoundaryBasis.raw(patch, sq, [
        BoundaryField(patch, sq, np.exp(1j * k2p * (mx * x + my * y)))
        for mx, my in modes])


def test_complex_data_block_periodic_exponentials(geom, grid8):
    # periodic exponentials: complex data through the sine-basis LU, as its
    # real and imaginary halves
    op = HelmholtzOperator(grid8, geom, 0.0, None, PERIODIC)
    basis = _exponential_basis(grid8, [(1, 0), (0, 1), (1, 1), (2, -1)])
    target = BoundaryPatch(Plate.BOTTOM, PatchKind.NEUMANN, 0.0, 1e9)
    dn = assemble_dn(op, basis, target).matrix
    _assert_columns_close(dn, _dn_columns_reference(op, basis, target), 1e-12)
    gram = basis.attach_triple_gram(op)
    ref = _triple_gram_reference(op, basis)
    assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_complex_data_block_lu_path(geom, grid8, bump8, masked_bases):
    # masked modes times complex phases: one real LU solve of 2m columns
    src, _ = masked_bases
    phases = np.exp(1j * np.linspace(0.0, 3.0, len(src)))
    basis = BoundaryBasis.raw(src.patch, src.square,
                              [f.copy_with(p * f.values) for p, f in zip(phases, src.functions)])
    op = HelmholtzOperator(grid8, geom, 2.5, bump8)
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    dn = assemble_dn(op, basis, target).matrix
    _assert_columns_close(dn, _dn_columns_reference(op, basis, target), 1e-12)
    real_dn = assemble_dn(op, src, target).matrix
    _assert_columns_close(dn, real_dn * phases, 1e-12)


def test_assemble_dn_names_failing_column(geom, grid8, masked_bases, monkeypatch):
    src, _ = masked_bases
    corrupt_datum(monkeypatch, src.functions[3])
    op = HelmholtzOperator(grid8, geom, 0.0, None)
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    with pytest.raises(forward.SolveError, match=r"DN column\(s\) \[3\] failed") as info:
        assemble_dn(op, src, target)
    assert info.value.columns == [3]


def test_failing_column_beyond_first_chunk_named_by_basis_index(geom, grid8, born_pair8,
                                                                monkeypatch):
    # 25 columns: one full chunk and a partial one; column 20 is column 4 of
    # the second block and is named by its index in the basis
    src = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 5)
    assert dnmap.CHUNK < 20 < len(src) < 2 * dnmap.CHUNK
    corrupt_datum(monkeypatch, src.functions[20])
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    with pytest.raises(forward.SolveError, match=r"DN column\(s\) \[20\] failed") as info:
        assemble_dn(HelmholtzOperator(grid8, geom, 0.0, None), src, target)
    assert info.value.columns == [20]
    assert len(info.value.residual_history) == len(src) - dnmap.CHUNK
    with pytest.raises(forward.SolveError, match=r"DN column\(s\) \[20\] failed") as info:
        dnmap.measurement_pair(grid8, geom, 0.0, *born_pair8, Plate.BOTTOM, 5)
    assert info.value.columns == [20]


def _star_norm_reference(matrix, src, tgt):
    """The star norm with every per-basis invariant recomputed in the call
    (the real test whitener applied to the float64 view of the matrix)."""
    h2 = tgt.square.h ** 2
    stack = np.stack([f.values.real.ravel() for f in tgt.functions])
    cho = scipy.linalg.cho_factor(tgt.gram_h32)
    white_t = scipy.linalg.solve_triangular(cho[0], h2 * stack, trans="C", lower=cho[1])
    low = scipy.linalg.cholesky(src.gram_triple, lower=True)
    white_s = scipy.linalg.solve_triangular(low, np.eye(len(src)), lower=True).T
    pairs = np.ascontiguousarray(matrix).view(np.float64)
    b = (white_t @ pairs).view(np.complex128) @ white_s
    n = b.shape[1]
    vals = scipy.linalg.eigh(b.conj().T @ b, eigvals_only=True,
                             subset_by_index=[n - 1, n - 1])
    return float(np.sqrt(max(float(vals[0]), 0.0)))


def test_star_norm_bit_identical_with_cached_invariants(geom, grid8, op0_8, monkeypatch):
    src = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    src.attach_triple_gram(op0_8)
    tgt = build_boundary_basis(grid8, geometry.neumann_patch(geom, Plate.BOTTOM), 4)
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    rng = np.random.default_rng(12)
    d = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
    ref = _star_norm_reference(d, src, tgt)
    factorizations = []
    orig = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        lambda *a, **kw: factorizations.append(1) or orig(*a, **kw))
    cold = op_norm_star(d, src, tgt)
    warm = op_norm_star(d, src, tgt)
    assert cold == ref and warm == ref
    assert len(factorizations) == 1
    assert tgt.dual_factors()[1].dtype == np.float64
    r = BoundaryField(tgt.patch, tgt.square, d[:, 0].reshape(tgt.square.node_shape))
    norm_hm32(r, tgt)
    hm32_maximizer(r, tgt)
    assert len(factorizations) == 1


# -- whitened star norm and block-built bases ---------------------------------------


def _random_matrix(rng, nrows, ncols):
    return rng.standard_normal((nrows, ncols)) + 1j * rng.standard_normal((nrows, ncols))


def test_star_norm_matches_pencil_on_random_matrices(masked_bases):
    src, tgt = masked_bases
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    rng = np.random.default_rng(31)
    for scale in (1e-8, 1.0, 1e6):
        d = scale * _random_matrix(rng, nrows, len(src))
        ref = op_norm_star_pencil(d, src, tgt)
        assert abs(op_norm_star(d, src, tgt) - ref) <= 1e-13 * ref


def test_star_norm_matches_pencil_at_bench_size(geom, grid8, born_pair8):
    # the sweep benchmark's measurement pair: h = 1/8, 12 modes per axis
    q1, q2 = born_pair8
    src, tgt, d = dnmap.measurement_pair(grid8, geom, 0.0, q1, q2, Plate.BOTTOM, 12)
    d0 = d.matrix
    e = _random_matrix(np.random.default_rng(5), *d0.shape)
    e /= op_norm_star_pencil(e, src, tgt)
    for d in (d0, d0 + 1e-3 * e, d0 + 1e-8 * e):
        ref = op_norm_star_pencil(d, src, tgt)
        assert abs(op_norm_star(d, src, tgt) - ref) <= 1e-13 * ref


def test_whiteners_formed_once_per_basis(geom, grid8, op0_8, monkeypatch):
    src = build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    src.attach_triple_gram(op0_8)
    tgt = build_boundary_basis(grid8, geometry.neumann_patch(geom, Plate.BOTTOM), 4)
    counts = {"cho_factor": 0, "cholesky": 0}
    for name in counts:
        def counting(*args, _orig=getattr(scipy.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counting)
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    d = _random_matrix(np.random.default_rng(8), nrows, len(src))
    norms = [op_norm_star(d, src, tgt) for _ in range(3)]
    r = BoundaryField(tgt.patch, tgt.square, d[:, 0].reshape(tgt.square.node_shape))
    norm_hm32(r, tgt)
    hm32_maximizer(r, tgt)
    assert counts == {"cho_factor": 1, "cholesky": 1}
    assert norms[0] == norms[1] == norms[2]
    # a new triple Gram array gets its own whitener; the test basis keeps its
    src.attach_triple_gram(HelmholtzOperator(grid8, geom, 2.5, None))
    op_norm_star(d, src, tgt)
    op_norm_star(d, src, tgt)
    assert counts == {"cho_factor": 1, "cholesky": 2}


@pytest.mark.parametrize("q2_amplitude, phases", [(0.0, 2), (0.5, 3)])
def test_measurement_pair_block_solves(geom, q2_amplitude, phases, monkeypatch):
    # one solve per chunk of at most CHUNK columns in each phase: the free
    # block (also u2 for a zero q2), the q2 block and the w block; 9 columns
    # make one chunk, 25 two
    grid = geometry.build_domain(geom, 0.25)
    q1 = fields.radial_bump_potential(grid, geom, 1.0)
    q2 = (fields.radial_bump_potential(grid, geom, q2_amplitude) if q2_amplitude
          else fields.zero_potential(grid, geom))
    target = geometry.neumann_patch(geom, Plate.BOTTOM)
    for basis_n in (3, 5):
        calls = []
        orig = HelmholtzOperator.solve_interior
        monkeypatch.setattr(HelmholtzOperator, "solve_interior",
                            lambda self, rhs: calls.append(rhs.shape) or orig(self, rhs))
        src, _, d = dnmap.measurement_pair(grid, geom, 0.0, q1, q2, Plate.BOTTOM, basis_n)
        monkeypatch.undo()
        assert len(calls) == phases * -(-len(src) // dnmap.CHUNK)
        widths = [shape[1] for shape in calls]
        assert max(widths) <= dnmap.CHUNK and sum(widths) == phases * len(src)
        # the same triple Gram as a separate solve, and d = Lambda_q1 - Lambda_q2
        # to round-off: with amplitude-1 potentials the two maps do not cancel
        ref = build_boundary_basis(grid, geometry.dirichlet_patch(geom), basis_n)
        op0 = HelmholtzOperator(grid, geom, 0.0, None)
        assert np.array_equal(src.gram_triple, ref.attach_triple_gram(op0))
        dn1, dn2 = (assemble_dn(HelmholtzOperator(grid, geom, 0.0, q), ref, target).matrix
                    for q in (q1, q2))
        assert np.max(np.abs(d.matrix - (dn1 - dn2))) <= 1e-12 * np.max(np.abs(d.matrix))
        assert np.max(np.abs(d.matrix)) > 1e-3 * np.max(np.abs(dn1))


def _measurement_pair_full_block(grid, geom, k, q1, q2, plate, basis_n):
    """(triple Gram, d) from whole-basis node blocks: the free block and its
    omega-weighted rows, the q2 block, the w node block and its trace."""
    op0 = HelmholtzOperator(grid, geom, k, None)
    src = build_boundary_basis(grid, geometry.dirichlet_patch(geom), basis_n)
    u0 = solve_dirichlet(op0, src.block)
    rows = forward.omega_rows(u0, geom)
    gram = np.real(rows.conj() @ rows.T)
    u2 = solve_dirichlet(HelmholtzOperator(grid, geom, k, q2), src.block)
    op1 = HelmholtzOperator(grid, geom, k, q1)
    qdiff = (q1.field.values - q2.field.values).real[op1.active]
    w = np.zeros((len(src),) + grid.node_shape)
    w[..., op1.active] = op1.solve_interior(-qdiff[:, None] * u2.values[..., op1.active].T).T
    tr = forward.neumann_trace(fields.GridField(grid, w), geometry.neumann_patch(geom, plate))
    return gram, tr.values.reshape(len(src), -1).T


@pytest.mark.parametrize("target_h", [0.25, 0.125])
@pytest.mark.parametrize("k", [0.0, 4.5])
@pytest.mark.parametrize("q2_amplitude", [0.0, 0.5])
@pytest.mark.parametrize("plate", [Plate.BOTTOM, Plate.TOP])
def test_measurement_pair_matches_full_block_oracle(geom, target_h, k, q2_amplitude, plate):
    # 25 basis columns: one full chunk and a partial one
    grid = geometry.build_domain(geom, target_h)
    q1 = fields.radial_bump_potential(grid, geom, 1.0)
    q2 = (fields.radial_bump_potential(grid, geom, q2_amplitude) if q2_amplitude
          else fields.zero_potential(grid, geom))
    src, _, d = dnmap.measurement_pair(grid, geom, k, q1, q2, plate, 5)
    assert len(src) % dnmap.CHUNK
    gram, ref = _measurement_pair_full_block(grid, geom, k, q1, q2, plate, 5)
    assert np.max(np.abs(d.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(src.gram_triple - gram)) <= 1e-13 * np.max(np.abs(gram))
    assert np.array_equal(src.gram_triple, src.gram_triple.T)


def test_measurement_pair_memory(geom, grid8, born_pair8):
    # the bench sweep settings (h = 1/8, 144 columns): one basis-wide array,
    # the free solutions on the active nodes (6.4 MB); the parent's
    # whole-basis node blocks peaked at 28.4 MB
    dnmap.measurement_pair(grid8, geom, 0.0, *born_pair8, Plate.BOTTOM, 12)  # warm caches
    tracemalloc.start()
    try:
        dnmap.measurement_pair(grid8, geom, 0.0, *born_pair8, Plate.BOTTOM, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"measurement_pair peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("target_h, n_modes", [(0.25, 3), (0.125, 12)])
@pytest.mark.parametrize("apply_mask", [True, False])
def test_block_basis_matches_mode_loop(geom, target_h, n_modes, apply_mask):
    grid = geometry.build_domain(geom, target_h)
    for patch in (geometry.dirichlet_patch(geom), geometry.neumann_patch(geom, Plate.BOTTOM)):
        basis = build_boundary_basis(grid, patch, n_modes, apply_mask=apply_mask)
        modes = [mode_field(patch, basis.square, m1, m2, apply_mask=apply_mask)
                 for m1 in range(1, n_modes + 1) for m2 in range(1, n_modes + 1)]
        assert len(basis) == len(modes)
        assert all(np.array_equal(f.values, m.values) for f, m in zip(basis.functions, modes))
        coef = np.stack([boundary.sine_coefficients(m).ravel() for m in modes])
        assert np.array_equal(boundary.sine_coefficients(basis.block).reshape(len(modes), -1),
                              coef)
        w32 = (1.0 + boundary.sine_frequencies(basis.square).ravel()) ** 1.5
        ref = np.real(np.conj(coef) * w32 @ coef.T)
        assert np.max(np.abs(basis.gram_h32 - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- exact discrete DN identities -----------------------------------------------------
#
# With Dirichlet data f on the top plate, Lambda_q f = (f - u_f|top-1) / h is the
# first-order flux.  The 7-point operator is symmetric, so Lambda_q is, and the
# difference of two maps is the Alessandrini pairing of the two solutions, both
# exactly in the discrete setting.


@functools.lru_cache(maxsize=None)
def _oracle_setup(target_h: float, k: float):
    geom = geometry.SlabGeometry(L=1.0, R=1.0, R_prime=1.5, R_lat=2.0, eps_cutoff=0.1)
    grid = geometry.build_domain(geom, target_h)
    bump = fields.radial_bump_potential(grid, geom, 1.0)
    return (grid, geometry.dirichlet_patch(geom), bump, HelmholtzOperator(grid, geom, k, None),
            HelmholtzOperator(grid, geom, k, bump))


def _random_patch_data(grid, patch, seed):
    sq = boundary.bounding_square(grid, patch)
    vals = np.random.default_rng(seed).standard_normal((2,) + sq.node_shape)
    return BoundaryField(patch, sq, vals).masked()


def _first_order_dn(op, data):
    """(plate data, Lambda data, solutions) for a block of top-plate data."""
    u = solve_dirichlet(op, data).values
    sz = op.grid.node_shape[2]
    return u[..., sz - 1], (u[..., sz - 1] - u[..., sz - 2]) / op.grid.h, u


_oracle_cases = dict(seed=st.integers(0, 2 ** 32 - 1), target_h=st.sampled_from([0.25, 0.125]),
                     k=st.sampled_from([0.0, 2.5]))


@settings(max_examples=12, deadline=None)
@given(with_bump=st.booleans(), **_oracle_cases)
def test_first_order_dn_symmetric(seed, target_h, k, with_bump):
    grid, patch, _, op0, op_bump = _oracle_setup(target_h, k)
    f, lam, _ = _first_order_dn(op_bump if with_bump else op0,
                                _random_patch_data(grid, patch, seed))
    h2 = grid.h ** 2
    a = h2 * np.sum(f[1] * lam[0])
    b = h2 * np.sum(f[0] * lam[1])
    # relative to the sum of the terms' magnitudes, which no cancellation shrinks
    assert abs(a - b) <= 1e-10 * h2 * np.sum(np.abs(f[1] * lam[0]))


@settings(max_examples=12, deadline=None)
@given(**_oracle_cases)
def test_first_order_dn_alessandrini_identity(seed, target_h, k):
    grid, patch, bump, op0, op_bump = _oracle_setup(target_h, k)
    data = _random_patch_data(grid, patch, seed)
    f, lam1, u1 = _first_order_dn(op_bump, data)
    _, lam2, u2 = _first_order_dn(op0, data)
    lhs = grid.h ** 2 * np.sum(f[1] * (lam1[0] - lam2[0]))
    active = op0.active
    terms = grid.h ** 3 * bump.field.values.real[active] * u1[0][active] * u2[1][active]
    assert abs(lhs - np.sum(terms)) <= 1e-10 * np.sum(np.abs(terms))


@pytest.mark.parametrize("k", [0.0, 2.5])
def test_first_order_flux_matches_neumann_trace_to_second_order(geom, k):
    # u = sin(pi z / L) g(x') and its source vanish on the top plate, so there
    # u_zz = -Lap' u - k^2 u - w = 0 and the first-order flux (f - u|top-1)/h
    # agrees with the 3-point trace to O(h^2) (only to O(h) where u_zz != 0)
    patch = geometry.dirichlet_patch(geom)
    errs = []
    for h in (0.25, 0.125, 0.0625):
        grid = geometry.build_domain(geom, h)
        x, y, z = grid.node_coords()
        bx, by = poly_bump(x), poly_bump(y)
        s = np.sin(np.pi * z / geom.L)
        u = s * bx * by
        lap = s * (poly_bump_dd(x) * by + bx * poly_bump_dd(y)) - (np.pi / geom.L) ** 2 * u
        w = fields.GridField(grid, np.broadcast_to(-lap - k ** 2 * u, grid.node_shape)
                             .astype(np.complex128))
        v = forward.solve_source(HelmholtzOperator(grid, geom, k, None, PERIODIC), w)
        sz = grid.node_shape[2]
        flux = (v.values[..., sz - 1] - v.values[..., sz - 2]) / grid.h
        first = boundary.from_plate_values(grid, patch, flux)
        errs.append(np.max(np.abs(first.values - forward.neumann_trace(v, patch).values)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(3.6 <= r <= 4.4 for r in ratios), ratios

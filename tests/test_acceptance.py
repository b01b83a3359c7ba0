"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic (counter-based RNG keyed by fixed seeds).
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    full_plate_square,
    hm32_maximizer,
    l2_inner,
    manufactured_case,
    norm_h32,
    norm_hm32,
    offset_probe,
)
from measures import calibrate_min_param
from slabinv import boundary, cgo, dnmap, fields, forward, geometry, harness, recovery
from slabinv.cgo import Variant, build_box_grid, make_phase_pair
from slabinv.fields import GridField, extend_even, extend_trivial
from slabinv.forward import PERIODIC, HelmholtzOperator
from slabinv.geometry import BoundaryPatch, Plate


def _report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def test_c01_phase_algebra():
    t0 = time.time()
    rng = harness.record_rng(101, 0)
    n = 10_000
    for variant in Variant:
        for i in range(n):
            xi = rng.uniform(-8.0, 8.0, size=3)
            if math.hypot(xi[0], xi[1]) < 1e-2:
                xi[0] += 1.0
            param = float(rng.uniform(1.0, 64.0))
            pp = make_phase_pair(xi, variant, param, 0.0)
            rho_sq = float(np.sum(np.abs(pp.rho1) ** 2))
            assert cgo.isotropy_residual(pp) <= 1e-12 * rho_sq
            assert cgo.norm_identity_residual(pp) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"phase algebra took {elapsed:.1f}s"
    _report(1, "phase-algebra")


def test_c02_reflection_vanishing():
    t0 = time.time()
    geom = geometry.SlabGeometry(L=1.0, R=0.3, R_prime=0.42, R_lat=0.5,
                                 eps_cutoff=0.04)
    grid = geometry.build_domain(geom, 1.0 / 64.0)
    assert grid.nx == grid.ny == grid.nz == 64
    box = build_box_grid(geom, grid, coarsen=2)
    q1 = fields.radial_bump_potential(grid, geom, 1.0)
    q1_even = extend_even(q1, box)
    q2_triv = extend_trivial(fields.zero_potential(grid, geom), box)
    for variant in Variant:
        q2box = extend_even(q1, box) if variant is Variant.DOUBLE_REFLECTION else q2_triv
        pp = make_phase_pair((1.5, 0.8, 1.0), variant, 4.0, 0.0)
        probe = offset_probe(cgo.build_probe(pp, cgo.box_source(q1_even, grid),
                                             cgo.box_source(q2box, grid)))
        assert np.max(np.abs(probe.u1.values[:, :, 0])) == 0.0
        assert np.max(np.abs(probe.u1.values)) > 0.0
        if variant is Variant.DOUBLE_REFLECTION:
            assert np.max(np.abs(probe.u2.values[:, :, 0])) == 0.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, "reflection-vanishing")


def test_c03_forward_solver_order(geom):
    t0 = time.time()
    cases = []
    grids = {h: geometry.build_domain(geom, h) for h in (0.125, 0.0625)}
    bumps = {h: fields.radial_bump_potential(grids[h], geom, 1.0)
             for h in grids}
    for label, k, with_q in (("free", 0.0, False), ("bump", 0.0, True),
                             ("k-positive", 1.0, False)):
        errs = []
        for h, grid in grids.items():
            q = bumps[h] if with_q else None
            uex, w = manufactured_case(geom, grid, k=k, q=q)
            op = HelmholtzOperator(grid, geom, k, q)
            assert op.admissibility().admissible
            v = forward.solve_source(op, w)
            errs.append(forward.l2_omega(GridField(grid, v.values - uex.values),
                                         geom))
        ratio = errs[0] / errs[1]
        cases.append((label, ratio))
        assert 3.6 <= ratio <= 4.4, f"{label}: ratio {ratio:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, f"forward-order ratios={[f'{r:.2f}' for _, r in cases]}")


def test_c04_dn_oracle(geom):
    t0 = time.time()
    grid = geometry.build_domain(geom, 1.0 / 16.0)
    op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
    sq = full_plate_square(grid)
    patch = BoundaryPatch(Plate.TOP, 0.0, 1e9)
    x = sq.axis_nodes(0)[:, None]
    y = sq.axis_nodes(1)[None, :]
    per = grid.nx * grid.h
    k2p = 2 * np.pi / per
    modes = sorted(((mx, my) for mx in range(-2, 3) for my in range(-2, 3)),
                   key=lambda m: (m[0] ** 2 + m[1] ** 2, m))[:10]
    functions = [
        boundary.BoundaryField(patch, sq, np.exp(1j * k2p * (mx * x + my * y)))
        for mx, my in modes
    ]
    basis = dnmap.BoundaryBasis(boundary.BoundaryField(
        patch, sq, np.stack([f.values for f in functions])))
    tol = 4 * grid.h ** 2
    for target, formula in (
        (BoundaryPatch(Plate.TOP, 0.0, 1e9),
         lambda mu: mu / np.tanh(mu * geom.L) if mu > 0 else 1.0 / geom.L),
        (BoundaryPatch(Plate.BOTTOM, 0.0, 1e9),
         lambda mu: -mu / np.sinh(mu * geom.L) if mu > 0 else -1.0 / geom.L),
    ):
        dn = dnmap.assemble_dn(op, basis, target)
        for j, (mx, my) in enumerate(modes):
            mu = k2p * math.hypot(mx, my)
            expected = formula(mu) * functions[j].values.ravel()
            rel = (np.max(np.abs(dn.matrix[:, j] - expected))
                   / np.max(np.abs(expected)))
            assert rel <= tol, f"mode {(mx, my)}: rel {rel:.3e} > {tol:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(4, "dn-oracle")


def test_c05_remainder_decay(geom, grid8, bump8):
    t0 = time.time()
    box = build_box_grid(geom, grid8)  # 48^3 at the default geometry
    assert box.nx == box.ny == box.nz == 48
    q1_even = extend_even(bump8, box)
    c0, tau1 = calibrate_min_param([q1_even], grid8, 0.0, [bump8.bound_M])
    taus = [tau1, 2 * tau1, 4 * tau1, 8 * tau1]
    source = cgo.box_source(q1_even, grid8)
    l2s = []
    for tau in taus:
        pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, tau, 0.0)
        _, rep = cgo.solve_remainder(pp.rho1, source)
        l2s.append(rep.l2)
    slope = float(np.polyfit(np.log(taus), np.log(l2s), 1)[0])
    assert -1.2 <= slope <= -0.8, f"decay slope {slope:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, f"remainder-decay slope={slope:.3f} (C0={c0}, tau1={tau1:.2f})")


def test_c06_born_recovery_oracle(geom, grid8, born_pair8):
    t0 = time.time()
    q1, q2 = born_pair8
    freqs = recovery.build_frequency_set(3.0, spacing=0.25)
    tau1 = max(1.0, q1.bound_M + 0.0)
    top_param = 8.0 * tau1
    worst = {}
    for variant in Variant:
        ws = recovery.make_workspace(q1, q2, 0.0, variant, box_coarsen=2)
        res = recovery.estimate_fhat_annulus(ws, top_param, freqs.annulus)
        assert not res.failed
        want = recovery.true_transform(ws, np.array(list(res.estimates)))
        est = np.array(list(res.estimates.values()))
        worst_rel = float(np.max(np.abs(est - want) / np.abs(want)))
        worst[variant.value] = worst_rel
        assert worst_rel <= 0.10, f"{variant}: worst rel {worst_rel:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _report(6, f"born-recovery worst_rel={ {k: f'{v:.2e}' for k, v in worst.items()} }"
               f" n_xi={len(freqs.annulus)}")


def test_c07_carleman_constant(geom, grid8, op0_8):
    t0 = time.time()
    taus = [1.0, math.sqrt(2), 2.0, 2 * math.sqrt(2), 4.0]
    report = harness.carleman_check(op0_8, (0.0, 0.0, 1.0), taus, trials=100,
                                    seed=2024)
    assert math.isfinite(report.fitted_c)
    assert report.top_half_variation < 0.5
    assert report.passed
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(7, f"carleman fitted_C={report.fitted_c:.4f} "
               f"variation={report.top_half_variation:.3f}")


def test_c08_two_constants_certificate(geom):
    t0 = time.time()
    c0, lam, rows = recovery.calibrate_two_constants(2.0 * geom.R)
    assert 0.0 < lam < 1.0
    assert math.isfinite(c0)
    for sup_gamma, sup_g, sup_g0 in rows:
        assert sup_gamma <= c0 * sup_g ** (1 - lam) * sup_g0 ** lam * (1 + 1e-12)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, f"two-constants c0={c0:.3f} lambda={lam:.2f}")


def test_c09_stability_sweep(geom, grid8, born_pair8):
    t0 = time.time()
    q1, q2 = born_pair8
    src, tgt, d = dnmap.measurement_pair(grid8, geom, 0.0, q1, q2, Plate.BOTTOM, 4)
    levels = [1e-3 * 10 ** (-j) for j in range(6)]
    records, theta_fit = harness.stability_sweep(
        q1, q2, Variant.SINGLE_REFLECTION, levels, trials=1, seed=11,
        src_basis=src, tgt_basis=tgt, d=d)
    ok = [r for r in records if not r.hypothesis_violated]
    assert len(ok) == 6
    by_star = sorted(ok, key=lambda r: r.star_norm)
    bounds = [r.linf_bound for r in by_star]
    assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:])), bounds
    assert theta_fit > 0  # regression slope of the bound is negative
    elapsed = time.time() - t0
    assert elapsed < 3600.0
    _report(9, f"stability-sweep theta_fit={theta_fit:.4f}")


def test_c10_norm_machinery(geom, grid8, op0_8):
    t0 = time.time()
    src = dnmap.build_boundary_basis(grid8, geometry.dirichlet_patch(geom), 4)
    src.attach_triple_gram(op0_8)
    tgt = dnmap.build_boundary_basis(grid8,
                                     geometry.neumann_patch(geom, Plate.BOTTOM), 4)
    nrows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
    rng = harness.record_rng(110, 0)
    for _ in range(100):
        a = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
        b = rng.standard_normal((nrows, len(src))) + 1j * rng.standard_normal((nrows, len(src)))
        na, nb, nab = (dnmap.op_norm_star(m, src, tgt) for m in (a, b, a + b))
        assert nab <= (na + nb) * (1 + 1e-10)
        scl = float(rng.uniform(0.5, 4.0))
        assert dnmap.op_norm_star(scl * a, src, tgt) == pytest.approx(
            scl * na, rel=1e-10)

    # dual-norm search: analytic maximizer plus random candidates
    sq = tgt.square
    rvals = rng.standard_normal(sq.node_shape) + 1j * rng.standard_normal(sq.node_shape)
    r = boundary.BoundaryField(tgt.patch, sq, rvals).masked()
    dual = norm_hm32(r, tgt)
    best = abs(l2_inner(hm32_maximizer(r, tgt), r)) / norm_h32(
        hm32_maximizer(r, tgt))
    for _ in range(1000):
        c = rng.standard_normal(len(tgt)) + 1j * rng.standard_normal(len(tgt))
        vals = np.tensordot(c, tgt.block.values, axes=(0, 0))
        g = boundary.BoundaryField(tgt.patch, sq, vals)
        ratio = abs(l2_inner(g, r)) / norm_h32(g)
        assert ratio <= dual * (1 + 1e-10)
        best = max(best, ratio)
    assert (dual - best) / dual <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(10, "norm-machinery")

import math

import numpy as np
import pytest

from conftest import bounds_consistent, corrupt_datum, field_from_function
from measures import mode_field, ucp_decay_measure
from slabinv import boundary, dnmap, fields, geometry, harness
from slabinv.cgo import Variant
from slabinv.fields import GridField
from slabinv.forward import PERIODIC, HelmholtzOperator
from slabinv.geometry import Plate
from slabinv.harness import (
    SCHEMA_LINE,
    carleman_check,
    random_test_function,
    record_rng,
    rl_decay_measure,
    stability_sweep,
    write_csv,
    write_sweep_csv,
)


# -- weighted-inequality checks -----------------------------------------------------


def test_carleman_zero_function_skipped(grid8, op0_8, monkeypatch):
    zero = GridField(grid8, np.zeros(grid8.node_shape))
    monkeypatch.setattr(harness, "random_test_function", lambda *args: zero)
    rep = carleman_check(op0_8, (0.0, 0.0, 1.0), [1.0, 2.0], trials=1)
    assert all(r == [0.0] for r in rep.rhs)
    assert rep.fitted_c == -math.inf  # no admissible ratio


def test_carleman_preconditions(op0_8):
    with pytest.raises(ValueError, match="e3"):
        carleman_check(op0_8, (1.0, 0.0, 0.5), [1.0, 2.0], 1)
    with pytest.raises(ValueError, match="increasing"):
        carleman_check(op0_8, (0.0, 0.0, 1.0), [2.0, 1.0], 1)


def test_carleman_single_mode_closed_form(geom, monkeypatch):
    # periodic cylinder, q = 0, k = 0, zeta = e3, u a single product mode:
    # every quadrature has a closed form; agreement is second order
    rels = []
    for target_h in (0.125, 0.0625):
        grid = geometry.build_domain(geom, target_h)
        op = HelmholtzOperator(grid, geom, 0.0, None, PERIODIC)
        per = grid.nx * grid.h
        kap = 2 * np.pi / per
        a = 1
        u = field_from_function(
            grid, lambda x, y, z: np.sin(a * np.pi * z / geom.L) * np.cos(kap * x)
            * np.ones_like(y))
        tau = 2.0
        monkeypatch.setattr(harness, "random_test_function", lambda *args, u=u: u)
        rep = carleman_check(op, (0.0, 0.0, 1.0), [tau], trials=1)
        # closed forms over one periodic cell
        lam_z = (a * np.pi / geom.L) ** 2
        area = per * per / 2.0  # integral of cos^2 over the cell
        mu = 2.0 * tau
        z_int = (mu / 2 - (mu * np.cos(2 * np.pi * a) * np.exp(-mu * geom.L) * 0 +
                 0)) if False else None
        # integral of exp(-2 tau z) sin^2(a pi z / L) dz over (0, L)
        w = a * np.pi / geom.L
        z_int = ((1 - np.exp(-mu * geom.L)) / (2 * mu)
                 - (mu * (1 - np.exp(-mu * geom.L) * np.cos(2 * w * geom.L))
                    - 2 * w * np.exp(-mu * geom.L) * np.sin(2 * w * geom.L))
                 / (2 * (mu * mu + 4 * w * w)))
        interior = area * z_int
        lam = lam_z + kap * kap
        rhs = lam * lam * interior
        dz0 = a * np.pi / geom.L
        dzL = a * np.pi / geom.L * np.cos(a * np.pi)
        bdry = (np.exp(-mu * geom.L) * dzL ** 2 - dz0 ** 2) * area
        rels.append(max(
            abs(rep.lhs_interior[0][0] - interior) / interior,
            abs(rep.rhs[0][0] - rhs) / rhs,
            abs(rep.lhs_boundary[0][0] - bdry) / abs(bdry),
        ))
    assert rels[1] < rels[0]
    assert rels[1] < 20 * 0.0625 ** 2


def test_carleman_random_family_stable(geom, grid8, op0_8):
    taus = [1.0, np.sqrt(2), 2.0, 2 * np.sqrt(2), 4.0]
    rep = carleman_check(op0_8, (0.0, 0.0, 1.0), taus, trials=30, seed=3)
    assert np.isfinite(rep.fitted_c)
    assert rep.passed
    # fitted constant non-increasing towards the top of the sweep
    assert rep.per_tau_c[-1] <= rep.per_tau_c[len(taus) // 2] * 1.5


def test_carleman_potential_shifts_constant_up(geom, grid8, op0_8, bump8):
    taus = [1.0, 2.0, 4.0]
    rep0 = carleman_check(op0_8, (0.0, 0.0, 1.0), taus, trials=20, seed=7)
    opq = HelmholtzOperator(grid8, geom, 0.0, bump8)
    repq = carleman_check(opq, (0.0, 0.0, 1.0), taus, trials=20, seed=7)
    # direction only: a larger a-priori bound never shrinks the fitted constant
    assert repq.fitted_c >= rep0.fitted_c - 1e-12


def test_random_test_function_vanishes_at_boundary(geom, grid8):
    u = random_test_function(grid8, geom, record_rng(0, 0))
    assert np.max(np.abs(u.values[~geometry.interior_mask(grid8, geom)])) == 0.0


# -- unique-continuation measurement ---------------------------------------------------


def _data_family(geom, grid, n=3):
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid, patch)
    out = []
    for j in range(n):
        out.append(mode_field(patch, sq, 1 + j, 1))
    return out


def test_ucp_equal_potentials(geom, grid8, bump8):
    table = ucp_decay_measure(bump8, bump8, 0.0, _data_family(geom, grid8, 2))
    for row in table["rows"]:
        assert row["flux"] == 0.0 and row["h1"] == 0.0


def test_ucp_scaling_linearity(geom, grid8, born_pair8):
    q1, q2 = born_pair8
    family = _data_family(geom, grid8, 1)
    t1 = ucp_decay_measure(q1, q2, 0.0, family)
    doubled = [f.copy_with(2.0 * f.values) for f in family]
    t2 = ucp_decay_measure(q1, q2, 0.0, doubled)
    for a, b in zip(t1["rows"], t2["rows"]):
        assert b["flux"] == pytest.approx(2 * a["flux"], rel=1e-9)
        assert b["h1"] == pytest.approx(2 * a["h1"], rel=1e-9)
        assert b["h2"] == pytest.approx(2 * a["h2"], rel=1e-9)


def test_ucp_reports_fit_and_monotone_table(geom, grid8, born_pair8):
    q1, q2 = born_pair8
    table = ucp_decay_measure(q1, q2, 0.0, _data_family(geom, grid8, 4))
    ok_rows = [r for r in table["rows"] if "skipped" not in r]
    assert len(ok_rows) == 4
    assert all(r["flux"] > 0 and r["h1"] > 0 for r in ok_rows)
    assert table["fit"]["n_fit"] >= 2
    # smaller boundary flux never comes with a larger interior norm (beyond a
    # solver-noise allowance)
    by_flux = sorted(ok_rows, key=lambda r: r["flux"])
    for a, b in zip(by_flux, by_flux[1:]):
        assert a["h1"] <= b["h1"] * (1 + 1e-6) + 1e-14


# -- transform decay measurement --------------------------------------------------------


def test_rl_zero_potential(geom, grid8):
    q = fields.zero_potential(grid8, geom)
    rays = rl_decay_measure(q, [(1.0, 0.0, 0.0)])
    assert math.isnan(rays[0]["p"])


def test_rl_smooth_bump_fast_decay(geom, grid16, monkeypatch):
    # truncated-Gaussian profile: envelope decays faster than any polynomial
    # over the probed window, so every ray fit clears p = 4
    x, y, z = grid16.node_coords()
    r = np.hypot(x, y)
    vals = (np.exp(-((r / 0.3) ** 2) / 2) * np.exp(-(((z - 0.5) / 0.12) ** 2) / 2)
            * (r <= geom.R) * np.ones_like(x * y * z))
    q = fields.Potential(GridField(grid16, vals.astype(np.complex128)),
                         geom, 1e12)
    for name, value in (("RL_T0", 4.0), ("RL_FACTOR", 1.3), ("RL_SAMPLES", 8)):
        monkeypatch.setattr(harness, name, value)
    rays = rl_decay_measure(q, [(1.0, 0.5, 0.2), (0.3, 1.0, 0.1), (0.5, 0.5, 1.0)])
    assert all(ray["p"] >= 4.0 for ray in rays)


def test_rl_rough_potential_slow_decay(geom, grid16, monkeypatch):
    # indicator-like profile in x: transform decays like a one-dimensional
    # jump (p about 1) along the x-axis ray
    x, y, z = grid16.node_coords()
    vals = ((np.abs(x) <= 0.6) * fields.smooth_bump(y / 0.6)
            * fields.smooth_bump((z - 0.5) / 0.45) * np.ones_like(x * y * z))
    q = fields.Potential(GridField(grid16, vals.astype(np.complex128)),
                         geom, 1e12)
    for name, value in (("RL_T0", 1.5), ("RL_FACTOR", 1.45), ("RL_SAMPLES", 9)):
        monkeypatch.setattr(harness, name, value)
    rays = rl_decay_measure(q, [(1.0, 0.0, 0.0)])
    assert 0.5 <= rays[0]["p"] <= 1.5


# -- stability sweep ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_setup(geom, grid8, born_pair8):
    q1, q2 = born_pair8
    src, tgt, d = dnmap.measurement_pair(grid8, geom, 0.0, q1, q2, Plate.BOTTOM, 4)
    return dict(q1=q1, q2=q2, src=src, tgt=tgt, d=d)


def test_sweep_zero_noise_anchor(sweep_setup):
    records, _ = stability_sweep(
        sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
        [0.0, 1e-3], trials=1, seed=0, src_basis=sweep_setup["src"],
        tgt_basis=sweep_setup["tgt"], d=sweep_setup["d"])
    by_noise = {rec.noise_level: rec for rec in records}
    assert by_noise[0.0].star_norm < by_noise[1e-3].star_norm
    assert by_noise[0.0].linf_bound <= by_noise[1e-3].linf_bound


def test_sweep_monotone_and_negative_slope(sweep_setup):
    levels = [1e-3, 1e-5, 1e-7, 1e-9]
    records, theta_fit = stability_sweep(
        sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
        levels, trials=1, seed=1, src_basis=sweep_setup["src"],
        tgt_basis=sweep_setup["tgt"], d=sweep_setup["d"])
    recs = sorted((r for r in records if not r.hypothesis_violated),
                  key=lambda r: r.star_norm)
    bounds = [r.linf_bound for r in recs]
    assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert theta_fit > 0  # negative regression slope


def test_sweep_hypothesis_violation_flagged(sweep_setup):
    records, _ = stability_sweep(
        sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
        [0.5], trials=1, seed=2, delta=1e3, src_basis=sweep_setup["src"],
        tgt_basis=sweep_setup["tgt"], d=sweep_setup["d"])
    assert records[0].hypothesis_violated
    assert math.isnan(records[0].linf_bound)


def test_sweep_records_satisfy_internal_inequality(sweep_setup):
    from slabinv.recovery import bound_chain
    records, _ = stability_sweep(
        sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
        [1e-4, 1e-6], trials=1, seed=5, src_basis=sweep_setup["src"],
        tgt_basis=sweep_setup["tgt"], d=sweep_setup["d"])
    for rec in records:
        if rec.hypothesis_violated:
            continue
        res = bound_chain(1.0, rec.star_norm, 0.5,
                          4 * (2 * 1.0 + 1.0) + 2, Variant.SINGLE_REFLECTION,
                          bound_m=max(sweep_setup["q1"].bound_M, sweep_setup["q2"].bound_M))
        assert bounds_consistent(res)
        assert res.linf_bound == pytest.approx(rec.linf_bound)


def test_sweep_star_norms_match_whitening_each_record(sweep_setup):
    # reference: each record's matrix d0 + (level / ||e||_*) e whitened whole
    src, tgt = sweep_setup["src"], sweep_setup["tgt"]
    levels = [0.0, 1e-3, 1e-6, 1e-9]
    records, _ = stability_sweep(
        sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
        levels, trials=2, seed=9, src_basis=src, tgt_basis=tgt,
        d=sweep_setup["d"])
    d0 = sweep_setup["d"].matrix
    assert len(records) == 8
    for idx, rec in enumerate(records):
        d = d0
        if rec.noise_level > 0:
            rng = record_rng(9, idx)
            e = rng.standard_normal(d0.shape) + 1j * rng.standard_normal(d0.shape)
            d = d0 + (rec.noise_level / dnmap.op_norm_star(e, src, tgt)) * e
        ref = dnmap.op_norm_star(d, src, tgt)
        assert abs(rec.star_norm - ref) <= 1e-13 * ref


def test_sweep_determinism_byte_identical(tmp_path, sweep_setup):
    paths = []
    for run in range(2):
        records, theta = stability_sweep(
            sweep_setup["q1"], sweep_setup["q2"], Variant.SINGLE_REFLECTION,
            [1e-3, 1e-5], trials=2, seed=42, src_basis=sweep_setup["src"],
            tgt_basis=sweep_setup["tgt"], d=sweep_setup["d"])
        path = tmp_path / f"sweep{run}.csv"
        write_sweep_csv(str(path), records, theta)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0].startswith(SCHEMA_LINE.encode())


def test_csv_schema_line(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [[1, 2.5], [3, 4.0]])
    lines = path.read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == "a,b"


def test_record_rng_counter_based():
    a = record_rng(7, 3).standard_normal(4)
    b = record_rng(7, 3).standard_normal(4)
    c = record_rng(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ucp_skips_only_the_failing_datum(geom, grid8, born_pair8, monkeypatch):
    q1, q2 = born_pair8
    family = _data_family(geom, grid8, 4)
    clean = ucp_decay_measure(q1, q2, 0.0, family)["rows"]
    corrupt_datum(monkeypatch, family[2])
    rows = ucp_decay_measure(q1, q2, 0.0, family)["rows"]
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert "skipped" in rows[2] and "[2]" in rows[2]["skipped"]
    for i in (0, 1, 3):
        assert "skipped" not in rows[i]
        for key in ("flux", "h1", "h2"):
            assert rows[i][key] == pytest.approx(clean[i][key], rel=1e-10)

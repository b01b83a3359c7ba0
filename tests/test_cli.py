import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slabinv import boundary, cgo, cli, dnmap, fields, forward, geometry, recovery
from slabinv.harness import SCHEMA_LINE

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = tmp / "geom.cfg"
    cfg.write_text(
        "L = 1.0\nR = 1.0\nR_prime = 1.5\nR_lat = 2.0\n"
        "eps_cutoff = 0.1\ntarget_h = 0.25\n"
    )
    geom, target_h = geometry.parse_geometry_config(str(cfg))
    grid = geometry.build_domain(geom, target_h)
    q = fields.radial_bump_potential(grid, geom, 1e-3)
    qpath = tmp / "q1.field"
    fields.write_field(str(qpath), q.field)
    patch = geometry.dirichlet_patch(geom)
    sq = boundary.bounding_square(grid, patch)
    f = boundary.mode_field(patch, sq, 1, 1)
    fpath = tmp / "data.bfield"
    boundary.write_boundary_field(str(fpath), f, plate_z=geom.L)
    return dict(tmp=tmp, cfg=cfg, geom=geom, grid=grid, qpath=qpath, fpath=fpath)


def test_forward_roundtrip(workdir):
    out = workdir["tmp"] / "solution.field"
    rc = cli.main([
        "forward", "--config", str(workdir["cfg"]), "--k", "0.0",
        "--q", str(workdir["qpath"]), "--dirichlet", str(workdir["fpath"]),
        "--mode", "truncated", "--out", str(out),
    ])
    assert rc == 0
    u = fields.read_field(str(out))
    assert u.grid == workdir["grid"]
    assert np.max(np.abs(u.values)) > 0


def test_forward_inadmissible_exit_code(workdir):
    lam1 = forward.reference_eigenvalue(workdir["grid"], workdir["geom"],
                                        forward.TRUNCATED)
    out = workdir["tmp"] / "nosol.field"
    rc = cli.main([
        "forward", "--config", str(workdir["cfg"]), "--k", str(np.sqrt(lam1)),
        "--q", "zero", "--dirichlet", str(workdir["fpath"]), "--out", str(out),
    ])
    assert rc == cli.EXIT_INADMISSIBLE


def test_forward_singular_factor_exit_code(workdir, monkeypatch):
    def singular(self):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(forward.HelmholtzOperator, "_lu", singular)
    op = forward.HelmholtzOperator(workdir["grid"], workdir["geom"], 0.0, None)
    rep = forward.check_admissible(op)
    assert rep.min_singular == 0.0 and not rep.admissible
    rc = cli.main([
        "forward", "--config", str(workdir["cfg"]), "--k", "0.0",
        "--q", str(workdir["qpath"]), "--dirichlet", str(workdir["fpath"]),
        "--out", str(workdir["tmp"] / "singular.field"),
    ])
    assert rc == cli.EXIT_INADMISSIBLE


def test_dnmap_and_dnnorm(workdir, capsys):
    m1 = workdir["tmp"] / "dn1.mat"
    m2 = workdir["tmp"] / "dn2.mat"
    for qspec, path in ((str(workdir["qpath"]), m1), ("zero", m2)):
        rc = cli.main([
            "dnmap", "--config", str(workdir["cfg"]), "--k", "0.0",
            "--q", qspec, "--basis-n", "3", "--target", "gamma2N",
            "--out", str(path),
        ])
        assert rc == 0
    mat = dnmap.read_matrix(str(m1))
    assert mat.shape[1] == 9
    rc = cli.main([
        "dnnorm", "--a", str(m1), "--b", str(m2), "--config", str(workdir["cfg"]),
        "--k", "0.0", "--basis-n", "3", "--test-n", "3", "--target", "gamma2N",
    ])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert 0 < value < 1e-2  # small difference for a Born-scale potential


def test_cgo_check_record(workdir, capsys):
    rc = cli.main([
        "cgo-check", "--config", str(workdir["cfg"]), "--xi", "2.0,0.0,0.0",
        "--variant", "thm2", "--param", "4.0", "--q1", str(workdir["qpath"]),
        "--q2", "zero",
    ])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["isotropy_residual"] < 1e-12
    assert rec["norm_identity_residual"] < 1e-12
    assert rec["max_u1_gamma2"] == 0.0
    assert rec["psi1_l2"] > 0


@pytest.mark.parametrize("variant", ["thm2", "thm3"])
def test_cgo_check_carries_k_in_the_phase(workdir, capsys, variant):
    # at k = 2.5 the phases satisfy rho . rho = -k^2, the q2 = 0 remainder
    # vanishes identically, and the reflected probes vanish on the bottom plate
    rc = cli.main([
        "cgo-check", "--config", str(workdir["cfg"]), "--xi", "2.0,0.5,-1.0",
        "--variant", variant, "--param", "8.0", "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--k", "2.5",
    ])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    rho_sq = 2 * 8.0 ** 2 * 5.25 + 2.5 ** 2
    assert rec["isotropy_residual"] <= 1e-12 * rho_sq
    assert rec["norm_identity_residual"] < 1e-12
    assert rec["psi2_l2"] == rec["psi2_h1"] == 0.0
    assert rec["psi1_l2"] > 0
    assert rec["max_u1_gamma2"] == 0.0
    assert ("max_u2_gamma2" in rec) == (variant == "thm3")
    if variant == "thm3":
        assert rec["max_u2_gamma2"] == 0.0


def test_cgo_check_no_contraction_is_one_line_error(tmp_path, capsys):
    # an amplitude-400 bump at h = 1/8: the thm3 remainder at k = 0.5,
    # param 1 diverges on the coarsened box
    cfg = tmp_path / "geom.cfg"
    cfg.write_text("L = 1.0\nR = 1.0\nR_prime = 1.5\nR_lat = 2.0\n"
                   "eps_cutoff = 0.1\ntarget_h = 0.125\n")
    geom, target_h = geometry.parse_geometry_config(str(cfg))
    grid = geometry.build_domain(geom, target_h)
    qpath = tmp_path / "strong.field"
    fields.write_field(str(qpath), fields.radial_bump_potential(grid, geom, 400.0).field)
    rc = cli.main([
        "cgo-check", "--config", str(cfg), "--q1", str(qpath), "--q2", "zero",
        "--variant", "thm3", "--xi", "2,0.5,-1", "--param", "1", "--k", "0.5",
        "--box-coarsen", "2",
    ])
    assert rc == cli.EXIT_NO_CONTRACTION
    err = capsys.readouterr().err
    assert err.startswith("CGO remainder failed: remainder iteration diverging")
    assert err.count("\n") == 1


def test_cgo_check_projection_error_exit_code(workdir, capsys, monkeypatch):
    def projected(*args, **kwargs):
        raise cgo.ProjectionError("5 of 64 Fourier modes near the symbol zero set")

    monkeypatch.setattr(cgo, "build_probe", projected)
    rc = cli.main([
        "cgo-check", "--config", str(workdir["cfg"]), "--xi", "2.0,0.0,0.0",
        "--variant", "thm2", "--param", "4.0",
    ])
    assert rc == cli.EXIT_PROJECTION
    err = capsys.readouterr().err
    assert err == "CGO remainder failed: 5 of 64 Fourier modes near the symbol zero set\n"


def test_recover_csv_and_summary(workdir, capsys):
    out = workdir["tmp"] / "recover.csv"
    rc = cli.main([
        "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--k", "0.0", "--variant", "thm2", "--r", "2.5",
        "--param", "6.0", "--lambda", "0.5", "--spacing", "1.0",
        "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["n_failed"] == 0
    assert summary["sup_bound"] > 0
    lines = out.read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == "xi1,xi2,xi3,re_est,im_est,re_true,im_true,abs_err"
    rows = [line.split(",") for line in lines[2:]]
    assert rows
    for row in rows:
        est = complex(float(row[3]), float(row[4]))
        true = complex(float(row[5]), float(row[6]))
        assert abs(est - true) == pytest.approx(float(row[7]), rel=1e-9)


def test_recover_with_continuation_lines(workdir, capsys):
    # spacing 0.5 produces low lateral frequencies (filled by line
    # continuation) and axis points (filled by neighbour averaging)
    out = workdir["tmp"] / "recover_low.csv"
    rc = cli.main([
        "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--variant", "thm2", "--r", "2.5", "--param", "6.0",
        "--lambda", "0.5", "--spacing", "0.5", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["n_axis_filled"] > 0
    lines = out.read_text().splitlines()
    xi1e = [np.hypot(float(r.split(",")[0]), float(r.split(",")[1]))
            for r in lines[2:]]
    assert any(0 < v < 1 for v in xi1e)  # continuation region present


def test_recover_auto_parameters(workdir, capsys):
    out = workdir["tmp"] / "recover_auto.csv"
    rc = cli.main([
        "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--variant", "thm2", "--spacing", "1.0",
        "--basis-n", "3", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["star_norm"] > 0
    # log-log schedules at desk-scale data errors sit below the frequency
    # window, so the clamp warning is expected
    assert summary["params"]["r"] >= 2.0
    assert 0 < summary["params"]["lambda"] < 1


def test_recover_csv_byte_deterministic(workdir):
    # the first run starts from empty lattice, stencil and quadrature caches,
    # the second reuses them; the CSV bytes must not depend on which
    caches = (cgo._box_lattice, cgo._interp_factors, recovery._gauss_legendre)
    for cache in caches:
        cache.cache_clear()
    outputs = []
    misses = []
    for run in ("cold", "warm"):
        out = workdir["tmp"] / f"recover_{run}.csv"
        rc = cli.main([
            "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
            "--q2", "zero", "--variant", "thm3", "--r", "2.5", "--param", "6.0",
            "--lambda", "auto", "--spacing", "0.5", "--box-coarsen", "2",
            "--out", str(out),
        ])
        assert rc == 0
        outputs.append(out.read_bytes())
        misses.append([cache.cache_info().misses for cache in caches])
    assert all(misses[0])                 # the cold run filled every cache
    assert misses[1] == misses[0]         # the warm run built nothing new
    assert outputs[0] == outputs[1]


def test_forward_periodic_mode(workdir):
    out = workdir["tmp"] / "periodic.field"
    rc = cli.main([
        "forward", "--config", str(workdir["cfg"]), "--k", "0.0",
        "--q", "zero", "--dirichlet", str(workdir["fpath"]),
        "--mode", "periodic", "--out", str(out),
    ])
    assert rc == 0
    u = fields.read_field(str(out))
    # periodic seam consistency
    assert np.array_equal(u.values[0, :, :], u.values[-1, :, :])


def test_sweep_cli(workdir, capsys):
    out = workdir["tmp"] / "sweep.csv"
    rc = cli.main([
        "sweep", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--variant", "thm2", "--noise", "1e-3,1e-5",
        "--trials", "1", "--seed", "7", "--basis-n", "3", "--out", str(out),
    ])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["n_records"] == 2
    assert out.read_text().startswith(SCHEMA_LINE)


def test_carleman_cli(workdir, capsys):
    out = workdir["tmp"] / "carleman.csv"
    rc = cli.main([
        "carleman", "--config", str(workdir["cfg"]), "--zeta", "0,0,1",
        "--taus", "1,2,4", "--trials", "5", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert np.isfinite(info["fitted_c"])
    assert out.read_text().startswith(SCHEMA_LINE)


def test_rl_cli_subprocess(workdir):
    # exercise the installed console path end to end
    out = workdir["tmp"] / "rl.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "slabinv.cli", "rl", "--config",
         str(workdir["cfg"]), "--q", str(workdir["qpath"]), "--rays", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(info["p_values"]) == 2
    assert out.read_text().startswith(SCHEMA_LINE)


def test_rl_cli_in_process(workdir, capsys):
    # the subcommand and write_rl_csv in this process: the schema line, the
    # header, 12 samples per ray and a finite decay exponent on each ray
    out = workdir["tmp"] / "rl_inproc.csv"
    assert cli.main(["rl", "--config", str(workdir["cfg"]), "--q", str(workdir["qpath"]),
                     "--rays", "3", "--seed", "4", "--out", str(out)]) == 0
    p_values = json.loads(capsys.readouterr().out.strip())["p_values"]
    assert len(p_values) == 3 and all(np.isfinite(p_values))
    lines = out.read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == "ray,dx,dy,dz,t,ft_abs,p"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3 * 12
    assert [int(r[0]) for r in rows] == [i for i in range(3) for _ in range(12)]
    assert [float(r[6]) for r in rows[::12]] == pytest.approx(p_values, rel=1e-12)


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    # the benchmark's tiny sweep: h = 1/8, three modes per axis
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = tmp / "geom.cfg"
    cfg.write_text(
        "L = 1.0\nR = 1.0\nR_prime = 1.5\nR_lat = 2.0\n"
        "eps_cutoff = 0.1\ntarget_h = 0.125\n"
    )
    geom, target_h = geometry.parse_geometry_config(str(cfg))
    grid = geometry.build_domain(geom, target_h)
    q1 = fields.radial_bump_potential(grid, geom, 1e-3)
    qpath = tmp / "q1.field"
    fields.write_field(str(qpath), q1.field)
    argv = ["sweep", "--config", str(cfg), "--q1", str(qpath), "--q2", "zero",
            "--variant", "thm2", "--basis-n", "3", "--noise", "1e-3,1e-6",
            "--trials", "1", "--seed", "3"]
    return dict(tmp=tmp, geom=geom, grid=grid, argv=argv)


def test_sweep_csv_byte_deterministic(sweep_inputs):
    # the first run starts with an empty reference-eigenvalue cache, the
    # second reuses it; the CSV bytes must not depend on which
    forward.reference_eigenvalue.cache_clear()
    outputs = []
    for run in ("cold", "warm"):
        out = sweep_inputs["tmp"] / f"sweep_{run}.csv"
        assert cli.main(sweep_inputs["argv"] + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert forward.reference_eigenvalue.cache_info().hits >= 1
    assert outputs[0] == outputs[1]


def test_sweep_zero_q2_reuses_free_operator(sweep_inputs, monkeypatch):
    from slabinv import harness

    built = []

    class Counting(forward.HelmholtzOperator):
        def __init__(self, *args, **kwargs):
            built.append(args[3])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dnmap, "HelmholtzOperator", Counting)
    out = sweep_inputs["tmp"] / "sweep_shared.csv"
    assert cli.main(sweep_inputs["argv"] + ["--out", str(out)]) == 0
    assert len(built) == 2 and built[0] is None  # free operator and q1's only
    monkeypatch.undo()

    # the same sweep with a separately built and factorized q2 operator: d is
    # the trace of w, A1 w = -(q1 - q2) u2, with u2 the q2 solutions on the
    # nodes where q1 - q2 is nonzero, solved and traced block by block
    geom, grid = sweep_inputs["geom"], sweep_inputs["grid"]
    q1 = fields.read_potential(str(sweep_inputs["tmp"] / "q1.field"), geom)
    q2 = fields.zero_potential(grid, geom)
    src = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom), 3)
    src.attach_triple_gram(forward.HelmholtzOperator(grid, geom, 0.0, None))
    target = geometry.neumann_patch(geom, geometry.Plate.BOTTOM)
    tgt = dnmap.build_boundary_basis(grid, target, 3)
    op1 = forward.HelmholtzOperator(grid, geom, 0.0, q1)
    qdiff = (q1.field.values - q2.field.values).real[op1.active]
    live = np.flatnonzero(qdiff)
    u2 = dnmap.active_solutions(forward.HelmholtzOperator(grid, geom, 0.0, q2), src, live)

    def solve_w(cols):
        rhs = np.zeros((op1.n_active, cols.stop - cols.start))
        rhs[live] = -qdiff[live, None] * u2[cols].T
        w = np.zeros((rhs.shape[1],) + grid.node_shape)
        w[..., op1.active] = op1.solve_interior(rhs).T
        return fields.GridField(grid, w)

    d = dnmap.assemble_dn(op1, src, target, solve=solve_w)
    records, theta_fit = harness.stability_sweep(
        q1, q2, 0.0, recovery.Variant.SINGLE_REFLECTION, [1e-3, 1e-6], 1, 3,
        src_basis=src, tgt_basis=tgt, d=d, delta=1.0)
    ref = sweep_inputs["tmp"] / "sweep_separate.csv"
    harness.write_sweep_csv(str(ref), records, theta_fit)
    assert out.read_bytes() == ref.read_bytes()


def _run_sweep_subprocess(argv, out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-m", "slabinv.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_sweep_csv_deterministic_per_blas_thread_count(sweep_inputs):
    # byte-identical for a fixed BLAS thread count; another thread count
    # reorders the BLAS sums, so only round-off may change
    tmp, argv = sweep_inputs["tmp"], sweep_inputs["argv"]
    one = [_run_sweep_subprocess(argv, tmp / f"sweep_t1_{i}.csv", 1) for i in range(2)]
    two = _run_sweep_subprocess(argv, tmp / "sweep_t2.csv", 2)
    assert one[0] == one[1]
    rows_one = one[0].decode().splitlines()
    rows_two = two.decode().splitlines()
    assert rows_one[:2] == rows_two[:2] and len(rows_one) == len(rows_two)
    for a, b in zip(rows_one[2:], rows_two[2:]):
        for x, y in zip(map(float, a.split(",")), map(float, b.split(","))):
            assert x == y or abs(x - y) <= 1e-10 * max(abs(x), abs(y))


def test_recover_continuation_reuses_annulus_estimates(workdir, monkeypatch):
    # r = 2.5, spacing 0.5: 108 of the 216 continuation samples are annulus
    # frequencies, whose estimates are reused instead of recomputed
    probes, calls = [], []
    orig_probe, orig_estimate = recovery.build_probe, recovery.estimate_fhat_annulus

    def estimate(*args):
        calls.append((args, orig_estimate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(recovery, "build_probe",
                        lambda *a, **kw: probes.append(1) or orig_probe(*a, **kw))
    monkeypatch.setattr(recovery, "estimate_fhat_annulus", estimate)
    out = workdir["tmp"] / "recover_reuse.csv"
    assert cli.main([
        "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", "--variant", "thm2", "--r", "2.5", "--param", "6.0",
        "--lambda", "0.5", "--spacing", "0.5", "--out", str(out),
    ]) == 0
    freqs = recovery.build_frequency_set(2.5, 0.5)
    directions = sorted({(round(x / np.hypot(x, y), 9), round(y / np.hypot(x, y), 9), z)
                         for x, y, z in freqs.low})
    samples = [(float(s * dx), float(s * dy), float(z))
               for dx, dy, z in directions for s in (1.0, 1.5, 2.0)]
    annulus = set(freqs.annulus)
    hits = [xi for xi in samples if xi in annulus]
    assert len(samples) == 216 and len(hits) == 108
    (ws, param, _), annulus_result = calls[0]
    estimated = [xi for (_, _, batch), _ in calls[1:] for xi in batch]
    assert estimated == [xi for xi in samples if xi not in hits]
    # one probe per +-xi pair of each batch: 540 / 2 + 108 / 2
    pairs = [{recovery.canonical_frequency(xi)[0] for xi in batch}
             for batch in (freqs.annulus, estimated)]
    assert [2 * len(p) for p in pairs] == [len(freqs.annulus), len(estimated)] == [540, 108]
    assert len(probes) == sum(map(len, pairs)) == 324
    # reuse is exact because an estimate does not depend on its batch
    again = orig_estimate(ws, param, hits[:4]).estimates
    assert all(again[xi] == annulus_result.estimates[xi] for xi in hits[:4])


def _recover_cli(workdir, capsys, name, args):
    out = workdir["tmp"] / f"{name}.csv"
    assert cli.main([
        "recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
        "--q2", "zero", *args, "--out", str(out),
    ]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    rows = [tuple(float(v) for v in line.split(","))
            for line in out.read_text().splitlines()[2:]]
    return summary, rows


def _born_pair(workdir):
    geom, grid = workdir["geom"], workdir["grid"]
    return (fields.read_potential(str(workdir["qpath"]), geom),
            fields.zero_potential(grid, geom))


@pytest.mark.parametrize("args, kwargs", [
    (["--r", "2.5", "--param", "6.0", "--lambda", "0.5", "--spacing", "0.5"],
     dict(r=2.5, param=6.0, lam=0.5, spacing=0.5, basis_n=8)),
    (["--spacing", "1.0", "--basis-n", "3"],
     dict(r=None, param=None, lam=None, spacing=1.0, basis_n=3)),
], ids=["explicit", "auto"])
def test_recover_library_matches_cli(workdir, capsys, args, kwargs):
    summary, rows = _recover_cli(workdir, capsys, "recover_lib",
                                 ["--variant", "thm3", *args])
    run = recovery.recover(*_born_pair(workdir), 0.0, recovery.Variant.DOUBLE_REFLECTION,
                           delta=1.0, box_coarsen=1, **kwargs)
    assert [row[:3] for row in rows] == list(run.estimates)
    for row, (xi, est) in zip(rows, run.estimates.items()):
        true = run.oracle[xi]
        assert row[3:] == (est.real, est.imag, true.real, true.imag, abs(est - true))
    b = run.bounds
    assert (summary["sup_bound"], summary["hm1_bound"], summary["linf_bound"]) == (
        b.sup_bound, b.hm1_bound, b.linf_bound)
    assert summary["params"] == b.params
    assert summary["star_norm"] == run.star_norm
    assert (summary["star_norm"] is None) == (kwargs["r"] is not None)
    assert summary["warnings"] == run.warnings
    assert {key: summary[key] for key in run.counts} == run.counts


_CONTINUED = ["--variant", "thm2", "--r", "2.5", "--param", "6.0", "--lambda", "0.5",
              "--spacing", "0.5"]


def test_recover_fits_lines_on_successful_samples(workdir, capsys, monkeypatch):
    # the line through (0.5, 0.5, 0) samples s = 1, 1.5, 2 along (d, d, 0),
    # none of them an annulus frequency; the middle sample fails, and with it
    # its mate on the line through (-0.5, -0.5, 0), estimated by conjugation
    d = round(1.0 / np.sqrt(2.0), 9)
    samples = [(float(s * d), float(s * d), 0.0) for s in (1.0, 1.5, 2.0)]
    mate = (-samples[1][0], -samples[1][1], 0.0)
    orig = recovery.build_probe

    def probe(eval_grid, phase, *args, **kwargs):
        if tuple(phase.xi) == samples[1]:
            raise cgo.ContractionError("remainder iteration is not contracting")
        return orig(eval_grid, phase, *args, **kwargs)

    monkeypatch.setattr(recovery, "build_probe", probe)
    summary, rows = _recover_cli(workdir, capsys, "recover_skip", _CONTINUED)
    monkeypatch.undo()
    assert summary["n_failed"] == 0
    assert sorted(w for w in summary["warnings"] if "continuation" in w) == [
        f"continuation sample {xi} skipped: remainder iteration is not contracting"
        for xi in (mate, samples[1])]
    q1, q2 = _born_pair(workdir)
    ws = recovery.make_workspace(q1, q2, 0.0, recovery.Variant.SINGLE_REFLECTION)
    kept = [samples[0], samples[2]]
    est = recovery.estimate_fhat_annulus(ws, 6.0, kept).estimates
    cfg = recovery.ContinuationConfig(lam=0.5, model_halfwidth=2.0, c0=1.0)
    want = recovery.low_freq_extend(np.array([1.0, 2.0]), [est[xi] for xi in kept], cfg,
                                    np.array([np.hypot(0.5, 0.5)]),
                                    ws.qdiff_l1 * np.exp(4.0)).values[0]
    (row,) = [row for row in rows if row[:3] == (0.5, 0.5, 0.0)]
    assert complex(row[3], row[4]) == pytest.approx(want, rel=1e-12)
    (row,) = [row for row in rows if row[:3] == (-0.5, -0.5, 0.0)]
    assert complex(row[3], row[4]) == pytest.approx(want.conjugate(), rel=1e-12)


def test_recover_skips_lines_whose_fit_fails(workdir, capsys, monkeypatch):
    # the middle sample of the line through (0.5, 0.5, 0) fails, and with it
    # its mate on the line through (-0.5, -0.5, 0), so these two lines are
    # fitted together (s = 1, 2) and every other line in one fit on
    # s = 1, 1.5, 2; a failed fit skips the lines of its group, one warning each
    d = round(1.0 / np.sqrt(2.0), 9)
    failing = (float(1.5 * d), float(1.5 * d), 0.0)
    orig_probe, orig_extend = recovery.build_probe, recovery.low_freq_extend

    def probe(eval_grid, phase, *args, **kwargs):
        if tuple(phase.xi) == failing:
            raise cgo.ContractionError("remainder iteration is not contracting")
        return orig_probe(eval_grid, phase, *args, **kwargs)

    monkeypatch.setattr(recovery, "build_probe", probe)
    summary, rows = _recover_cli(workdir, capsys, "recover_all", _CONTINUED)
    xis = {row[:3] for row in rows}
    low = {xi for xi in xis if 0 < np.hypot(xi[0], xi[1]) < 1}

    def direction(x, y, z):
        return round(x / np.hypot(x, y), 9), round(y / np.hypot(x, y), 9), z

    for n_samples, lines in ((2, 2), (3, len({direction(*xi) for xi in low}) - 2)):
        fits = []

        def extend(s, *args, n_samples=n_samples):
            fits.append(len(s))
            if len(s) == n_samples:
                raise recovery.ContinuationError("continuation fit condition 1e13 > 1e12")
            return orig_extend(s, *args)

        monkeypatch.setattr(recovery, "low_freq_extend", extend)
        skipped_summary, kept = _recover_cli(workdir, capsys, f"recover_{n_samples}", _CONTINUED)
        assert sorted(fits) == [2, 3]
        skipped = [w for w in skipped_summary["warnings"] if w.startswith("continuation line ")]
        assert len(skipped) == lines
        # the skipped frequencies are the low frequencies of the group's lines
        # (and the axis points whose neighbours all went with them)
        missing = {xi for xi in xis - {row[:3] for row in kept} if np.hypot(xi[0], xi[1]) > 0}
        assert missing < low
        assert len({direction(*xi) for xi in missing}) == lines
        for xi in ((0.5, 0.5, 0.0), (-0.5, -0.5, 0.0)):
            assert (direction(*xi) in {direction(*p) for p in missing}) == (n_samples == 2)


# -- bad options fail at the boundary ------------------------------------------------


_RECOVER = ["--variant", "thm2", "--r", "2.5", "--param", "6.0", "--lambda", "0.5",
            "--spacing", "1.0"]


def _with(argv, option, value):
    i = argv.index(option)
    return argv[:i + 1] + [value] + argv[i + 2:]


# the inputs each subcommand needs besides its bad option: Q is the potential
# file and OUT the output; the other paths do not exist, so the options must be
# checked before any input is read
_INPUTS = {
    "recover": ["--q1", "Q", "--out", "OUT"],
    "sweep": ["--q1", "Q", "--out", "OUT"],
    "forward": ["--q", "Q", "--dirichlet", "missing.bfield", "--out", "OUT"],
    "dnmap": ["--q", "Q", "--target", "gamma2N", "--out", "OUT"],
    "dnnorm": ["--a", "missing_a.mat", "--b", "missing_b.mat"],
    "cgo-check": ["--q1", "Q", "--variant", "thm2"],
    "carleman": ["--q", "Q", "--out", "OUT"],
    "rl": ["--q", "Q", "--out", "OUT"],
}
_SWEEP = ["--variant", "thm2", "--noise", "1e-3"]
_CGO = ["--xi", "2,0.5,-1", "--param", "8"]
_CARLEMAN = ["--zeta", "0,0,1", "--taus", "1,2"]


@pytest.mark.parametrize("command, argv, message", [
    ("recover", _with(_RECOVER, "--spacing", "0"), "--spacing must be positive"),
    ("recover", _with(_RECOVER, "--spacing", "-0.5"), "--spacing must be positive"),
    ("recover", _with(_RECOVER, "--param", "0.5"), "--param must be >= 1"),
    ("recover", _RECOVER + ["--box-coarsen", "0"], "--box-coarsen must be >= 1"),
    ("recover", _with(_RECOVER, "--r", "1.5"), "--r must be finite and exceed 2"),
    ("recover", _with(_RECOVER, "--lambda", "1.5"), "--lambda must lie in (0, 1)"),
    ("sweep", _SWEEP + ["--basis-n", "0"], "--basis-n must be >= 1"),
    ("sweep", ["--variant", "thm2", "--noise", "abc"],
     "--noise: expected comma-separated numbers, got 'abc'"),
    ("sweep", _SWEEP + ["--trials", "0"], "--trials must be >= 1"),
    ("sweep", _SWEEP + ["--delta", "0"], "--delta must be positive"),
    ("recover", _RECOVER + ["--delta", "-1"], "--delta must be positive"),
    ("recover", _RECOVER + ["--k", "-1"], "--k must be >= 0"),
    ("recover", _RECOVER + ["--k", "nan"], "--k must be >= 0"),
    ("forward", ["--k", "-1"], "--k must be >= 0"),
    ("dnmap", ["--k", "-1"], "--k must be >= 0"),
    ("dnnorm", ["--k", "-1"], "--k must be >= 0"),
    ("carleman", _CARLEMAN + ["--k", "-1"], "--k must be >= 0"),
    ("sweep", _SWEEP + ["--k", "-1"], "--k must be >= 0"),
    ("cgo-check", _CGO + ["--k", "-1"], "--k must be >= 0"),
    ("cgo-check", _with(_CGO, "--param", "0.5"), "--param must be >= 1"),
    ("cgo-check", _CGO + ["--box-coarsen", "0"], "--box-coarsen must be >= 1"),
    ("cgo-check", _with(_CGO, "--xi", "0,0,1"),
     "--xi 0,0,1: frame undefined: frequency has no lateral component"),
    ("dnmap", ["--k", "0", "--basis-n", "0"], "--basis-n must be >= 1"),
    ("dnnorm", ["--basis-n", "0"], "--basis-n must be >= 1"),
    ("dnnorm", ["--test-n", "0"], "--test-n must be >= 1"),
    ("carleman", _CARLEMAN + ["--trials", "0"], "--trials must be >= 1"),
    ("carleman", _with(_CARLEMAN, "--zeta", "1,0,0.5"),
     "--zeta must have a third component >= 1"),
    ("carleman", _with(_CARLEMAN, "--taus", "2,1"), "--taus must increase from at least 1"),
    ("carleman", _with(_CARLEMAN, "--taus", "0.5,2"), "--taus must increase from at least 1"),
    ("rl", ["--rays", "0"], "--rays must be >= 1"),
    ("recover", _with(_RECOVER, "--r", "inf"), "--r must be finite and exceed 2"),
], ids=["spacing-0", "spacing-negative", "param", "box-coarsen", "r", "lambda",
        "basis-n", "noise", "trials", "sweep-delta", "recover-delta", "recover-k",
        "recover-k-nan", "forward-k", "dnmap-k", "dnnorm-k", "carleman-k", "sweep-k",
        "cgo-check-k", "cgo-check-param", "cgo-check-box-coarsen", "cgo-check-xi",
        "dnmap-basis-n", "dnnorm-basis-n", "dnnorm-test-n", "carleman-trials",
        "carleman-zeta", "carleman-taus-order", "carleman-taus-min", "rl-rays",
        "r-inf"])
def test_bad_option_is_one_line_before_any_solve(workdir, monkeypatch, command, argv,
                                                 message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the options were checked")

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", no_solve)
    monkeypatch.setattr(recovery, "make_workspace", no_solve)
    monkeypatch.setattr(recovery, "calibrate_two_constants", no_solve)
    paths = {"Q": str(workdir["qpath"]), "OUT": str(workdir["tmp"] / "bad.csv")}
    inputs = [paths.get(a, a) for a in _INPUTS[command]]
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--config", str(workdir["cfg"]), *inputs, *argv])
    assert info.value.code == message  # printed as one line, exit status 1
    assert not (workdir["tmp"] / "bad.csv").exists()


def test_bad_option_exit_status_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "slabinv.cli", "recover", "--config", str(workdir["cfg"]),
         "--q1", str(workdir["qpath"]), *_with(_RECOVER, "--spacing", "0"),
         "--out", str(workdir["tmp"] / "bad.csv")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 1
    assert proc.stderr == "--spacing must be positive\n"


def test_recover_without_annulus_estimates_fails(workdir, capsys, monkeypatch):
    def diverging(*args, **kwargs):
        raise cgo.ContractionError("remainder iteration is not contracting")

    monkeypatch.setattr(recovery, "build_probe", diverging)
    rc = cli.main(["recover", "--config", str(workdir["cfg"]), "--q1", str(workdir["qpath"]),
                   *_RECOVER, "--out", str(workdir["tmp"] / "none.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("recovery failed: none of the ") and err.count("\n") == 1
    assert not (workdir["tmp"] / "none.csv").exists()


def test_cli_import_leaves_out_scipy_fft_and_special():
    # a fresh interpreter: numpy.fft serves every transform, so the CLI's
    # import pulls in neither scipy.fft nor the scipy.special it imports
    code = ("import sys, slabinv.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'fft'], ['scipy', 'special'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""

"""Command-line interface.

Subcommands: forward, dnmap, dnnorm, cgo-check, recover, sweep, carleman, rl.
Geometry comes from a flat key=value config file (keys L, R, R_prime, R_lat,
eps_cutoff, target_h); volume fields and boundary data use the binary field
formats documented in fields.py / boundary.py; matrices use the format in
dnmap.py.  CSV outputs start with a schema-version line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import boundary, cgo, dnmap, fields, forward, geometry, harness, recovery

EXIT_INADMISSIBLE = 2

VARIANTS = {
    "thm2": recovery.Variant.SINGLE_REFLECTION,
    "thm3": recovery.Variant.DOUBLE_REFLECTION,
}


def _load_setup(config_path: str):
    geom, target_h = geometry.parse_geometry_config(config_path)
    grid = geometry.build_domain(geom, target_h)
    return geom, grid


def _load_potential(spec: str, geom, grid) -> fields.Potential:
    if spec == "zero":
        return fields.zero_potential(grid, geom)
    pot = fields.read_potential(spec, geom)
    if pot.grid != grid:
        raise SystemExit(f"potential file {spec} was sampled on a different grid")
    return pot


def _parse_vec(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise SystemExit(f"expected three comma-separated values, got {text!r}")
    return np.asarray(parts)


def _cmd_forward(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    mode = forward.TRUNCATED if args.mode == "truncated" else forward.PERIODIC
    op = forward.HelmholtzOperator(grid, geom, args.k, q, mode)
    patch = geometry.dirichlet_patch(geom)
    f, _plate_z = boundary.read_boundary_field(args.dirichlet, patch)
    try:
        u = forward.solve_dirichlet(op, f)
    except forward.AdmissibilityError as exc:
        print(f"inadmissible frequency: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    fields.write_field(args.out, u)
    return 0


def _cmd_dnmap(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    op = forward.HelmholtzOperator(grid, geom, args.k, q)
    basis = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom),
                                       args.basis_n)
    plate = geometry.Plate.TOP if args.target == "gamma1N" else geometry.Plate.BOTTOM
    target = geometry.neumann_patch(geom, plate)
    try:
        dn = dnmap.assemble_dn(op, basis, target)
    except forward.AdmissibilityError as exc:
        print(f"inadmissible frequency: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    dnmap.write_matrix(args.out, dn.matrix)
    return 0


def _cmd_dnnorm(args) -> int:
    geom, grid = _load_setup(args.config)
    m1 = dnmap.read_matrix(args.a)
    m2 = dnmap.read_matrix(args.b)
    if m1.shape != m2.shape:
        raise SystemExit("matrices have different shapes")
    src = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom),
                                     args.basis_n)
    op0 = forward.HelmholtzOperator(grid, geom, args.k, None)
    src.attach_triple_gram(op0)
    plate = geometry.Plate.TOP if args.target == "gamma1N" else geometry.Plate.BOTTOM
    tgt = dnmap.build_boundary_basis(grid, geometry.neumann_patch(geom, plate),
                                     args.test_n)
    value = dnmap.op_norm_star(m1 - m2, src, tgt)
    print("%.17g" % value)
    return 0


def _cmd_cgo_check(args) -> int:
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    variant = VARIANTS[args.variant]
    xi = _parse_vec(args.xi)
    frame = cgo.make_frame(xi)
    phase = cgo.make_phase_pair(frame, variant, args.param)
    ws = recovery.make_workspace(q1, q2, args.k, variant,
                                 box_coarsen=args.box_coarsen, eval_grid=grid)
    probe = cgo.build_probe(grid, phase, ws.q1_box, ws.q2_box, args.k)
    gamma2 = np.max(np.abs(probe.u1.values[:, :, 0]))
    record = {
        "xi": [float(v) for v in xi],
        "variant": args.variant,
        "param": args.param,
        "isotropy_residual": cgo.isotropy_residual(phase),
        "norm_identity_residual": cgo.norm_identity_residual(phase),
        "psi1_l2": probe.decay_report["psi1_l2"],
        "psi1_h1": probe.decay_report["psi1_h1"],
        "psi2_l2": probe.decay_report["psi2_l2"],
        "psi2_h1": probe.decay_report["psi2_h1"],
        "max_u1_gamma2": float(gamma2),
    }
    if variant is recovery.Variant.DOUBLE_REFLECTION:
        record["max_u2_gamma2"] = float(np.max(np.abs(probe.u2.values[:, :, 0])))
    print(json.dumps(record, sort_keys=True))
    return 0


def _measurement_plate(variant) -> geometry.Plate:
    if variant is recovery.Variant.SINGLE_REFLECTION:
        return geometry.Plate.BOTTOM
    return geometry.Plate.TOP


def _auto_parameters(args, geom, grid, q1, q2, variant, lam):
    """Schedule (r, param) from a measured star norm on a small basis."""
    src, tgt, d1, d2 = dnmap.measurement_pair(grid, geom, args.k, q1, q2,
                                              _measurement_plate(variant), args.basis_n)
    star = dnmap.op_norm_star(d1.matrix - d2.matrix, src, tgt)
    c = 4.0 * (2.0 * geom.R + geom.L) + 2.0
    choice = recovery.choose_parameters(args.delta, star, lam, c, variant)
    return star, choice


def _cmd_recover(args) -> int:
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    variant = VARIANTS[args.variant]
    if args.lam == "auto":
        c0, lam, _ = recovery.calibrate_two_constants(2.0 * geom.R)
    else:
        lam, c0 = float(args.lam), 1.0
    warnings = []
    if args.r == "auto" or args.param == "auto":
        star, choice = _auto_parameters(args, geom, grid, q1, q2, variant, lam)
        r = choice.r if args.r == "auto" else float(args.r)
        param = choice.param if args.param == "auto" else float(args.param)
        if args.r == "auto" and r < 2.0:
            warnings.append(f"scheduled r={r:.4g} < 2; clamped to 2.25")
            r = 2.25
        if args.param == "auto" and param < 1.0:
            warnings.append(f"scheduled parameter {param:.4g} < 1; clamped to 1")
            param = 1.0
    else:
        star = math.nan
        r = float(args.r)
        param = float(args.param)
    ws = recovery.make_workspace(q1, q2, args.k, variant,
                                 box_coarsen=args.box_coarsen)
    freqs = recovery.build_frequency_set(r, args.spacing)
    ann = recovery.estimate_fhat_annulus(ws, param, freqs.annulus)
    fhat = dict(ann.estimates)
    flagged = []

    cfg = recovery.ContinuationConfig(lam=lam, model_halfwidth=2.0 * geom.R, c0=c0)
    sup_g = ws.qdiff_l1 * math.exp(2.0 * cfg.model_halfwidth)
    s_grid = np.arange(1.0, 2.0 + 1e-9, args.spacing)
    lines: dict = {}
    for xi in freqs.low:
        x1e = math.hypot(xi[0], xi[1])
        key = (round(xi[0] / x1e, 9), round(xi[1] / x1e, 9), xi[2])
        lines.setdefault(key, []).append(xi)
    for (dx, dy, x3), points in sorted(lines.items()):
        # samples that are annulus frequencies reuse those estimates
        keys = [(float(s * dx), float(s * dy), float(x3)) for s in s_grid]
        res = recovery.estimate_fhat_annulus(
            ws, param, [key for key in keys if key not in ann.estimates])
        samples = [ann.estimates.get(key, res.estimates.get(key, 0.0)) for key in keys]
        s_eval = [math.hypot(p[0], p[1]) for p in points]
        ext = recovery.low_freq_extend(s_grid, np.asarray(samples), cfg,
                                       np.asarray(s_eval), sup_g)
        for p, val in zip(points, ext.values):
            fhat[(float(p[0]), float(p[1]), float(p[2]))] = complex(val)

    for xi in freqs.axis:
        nbrs = [(xi[0] + args.spacing, xi[1], xi[2]),
                (xi[0] - args.spacing, xi[1], xi[2]),
                (xi[0], xi[1] + args.spacing, xi[2]),
                (xi[0], xi[1] - args.spacing, xi[2])]
        vals = [fhat[n] for n in nbrs if n in fhat]
        if vals:
            fhat[xi] = sum(vals) / len(vals)
            flagged.append(xi)

    rows = []
    for xi in sorted(fhat):
        est = fhat[xi]
        true = recovery.true_transform(ws, xi)
        rows.append([xi[0], xi[1], xi[2], est.real, est.imag,
                     true.real, true.imag, abs(est - true)])
    header = ["xi1", "xi2", "xi3", "re_est", "im_est", "re_true", "im_true",
              "abs_err"]
    harness.write_csv(args.out, header, rows)

    s_min = min(q1.sobolev_s, q2.sobolev_s)
    m_max = max(q1.bound_M, q2.bound_M)
    result = recovery.assemble_bounds(fhat, r, s_min, m_max, params={
        "r": r, "param": param, "lambda": lam, "c": 4 * (2 * geom.R + geom.L) + 2,
        "delta": args.delta, "theta": recovery.stability_exponent(lam, variant),
        "variant": args.variant,
    })
    summary = {
        "sup_bound": result.sup_bound,
        "hm1_bound": result.hm1_bound,
        "linf_bound": result.linf_bound,
        "params": result.params,
        "star_norm": None if math.isnan(star) else star,
        "n_annulus": len(ann.estimates),
        "n_failed": len(ann.failed),
        "n_axis_filled": len(flagged),
        "warnings": warnings,
    }
    print(json.dumps(summary, sort_keys=True, default=str))
    return 0


def _cmd_sweep(args) -> int:
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    variant = VARIANTS[args.variant]
    noise = [float(v) for v in args.noise.split(",")]
    src, tgt, dn1, dn2 = dnmap.measurement_pair(grid, geom, args.k, q1, q2,
                                                _measurement_plate(variant), args.basis_n)
    records, theta_fit = harness.stability_sweep(
        q1, q2, args.k, variant, noise, args.trials, args.seed,
        src_basis=src, tgt_basis=tgt, dn1=dn1, dn2=dn2, delta=args.delta,
    )
    harness.write_sweep_csv(args.out, records, theta_fit)
    print(json.dumps({"theta_fit": theta_fit, "n_records": len(records)}))
    return 0


def _cmd_carleman(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    op = forward.HelmholtzOperator(grid, geom, args.k, q)
    taus = [float(v) for v in args.taus.split(",")]
    report = harness.carleman_check(op, _parse_vec(args.zeta), taus,
                                    args.trials, args.seed)
    harness.write_carleman_csv(args.out, report)
    print(json.dumps({"fitted_c": report.fitted_c,
                      "top_half_variation": report.top_half_variation,
                      "passed": report.passed}))
    return 0


def _cmd_rl(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    rng = harness.record_rng(args.seed, 0)
    dirs = []
    for _ in range(args.rays):
        v = rng.standard_normal(3)
        dirs.append(v / np.linalg.norm(v))
    rays = harness.rl_decay_measure(q, dirs)
    harness.write_rl_csv(args.out, rays)
    print(json.dumps({"p_values": [ray["p"] for ray in rays]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slabinv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve a Dirichlet problem in the slab")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--q", default="zero")
    p.add_argument("--dirichlet", required=True)
    p.add_argument("--mode", choices=["truncated", "periodic"], default="truncated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("dnmap", help="assemble a partial DN matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--q", default="zero")
    p.add_argument("--basis-n", type=int, default=15)
    p.add_argument("--target", choices=["gamma1N", "gamma2N"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dnmap)

    p = sub.add_parser("dnnorm", help="star norm of a DN matrix difference")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--basis-n", type=int, default=15)
    p.add_argument("--test-n", type=int, default=15)
    p.add_argument("--target", choices=["gamma1N", "gamma2N"], default="gamma2N")
    p.set_defaults(func=_cmd_dnnorm)

    p = sub.add_parser("cgo-check", help="probe invariants at one frequency")
    p.add_argument("--config", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--variant", choices=["thm2", "thm3"], required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--q1", default="zero")
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--box-coarsen", type=int, default=1)
    p.set_defaults(func=_cmd_cgo_check)

    p = sub.add_parser("recover", help="Fourier-difference recovery and bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--variant", choices=["thm2", "thm3"], required=True)
    p.add_argument("--r", default="auto")
    p.add_argument("--param", default="auto")
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--basis-n", type=int, default=8)
    p.add_argument("--box-coarsen", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("sweep", help="DN-noise stability sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--variant", choices=["thm2", "thm3"], required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--basis-n", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("carleman", help="weighted-inequality measurement")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--q", default="zero")
    p.add_argument("--zeta", required=True)
    p.add_argument("--taus", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_carleman)

    p = sub.add_parser("rl", help="Fourier decay along random rays")
    p.add_argument("--config", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--rays", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

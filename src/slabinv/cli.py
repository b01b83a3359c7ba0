"""Command-line interface.

Subcommands: forward, dnmap, dnnorm, cgo-check, recover, sweep, carleman, rl.
Geometry comes from a flat key=value config file (keys L, R, R_prime, R_lat,
eps_cutoff, target_h); volume fields and boundary data use the binary field
formats documented in fields.py / boundary.py; matrices use the format in
dnmap.py.  CSV outputs start with a schema-version line.  An inadmissible
frequency k ends any subcommand with exit status 2, a CGO remainder that does
not contract with 3, one that projects too many modes with 4, and a bad option
(checked before any input is read), an unreadable input path, an input file
that cannot be parsed or does not fit the grid, a failed solve, a numerically
singular basis Gram matrix (more modes than the patch's nodes can tell apart,
say) or a recovery without estimates with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import boundary, cgo, dnmap, fields, forward, geometry, harness, recovery

EXIT_INADMISSIBLE = 2
EXIT_NO_CONTRACTION = 3
EXIT_PROJECTION = 4

# Neumann target of the dnmap and dnnorm subcommands
TARGET_PLATES = {"gamma1N": geometry.Plate.TOP, "gamma2N": geometry.Plate.BOTTOM}


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


def _floats(text: str, option: str, count: int | None = None) -> list[float]:
    """Comma-separated finite numbers (exactly `count` of them when given)."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or (count and len(values) != count):
        raise SystemExit(f"{option}: expected {count or 'comma-separated'} numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise SystemExit(f"{option}: expected finite numbers, got {text!r}")
    return values


def _require(checks: dict) -> None:
    """Exit with status 1 and the message of the first failing check."""
    for message, ok in checks.items():
        if not ok:
            raise SystemExit(message)


# lower bound of each numeric option and whether the bound itself is allowed,
# checked on every subcommand that has the option before any input is read
LOWER_BOUNDS = {"k": (0, True), "delta": (0, False), "spacing": (0, False),
                "box_coarsen": (1, True), "basis_n": (1, True), "test_n": (1, True),
                "trials": (1, True), "rays": (1, True)}


def _check_bounds(args) -> None:
    """The lower bounds, then every float option finite, k^2 finite and the
    seed a 64-bit unsigned integer."""
    for name, (low, closed) in LOWER_BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and not (value >= low if closed else value > low):
            raise SystemExit(f"--{name.replace('_', '-')} must be "
                             + (f">= {low}" if closed else "positive"))
    _require({f"--{name.replace('_', '-')} must be finite": math.isfinite(value)
              for name, value in vars(args).items() if isinstance(value, float)})
    k, seed = getattr(args, "k", 0.0), getattr(args, "seed", 0)
    _require({"--k must have a finite square": math.isfinite(k * k),
              "--seed must lie in [0, 2^64)": 0 <= seed < 2 ** 64})


def _cmd_forward(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    f, plate_z = boundary.read_boundary_field(args.dirichlet, geometry.dirichlet_patch(geom))
    if plate_z != geom.L:
        raise boundary.BoundaryError(f"{args.dirichlet}: plate height {plate_z:.17g} is not "
                                     f"the top plate's, L = {geom.L:.17g}")
    op = forward.HelmholtzOperator(grid, geom, args.k, q, args.mode)
    fields.write_field(args.out, forward.solve_dirichlet(op, f))
    return 0


def _cmd_dnmap(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    op = forward.HelmholtzOperator(grid, geom, args.k, q)
    basis = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom),
                                       args.basis_n)
    target = geometry.neumann_patch(geom, TARGET_PLATES[args.target])
    dnmap.write_matrix(args.out, dnmap.assemble_dn(op, basis, target).matrix)
    return 0


def _cmd_dnnorm(args) -> int:
    geom, grid = _load_setup(args.config)
    m1 = dnmap.read_matrix(args.a)
    m2 = dnmap.read_matrix(args.b)
    target = geometry.neumann_patch(geom, TARGET_PLATES[args.target])
    ni, nj = boundary.bounding_square(grid, target).node_shape
    shape = (ni * nj, args.basis_n ** 2)
    if not m1.shape == m2.shape == shape:
        raise SystemExit(f"matrices must be {shape[0]} x {shape[1]} (target square nodes x "
                         f"--basis-n^2), got {m1.shape} and {m2.shape}")
    src = dnmap.build_boundary_basis(grid, geometry.dirichlet_patch(geom),
                                     args.basis_n)
    op0 = forward.HelmholtzOperator(grid, geom, args.k, None)
    src.attach_triple_gram(op0)
    tgt = dnmap.build_boundary_basis(grid, target, args.test_n)
    value = dnmap.op_norm_star(m1 - m2, src, tgt)
    print("%.17g" % value)
    return 0


def _cmd_cgo_check(args) -> int:
    variant = recovery.VARIANTS[args.variant]
    xi = np.asarray(_floats(args.xi, "--xi", 3))
    _require({"--param must be >= 1": args.param >= 1})
    try:
        phase = cgo.make_phase_pair(xi, variant, args.param, args.k)
    except cgo.FrameError as exc:  # no lateral part, or k too large for the alpha-family
        raise SystemExit(f"--xi {args.xi}: {exc}") from None
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    ws = recovery.make_workspace(q1, q2, args.k, variant,
                                 box_coarsen=args.box_coarsen, eval_grid=grid)
    probe = cgo.build_probe(phase, ws.src1, ws.src2)
    reps = (probe.report1, probe.report2)
    record = {
        "xi": [float(v) for v in xi],
        "variant": args.variant,
        "param": args.param,
        "isotropy_residual": cgo.isotropy_residual(phase),
        "norm_identity_residual": cgo.norm_identity_residual(phase),
        **{f"psi{j}_{norm}": getattr(rep, norm)
           for j, rep in enumerate(reps, 1) for norm in ("l2", "h1")},
        # remainder health: sweeps, projected modes and final residuals, (psi1, psi2)
        "iterations": [rep.iterations for rep in reps],
        "projected_modes": [rep.projected_modes for rep in reps],
        "residuals": [rep.residual for rep in reps],
        # on x3 = 0, u_j = exp(x . rho_j) (w_j - w_j*)
        "max_u1_gamma2": float(np.max(np.abs(probe.w1 - probe.w1_star)[:, :, 0])),
    }
    if variant is recovery.Variant.DOUBLE_REFLECTION:
        record["max_u2_gamma2"] = float(np.max(np.abs(probe.w2 - probe.w2_star)[:, :, 0]))
    print(json.dumps(record, sort_keys=True))
    return 0


def _auto(text: str, option: str) -> float | None:
    """'auto' or one number, not necessarily finite; the caller checks its range."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise SystemExit(f"{option}: expected a number or 'auto', got {text!r}") from None


def _cmd_recover(args) -> int:
    r, param = _auto(args.r, "--r"), _auto(args.param, "--param")
    lam = _auto(args.lam, "--lambda")
    _require({"--r must be finite and exceed 2": r is None or 2 < r < np.inf,
              "--param must be >= 1": param is None or param >= 1,
              "--param must be finite": param is None or param < np.inf,
              "--lambda must lie in (0, 1)": lam is None or 0 < lam < 1})
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    run = recovery.recover(
        q1, q2, args.k, recovery.VARIANTS[args.variant], r=r, param=param, lam=lam,
        spacing=args.spacing, delta=args.delta, basis_n=args.basis_n,
        box_coarsen=args.box_coarsen)
    rows = []
    for xi, est in run.estimates.items():
        true = run.oracle[xi]
        rows.append([*xi, est.real, est.imag, true.real, true.imag, abs(est - true)])
    header = ["xi1", "xi2", "xi3", "re_est", "im_est", "re_true", "im_true",
              "abs_err"]
    harness.write_csv(args.out, header, rows)
    b = run.bounds
    summary = {"sup_bound": b.sup_bound, "hm1_bound": b.hm1_bound,
               "linf_bound": b.linf_bound, "params": b.params,
               "star_norm": run.star_norm, **run.counts, "warnings": run.warnings,
               "continuation_sup_bound": run.continuation_sup_bound,
               "continuation_condition": run.continuation_condition}
    print(json.dumps(summary, sort_keys=True, default=str))
    return 0


def _cmd_sweep(args) -> int:
    noise = _floats(args.noise, "--noise")
    _require({"--noise levels must be >= 0": all(v >= 0 for v in noise)})
    geom, grid = _load_setup(args.config)
    q1 = _load_potential(args.q1, geom, grid)
    q2 = _load_potential(args.q2, geom, grid)
    variant = recovery.VARIANTS[args.variant]
    plate = recovery.measurement_plate(variant)
    src, tgt, d = dnmap.measurement_pair(grid, geom, args.k, q1, q2, plate, args.basis_n)
    records, theta_fit = harness.stability_sweep(
        q1, q2, variant, noise, args.trials, args.seed,
        src_basis=src, tgt_basis=tgt, d=d, delta=args.delta,
    )
    harness.write_sweep_csv(args.out, records, theta_fit)
    print(json.dumps({"theta_fit": theta_fit, "n_records": len(records)}))
    return 0


def _cmd_carleman(args) -> int:
    zeta = np.asarray(_floats(args.zeta, "--zeta", 3))
    taus = _floats(args.taus, "--taus")
    _require({"--zeta must have a third component >= 1": zeta[2] >= 1,
              "--taus must increase from at least 1":
                  taus[0] >= 1 and all(b > a for a, b in zip(taus, taus[1:]))})
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    op = forward.HelmholtzOperator(grid, geom, args.k, q)
    report = harness.carleman_check(op, zeta, taus, args.trials, args.seed)
    harness.write_carleman_csv(args.out, report)
    print(json.dumps({"fitted_c": report.fitted_c,
                      "top_half_variation": report.top_half_variation,
                      "passed": report.passed}))
    return 0


def _cmd_rl(args) -> int:
    geom, grid = _load_setup(args.config)
    q = _load_potential(args.q, geom, grid)
    rng = harness.record_rng(args.seed, 0)
    dirs = [v / np.linalg.norm(v) for v in rng.standard_normal((args.rays, 3))]
    rays = harness.rl_decay_measure(q, dirs)
    harness.write_rl_csv(args.out, rays)
    print(json.dumps({"p_values": [ray["p"] for ray in rays]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slabinv")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True)
        return p

    p = command("forward", _cmd_forward, "solve a Dirichlet problem in the slab")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--q", default="zero")
    p.add_argument("--dirichlet", required=True)
    p.add_argument("--mode", choices=["truncated", "periodic"], default="truncated")
    p.add_argument("--out", required=True)

    p = command("dnmap", _cmd_dnmap, "assemble a partial DN matrix")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--q", default="zero")
    p.add_argument("--basis-n", type=int, default=15)
    p.add_argument("--target", choices=TARGET_PLATES, required=True)
    p.add_argument("--out", required=True)

    p = command("dnnorm", _cmd_dnnorm, "star norm of a DN matrix difference")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--basis-n", type=int, default=15)
    p.add_argument("--test-n", type=int, default=15)
    p.add_argument("--target", choices=TARGET_PLATES, default="gamma2N")

    p = command("cgo-check", _cmd_cgo_check, "probe invariants at one frequency")
    p.add_argument("--xi", required=True)
    p.add_argument("--variant", choices=recovery.VARIANTS, required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--q1", default="zero")
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--box-coarsen", type=int, default=1)

    p = command("recover", _cmd_recover, "Fourier-difference recovery and bounds")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--variant", choices=recovery.VARIANTS, required=True)
    p.add_argument("--r", default="auto")
    p.add_argument("--param", default="auto")
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--basis-n", type=int, default=8)
    p.add_argument("--box-coarsen", type=int, default=1)
    p.add_argument("--out", required=True)

    p = command("sweep", _cmd_sweep, "DN-noise stability sweep")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", default="zero")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--variant", choices=recovery.VARIANTS, required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--basis-n", type=int, default=6)
    p.add_argument("--out", required=True)

    p = command("carleman", _cmd_carleman, "weighted-inequality measurement")
    p.add_argument("--k", type=float, default=0.0)
    p.add_argument("--q", default="zero")
    p.add_argument("--zeta", required=True)
    p.add_argument("--taus", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("rl", _cmd_rl, "Fourier decay along random rays")
    p.add_argument("--q", required=True)
    p.add_argument("--rays", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _check_bounds(args)
    try:
        return args.func(args)
    except forward.AdmissibilityError as exc:
        print(f"inadmissible frequency: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (cgo.ContractionError, cgo.ProjectionError) as exc:
        print(f"CGO remainder failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONTRACTION if isinstance(exc, cgo.ContractionError) else EXIT_PROJECTION
    except recovery.RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    except forward.SolveError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    except dnmap.NormDegeneracyError as exc:
        print(f"degenerate norm: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input path that cannot be read, or an output path
        print(f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc), file=sys.stderr)
        return 1
    except (geometry.GeometryError, fields.FieldError, boundary.BoundaryError,
            dnmap.MatrixFileError) as exc:  # an input the readers cannot parse, among others
        print(f"bad input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

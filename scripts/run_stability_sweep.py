#!/usr/bin/env python3
"""Noise-versus-bound sweep for the measurement-operator difference.

Assembles the partial DN matrices of a Born pair, perturbs their difference
at geometric noise levels in the star norm, reruns the closing chain, and
fits the log-log stability exponent.  Only monotonicity and the sign of the
fitted slope are meaningful; the exponent itself is diagnostic.

Example:
    python3 scripts/run_stability_sweep.py --noise 1e-3,1e-4,1e-5,1e-6 \
        --basis-n 4 --out sweep.csv
"""

import argparse
import json
import sys

sys.path.insert(0, "src")

from slabinv import dnmap, fields, geometry, harness
from slabinv.cli import VARIANTS
from slabinv.geometry import Plate


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", choices=["thm2", "thm3"], default="thm2")
    ap.add_argument("--eta", type=float, default=1e-3)
    ap.add_argument("--noise", default="1e-3,1e-4,1e-5,1e-6,1e-7,1e-8")
    ap.add_argument("--trials", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--target-h", type=float, default=0.125)
    ap.add_argument("--basis-n", type=int, default=4)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--out", default="stability_sweep.csv")
    args = ap.parse_args()

    geom = geometry.SlabGeometry(1.0, 1.0, 1.5, 2.0, 0.1)
    grid = geometry.build_domain(geom, args.target_h)
    q1 = fields.radial_bump_potential(grid, geom, args.eta)
    q2 = fields.zero_potential(grid, geom)
    variant = VARIANTS[args.variant]

    plate = Plate.BOTTOM if args.variant == "thm2" else Plate.TOP
    src, tgt, dn1, dn2 = dnmap.measurement_pair(grid, geom, 0.0, q1, q2, plate,
                                                args.basis_n)

    levels = [float(v) for v in args.noise.split(",")]
    records, theta_fit = harness.stability_sweep(
        q1, q2, 0.0, variant, levels, args.trials, args.seed,
        src_basis=src, tgt_basis=tgt, dn1=dn1, dn2=dn2, delta=args.delta)
    harness.write_sweep_csv(args.out, records, theta_fit)

    ok = [r for r in records if not r.hypothesis_violated]
    print(json.dumps({
        "theta_fit": theta_fit,
        "n_records": len(records),
        "n_valid": len(ok),
        "star_range": [min(r.star_norm for r in ok), max(r.star_norm for r in ok)]
        if ok else None,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

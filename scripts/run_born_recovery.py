#!/usr/bin/env python3
"""Born-regime recovery study.

Builds a small-amplitude bump against the zero potential, estimates the
Fourier difference over the annulus at a ladder of probe parameters, and
reports the error against the direct transform per parameter.  Output: one
CSV row per (parameter, frequency) plus a JSON summary line on stdout.

Example (with slabinv installed, or PYTHONPATH=src):
    python3 scripts/run_born_recovery.py --variant thm2 --eta 1e-3 \
        --r 3.0 --spacing 0.5 --out born_recovery.csv
"""

import argparse
import json
import sys
import time

import numpy as np

from slabinv import fields, geometry, harness, recovery


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", choices=["thm2", "thm3"], default="thm2")
    ap.add_argument("--eta", type=float, default=1e-3)
    ap.add_argument("--r", type=float, default=3.0)
    ap.add_argument("--spacing", type=float, default=0.5)
    ap.add_argument("--target-h", type=float, default=0.125)
    ap.add_argument("--params", default="1,2,4,8")
    ap.add_argument("--box-coarsen", type=int, default=2)
    ap.add_argument("--out", default="born_recovery.csv")
    args = ap.parse_args()

    geom = geometry.SlabGeometry(1.0, 1.0, 1.5, 2.0, 0.1)
    grid = geometry.build_domain(geom, args.target_h)
    q1 = fields.radial_bump_potential(grid, geom, args.eta)
    q2 = fields.zero_potential(grid, geom)
    variant = recovery.VARIANTS[args.variant]
    ws = recovery.make_workspace(q1, q2, 0.0, variant,
                                 box_coarsen=args.box_coarsen)
    freqs = recovery.build_frequency_set(args.r, args.spacing)

    rows = []
    summary = {}
    for param in (float(p) for p in args.params.split(",")):
        t0 = time.time()
        res = recovery.estimate_fhat_annulus(ws, param, freqs.annulus)
        rels = []
        wants = recovery.true_transform(ws, np.array(list(res.estimates)))
        for (key, est), want in zip(res.estimates.items(), map(complex, wants)):
            rel = abs(est - want) / abs(want)
            rels.append(rel)
            rows.append([param, *key, est.real, est.imag, abs(est - want), rel])
        summary[param] = {
            "worst_rel": max(rels),
            "median_rel": float(np.median(rels)),
            "failed": len(res.failed),
            "seconds": round(time.time() - t0, 2),
        }
        print(f"param={param:g}: worst rel {max(rels):.3e}, "
              f"median {np.median(rels):.3e} over {len(rels)} frequencies",
              file=sys.stderr)

    harness.write_csv(args.out, ["param", "xi1", "xi2", "xi3", "re_est",
                                 "im_est", "abs_err", "rel_err"], rows)
    print(json.dumps({"variant": args.variant, "eta": args.eta,
                      "per_param": summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

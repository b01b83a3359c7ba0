"""Measures and reference builders that only the tests run.

The Runge approximation and the boundary unique-continuation table are the
Runge and unique-continuation steps of Li and Uhlmann's uniqueness argument
(Inverse Problems and Imaging 4, 2010), which the source paper quantifies;
`calibrate_min_param` finds a contracting CGO parameter; `mode_field` is the
one-mode reference for `dnmap.build_boundary_basis`.  No command runs them.
"""

import math

import numpy as np
import scipy.linalg

from slabinv.boundary import BoundaryError, BoundaryField
from slabinv.cgo import (
    ContractionError,
    ProjectionError,
    Variant,
    box_source,
    make_phase_pair,
    solve_remainder,
)
from slabinv.fields import GridField
from slabinv.forward import (
    HelmholtzOperator,
    SolveError,
    neumann_trace,
    omega_rows,
    solve_dirichlet,
)
from slabinv.geometry import BoundaryPatch, Grid3, Plate


def l2_norm(bf: BoundaryField):
    """Plate L^2 norm; one per field (an array) for a block."""
    norm = np.sqrt(np.sum(np.abs(bf.values) ** 2, axis=(-2, -1))) * bf.square.h
    return float(norm) if norm.ndim == 0 else norm


def mode_field(patch, square, m1: int, m2: int, apply_mask: bool = True) -> BoundaryField:
    """Unit-L^2 sine mode (m1, m2), optionally masked to the patch node set."""
    if not (1 <= m1 <= square.ns - 1 and 1 <= m2 <= square.ns - 1):
        raise BoundaryError(f"mode ({m1},{m2}) not representable on {square.ns} cells")
    t = np.arange(square.ns + 1) / square.ns
    vals = (2.0 / square.side) * np.outer(np.sin(np.pi * m1 * t), np.sin(np.pi * m2 * t))
    bf = BoundaryField(patch, square, vals)
    return bf.masked() if apply_mask else bf


def cutoff_annulus(geom, plate: Plate) -> BoundaryPatch:
    """The annulus R + eps <= |x'| < R' - eps inside the Neumann patch."""
    return BoundaryPatch(plate, geom.R + geom.eps_cutoff, geom.R_prime - geom.eps_cutoff)


def runge_approximate(u_target: GridField, op: HelmholtzOperator, reg: float,
                      basis) -> tuple[BoundaryField, float]:
    """Least-squares boundary data reproducing a local solution in L^2.

    Minimizes ||S(f) - u_target||^2_{L^2(Omega)} + reg * ||f||^2_{H^{3/2}}
    over data f spanned by `basis` (one block solve, Gram S^H W S), returning
    the minimizer and the achieved L^2 residual.
    """
    if reg < 0:
        raise ValueError("regularization weight must be >= 0")
    sols = omega_rows(solve_dirichlet(op, basis.block), op.geom)
    target = omega_rows(u_target, op.geom)[0]
    system = sols.conj() @ sols.T + reg * basis.gram_h32
    try:
        coef = scipy.linalg.solve(system, sols.conj() @ target, assume_a="her")
    except scipy.linalg.LinAlgError as exc:
        raise SolveError(f"normal-equation solve failed: {exc}") from exc
    residual = float(np.linalg.norm(coef @ sols - target))
    fvals = np.tensordot(coef, basis.block.values, axes=(0, 0))
    return BoundaryField(basis.patch, basis.square, fvals), residual


def masked_h1_h2(values: np.ndarray, mask: np.ndarray, h: float) -> tuple[float, float]:
    """Discrete H^1/H^2 norms over masked nodes (central and pure second diffs)."""
    l2 = np.sum(mask * np.abs(values) ** 2)
    g2 = np.zeros_like(l2)
    s2 = np.zeros_like(l2)
    for axis in range(3):
        fwd = np.roll(values, -1, axis=axis)
        bwd = np.roll(values, 1, axis=axis)
        inner = np.ones_like(mask)
        sl = [slice(None)] * 3
        sl[axis] = 0
        inner[tuple(sl)] = False
        sl[axis] = -1
        inner[tuple(sl)] = False
        grad = (fwd - bwd) / (2 * h)
        sec = (fwd - 2 * values + bwd) / (h * h)
        g2 += np.sum(mask * inner * np.abs(grad) ** 2)
        s2 += np.sum(mask * inner * np.abs(sec) ** 2)
    h3 = h ** 3
    return math.sqrt(h3 * float(l2 + g2)), math.sqrt(h3 * float(l2 + g2 + s2))


def ucp_decay_measure(q1, q2, k: float, f_family) -> dict:
    """Flux-versus-interior table for the difference of two-potential solves.

    For each datum f, w is the difference of the solutions with potentials q2
    and q1 and shared data; the table records the normal-derivative flux on
    the bottom-plate cutoff annulus and the H^1/H^2 norms of w on the
    fattened annular region.  The family is solved as one block per
    operator; data whose solve fails are recorded as skipped and the block
    is solved again without them.  A log-model fit quality (R^2 of H^1
    against H^2/sqrt(log(e H^2/flux))) is reported, never asserted.
    """
    grid, geom = q1.grid, q1.geom
    op1 = HelmholtzOperator(grid, geom, k, q1)
    op2 = HelmholtzOperator(grid, geom, k, q2)
    annulus = cutoff_annulus(geom, Plate.BOTTOM)
    r = grid.lateral_radius()
    umask = np.broadcast_to(
        (r > annulus.r_inner - grid.h) & (r < annulus.r_outer + grid.h), grid.node_shape)
    family = list(f_family)
    rows = [None] * len(family)
    keep = list(range(len(family)))
    while keep:
        data = BoundaryField(family[0].patch, family[0].square,
                             np.stack([family[i].values for i in keep]))
        try:
            wvals = solve_dirichlet(op2, data).values - solve_dirichlet(op1, data).values
            break
        except SolveError as exc:
            bad = [keep[c] for c in exc.columns] or keep
            for i in bad:
                rows[i] = {"index": i, "skipped": str(exc)}
            keep = [i for i in keep if i not in bad]
    if keep:
        fluxes = l2_norm(neumann_trace(GridField(grid, wvals), annulus))
    for c, i in enumerate(keep):
        h1, h2 = masked_h1_h2(wvals[c], umask, grid.h)
        rows[i] = {"index": i, "flux": float(fluxes[c]), "h1": h1, "h2": h2}
    xs, ys = [], []
    for row in rows:
        if "skipped" in row or row["flux"] <= 0 or row["h2"] <= 0:
            continue
        arg = math.e * row["h2"] / row["flux"]
        if arg <= 1.0:
            continue
        xs.append(row["h2"] / math.sqrt(math.log(arg)))
        ys.append(row["h1"])
    fit = {"n_fit": len(xs), "slope": float("nan"), "r2": float("nan")}
    if len(xs) >= 2:
        x = np.asarray(xs)
        y = np.asarray(ys)
        slope = float(np.dot(x, y) / np.dot(x, x))
        resid = y - slope * x
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        fit["slope"] = slope
        fit["r2"] = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return {"rows": rows, "fit": fit}


def calibrate_min_param(q_boxes: list[GridField], eval_grid: Grid3, k: float,
                        bounds: list[float], max_c0: int = 64) -> tuple[int, float]:
    """Smallest power-of-two C0 whose tau-family parameter max(C0 (M + k^2), 1)
    contracts at xi = (2, 0, 0), with the sources built for `eval_grid`.

    M is the largest a-priori norm bound across the supplied potential family;
    the phases carry k.  Returns (C0, param_min).
    """
    m_bound = max(bounds) if bounds else 1.0
    sources = [box_source(qb, eval_grid) for qb in q_boxes]
    c0 = 1
    while c0 <= max_c0:
        param = max(c0 * (m_bound + k ** 2), 1.0)
        try:
            pp = make_phase_pair((2.0, 0.0, 0.0), Variant.SINGLE_REFLECTION, param, k)
            for src in sources:
                solve_remainder(pp.rho1, src)
            return c0, param
        except (ContractionError, ProjectionError):
            c0 *= 2
    raise ContractionError(f"no contraction up to C0={max_c0}")

"""Finite-difference solver for the slab Schrodinger boundary value problems.

Seven-point Laplacian with Dirichlet elimination on the truncated cylinder
(``truncated`` mode, homogeneous data on the lateral staircase) or with
periodic lateral identification (``periodic`` mode, the oracle configuration
whose plate problems separate into lateral Fourier modes).  Every operator is
one plate stencil on the nz - 1 interior layers plus the vertical 3-point
stencil (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970), built with
A's CSR pattern once per (grid, geom, mode) (`plate_stencil`); an operator
writes only its values.  k is admissible when the smallest singular value of
the operator exceeds 1e-6 times lambda_ref, the lowest q = 0, k = 0 eigenvalue
(`reference_eigenvalue`).  Since A = A0(0) - k^2 + diag(q), Weyl's inequality
bounds that value below by lambda_ref - k^2 + min q, which certifies k without
a solve wherever it clears the threshold; only where k^2 >= lambda_ref + min q
(to within that threshold) is the smallest singular value found, by
shift-invert Lanczos through the operator's one factorization (in the
vertical sine basis, `SineBasisLU`).

One source or one Dirichlet datum of an operator that holds no factor, whose
k Weyl certifies and whose box operator is positive definite, lambda_box -
k^2 > 1e-6 lambda_ref, goes instead by CG preconditioned with the fast solver
B = R (L_box - k^2)^{-1} R^T (Concus and Golub, SIAM J. Numer. Anal. 10,
1973; Proskurowski and Widlund, Math. Comp. 30, 1976): A0 = A - diag(q) is the
principal submatrix R (L_box - k^2) R^T of the operator on a box, the interior
nodes of the lateral node square (truncated) or the periodic cell (where
B = A0^{-1}) times the layers, which sine transforms and the lateral DFT
diagonalize (`box_eigenvalues`).  Blocks, uncertified k and operators that
hold a factor solve through that factorization; the 1e-10 residual check
holds both paths.
"""

from __future__ import annotations

import collections
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .boundary import BoundaryField, dst1_matrix, from_plate_values
from .fields import GridField
from .geometry import BoundaryPatch, Grid3, Plate, SlabGeometry, interior_mask

logger = logging.getLogger(__name__)

# SuperLU keeps a diagonal pivot unless it is smaller than this fraction of
# the largest entry in its column.  The matrix is real symmetric, so the
# symmetric (A + A^T) ordering survives except where an indefinite k forces a
# row swap; at 0.1 the relative solve residual at h = 1/8, k = 7 is a few 1e-12.
DIAG_PIVOT_THRESH = 0.1

# Cap on the CG iterations of one right-hand side.  Bumps with |q| <= 1.35 and
# k^2 <= 0.999 lambda_box take 11-13 at h = 1/4, 17-25 at h = 1/8 and 24-33 at
# h = 1/16, one of max q = 1.35e5 about 600; past the cap the residual check fails.
CG_MAX_ITERATIONS = 1000

TRUNCATED = "truncated"
PERIODIC = "periodic"


class SolveError(RuntimeError):
    """A solve failed; `columns` lists the failing columns of a block solve."""

    def __init__(self, message, residual_history=None, columns=()):
        super().__init__(message)
        self.residual_history = residual_history or []
        self.columns = list(columns)


class AdmissibilityError(RuntimeError):
    """k is not admissible, or the admissibility eigensolve failed."""


def vertical_eigenvalues(grid: Grid3) -> np.ndarray:
    """S T_z S for the Dirichlet 3-point T_z: (4/h^2) sin^2(pi j / (2 nz)), j < nz."""
    return (4.0 / grid.h ** 2) * np.sin(np.pi * np.arange(1, grid.nz) / (2 * grid.nz)) ** 2


@functools.lru_cache(maxsize=8)
def box_eigenvalues(grid: Grid3, boundary_mode: str) -> np.ndarray:
    """Eigenvalues of the k = 0 box operator L_box, read-only, per (grid, mode):
    the 5-point Dirichlet Laplacian on the (nx - 1) x (ny - 1) interior nodes of
    the lateral node square (truncated; DST-I on both axes) or on the periodic
    cell (the lateral DFT, in the numpy.fft.rfft2 layout), plus the vertical
    eigenvalues on the last axis.  The smallest, lambda_box, is [0, 0, 0]."""
    if boundary_mode == PERIODIC:
        sx = np.sin(np.pi * np.arange(grid.nx) / grid.nx)
        sy = np.sin(np.pi * np.arange(grid.ny // 2 + 1) / grid.ny)
    else:
        sx = np.sin(np.pi * np.arange(1, grid.nx) / (2 * grid.nx))
        sy = np.sin(np.pi * np.arange(1, grid.ny) / (2 * grid.ny))
    lam = (4.0 / grid.h ** 2) * (sx[:, None, None] ** 2 + sy[None, :, None] ** 2
                                 ) + vertical_eigenvalues(grid)
    lam.flags.writeable = False
    return lam


PlateStencil = collections.namedtuple(
    "PlateStencil", "mask couplings active index indices indptr diagonal doubled cells")


@functools.lru_cache(maxsize=8)
def plate_stencil(grid: Grid3, geom: SlabGeometry, boundary_mode: str) -> PlateStencil:
    """The read-only `PlateStencil` of (grid, geom, mode), by index arithmetic:
    `mask`, the lateral node set (sx, sy), the truncated disc |x'| < R_lat
    inside the interior nodes of the lateral node square (the box of
    `box_eigenvalues`) or the periodic cell of unique nodes, both axes wrapped;
    `couplings`, the -1/h^2 couplings (CSR) of the 5-point plate Laplacian
    between its nodes in C order; `active` and `index`, the unknowns on the
    nz - 1 interior layers, z fastest; A's CSR pattern `indices` and `indptr`,
    the positions of its `diagonal` and of the couplings a ring of two nodes
    `doubled`; `cells`, each unknown's flat index in the interior box (the
    truncated box solve)."""
    if boundary_mode not in (TRUNCATED, PERIODIC):
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    periodic = boundary_mode == PERIODIC
    nx, ny = (grid.nx, grid.ny) if periodic else grid.node_shape[:2]
    mask = np.zeros(grid.node_shape[:2], dtype=bool)
    mask[:nx, :ny] = True if periodic else interior_mask(grid, geom)[:, :, 1]
    if not periodic and (mask[[0, -1]].any() or mask[:, [0, -1]].any()):
        raise ValueError("the truncated disc reaches the edge of the lateral node square")
    if min(nx, ny) < 2:
        raise ValueError("a periodic ring needs two nodes or more")
    # each node's four neighbours, wrapped on the periodic cell, sorted, -1
    # off the mask; a ring of two nodes meets one neighbour twice
    x, y = np.nonzero(mask[:nx, :ny])
    p, m, off = len(x), grid.nz - 1, -1.0 / grid.h ** 2
    number = np.full((nx, ny), -1, dtype=np.int32)
    number[x, y] = np.arange(p)
    nbr = np.sort(np.stack([number[(x - 1) % nx, y], number[x, (y - 1) % ny],
                            number[x, (y + 1) % ny], number[(x + 1) % nx, y]], axis=1), axis=1)
    double = np.zeros(nbr.shape, dtype=bool)
    double[:, :-1] = (nbr[:, 1:] == nbr[:, :-1]) & (nbr[:, 1:] >= 0)
    nbr[:, 1:][double[:, :-1]] = -1
    live = nbr >= 0
    col, count = nbr[live], np.count_nonzero(live, axis=1)
    ptr = np.append(0, np.cumsum(count))
    couplings = scipy.sparse.csr_matrix((np.where(double, 2.0, 1.0)[live] * off, col,
                                         ptr.astype(np.int32)), shape=(p, p))
    # row m p + j of A: the couplings of p below p, the diagonal between its
    # vertical pair (an end layer lacks one), the couplings above p, each
    # at unknown m q + j of neighbour q; (p, m) arrays, layer j in column j,
    # so that the scatters into `indices` run through it in row order
    own, j = np.repeat(np.arange(p), count), np.arange(m, dtype=np.int32)
    above = col > own
    start = np.multiply.outer(count + 3, j) + (
        np.append(0, np.cumsum(m * count + 3 * m - 2))[:-1, None] - (j > 0))
    diagonal = start + ((count - np.bincount(own[above], minlength=p))[:, None] + (j > 0))
    unknown = np.add.outer(np.arange(0, m * p, m, dtype=np.int32), j)
    indices = np.empty(m * len(col) + (3 * m - 2) * p, dtype=np.int32)
    for d, rows in ((0, slice(None)), (-1, slice(1, None)), (1, slice(None, -1))):
        indices[diagonal[:, rows] + d] = unknown[:, rows] + d
    # a coupling above p follows the diagonal and its vertical pair, which
    # lacks one member on each end layer
    lateral = np.take(start, own, axis=0)
    lateral += (np.arange(len(col)) - ptr[own] + 3 * above)[:, None]
    lateral[:, 0] -= above
    lateral[:, -1] -= above
    indices[lateral] = np.add.outer(m * col, j)
    doubled = lateral[double[live]].T.ravel()
    active = np.zeros(grid.node_shape, dtype=bool)
    active[:, :, 1:-1] = mask[:, :, None]
    cells = np.flatnonzero(active[1:-1, 1:-1, 1:-1])
    index = np.full(grid.node_shape, -1, dtype=np.int64)
    index[active] = np.arange(m * p)
    indptr, diagonal = np.append(start, len(indices)).astype(np.int32), diagonal.ravel()
    for a in (mask, couplings.data, couplings.indices, couplings.indptr, active, index,
              indices, indptr, diagonal, doubled, cells):
        a.flags.writeable = False
    return PlateStencil(mask, couplings, active, index, indices, indptr, diagonal, doubled, cells)


@dataclass(frozen=True, eq=False)
class SineBasisLU:
    """SuperLU factor `lu` of M = (I_lat x S) A (I_lat x S).  `solve` solves
    A u = b, b of shape (n,) or (n, m), as u = (I x S) M^{-1} (I x S) b."""

    lu: scipy.sparse.linalg.SuperLU
    sine: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        def rotate(v):  # S on the layer values of each lateral node
            return np.matmul(self.sine, v.reshape(-1, len(self.sine), v.size // len(v))
                             ).reshape(v.shape)
        return rotate(self.lu.solve(rotate(b)))


@dataclass(frozen=True)
class AdmissibilityReport:
    """k is admissible when min_singular > threshold (1e-6 lambda_ref).  When
    `certified`, min_singular is the Weyl lower bound lambda_ref - k^2 + min q
    on the smallest singular value (exact for q = 0); otherwise it is that
    singular value itself, from shift-invert Lanczos."""

    k: float
    min_singular: float
    admissible: bool
    threshold: float
    certified: bool


class HelmholtzOperator:
    """Assembled matrix for (-Lap_h - k^2 + q) on the active node set."""

    def __init__(self, grid: Grid3, geom: SlabGeometry, k: float,
                 q=None, boundary_mode: str = TRUNCATED):
        if grid.periodic:
            raise ValueError("slab operators live on node grids")
        if not (k >= 0 and math.isfinite(k * float(k))):
            raise ValueError(f"frequency k must be >= 0 with a finite square, got {k!r}")
        self.grid = grid
        self.geom = geom
        self.k = float(k)
        self.q = q
        self.boundary_mode = boundary_mode
        self._lu_cache = None
        self._adm_cache: AdmissibilityReport | None = None
        # A = couplings x I + diag(6/h^2 - k^2 + q) + I x vertical couplings as
        # values in the grid's cached CSR pattern: -1/h^2 (doubled where it says)
        st = self._stencil = plate_stencil(grid, geom, boundary_mode)
        self.lateral, self.active, self.index = st.mask, st.active, st.index
        n = self.n_active = len(st.diagonal)
        self.q_active = np.zeros(n) if q is None else q.field.values[self.active]
        data = np.full(len(st.indices), -1.0 / grid.h ** 2)
        data[st.doubled] *= 2.0
        data[st.diagonal] = 6.0 / grid.h ** 2 - self.k ** 2 + self.q_active
        self.matrix = scipy.sparse.csr_matrix((data, st.indices, st.indptr), shape=(n, n))

    # -- linear algebra -------------------------------------------------------

    def sine_basis_matrix(self) -> scipy.sparse.csc_matrix:
        """M = (I_lat x S) A (I_lat x S), assembled exactly: the plate couplings
        on every layer as in A, the vertical 3-point operator as the diagonal
        of its eigenvalues, and q as one dense block S diag(q_p) S at each
        lateral node p where q is nonzero: A's cached rows as M's columns (both
        are symmetric), the vertical pair dropped and the diagonal widened."""
        m, n, st = self.grid.nz - 1, self.n_active, self._stencil
        diagonal = 4.0 / self.grid.h ** 2 - self.k ** 2 + np.tile(vertical_eigenvalues(self.grid),
                                                                  n // m)
        qv, b, s = self.q_active.reshape(-1, m), np.arange(m), dst1_matrix(self.grid.nz)
        nodes = np.flatnonzero(np.any(qv, axis=1))
        blocks = (s * qv[nodes, None, :]) @ s
        below, above, wide = np.tile(b > 0, n // m), np.tile(b < m - 1, n // m), np.zeros(n, bool)
        wide.reshape(-1, m)[nodes] = True
        width = np.where(wide, m, 1)
        count = np.ones(len(st.indices), dtype=np.intp)  # copies of each entry of A
        count[st.diagonal[below] - 1] = count[st.diagonal[above] + 1] = 0
        count[st.diagonal] = width
        ptr = np.append(0, np.cumsum(np.diff(st.indptr) - below - above - 1 + width))
        first = ptr[:-1] + st.diagonal - st.indptr[:-1] - below
        indices, data = np.repeat(st.indices, count), np.repeat(self.matrix.data, count)
        data[first] = diagonal
        # column m p + b of a block holds rows m p + a, entry (a, b) of the block
        at = first[wide].reshape(-1, m)[:, :, None] + b
        indices[at] = (m * nodes)[:, None, None] + b
        blocks[:, b, b] += diagonal[wide].reshape(-1, m)
        data[at] = blocks.transpose(0, 2, 1)
        return scipy.sparse.csc_matrix((data, indices, ptr), shape=(n, n))

    def _lu(self) -> SineBasisLU:
        if self._lu_cache is None:
            self._lu_cache = SineBasisLU(scipy.sparse.linalg.splu(
                self.sine_basis_matrix(), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=DIAG_PIVOT_THRESH, options=dict(SymmetricMode=True),
            ), dst1_matrix(self.grid.nz))
        return self._lu_cache

    def _box_solve(self, r: np.ndarray) -> np.ndarray:
        """B r = R (L_box - k^2)^{-1} R^T r for one real r, the preconditioner
        of `cg_iteration_cap`'s CG: extend r by zero to the box, transform,
        divide by the shifted `box_eigenvalues`, transform back, restrict."""
        grid, m = self.grid, self.grid.nz - 1
        lam = box_eigenvalues(grid, self.boundary_mode) - self.k ** 2
        sz = dst1_matrix(grid.nz)
        if self.boundary_mode == PERIODIC:  # the box is the periodic cell
            v = r.reshape(grid.nx, grid.ny, m) @ sz
            v = np.fft.irfft2(np.fft.rfft2(v, axes=(0, 1)) / lam, s=v.shape[:2], axes=(0, 1))
            return (v @ sz).ravel()
        cells, v = self._stencil.cells, np.zeros((grid.nx - 1, grid.ny - 1, m))
        v.ravel()[cells] = r
        sx, sy = dst1_matrix(grid.nx), dst1_matrix(grid.ny)
        v = _sine3(v, sx, sy, sz)
        v /= lam
        return _sine3(v, sx, sy, sz).ravel()[cells]

    def cg_iteration_cap(self) -> int:
        """CG_MAX_ITERATIONS where one right-hand side goes by CG preconditioned
        by `_box_solve`: A certified by Weyl's inequality, hence positive
        definite, no factor held, and the box operator positive definite too,
        lambda_box - k^2 > 1e-6 lambda_ref; 0 where it goes through A's own
        factor."""
        rep = self.admissibility()
        box = box_eigenvalues(self.grid, self.boundary_mode)[0, 0, 0] - self.k ** 2
        if not rep.certified or self._lu_cache is not None or box <= rep.threshold:
            return 0
        return CG_MAX_ITERATIONS

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A u = rhs on the active set for rhs of shape (n,) or (n, m).

        A one-dimensional rhs (one source or one Dirichlet datum) goes by CG
        preconditioned with the box solve wherever `cg_iteration_cap` allows
        it, to ||r|| <= 1e-15 ||b|| or that cap, and no factor is built; a
        block, and any rhs where the cap is 0, goes through A's own factor,
        one factorization and one solve call for every column.  Either way a
        complex rhs is solved as its real and imaginary halves.  Each column
        must reach relative residual 1e-10 (a NaN residual fails), else
        SolveError names the failing columns and carries every column's
        residual.
        """
        cap = self.cg_iteration_cap() if rhs.ndim == 1 else 0
        solve = (functools.partial(_pcg, self.matrix, self._box_solve, cap=cap) if cap
                 else self._lu().solve)
        if np.iscomplexobj(rhs):
            m = rhs.size // len(rhs)
            x = solve(np.column_stack([rhs.real, rhs.imag]))
            u = (x[:, :m] + 1j * x[:, m:]).reshape(rhs.shape)
        else:
            u = solve(rhs)
        resid = self.matrix @ u
        resid -= rhs
        scale = _column_norms(rhs)
        res = np.divide(_column_norms(resid), scale,
                        out=np.zeros_like(scale), where=scale > 0)
        bad = np.flatnonzero(~(res <= 1e-10))
        if bad.size:
            raise SolveError(
                f"solver residual {res.max():.3e} exceeds 1e-10 in column(s) "
                f"{bad.tolist()}",
                residual_history=np.atleast_1d(res).tolist(), columns=bad.tolist())
        return u

    def admissibility(self) -> AdmissibilityReport:
        """check_admissible, computed once per operator."""
        if self._adm_cache is None:
            self._adm_cache = check_admissible(self)
        return self._adm_cache


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each column of an (n,) or (n, m) array, without an (n, m) temporary."""
    return np.sqrt(np.einsum("i...,i...->...", a.conj(), a).real)


def _sine3(v: np.ndarray, sx: np.ndarray, sy: np.ndarray, sz: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I (its own inverse) along all three axes of v."""
    v = np.matmul(sy, v @ sz)
    return (sx @ v.reshape(len(sx), -1)).reshape(v.shape)


def _pcg(a, precondition, b: np.ndarray, cap: int) -> np.ndarray:
    """Preconditioned conjugate gradients for a x = b from x = 0 (Saad,
    Algorithm 9.1) on each column of the real b of shape (n,) or (n, c), one
    preconditioner call per iteration, stopping at ||r|| <= 1e-15 ||b|| or
    after cap iterations."""
    x = np.zeros_like(b)
    for col, out in zip(b.reshape(len(b), -1).T, x.reshape(len(x), -1).T):
        r = col.copy()
        stop = 1e-15 * np.linalg.norm(col)
        p, rz = 0.0, 1.0  # the first direction is z itself
        for _ in range(cap):
            if np.linalg.norm(r) <= stop:
                break
            z = precondition(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
            ap = a @ p
            alpha = rz / (p @ ap)
            out += alpha * p
            r -= alpha * ap
    return x


def _start_vector(n: int) -> np.ndarray:
    """Deterministic Lanczos start vector: Philox normals with a fixed key."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    return rng.standard_normal(n)


def _min_singular(op: HelmholtzOperator) -> float:
    """Smallest singular value by shift-invert Lanczos about zero.

    For the real symmetric operator the singular values are the eigenvalue
    magnitudes, so min_singular is the magnitude of the eigenvalue nearest
    zero.  ARPACK's inverse is the operator's own factor of M, an orthogonal
    similarity of A, so no Lanczos step rotates the layers.  An exactly
    singular factorization gives 0.
    """
    n = op.n_active
    try:
        inverse = op._lu().lu.solve
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        return 0.0
    opinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=inverse, dtype=np.float64)
    try:
        vals = scipy.sparse.linalg.eigsh(
            op.matrix, k=1, sigma=0, which="LM", OPinv=opinv,
            v0=_start_vector(n), tol=1e-10, ncv=min(8, n),
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise AdmissibilityError(f"shift-invert Lanczos did not converge: {exc}") from exc
    return abs(float(vals[0]))


@functools.lru_cache(maxsize=16)
def reference_eigenvalue(grid: Grid3, geom: SlabGeometry, boundary_mode: str) -> float:
    """Smallest eigenvalue of the discrete Dirichlet Laplacian (q=0, k=0): that
    of the plate operator (the 5-point Laplacian on the stencil's mask) plus
    nu_1 = (4/h^2) sin^2(pi / (2 nz)), by one shift-invert eigensolve of the
    plate operator plus nu_1, positive definite in both modes."""
    couplings = plate_stencil(grid, geom, boundary_mode).couplings
    p = couplings.shape[0]
    nu1 = vertical_eigenvalues(grid)[0]
    plate = couplings + (4.0 / grid.h ** 2 + nu1) * scipy.sparse.identity(p)
    return float(scipy.sparse.linalg.eigsh(plate, k=1, sigma=0, which="LM", v0=_start_vector(p),
                                           return_eigenvectors=False)[0])


def check_admissible(op: HelmholtzOperator) -> AdmissibilityReport:
    """Smallest singular value of op against 1e-6 x reference_eigenvalue.

    A = A0(k) + diag(q) with lambda_min(A0(k)) = lambda_ref - k^2, so by
    Weyl's inequality (Horn and Johnson, Matrix Analysis, Thm 4.3.1) every
    eigenvalue of A is at least bound = lambda_ref - k^2 + min q.  When bound
    clears the threshold, A is positive definite with sigma_min >= bound, and
    the report holds bound, certified, with no eigensolve and no
    factorization.  Otherwise `_min_singular` finds sigma_min (relative
    tolerance 1e-10) through the operator's factor.
    """
    lam = reference_eigenvalue(op.grid, op.geom, op.boundary_mode)
    threshold = 1e-6 * lam
    bound = lam - op.k ** 2 + float(op.q_active.min())
    if bound > threshold:
        return AdmissibilityReport(op.k, bound, True, threshold, certified=True)
    ms = _min_singular(op)
    return AdmissibilityReport(op.k, ms, bool(ms > threshold), threshold, certified=False)


def require_admissible(op: HelmholtzOperator):
    """Raise AdmissibilityError unless op's frequency is admissible."""
    rep = op.admissibility()
    if not rep.admissible:
        raise AdmissibilityError(
            f"frequency k={op.k} is not admissible: min_singular="
            f"{rep.min_singular:.3e} <= threshold {rep.threshold:.3e}"
        )


def _top_plate_rhs(op: HelmholtzOperator, fplate: np.ndarray) -> np.ndarray:
    """Dirichlet elimination: top-plate data (sx, sy) or (m, sx, sy) couples to
    the adjacent layer, giving a right-hand side (n,) or (n, m) of its dtype."""
    rhs = np.zeros((op.n_active,) + fplate.shape[:-2], dtype=fplate.dtype)
    rhs[op.index[:, :, -2][op.lateral]] = fplate[..., op.lateral].T / op.grid.h ** 2
    return rhs


def _node_field(op: HelmholtzOperator, u: np.ndarray, top) -> GridField:
    """The field(s) of solutions u, (n_active,) or (n_active, m), on op's
    active nodes: `top` ((sx, sy), (m, sx, sy) or a number) on the top plate
    over op's lateral nodes, zero elsewhere, the periodic seam copied."""
    grid = op.grid
    out = np.zeros(u.shape[1:] + grid.node_shape, dtype=np.result_type(u, top))
    out[..., op.active] = u.T
    out[..., -1] = np.where(op.lateral, top, 0.0)
    if op.boundary_mode == PERIODIC:
        out[..., grid.nx, :, :] = out[..., 0, :, :]
        out[..., :, grid.ny, :] = out[..., :, 0, :]
    return GridField(grid, out)


def solve_dirichlet(op: HelmholtzOperator, f: BoundaryField) -> GridField:
    """Solve with data f on the top plate, zero on the bottom plate and
    laterally; a block of data gives the block of solutions from one solve."""
    fplate = f.plate_values(op.grid)
    if op.boundary_mode == TRUNCATED and np.any(fplate[..., ~op.lateral]):
        raise SolveError("Dirichlet data must vanish outside the truncated plate")
    require_admissible(op)
    return _node_field(op, op.solve_interior(_top_plate_rhs(op, fplate)), fplate)


def solve_source(op: HelmholtzOperator, w: GridField) -> GridField:
    """Solve with interior source w and homogeneous Dirichlet data everywhere.

    The realized well-posedness constant ||v|| / ||w|| (discrete L^2 over the
    truncated domain) is reported through the module logger.
    """
    require_admissible(op)
    if w.grid != op.grid:
        raise SolveError("source field lives on a different grid")
    field = _node_field(op, op.solve_interior(w.values[op.active]), 0.0)
    if logger.isEnabledFor(logging.INFO):
        w_norm = l2_omega(w, op.geom)
        if w_norm > 0:
            logger.info("source solve: ||v|| <= C ||w|| with C = %.6g",
                        l2_omega(field, op.geom) / w_norm)
    return field


def neumann_trace(u: GridField, patch: BoundaryPatch) -> BoundaryField:
    """Outward normal derivative on a plate patch (+e3 on the top plate, -e3
    on the bottom one), second order by `outward_derivative`, masked to the
    patch."""
    if u.grid.node_shape[2] < 3:
        raise SolveError("need at least two interior layers for the trace stencil")
    return from_plate_values(u.grid, patch, outward_derivative(u.values, patch.plate, u.grid.h))


def outward_derivative(v: np.ndarray, plate: Plate, h: float) -> np.ndarray:
    """Outward normal derivative of node values (..., sx, sy, sz) on a plate,
    by the one-sided 3-point stencil marching two layers into the slab."""
    if plate is Plate.TOP:
        return (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return (3 * v[..., 0] - 4 * v[..., 1] + v[..., 2]) / (2 * h)


def omega_weights(grid: Grid3, geom: SlabGeometry) -> np.ndarray:
    """Quadrature weights for L^2 over the truncated domain (plates halved)."""
    r = grid.lateral_radius()
    w = np.where(r < geom.R_lat, 1.0, 0.0) * np.ones(grid.node_shape)
    w[:, :, 0] *= 0.5
    w[:, :, -1] *= 0.5
    return w * grid.h ** 3


def l2_omega(field: GridField, geom: SlabGeometry) -> float:
    return float(np.linalg.norm(omega_rows(field, geom)))


def omega_rows(u: GridField, geom: SlabGeometry) -> np.ndarray:
    """sqrt(w) u at the nodes of positive L^2(Omega) weight, one row per field.

    The L^2(Omega) Gram of a block is then S^H S for S = omega_rows(u); the
    rows are real when u is, so a real block's Gram is one real product.
    """
    w = omega_weights(u.grid, geom).ravel()
    keep = w > 0
    rows = u.values.reshape(-1, w.size)[:, keep]
    rows *= np.sqrt(w[keep])
    return rows

"""Partial Dirichlet-to-Neumann maps and the norms used to compare them.

The measurement operator maps top-plate Dirichlet data (coefficients in a
sine basis on the data patch) to normal-derivative samples on a plate
measurement patch.  Differences of such operators are measured in the
operator norm from (data, triple norm) to H^{-3/2} on the measurement patch,
where

* the triple norm of data f is the L^2 norm over the truncated domain of the
  free (q = 0) solution with that data, and
* the H^{-3/2} norm is the dual of a spectrally weighted H^{3/2} norm built
  from the bounding-square sine spectrum of the patch.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .boundary import (
    BoundaryError,
    BoundaryField,
    bounding_square,
    sine_coefficients,
    sine_frequencies,
)
from .fields import Potential, read_binary
from .forward import (
    HelmholtzOperator,
    SolveError,
    _node_field,
    neumann_trace,
    require_admissible,
    solve_dirichlet,
)
from .geometry import (
    BoundaryPatch,
    Grid3,
    Plate,
    SlabGeometry,
    dirichlet_patch,
    neumann_patch,
)

logger = logging.getLogger(__name__)


class NormDegeneracyError(RuntimeError):
    """Raised when a Gram matrix is numerically singular."""


class MatrixFileError(ValueError):
    """Raised for a matrix file that `read_matrix` cannot parse."""


class BoundaryBasis:
    """Data functions on a patch bounding square, one per row of the block
    field `block` (for `build_boundary_basis`, sine modes masked to the
    patch).  gram_h32, the H^{3/2} Gram matrix of the functions, is formed on
    first use; gram_triple (one block of free solves, kept here) is attached
    on demand because it depends on the frequency k and the domain.
    """

    def __init__(self, block: BoundaryField):
        self.patch = block.patch
        self.square = block.square
        self.block = block
        self.gram_triple: np.ndarray | None = None
        self._triple_cache = None

    def __len__(self) -> int:
        return len(self.block.values)

    @functools.cached_property
    def gram_h32(self) -> np.ndarray:
        coef = sine_coefficients(self.block).reshape(len(self), -1)
        w32 = (1.0 + sine_frequencies(self.square).ravel()) ** 1.5
        gram = _gram(coef * np.sqrt(w32))
        if logger.isEnabledFor(logging.INFO):  # cond is a full SVD
            logger.info("boundary basis of %d functions: H^{3/2} Gram condition %.3e",
                        len(self), np.linalg.cond(gram))
        return gram

    def attach_triple_gram(self, op0: HelmholtzOperator,
                           u: np.ndarray | None = None) -> np.ndarray:
        """Gram matrix of the free solutions in L^2 over the truncated domain.

        Every active node of positive weight is an interior node of weight
        h^3, the top plate carries the data with weight h^3 / 2 where
        |x'| < R_lat, and the bottom plate carries zero, so the Gram is
        h^3 U U^T + (h^3 / 2) F F^T: U the free solutions on those active
        nodes and F the data on those plate nodes.  `u` is the
        (len(self), n_active) block of free solutions on op0's active nodes
        when already at hand (`active_solutions(op0, self)`); else it is
        solved for.  op0 must carry q = 0.
        """
        if op0.q is not None and np.max(np.abs(op0.q.field.values)) > 0:
            raise ValueError("triple Gram requires the zero potential")
        if u is None:
            u = active_solutions(op0, self)
        grid = op0.grid
        inside = grid.lateral_radius()[:, :, 0] < op0.geom.R_lat
        live = np.broadcast_to(inside[:, :, None], grid.node_shape)[op0.active]
        f = self.block.plate_values(grid)[:, inside]
        h3 = grid.h ** 3
        self.gram_triple = (h3 * _gram(u if live.all() else u[:, live])
                            + 0.5 * h3 * _gram(f))
        if logger.isEnabledFor(logging.INFO):
            logger.info("triple-norm Gram condition %.3e at k=%g",
                        np.linalg.cond(self.gram_triple), op0.k)
        return self.gram_triple

    @functools.cached_property
    def whitener(self) -> np.ndarray:
        """W = U^{-H} h^2 modes for the Cholesky factor U of gram_h32 = U^H U:
        |W r| is the H^{-3/2} dual norm of plate samples r (real, like the
        sine modes).  It depends on the basis only, so it is computed once."""
        try:
            cho = scipy.linalg.cho_factor(self.gram_h32)
        except scipy.linalg.LinAlgError as exc:
            raise NormDegeneracyError(f"singular H^{{3/2}} Gram matrix: {exc}") from exc
        pair = self.square.h ** 2 * self.block.values.reshape(len(self), -1)
        return scipy.linalg.solve_triangular(cho[0], pair, trans="C", lower=cho[1])

    def triple_whitener(self) -> np.ndarray:
        """R = L^{-H} for the Cholesky factor L of gram_triple, after the
        Gram's positive-definiteness check (both once per Gram array)."""
        g = self.gram_triple
        if g is None:
            raise NormDegeneracyError(
                "source basis carries no triple-norm Gram; call attach_triple_gram first"
            )
        if self._triple_cache is None or self._triple_cache[0] is not g:
            lam_min = float(np.min(scipy.linalg.eigvalsh(g)))
            if lam_min <= 1e-14 * float(np.max(np.abs(g))):
                raise NormDegeneracyError(
                    f"triple-norm Gram is numerically singular (min eigenvalue {lam_min:.3e})"
                )
            low = scipy.linalg.cholesky(g, lower=True)
            eye = np.eye(len(g))
            self._triple_cache = (g, scipy.linalg.solve_triangular(low, eye, lower=True).T)
        return self._triple_cache[1]


def _gram(a: np.ndarray) -> np.ndarray:
    """The real Gram matrix of the rows of `a`; for a real block one a @ a.T
    product, which BLAS computes as syrk, so it is exactly symmetric."""
    return np.real(a.conj() @ a.T) if np.iscomplexobj(a) else a @ a.T


# basis columns per block solve: a solve's right-hand side, solution and
# node block are O(CHUNK), however large the basis
CHUNK = 16


def _walk(n: int, solve):
    """(cols, solve(cols)) over the n basis columns in slices of CHUNK; a
    SolveError names the failing columns by their index in the basis."""
    for lo in range(0, n, CHUNK):
        cols = slice(lo, min(lo + CHUNK, n))
        try:
            out = solve(cols)
        except SolveError as exc:
            columns = [lo + c for c in exc.columns]
            raise SolveError(f"DN column(s) {columns} failed (block of columns "
                             f"{lo}..{cols.stop - 1}): {exc}",
                             residual_history=exc.residual_history, columns=columns) from exc
        yield cols, out


def _solve_columns(op: HelmholtzOperator, basis: "BoundaryBasis"):
    """cols -> solve_dirichlet(op, the data of basis columns cols)."""
    return lambda cols: solve_dirichlet(op, basis.block.copy_with(basis.block.values[cols]))


def active_solutions(op: HelmholtzOperator, basis: "BoundaryBasis",
                     rows: np.ndarray | None = None) -> np.ndarray:
    """(len(basis), n_active) block of the solutions of op with the basis
    data on op's active nodes (only their `rows` when given), from one
    solve_dirichlet call per CHUNK columns."""
    n = op.n_active if rows is None else len(rows)
    out = np.empty((len(basis), n), dtype=basis.block.values.dtype)
    for cols, u in _walk(len(basis), _solve_columns(op, basis)):
        vals = u.values[..., op.active]
        out[cols] = vals if rows is None else vals[:, rows]
    return out


def build_boundary_basis(grid: Grid3, patch: BoundaryPatch, n_modes: int) -> BoundaryBasis:
    """The n_modes^2 unit-L^2 sine modes (m1, m2) on the patch bounding
    square, m1 slowest, masked to the patch, as one block."""
    square = bounding_square(grid, patch)
    if n_modes > square.ns - 1:
        raise BoundaryError(
            f"{n_modes} modes per axis exceed the {square.ns}-cell bounding square"
        )
    t = np.arange(square.ns + 1) / square.ns
    sines = np.sin(np.pi * np.arange(1, n_modes + 1)[:, None] * t)
    vals = (2.0 / square.side) * (sines[:, None, :, None] * sines[None, :, None, :])
    block = BoundaryField(patch, square, vals.reshape((n_modes ** 2,) + square.node_shape))
    return BoundaryBasis(block.masked())


# -- the measurement operator ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class DnOperator:
    """Matrix of a partial DN map over a Dirichlet basis.

    Column j holds the (patch-masked) normal-derivative samples on the target
    bounding square of the solution with data row j of basis.block; rows run
    over the flattened square nodes.
    """

    matrix: np.ndarray


def assemble_dn(op: HelmholtzOperator, basis: BoundaryBasis,
                target: BoundaryPatch, solve=None) -> DnOperator:
    """The DN matrix over the basis, CHUNK columns at a time: each block of
    solutions is traced on the target patch, written into its columns and
    dropped.  `solve(cols)` gives the GridField block of solutions with the
    data of basis columns `cols`, by default solve_dirichlet with op.  The
    matrix has the traces' dtype: float64 for real data, real q and real k.  A
    SolveError names failing columns by their index in the basis and
    carries the residuals of their block.  Deterministic given equal inputs.
    """
    tsq = bounding_square(op.grid, target)
    shape = (tsq.node_shape[0] * tsq.node_shape[1], len(basis))
    matrix = np.empty(shape)  # replaced by the first block, whose dtype it takes
    for cols, u in _walk(len(basis), solve or _solve_columns(op, basis)):
        trace = neumann_trace(u, target).values.reshape(len(u.values), -1).T
        if cols.start == 0:
            matrix = np.empty(shape, dtype=trace.dtype)
        matrix[:, cols] = trace
    return DnOperator(matrix)


def measurement_pair(grid: Grid3, geom: SlabGeometry, k: float, q1: Potential,
                     q2: Potential, plate: Plate, basis_n: int):
    """(src_basis with its triple Gram, tgt_basis, d): d = Lambda_q1 - Lambda_q2
    from the Dirichlet patch to the Neumann patch on `plate` is the trace of w,
    A1 w = -(q1 - q2) u2 with zero data, u2 the block of q2 solutions, so no
    two maps cancel.

    One basis-wide array is alive at a time: the free solutions U on the
    active nodes, which give the triple Gram and, for a zero q2, u2; then
    only the rows of u2 where q1 - q2 is nonzero, the rest of the
    right-hand side being zero.  The free factor goes before op1's is made,
    and w is solved, traced and dropped CHUNK columns at a time.
    """
    free = HelmholtzOperator(grid, geom, k, None)
    op1, op2 = (HelmholtzOperator(grid, geom, k, q) if np.any(q.field.values) else free
                for q in (q1, q2))
    src = build_boundary_basis(grid, dirichlet_patch(geom), basis_n)
    target = neumann_patch(geom, plate)
    tgt = build_boundary_basis(grid, target, basis_n)
    u = active_solutions(free, src)
    src.attach_triple_gram(free, u)
    qdiff = (q1.field.values - q2.field.values)[free.active]
    support = np.flatnonzero(qdiff)
    if op2 is free:
        u = u[:, support]
    else:
        del u  # the free block goes before the q2 solves
        u = active_solutions(op2, src, support)
    del free, op2  # the free factor goes before op1's is made, unless op1 is free
    require_admissible(op1)
    source = -qdiff[support, None]

    def solve_w(cols):
        rhs = np.zeros((op1.n_active, cols.stop - cols.start))
        rhs[support] = source * u[cols].T
        return _node_field(op1, op1.solve_interior(rhs), 0.0)

    return src, tgt, assemble_dn(op1, src, target, solve=solve_w)


# -- the operator norm ----------------------------------------------------------


def star_whiten(matrix_diff: np.ndarray, src_basis: BoundaryBasis,
                tgt_basis: BoundaryBasis) -> np.ndarray:
    """B = W D R for a DN-matrix difference D (see op_norm_star); linear in D.
    W is real, so a real D takes one real product and a complex D one real
    product with its (real, imaginary) column pairs."""
    white = tgt_basis.whitener
    if np.iscomplexobj(matrix_diff):
        pairs = np.ascontiguousarray(matrix_diff, dtype=np.complex128).view(np.float64)
        wd = (white @ pairs).view(np.complex128)
    else:
        wd = white @ matrix_diff
    return wd @ src_basis.triple_whitener()


def op_norm_star(matrix_diff: np.ndarray, src_basis: BoundaryBasis | None = None,
                 tgt_basis: BoundaryBasis | None = None) -> float:
    """Largest generalized singular value of a DN-matrix difference D.

    The spectral norm ||W D R|| with the whiteners of the two bases
    (BoundaryBasis.whitener, BoundaryBasis.triple_whitener): the square
    root of the top eigenvalue of B^H B for B = W D R, the Cholesky reduction
    of the Hermitian pencil (P^H H^{-1} P, G) with the pairings
    P = h^2 conj(modes) D.  Without bases, `matrix_diff` is B itself
    (`star_whiten`).  Exact to machine precision at these basis sizes,
    which the homogeneity/triangle checks downstream rely on.
    """
    b = matrix_diff if src_basis is None else star_whiten(matrix_diff, src_basis, tgt_basis)
    n = b.shape[1]
    top = scipy.linalg.eigh(b.conj().T @ b, eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])
    return float(np.sqrt(max(float(top[0]), 0.0)))


# -- matrix file format ----------------------------------------------------------
#
# ASCII header "rows cols" then little-endian complex doubles, row-major.


def write_matrix(path: str, matrix: np.ndarray) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n".encode("ascii"))
        fh.write(mat.tobytes())


def _matrix_layout(header: list[str]) -> tuple[tuple, int]:
    rows, cols = map(int, header)
    if rows < 1 or cols < 1:
        raise ValueError(f"needs a row and a column, got {rows} x {cols}")
    return (rows, cols), rows * cols


def read_matrix(path: str) -> np.ndarray:
    """The matrix of a file; MatrixFileError names a path `read_binary` rejects."""
    shape, raw = read_binary(path, MatrixFileError, _matrix_layout, "<c16")
    return raw.reshape(shape).copy()

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

import logging

import numpy as np
import scipy.linalg

from .boundary import (
    BoundaryError,
    BoundaryField,
    SquareGrid2,
    bounding_square,
    sine_coefficients,
    sine_frequencies,
)
from .fields import GridField, Potential
from .forward import (
    HelmholtzOperator,
    SolveError,
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


class BoundaryBasis:
    """Ordered sine modes on a patch bounding square, masked to the patch.

    `block` holds the modes as one block field and `functions` are its rows.
    gram_h32 is the H^{3/2} Gram matrix of the (masked) modes; gram_triple
    (one block of free solves, kept here) is attached on demand because it
    depends on the frequency k and the domain.
    """

    def __init__(self, block: BoundaryField, n_modes: int):
        self._set_block(block)
        self.n_modes = n_modes
        coef = sine_coefficients(block).reshape(len(self), -1)
        w32 = (1.0 + sine_frequencies(block.square).ravel()) ** 1.5
        self.gram_h32 = np.real(np.conj(coef) * w32 @ coef.T)
        cond = np.linalg.cond(self.gram_h32)
        logger.info("boundary basis %dx%d modes: H^{3/2} Gram condition %.3e",
                    n_modes, n_modes, cond)

    def _set_block(self, block: BoundaryField):
        self.patch = block.patch
        self.square = block.square
        self.block = block
        self.functions = [block.copy_with(v) for v in block.values]
        self.gram_triple: np.ndarray | None = None
        self._dual_cache = None
        self._triple_cache = None

    def __len__(self) -> int:
        return len(self.functions)

    @classmethod
    def raw(cls, patch: BoundaryPatch, square: SquareGrid2,
            functions: list[BoundaryField]) -> "BoundaryBasis":
        """Basis carrying only functions (no spectral Grams); for DN assembly
        with oracle bases such as periodic exponentials."""
        basis = cls.__new__(cls)
        basis._set_block(BoundaryField(patch, square, np.stack([f.values for f in functions])))
        basis.n_modes = 0
        basis.gram_h32 = None
        return basis

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
                            + 0.5 * h3 * _gram(f if np.any(f.imag) else f.real))
        cond = np.linalg.cond(self.gram_triple)
        logger.info("triple-norm Gram condition %.3e at k=%g", cond, op0.k)
        return self.gram_triple

    def dual_factors(self) -> tuple[tuple, np.ndarray]:
        """Cholesky factor U of gram_h32 = U^H U and the whitener
        W = U^{-H} h^2 modes: |W r| is the H^{-3/2} dual norm of plate
        samples r (real, like the sine modes).  Both depend on the basis only,
        so they are computed once."""
        if self._dual_cache is None:
            try:
                cho = scipy.linalg.cho_factor(self.gram_h32)
            except scipy.linalg.LinAlgError as exc:
                raise NormDegeneracyError(f"singular H^{{3/2}} Gram matrix: {exc}") from exc
            pair = self.square.h ** 2 * self.block.values.real.reshape(len(self), -1)
            white = scipy.linalg.solve_triangular(cho[0], pair, trans="C", lower=cho[1])
            self._dual_cache = (cho, white)
        return self._dual_cache

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
    solve_dirichlet call per CHUNK columns; real for real data."""
    n = op.n_active if rows is None else len(rows)
    real = not np.any(basis.block.values.imag)
    out = np.empty((len(basis), n), dtype=np.float64 if real else np.complex128)
    for cols, u in _walk(len(basis), _solve_columns(op, basis)):
        vals = u.values[..., op.active]
        out[cols] = vals if rows is None else vals[:, rows]
    return out


def build_boundary_basis(grid: Grid3, patch: BoundaryPatch, n_modes: int,
                         apply_mask: bool = True) -> BoundaryBasis:
    """All n_modes^2 sine modes (mode_field's values, m1 slowest) as one block."""
    square = bounding_square(grid, patch)
    if n_modes > square.ns - 1:
        raise BoundaryError(
            f"{n_modes} modes per axis exceed the {square.ns}-cell bounding square"
        )
    t = np.arange(square.ns + 1) / square.ns
    sines = np.sin(np.pi * np.arange(1, n_modes + 1)[:, None] * t)
    vals = (2.0 / square.side) * (sines[:, None, :, None] * sines[None, :, None, :])
    block = BoundaryField(patch, square, vals.reshape((n_modes ** 2,) + square.node_shape))
    return BoundaryBasis(block.masked() if apply_mask else block, n_modes)


# -- norms --------------------------------------------------------------------


def _whitened(r: BoundaryField, basis: BoundaryBasis) -> np.ndarray:
    """W r: the pairings h^2 <b_i, r> whitened by the H^{3/2} Gram."""
    if r.square != basis.square:
        raise BoundaryError("field and test basis live on different squares")
    return basis.dual_factors()[1] @ r.values.ravel()


def norm_hm32(r: BoundaryField, test_basis: BoundaryBasis) -> float:
    """Dual norm sup |<r, g>| / ||g||_{H^{3/2}} over the span of the test basis."""
    return float(np.linalg.norm(_whitened(r, test_basis)))


def hm32_maximizer(r: BoundaryField, test_basis: BoundaryBasis) -> BoundaryField:
    """The test function attaining the dual norm (inverse-Gram image of r)."""
    upper = test_basis.dual_factors()[0][0]
    c = scipy.linalg.solve_triangular(upper, _whitened(r, test_basis))
    vals = np.tensordot(c, test_basis.block.values, axes=(0, 0))
    return BoundaryField(test_basis.patch, test_basis.square, vals)


# -- the measurement operator ---------------------------------------------------


class DnOperator:
    """Matrix of a partial DN map over a Dirichlet basis.

    Column j holds the (patch-masked) normal-derivative samples on the target
    bounding square of the solution with data basis.functions[j]; rows run
    over the flattened square nodes.
    """

    def __init__(self, matrix: np.ndarray, source_basis: BoundaryBasis,
                 target_patch: BoundaryPatch, target_square: SquareGrid2,
                 k: float, q_label: str = ""):
        self.matrix = matrix
        self.source_basis = source_basis
        self.target_patch = target_patch
        self.target_square = target_square
        self.k = k
        self.q_label = q_label


def assemble_dn(op: HelmholtzOperator, basis: BoundaryBasis,
                target: BoundaryPatch, q_label: str = "",
                solve=None) -> DnOperator:
    """The DN matrix over the basis, CHUNK columns at a time: each block of
    solutions is traced on the target patch, written into its columns and
    dropped.  `solve(cols)` gives the GridField block of solutions with the
    data of basis columns `cols`, by default solve_dirichlet with op.  A
    SolveError names failing columns by their index in the basis and
    carries the residuals of their block.  Deterministic given equal inputs.
    """
    tsq = bounding_square(op.grid, target)
    matrix = np.empty((tsq.node_shape[0] * tsq.node_shape[1], len(basis)), dtype=np.complex128)
    for cols, u in _walk(len(basis), solve or _solve_columns(op, basis)):
        matrix[:, cols] = neumann_trace(u, target).values.reshape(len(u.values), -1).T
    return DnOperator(matrix, basis, target, tsq, op.k, q_label)


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
    qdiff = (q1.field.values - q2.field.values).real[free.active]
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
        w = np.zeros((rhs.shape[1],) + grid.node_shape)
        w[..., op1.active] = op1.solve_interior(rhs).T
        return GridField(grid, w)

    return src, tgt, assemble_dn(op1, src, target, solve=solve_w)


# -- the operator norm ----------------------------------------------------------


def star_whiten(matrix_diff: np.ndarray, src_basis: BoundaryBasis,
                tgt_basis: BoundaryBasis) -> np.ndarray:
    """B = W D R for a DN-matrix difference D (see op_norm_star); linear in D."""
    pairs = np.ascontiguousarray(matrix_diff, dtype=np.complex128).view(np.float64)  # W is real
    return (tgt_basis.dual_factors()[1] @ pairs).view(np.complex128) @ src_basis.triple_whitener()


def op_norm_star(matrix_diff: np.ndarray, src_basis: BoundaryBasis | None = None,
                 tgt_basis: BoundaryBasis | None = None) -> float:
    """Largest generalized singular value of a DN-matrix difference D.

    The spectral norm ||W D R|| with the whiteners of the two bases
    (BoundaryBasis.dual_factors, BoundaryBasis.triple_whitener): the square
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


def read_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        rows, cols = int(header[0]), int(header[1])
        raw = np.frombuffer(fh.read(16 * rows * cols), dtype="<c16")
        if raw.size != rows * cols:
            raise ValueError(f"{path}: truncated matrix data")
    return raw.reshape(rows, cols).copy()

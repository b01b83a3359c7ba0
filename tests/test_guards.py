"""Input guards, one parametrized test per module: each bad call raises its
module's error with its message."""

import numpy as np
import pytest

from slabinv import boundary, cgo, dnmap, fields, forward, geometry, recovery
from slabinv.geometry import Grid3, Plate

SMALL = Grid3(4, 4, 4, 0.25, (-0.5, -0.5, 0.0))
TORUS = Grid3(4, 4, 4, 0.25, (-0.5, -0.5, -0.5), periodic=True)
BOX = (-3.0, -3.0, -3.0)  # a box corner on the nodes of the h = 1/8 grid


@pytest.fixture(scope="module")
def top(geom, grid8):
    """The Dirichlet patch and its bounding square on the h = 1/8 grid."""
    patch = geometry.dirichlet_patch(geom)
    return patch, boundary.bounding_square(grid8, patch)


@pytest.mark.parametrize("case, match", [
    ("field shape", "values shape"),
    ("square off the plate", "does not fit inside the plate"),
])
def test_boundary_guards(grid8, top, case, match):
    patch, square = top
    with pytest.raises(boundary.BoundaryError, match=match):
        if case == "field shape":
            boundary.BoundaryField(patch, square, np.zeros((2, 2)))
        else:
            wide = boundary.SquareGrid2(2 * square.ns, square.h, square.x0, square.y0)
            boundary.BoundaryField(patch, wide, np.zeros(wide.node_shape)).plate_values(grid8)


@pytest.mark.parametrize("case, error, match", [
    ("coarsen below one", ValueError, "coarsen must be a positive integer"),
    ("node-grid box", fields.FieldError, "periodic box grid"),
])
def test_cgo_guards(geom, grid8, bump8, case, error, match):
    with pytest.raises(error, match=match):
        if case == "coarsen below one":
            cgo.build_box_grid(geom, grid8, coarsen=0)
        else:
            cgo.box_source(bump8.field, grid8)


@pytest.mark.parametrize("case, error, match", [
    ("triple Gram with q", ValueError, "requires the zero potential"),
    ("star norm without triple Gram", dnmap.NormDegeneracyError, "call attach_triple_gram"),
    ("too many modes", boundary.BoundaryError, "modes per axis exceed"),
])
def test_dnmap_guards(geom, grid8, bump8, top, case, error, match):
    patch, square = top
    src = dnmap.build_boundary_basis(grid8, patch, 2)
    tgt = dnmap.build_boundary_basis(grid8, geometry.neumann_patch(geom, Plate.BOTTOM), 2)
    with pytest.raises(error, match=match):
        if case == "triple Gram with q":
            src.attach_triple_gram(forward.HelmholtzOperator(grid8, geom, 0.0, bump8))
        elif case == "star norm without triple Gram":
            rows = tgt.square.node_shape[0] * tgt.square.node_shape[1]
            dnmap.op_norm_star(np.zeros((rows, len(src))), src, tgt)
        else:
            dnmap.build_boundary_basis(grid8, patch, square.ns)


@pytest.mark.parametrize("case, match", [
    ("field shape", "does not match grid nodes"),
    ("box spacing", "not an integer multiple"),
    ("box offset", "not node-aligned"),
    ("frequency array", r"expected an \(n, 3\) array"),
    ("periodic field file", "non-periodic node grids only"),
])
def test_fields_guards(grid8, bump8, tmp_path, case, match):
    with pytest.raises(fields.FieldError, match=match):
        if case == "field shape":
            fields.GridField(grid8, np.zeros((2, 2, 2)))
        elif case == "box spacing":
            fields.extend_trivial(bump8, Grid3(32, 32, 32, 0.1875, BOX, periodic=True))
        elif case == "box offset":
            shifted = tuple(o + 0.0625 for o in BOX)
            fields.extend_trivial(bump8, Grid3(48, 48, 48, 0.125, shifted, periodic=True))
        elif case == "frequency array":
            fields.fourier_transform(bump8.field, [1.0, 0.0, 0.0])
        else:
            fields.write_field(str(tmp_path / "torus.field"),
                               fields.GridField(TORUS, np.zeros(TORUS.node_shape)))


@pytest.mark.parametrize("case, error, match", [
    ("periodic grid", ValueError, "slab operators live on node grids"),
    ("source on another grid", forward.SolveError, "source field lives on a different grid"),
    ("one cell layer", forward.SolveError, "two interior layers"),
])
def test_forward_guards(geom, op0_8, case, error, match):
    with pytest.raises(error, match=match):
        if case == "periodic grid":
            forward.HelmholtzOperator(TORUS, geom, 0.0, None)
        elif case == "source on another grid":
            forward.solve_source(op0_8, fields.GridField(SMALL, np.zeros(SMALL.node_shape)))
        else:
            flat = Grid3(4, 4, 1, 0.25, (-0.5, -0.5, 0.0))
            u = fields.GridField(flat, np.zeros(flat.node_shape))
            forward.neumann_trace(u, geometry.neumann_patch(geom, Plate.TOP))


@pytest.mark.parametrize("case, match", [
    ("slab thickness", "slab thickness must be positive"),
    ("cutoff half-gap", "eps_cutoff must be positive"),
    ("patch radii", "patch radii must satisfy"),
    ("grid cells", "grid needs positive cell counts"),
])
def test_geometry_guards(case, match):
    with pytest.raises(geometry.GeometryError, match=match):
        if case == "slab thickness":
            geometry.SlabGeometry(0.0, 1.0, 1.5, 2.0, 0.1)
        elif case == "cutoff half-gap":
            geometry.SlabGeometry(1.0, 1.0, 1.5, 2.0, 0.0)
        elif case == "patch radii":
            geometry.BoundaryPatch(Plate.TOP, 1.0, 0.5)
        else:
            Grid3(0, 4, 4, 0.25, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("case, error, match", [
    ("potentials on two grids", recovery.RecoveryError, "potentials must share a grid"),
    ("continuation exponent", recovery.ContinuationError, "interpolation exponent"),
    ("schedule exponent", recovery.RecoveryError, r"lambda must lie in \(0, 1\)"),
    ("closing constant", recovery.RecoveryError, "c and delta must be positive"),
])
def test_recovery_guards(geom, grid8, bump8, case, error, match):
    single = recovery.Variant.SINGLE_REFLECTION
    with pytest.raises(error, match=match):
        if case == "potentials on two grids":
            zero = fields.zero_potential(geometry.build_domain(geom, 0.25), geom)
            recovery.make_workspace(bump8, zero, 0.0, single)
        elif case == "continuation exponent":
            recovery.ContinuationConfig(lam=1.0, model_halfwidth=2.0)
        elif case == "schedule exponent":
            recovery.choose_parameters(1.0, 1e-3, 1.0, 14.0, single)
        else:
            recovery.choose_parameters(1.0, 1e-3, 0.5, 0.0, single)

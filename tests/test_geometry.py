import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import full_plate_square
from measures import cutoff_annulus
from slabinv import boundary, geometry
from slabinv.geometry import (
    GeometryError,
    Grid3,
    Plate,
    SlabGeometry,
    build_domain,
    parse_geometry_config,
)


def plate_mask(grid, patch):
    """Patch membership of the plate nodes, shape (sx, sy)."""
    sq = full_plate_square(grid)
    return boundary.BoundaryField(patch, sq, np.zeros(sq.node_shape)).patch_mask()


def test_geometry_invariants_enforced():
    with pytest.raises(GeometryError):
        SlabGeometry(1.0, 1.0, 0.9, 2.0, 0.1)       # R_prime < R
    with pytest.raises(GeometryError):
        SlabGeometry(1.0, 1.0, 1.5, 2.5, 0.1)       # R_lat > 2R
    with pytest.raises(GeometryError):
        SlabGeometry(1.0, 1.0, 1.5, 2.0, 0.3)       # annulus collapses


def test_build_domain_examples(geom):
    grid = build_domain(geom, 0.125)
    assert grid.nz == 8 and grid.h == 0.125
    assert grid.nz * grid.h == geom.L

    grid2 = build_domain(geom, 0.2)
    # largest spacing dividing L that stays below the target
    assert grid2.nz == 5 and abs(grid2.h - 0.2) < 1e-15

    with pytest.raises(GeometryError):
        build_domain(geom, 1e-6)  # resource guard

    # grid covers the truncated cylinder and plate nodes sit on the plates
    assert grid.origin[0] <= -geom.R_lat
    assert grid.axis_nodes(2)[0] == 0.0
    assert grid.axis_nodes(2)[-1] == pytest.approx(geom.L, abs=0)


@given(eps=st.floats(min_value=0.01, max_value=0.24))
@settings(max_examples=20, deadline=None)
def test_annulus_monotone_in_eps(eps):
    geom = SlabGeometry(1.0, 1.0, 1.5, 2.0, eps)
    grid = build_domain(geom, 0.125)
    wide = plate_mask(grid, cutoff_annulus(geom, Plate.BOTTOM))
    geom_small = SlabGeometry(1.0, 1.0, 1.5, 2.0, eps / 2)
    wider = plate_mask(grid, cutoff_annulus(geom_small, Plate.BOTTOM))
    # shrinking eps never shrinks the annulus node set
    assert np.all(wider[wide])


def test_interior_mask_is_disc_times_interior_layers(geom, grid8):
    mask = geometry.interior_mask(grid8, geom)
    disc = grid8.lateral_radius()[:, :, 0] < geom.R_lat
    layers = np.zeros(grid8.nz + 1, dtype=bool)
    layers[1:grid8.nz] = True
    assert np.array_equal(mask, disc[:, :, None] & layers)
    # the staircase: a node at |x'| = R_lat is lateral at every height
    assert not mask[grid8.nx, grid8.ny // 2].any()
    with pytest.raises(GeometryError, match="non-periodic"):
        geometry.interior_mask(Grid3(8, 8, 8, 0.125, (0.0, 0.0, 0.0), periodic=True), geom)
    with pytest.raises(GeometryError, match="thickness"):
        geometry.interior_mask(build_domain(geom, 0.125), SlabGeometry(1.5, 1.0, 1.5, 2.0, 0.1))


def test_config_roundtrip(tmp_path, geom):
    path = tmp_path / "geom.cfg"
    path.write_text(
        "# test configuration\n"
        "L = 1.0\nR = 1.0\nR_prime = 1.5\nR_lat = 2.0\n"
        "eps_cutoff = 0.1\ntarget_h = 0.125\n"
    )
    parsed, target_h = parse_geometry_config(str(path))
    assert parsed == geom and target_h == 0.125

    bad = tmp_path / "bad.cfg"
    bad.write_text("L = 1.0\n")
    with pytest.raises(GeometryError):
        parse_geometry_config(str(bad))


def test_patch_constructors(geom):
    d = geometry.dirichlet_patch(geom)
    n1 = geometry.neumann_patch(geom, Plate.TOP)
    ann = cutoff_annulus(geom, Plate.TOP)
    # the data patch strictly contains the closure of the measurement patch,
    # and the Neumann disc lies inside the truncated plate
    assert d.r_outer > n1.r_outer
    grid = build_domain(geom, 0.125)
    disc = plate_mask(grid, n1)
    assert disc.any() and np.all(geometry.interior_mask(grid, geom)[:, :, 1][disc])
    assert ann.r_inner == geom.R + geom.eps_cutoff
    assert ann.r_outer == geom.R_prime - geom.eps_cutoff

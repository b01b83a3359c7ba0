import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import field_from_function
from slabinv import boundary, cgo, dnmap, fields, forward, geometry
from slabinv.fields import (
    FieldError,
    GridField,
    Potential,
    extend_even,
    extend_trivial,
    fourier_transform,
    quadrature_weights,
    read_field,
    reflect,
    sobolev_norm,
    write_field,
)
from slabinv.geometry import Grid3


@pytest.fixture(scope="module")
def box(geom, grid8):
    return cgo.build_box_grid(geom, grid8)


def test_reflect_odd_even_fixed():
    # node grid symmetric about x3 = 0
    grid = Grid3(8, 8, 8, 0.25, (-1.0, -1.0, -1.0))
    f_odd = field_from_function(grid, lambda x, y, z: z + 0 * x + 0 * y)
    assert np.array_equal(reflect(f_odd).values, -f_odd.values)
    f_x = field_from_function(grid, lambda x, y, z: x + 0 * y + 0 * z)
    assert np.array_equal(reflect(f_x).values, f_x.values)


def test_reflect_periodic_box_nodes(box):
    # on the periodic box the reflection is a node permutation; an odd
    # periodic profile negates exactly
    per = box.nx * box.h
    f = field_from_function(box, lambda x, y, z: np.sin(2 * np.pi * z / per)
                            + 0 * x + 0 * y)
    assert np.allclose(reflect(f).values, -f.values, atol=1e-15)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_reflect_involution(seed):
    grid = Grid3(6, 6, 6, 0.5, (-1.5, -1.5, -1.5), periodic=True)
    rng = np.random.default_rng(seed)
    f = GridField(grid, rng.standard_normal(grid.node_shape)
                  + 1j * rng.standard_normal(grid.node_shape))
    assert np.array_equal(reflect(reflect(f)).values, f.values)


def test_reflect_requires_symmetric_grid():
    grid = Grid3(4, 4, 4, 0.5, (0.0, 0.0, 0.0))
    f = GridField(grid, np.zeros(grid.node_shape))
    with pytest.raises(FieldError, match="x3"):
        reflect(f)


def test_extensions(geom, grid8, bump8, box):
    zpot = fields.zero_potential(grid8, geom)
    assert np.all(extend_even(zpot, box).values == 0)
    triv = extend_trivial(bump8, box)
    even = extend_even(bump8, box)
    # even = trivial + reflected trivial, node-exactly
    assert np.array_equal(even.values, triv.values + reflect(triv).values)
    # evenness node-exactly
    assert np.array_equal(even.values, reflect(even).values)
    # trivial extension vanishes below the bottom plate
    _, _, z = box.node_coords()
    below = np.broadcast_to(z < 0, box.node_shape)
    assert np.all(triv.values[below] == 0)
    # the extension samples the potential on slab nodes
    assert np.max(np.abs(triv.values)) == pytest.approx(
        np.max(np.abs(bump8.field.values)))


def test_extend_even_linear_profile(geom, grid8, box):
    x, y, z = grid8.node_coords()
    r = np.hypot(x, y)
    vals = np.where(r <= geom.R, 1.0, 0.0) * z * np.ones_like(y)
    pot = Potential(GridField(grid8, vals.astype(np.complex128)), geom, 1e12)
    even = extend_even(pot, box)
    bx, by, bz = box.node_coords()
    br = np.hypot(bx, by)
    expected = np.where((br <= geom.R) & (np.abs(bz) <= geom.L), np.abs(bz), 0.0)
    expected = expected * np.ones_like(by)
    assert np.allclose(even.values, expected)


def test_fourier_transform_zero(grid8):
    z = GridField(grid8, np.zeros(grid8.node_shape))
    assert fourier_transform(z, [(0.3, -0.2, 1.0)])[0] == 0


def test_fourier_box_indicator_closed_form(geom):
    # indicator of a grid-aligned box: separable product of per-axis
    # trapezoid sums of exp(i x xi), each with a closed form.
    grid = Grid3(16, 16, 8, 0.125, (-1.0, -1.0, 0.0))
    x, y, z = grid.node_coords()
    inside = ((np.abs(x) <= 0.5 + 1e-12) & (np.abs(y) <= 0.5 + 1e-12)
              & (z >= 0.25 - 1e-12) & (z <= 0.75 + 1e-12))
    f = GridField(grid, np.where(inside, 1.0, 0.0).astype(np.complex128))
    xi = np.array([0.7, -1.3, 2.1])

    def axis_sum(nodes, lo, hi, w):
        # plain Dirichlet-kernel sum: the support edge sits strictly inside
        # the grid box, so every indicator node carries the full weight h
        sel = (nodes >= lo - 1e-12) & (nodes <= hi + 1e-12)
        return grid.h * np.sum(np.exp(1j * w * nodes[sel]))

    expected = (axis_sum(grid.axis_nodes(0), -0.5, 0.5, xi[0])
                * axis_sum(grid.axis_nodes(1), -0.5, 0.5, xi[1])
                * axis_sum(grid.axis_nodes(2), 0.25, 0.75, xi[2]))
    got = fourier_transform(f, [xi])[0]
    assert abs(got - expected) <= 1e-10 * abs(expected)


def test_fourier_hermitian_symmetry(bump8):
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi = rng.uniform(-3, 3, size=3)
        minus, plus = fourier_transform(bump8.field, [-xi, xi])
        assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_fourier_direct_summation_oracle(bump8):
    # independent O(N) summation per frequency
    grid = bump8.grid
    w = quadrature_weights(grid)
    x, y, z = grid.node_coords()
    rng = np.random.default_rng(7)
    xis = rng.uniform(-4, 4, size=(10, 3))
    vals = fourier_transform(bump8.field, xis)
    for xi, got in zip(xis, vals):
        direct = np.sum(w * bump8.field.values
                        * np.exp(1j * (xi[0] * x + xi[1] * y + xi[2] * z)))
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


def test_fourier_even_in_xi3_for_even_fields(geom, grid8, bump8):
    box = cgo.build_box_grid(geom, grid8)
    even = extend_even(bump8, box)
    direct, mirrored = fourier_transform(even, [(1.0, 0.5, 0.8), (1.0, 0.5, -0.8)])
    assert direct == pytest.approx(mirrored, rel=1e-12)


def test_quadrature_second_order(geom):
    # fixed smooth f: |FT_h - FT_{h/2}| = O(h^2)
    def make(h):
        grid = Grid3(int(2 / h), int(2 / h), int(1 / h), h, (-1.0, -1.0, 0.0))
        f = field_from_function(
            grid, lambda x, y, z: np.cos(x) * np.exp(-y * y) * z * (1 - z))
        return fourier_transform(f, [(1.0, -0.5, 2.0)])[0]

    v1, v2, v4 = (make(h) for h in (0.125, 0.0625, 0.03125))
    d1 = abs(v1 - v2)
    d2 = abs(v2 - v4)
    assert 3.0 < d1 / d2 < 5.0


def test_potential_support_enforced(geom, grid8):
    vals = np.ones(grid8.node_shape, dtype=np.complex128)
    with pytest.raises(FieldError, match="support"):
        Potential(GridField(grid8, vals), geom, 1e9)
    with pytest.raises(FieldError, match="real"):
        Potential(GridField(grid8, 1j * np.zeros(grid8.node_shape) + 1e-3j),
                  geom, 1e9)


def test_potential_sobolev_bound(geom, grid8):
    pot = fields.radial_bump_potential(grid8, geom, 1.0)
    assert sobolev_norm(pot.field, fields.SOBOLEV_S) <= 1.05 * pot.bound_M
    with pytest.raises(FieldError, match="H\\^s"):
        Potential(pot.field, geom, pot.bound_M / 2)


def test_potentials_measure_their_norm_once(tmp_path, geom, grid8, monkeypatch):
    # the Born bump's bound is its one measured norm, bit for bit
    born = fields.radial_bump_potential(grid8, geom, 1e-3)
    assert born.bound_M == max(sobolev_norm(born.field, 2.0), np.finfo(float).tiny)
    path = tmp_path / "born.field"
    write_field(str(path), born.field)
    calls = []
    monkeypatch.setattr(fields, "sobolev_norm",
                        lambda *a, **kw: calls.append(1) or sobolev_norm(*a, **kw))
    assert fields.read_potential(str(path), geom).bound_M == born.bound_M
    assert len(calls) == 1
    assert fields.radial_bump_potential(grid8, geom, 1e-3).bound_M == born.bound_M
    assert len(calls) == 2
    # an all-zero field has norm 0 without a transform
    fields.zero_potential(grid8, geom)
    Potential(GridField(grid8, np.zeros(grid8.node_shape)), geom, 1e-300)
    assert len(calls) == 2


def test_field_file_roundtrip(tmp_path, bump8):
    path = tmp_path / "field.bin"
    fld = GridField(bump8.grid, bump8.field.values * (1 + 0.5j))
    write_field(str(path), fld)
    back = read_field(str(path))
    assert back.grid == bump8.grid
    assert np.array_equal(back.values, fld.values)


def test_field_file_header_is_ascii(tmp_path, grid8):
    path = tmp_path / "f.bin"
    write_field(str(path), GridField(grid8, np.zeros(grid8.node_shape)))
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
    assert header[:3] == ["32", "32", "8"]
    assert float(header[3]) == grid8.h


def test_real_samples_are_float64_everywhere(tmp_path, geom):
    # fields.samples decides once: real potentials, data, solutions and traces
    # are contiguous float64 with no later test, a zero imaginary part included
    grid = geometry.build_domain(geom, 0.25)
    bump = fields.radial_bump_potential(grid, geom, 1.0)
    qpath = str(tmp_path / "q.field")
    write_field(qpath, bump.field)
    patch = geometry.dirichlet_patch(geom)
    basis = dnmap.build_boundary_basis(grid, patch, 3)
    fpath = str(tmp_path / "f.bfield")
    boundary.write_boundary_field(fpath, basis.block.copy_with(basis.block.values[0]), geom.L)
    op = forward.HelmholtzOperator(grid, geom, 0.5, bump)
    u = forward.solve_dirichlet(op, basis.block)
    w = np.zeros(grid.node_shape, dtype=np.complex128)
    w[op.active] = 1.0
    arrays = {
        "radial_bump_potential": bump.field.values,
        "zero_potential": fields.zero_potential(grid, geom).field.values,
        "read_potential": fields.read_potential(qpath, geom).field.values,
        "build_boundary_basis": basis.block.values,
        "read_boundary_field": boundary.read_boundary_field(fpath, patch)[0].values,
        "plate_values": basis.block.plate_values(grid),
        "neumann_trace": forward.neumann_trace(
            u, geometry.neumann_patch(geom, geometry.Plate.BOTTOM)).values,
        "solve_dirichlet": u.values,
        "solve_source": forward.solve_source(op, GridField(grid, w)).values,
        "extend_even": extend_even(bump, cgo.build_box_grid(geom, grid)).values,
    }
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float64)
    assert all(a.flags.c_contiguous for a in arrays.values())


def test_one_imaginary_sample_keeps_a_field_complex(geom):
    # the rule holds for volume and plate fields alike; a NaN imaginary part
    # is nonzero, so it stays and the finite check rejects it
    grid = geometry.build_domain(geom, 0.25)
    patch = geometry.dirichlet_patch(geom)
    square = boundary.bounding_square(grid, patch)
    kinds = ((lambda v: GridField(grid, v), grid.node_shape, FieldError),
             (lambda v: boundary.BoundaryField(patch, square, v), square.node_shape,
              boundary.BoundaryError))
    for make, shape, error in kinds:
        vals = np.zeros((2,) + shape, dtype=np.complex128)
        assert make(vals).values.dtype == np.float64
        vals.flat[7] = 1e-300j
        got = make(vals).values
        assert got.dtype == np.complex128 and got.flat[7] == 1e-300j
        vals.flat[7] = complex(0.0, np.nan)
        with pytest.raises(error, match="non-finite"):
            make(vals)
    vals = np.zeros(grid.node_shape, dtype=np.complex128)
    vals[4, 4, 2] = 1j
    with pytest.raises(FieldError, match="must be real"):
        Potential(GridField(grid, vals), geom, 1e12)

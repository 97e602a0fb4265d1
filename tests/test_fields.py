"""Grid geometry, tensor storage, l=2 algebra, rotations, and file formats."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eqfield as eq
from eqfield.checks import compatible_rotations
from eqfield.formats import _header_line, fmt_value, parse_list


def test_centered_grid_geometry():
    g = eq.Grid.centered((5, 7), spacing=(0.5, 2.0))
    assert g.dim == 2
    assert g.shape == (5, 7)
    assert g.voxel_volume == pytest.approx(1.0)
    # center voxel sits at the world origin
    c = g.center_index()
    assert np.allclose(c, (2.0, 3.0))
    assert np.allclose(g.world(c), 0.0)
    # axis coordinates are symmetric about zero
    for a in range(2):
        x = g.axis_coords(a)
        assert np.allclose(x, -x[::-1])
        assert x[1] - x[0] == pytest.approx(g.spacing[a])


def test_grid_validation():
    with pytest.raises(eq.GridError):
        eq.Grid.centered((5, 5), boundary="mirror")
    with pytest.raises(eq.GridError):
        eq.Grid.centered((5,))
    with pytest.raises(eq.GridError):
        eq.Grid.centered((5, 5, 5, 5))
    with pytest.raises(eq.GridError):
        eq.Grid.centered((5, 0, 5))
    with pytest.raises(eq.GridError):
        eq.Grid.centered((5, 5), spacing=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(eq.GridError):
            eq.Grid.centered((5, 5), spacing=bad)
        with pytest.raises(eq.GridError):
            eq.Grid((5, 5), (1.0, 1.0), (0.0, bad))


def test_with_boundary_round_trip():
    g = eq.Grid.centered((5, 5), boundary=eq.ZERO)
    gp = g.with_boundary(eq.PERIODIC)
    assert gp.boundary == eq.PERIODIC
    assert gp.shape == g.shape
    assert gp.with_boundary(eq.ZERO) == g


def test_component_counts():
    assert eq.components_for(0, 2) == 1
    assert eq.components_for(0, 3) == 1
    assert eq.components_for(1, 2) == 2
    assert eq.components_for(1, 3) == 3
    assert eq.components_for(2, 3) == 5
    with pytest.raises(eq.FieldError):
        eq.components_for(2, 2)  # rank-2 storage is 3d only
    with pytest.raises(eq.FieldError):
        eq.components_for(3, 3)


def test_field_storage_shapes():
    g = eq.Grid.centered((4, 5, 6))
    for l, n in ((0, 1), (1, 3), (2, 5)):
        u = eq.TensorField.zeros(g, l)
        assert u.components.shape == (n, 4, 5, 6)
        assert u.n_components == n
    s = eq.TensorField.from_scalar(g, np.ones(g.shape))
    assert s.l == 0
    with pytest.raises(eq.FieldError):
        eq.TensorField.from_scalar(g, np.ones((4, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(bad):
    g = eq.Grid.centered((4, 5, 6))
    values = np.zeros((1,) + g.shape)
    values[0, 3, 4, 5] = bad
    with pytest.raises(eq.FieldError, match=r"^field contains non-finite values$"):
        eq.TensorField(g, 0, values)
    values[0, 0, 0, 0] = -values[0, 3, 4, 5]   # inf - inf: a nan sum, as for a nan
    with pytest.raises(eq.FieldError, match=r"^field contains non-finite values$"):
        eq.TensorField(g, 0, values)


def test_finite_values_whose_sum_overflows_are_accepted():
    # the sum is only a shortcut: when it overflows, the exact test decides
    g = eq.Grid.centered((3, 3))
    for big in (1e308, -1e308):
        values = np.full((1, 3, 3), big)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(values))
        assert eq.TensorField(g, 0, values).components is values


def test_finite_check_holds_no_field_sized_mask():
    # a 95^3 field is checked by its sum; a mask would take 857,375 bytes
    values = np.random.default_rng(31).standard_normal((1, 95, 95, 95))
    g = eq.Grid.centered((95, 95, 95))
    tracemalloc.start()
    try:
        u = eq.TensorField(g, 0, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.components is values
    assert peak <= 16 * 2**10


def test_field_guards_name_what_is_wrong():
    g2, g3 = eq.Grid.centered((4, 4)), eq.Grid.centered((4, 4, 4))
    with pytest.raises(eq.FieldError, match=r"^l=2 fields are supported in 3d only$"):
        eq.components_for(2, 2)
    with pytest.raises(eq.FieldError, match=r"^rotation order 3 unsupported \(l <= 2\)$"):
        eq.components_for(3, 3)
    with pytest.raises(eq.FieldError, match=r"^unit harmonic l=2 unsupported in 2d$"):
        eq.unit_harmonic(2, np.ones((2, 3)))
    with pytest.raises(eq.FieldError, match=r"^unit harmonic l=3 unsupported in 3d$"):
        eq.unit_harmonic(3, np.ones((3, 3)))
    with pytest.raises(eq.FieldError, match=r"^component array shape \(1, 4, 4\) != "
                                             r"expected \(2, 4, 4\)$"):
        eq.TensorField(g2, 1, np.zeros((1, 4, 4)))
    scalar = eq.TensorField.zeros(g3, 0)
    rule = eq.product_rule("scalar", 0, 0, 3)
    with pytest.raises(eq.FieldError, match=r"^pointwise product requires identical grids$"):
        eq.pointwise_product(scalar, eq.TensorField.zeros(eq.Grid.centered((4, 4, 5)), 0), rule)
    with pytest.raises(eq.RuleError, match=r"^rule expects orders \(0,0\), fields have \(0,1\)$"):
        eq.pointwise_product(scalar, eq.TensorField.zeros(g3, 1), rule)
    with pytest.raises(eq.FieldError, match=r"^fields differ in grid or rotation order$"):
        scalar + eq.TensorField.zeros(g3, 1)
    with pytest.raises(eq.RuleError, match=r"^no product 'wedge' for \(l_u=1, l_h=1\) in 3d; "
                                            r"supported: scalar\(0,0\)->0, "):
        eq.product_rule("wedge", 1, 1, 3)
    with pytest.raises(eq.RuleError, match=r"^unknown product kind 'wedge'$"):
        eq.fields.rule_coefficients(eq.ProductRule("wedge", 1, 1, 1), 3)
    with pytest.raises(eq.FieldError, match=r"^rotation dimension does not match the grid$"):
        eq.rotate_field(scalar, eq.all_rotations(2)[1])
    box = eq.TensorField.zeros(eq.Grid.centered((4, 4, 5)), 1)
    swap_xz = next(rot for rot in eq.all_rotations(3) if rot.axis_map(box.grid.shape) is None)
    with pytest.raises(eq.FieldError, match=r"^rotation incompatible with grid shape "
                                             r"\(non-square/cube domain\)$"):
        eq.rotate_field(box, swap_xz)


def test_field_norm_oracle():
    g = eq.Grid.centered((3, 3))
    u = eq.TensorField.zeros(g, 1)
    u.components[0, 1, 1] = 3.0
    u.components[1, 1, 1] = 4.0
    n = eq.field_norm(u)
    assert n.l == 0
    assert n.components[0, 1, 1] == pytest.approx(5.0)
    assert n.components[0, 0, 0] == 0.0


# ---------------------------------------------------------------------------
# l=2 storage algebra


def test_l2_basis_properties():
    basis = eq.l2_basis()
    assert basis.shape == (5, 3, 3)
    gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
    # equal Frobenius norm sqrt(2), mutually orthogonal
    assert np.allclose(gram, 2.0 * np.eye(5), atol=1e-14)
    for b in basis:
        assert np.allclose(b, b.T)
        assert abs(np.trace(b)) < 1e-14


def test_l2_matrix_round_trip():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5)
    m = eq.matrix_from_l2(c)
    assert np.allclose(m, m.T)
    assert abs(np.trace(m)) < 1e-13
    back = eq.l2_from_matrix(m)
    assert np.allclose(back, c, atol=1e-14)


def test_l2_projection_kills_trace_part():
    # the basis is traceless, so an isotropic part projects to zero
    c = np.array([0.3, -1.1, 0.7, 0.2, -0.5])
    m = eq.matrix_from_l2(c)
    back = eq.l2_from_matrix(m + 4.0 * np.eye(3))
    assert np.allclose(back, c, atol=1e-14)


# ---------------------------------------------------------------------------
# lattice rotations


def test_rotation_group_sizes():
    assert len(eq.all_rotations(2)) == 4
    assert len(eq.all_rotations(3)) == 24
    for rot in eq.all_rotations(3):
        m = rot.matrix
        assert np.allclose(m @ m.T, np.eye(3))
        assert np.linalg.det(m) == pytest.approx(1.0)


def test_axis_rotation_oracle():
    # quarter turn about z maps xhat to yhat
    rot = eq.axis_rotation(2, 1)
    assert np.allclose(rot.matrix @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0])
    v = eq.rotate_vector(np.array([1.0, 2.0, 3.0]), rot)
    assert np.allclose(v, [-2.0, 1.0, 3.0])


def test_rotate_scalar_field_moves_voxels():
    g = eq.Grid.centered((5, 5, 5))
    u = eq.TensorField.zeros(g, 0)
    u.components[0, 4, 2, 2] = 1.0  # +x lobe
    rot = eq.axis_rotation(2, 1)
    v = eq.rotate_field(u, rot)
    assert v.components[0, 2, 4, 2] == 1.0  # now on +y
    assert np.sum(v.components) == 1.0


def test_rotation_inverse_restores_field():
    rng = np.random.default_rng(7)
    g = eq.Grid.centered((5, 5, 5))
    for l in (0, 1, 2):
        u = eq.TensorField.random(g, l, rng)
        for rot in eq.all_rotations(3)[:6]:
            w = eq.rotate_field(eq.rotate_field(u, rot), rot.inverse())
            assert np.allclose(w.components, u.components, atol=1e-13)


def test_l2_rotation_matches_matrix_conjugation():
    # rotating the 5-component storage must equal R M R^T on the matrix form
    rng = np.random.default_rng(9)
    c = rng.standard_normal(5)
    for rot in eq.all_rotations(3):
        m = eq.matrix_from_l2(c)
        direct = eq.l2_from_matrix(rot.matrix @ m @ rot.matrix.T)
        g = eq.Grid.centered((3, 3, 3))
        u = eq.TensorField.zeros(g, 2)
        u.components[:, 1, 1, 1] = c
        via_field = eq.rotate_field(u, rot).components[:, 1, 1, 1]
        assert np.allclose(via_field, direct, atol=1e-13)


def test_rotation_2d():
    rot = eq.rotation_2d(1)
    assert np.allclose(rot.matrix, [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(eq.rotation_2d(4).matrix, np.eye(2))


def test_rotation_is_frozen_and_keeps_its_hash():
    rot = eq.rotation_2d(1)
    seen = {rot}
    with pytest.raises(dataclasses.FrozenInstanceError):
        rot.matrix = np.eye(2, dtype=int)
    with pytest.raises(ValueError):
        rot.matrix[0, 0] = 1
    assert rot in seen and rot == eq.rotation_2d(1) and rot != eq.rotation_2d(3)
    m = np.array([[0, -1], [1, 0]])
    assert eq.LatticeRotation(m) == rot and m.flags.writeable   # it holds its own copy


def test_all_rotations_order():
    # 3d: permutations, then signs, in itertools order (tests slice this list)
    want = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=int)
            for row, (col, sign) in enumerate(zip(perm, signs)):
                m[row, col] = sign
            if round(float(np.linalg.det(m))) == 1:
                want.append(m.tolist())
    assert [rot.matrix.tolist() for rot in eq.all_rotations(3)] == want
    assert set(eq.all_rotations(2)) == {eq.rotation_2d(k) for k in range(4)}


def _float_index_map(grid, rot):
    """Source voxel g^-1 i of every output voxel i, by float arithmetic about
    the domain center; None when a source is off the lattice or the grid."""
    center = grid.center_index().reshape((-1,) + (1,) * grid.dim)
    src = np.einsum("ab,b...->a...", rot.matrix.T.astype(float),
                    np.indices(grid.shape, dtype=float) - center) + center
    src_int = np.rint(src).astype(int)
    if np.max(np.abs(src - src_int)) > 1e-9:
        return None
    if any(s.min() < 0 or s.max() >= n for s, n in zip(src_int, grid.shape)):
        return None
    return tuple(src_int)


ROTATION_SHAPES = [(5, 5), (6, 6), (6, 9), (7, 4), (4, 4, 4), (5, 5, 5), (5, 5, 8),
                   (4, 7, 4), (6, 5, 5), (3, 4, 5), (5, 8, 5)]


@pytest.mark.parametrize("shape", ROTATION_SHAPES)
def test_rotate_field_matches_float_index_map(shape):
    rng = np.random.default_rng(sum(shape))
    g = eq.Grid.centered(shape, 0.7)
    for l in ((0, 1, 2) if g.dim == 3 else (0, 1)):
        u = eq.TensorField.random(g, l, rng)
        for rot in eq.all_rotations(g.dim):
            src = _float_index_map(g, rot)
            if src is None:
                with pytest.raises(eq.FieldError, match=r"^rotation incompatible with grid "
                                   r"shape \(non-square/cube domain\)$"):
                    eq.rotate_field(u, rot)
                continue
            want = np.einsum("ab,b...->a...", rot.representation(l),
                             u.components[(slice(None),) + src])
            got = eq.rotate_field(u, rot).components
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", ROTATION_SHAPES)
def test_compatible_rotations_match_axis_length_test(shape):
    # a rotation fits the box when each axis keeps the length of the axis it reads
    g = eq.Grid.centered(shape)
    want = []
    for rot in eq.all_rotations(g.dim):
        if all(shape[i] == shape[int(np.argmax(np.abs(rot.matrix[i])))]
               for i in range(g.dim)):
            want.append(rot)
    assert compatible_rotations(g) == want
    assert want == [rot for rot in eq.all_rotations(g.dim)
                    if _float_index_map(g, rot) is not None]


# ---------------------------------------------------------------------------
# EQF format


def test_eqf_round_trip_bitexact(tmp_path):
    rng = np.random.default_rng(21)
    for shape, l in (((6, 7), 1), ((4, 5, 6), 2)):
        g = eq.Grid.centered(shape, spacing=0.75, boundary=eq.PERIODIC)
        u = eq.TensorField.random(g, l, rng)
        path = tmp_path / f"f{len(shape)}_{l}.eqf"
        eq.write_eqf(path, u)
        v, meta = eq.read_eqf(path)
        assert v.grid == u.grid
        assert v.l == u.l
        assert np.array_equal(v.components, u.components)  # bit exact
        assert meta == {}


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eqf_round_trip_property(tmp_path, data):
    # any grid, order and finite values, subnormals and -0.0 included, come back bit for bit
    finite_floats = st.floats(allow_nan=False, allow_infinity=False)
    dim = data.draw(st.sampled_from([2, 3]))
    l = data.draw(st.integers(0, 2 if dim == 3 else 1))
    shape = data.draw(st.lists(st.integers(3, 5), min_size=dim, max_size=dim))
    spacing = data.draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                 min_size=dim, max_size=dim))
    origin = data.draw(st.lists(finite_floats, min_size=dim, max_size=dim))
    g = eq.Grid(shape, spacing, origin, data.draw(st.sampled_from(eq.BOUNDARIES)))
    u = eq.TensorField.random(g, l, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    specials = data.draw(st.lists(finite_floats, max_size=8))
    u.components.flat[:len(specials)] = specials
    path = tmp_path / "f.eqf"
    eq.write_eqf(path, u)
    v, meta = eq.read_eqf(path)
    assert meta == {}
    assert (v.grid.shape, v.grid.boundary, v.l) == (g.shape, g.boundary, l)
    for a, b in ((v.grid.spacing, g.spacing), (v.grid.origin, g.origin)):
        assert np.array(a).tobytes() == np.array(b).tobytes()
    assert v.components.tobytes() == u.components.tobytes()


def test_eqf_header_line_limit_is_4096_bytes(tmp_path):
    u = eq.TensorField.random(eq.Grid.centered((3, 4)), 0, np.random.default_rng(3))
    path = tmp_path / "h.eqf"
    eq.write_eqf(path, u)
    header, payload = path.read_bytes().split(b"\n", 1)
    for size in (4096, 4097):
        pad = b" pad=" + b"x" * (size - len(header) - len(b" pad="))
        path.write_bytes(header + pad + b"\n" + payload)
        if size == 4096:
            v, meta = eq.read_eqf(path)
            assert np.array_equal(v.components, u.components)
            assert len(meta["pad"]) == len(pad) - len(b" pad=")
        else:
            with pytest.raises(eq.FormatError, match="too long"):
                eq.read_eqf(path)


def test_eqf_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.eqf"
    bad.write_bytes(b"not a field\n")
    with pytest.raises(eq.FormatError):
        eq.read_eqf(bad)


def test_eqf_rejects_truncated_payload(tmp_path):
    g = eq.Grid.centered((5, 5))
    u = eq.TensorField.random(g, 0, np.random.default_rng(0))
    path = tmp_path / "t.eqf"
    eq.write_eqf(path, u)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(eq.FormatError):
        eq.read_eqf(path)


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.lists(st.integers(3, 4), min_size=2, max_size=3),
       l=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1),
       at=st.integers(0, 200), byte=st.integers(0x80, 0xFF),
       key=st.sampled_from(["spacing", "origin"]),
       bad=st.sampled_from(["nan", "inf", "-inf"]))
def test_read_eqf_rejects_corrupt_files(tmp_path, shape, l, seed, at, byte, key, bad):
    g = eq.Grid.centered(tuple(shape), spacing=0.5)
    path = tmp_path / "f.eqf"
    eq.write_eqf(path, eq.TensorField.random(g, l, np.random.default_rng(seed)))
    data = path.read_bytes()
    header, payload = data.split(b"\n", 1)
    cut = at % (len(header) + 1)
    tokens = header.decode().split()
    axis = at % g.dim
    for i, tok in enumerate(tokens):
        if tok.startswith(key + "="):
            values = tok.split("=", 1)[1].split(",")
            values[axis] = bad
            tokens[i] = f"{key}=" + ",".join(values)
    corrupt = [data[:n] for n in range(len(data))]   # every truncation
    corrupt.append(header[:cut] + bytes([byte]) + header[cut:] + b"\n" + payload)
    corrupt.append(" ".join(tokens).encode() + b"\n" + payload)
    for blob in corrupt:
        path.write_bytes(blob)
        with pytest.raises(eq.FormatError):
            eq.read_eqf(path)


def test_eqf_header_line_golden():
    g = eq.Grid((5, 4, 3), (0.1, 0.25, 1 / 3), (-0.2, -0.0, 5e-324), eq.PERIODIC)
    assert _header_line(eq.TensorField.zeros(g, 1)) == (
        "EQF1 dim=3 l=1 shape=5,4,3 "
        "spacing=0.10000000000000001,0.25,0.33333333333333331 "
        "origin=-0.20000000000000001,-0,4.9406564584124654e-324 boundary=periodic\n")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(floats=st.lists(st.floats(allow_nan=False)), ints=st.lists(st.integers()))
@example(floats=[-0.0, 5e-324, -2.2250738585072009e-308, 1e308], ints=[0, -1, 2**70])
def test_list_text_round_trip_property(floats, ints):
    # -0.0, subnormals and the infinities come back bit for bit
    back = parse_list(fmt_value(floats), float)
    assert np.array(back).tobytes() == np.array(floats, dtype=float).tobytes()
    assert parse_list(fmt_value(ints), int) == ints
    assert fmt_value([]) == "" and parse_list("", float) == []


def test_parse_list_rejects_empty_items():
    for text in (",", "1,", ",1", "1,,2"):
        with pytest.raises(ValueError):
            parse_list(text, float)


def test_keyvalues_round_trip(tmp_path):
    path = tmp_path / "kv.txt"
    pairs = {"format": "eqfield-test-v1", "alpha": 1.5, "w": "0.2,-0.1"}
    eq.write_keyvalues(path, pairs)
    back = eq.read_keyvalues(path)
    assert back["format"] == "eqfield-test-v1"
    assert float(back["alpha"]) == 1.5
    assert back["w"] == "0.2,-0.1"


def test_normal_generator_draws_seeded_standard_normals():
    # the same seed gives the same field, another seed another; the draws
    # have mean 0 and variance 1 (20,000 of them: 4 standard errors)
    g = eq.Grid.centered((9, 8, 7))
    first = eq.TensorField.random(g, 1, eq.fields.NormalGenerator(3)).components
    again = eq.TensorField.random(g, 1, eq.fields.NormalGenerator(3)).components
    other = eq.TensorField.random(g, 1, eq.fields.NormalGenerator(4)).components
    assert first.shape == (3, 9, 8, 7) and first.dtype == np.float64
    assert np.array_equal(first, again) and not np.array_equal(first, other)
    draws = eq.fields.NormalGenerator(5).standard_normal((100, 200))
    assert abs(np.mean(draws)) < 4 / math.sqrt(draws.size)
    assert abs(np.var(draws) - 1.0) < 4 * math.sqrt(2 / draws.size)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        eq.fields.NormalGenerator(-1)


def test_run_checks_draws_from_seed_zero_by_default():
    u = eq.TensorField.random(eq.Grid.centered((6, 5)), 1, eq.fields.NormalGenerator(1))
    got = [(r.name, r.deviation) for r in eq.run_checks(u)]
    assert got == [(r.name, r.deviation)
                   for r in eq.run_checks(u, eq.fields.NormalGenerator(0))]

import csv
import inspect
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import optitomo.field
import optitomo.mesh
from optitomo.errors import FieldError
from optitomo.field import (
    COEFFICIENTS,
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    parse_descriptor,
    restrict_to_boundary,
    sample_coefficient,
    transfer_boundary_trace,
    write_csv,
    write_element_csv,
    write_field_pgm,
    write_node_csv,
    write_trace_csv,
)
from optitomo.fem import assemble, solve_dirichlet
from optitomo.mesh import TriMesh, generate_disk_mesh, refine_uniform
from optitomo.synth import FLUXES


def test_containers_validate_lengths(mesh_small):
    with pytest.raises(FieldError):
        PiecewiseConstantField(mesh_small, np.ones(3))
    with pytest.raises(FieldError):
        NodalField(mesh_small, np.ones(3))
    with pytest.raises(FieldError):
        BoundaryTrace(mesh_small, np.ones(3))


def test_coefficient_positivity_enforced(mesh_small):
    values = np.ones(mesh_small.n_elements)
    values[5] = 0.0
    with pytest.raises(FieldError):
        sample_coefficient(mesh_small, lambda x, y: np.where(np.arange(x.size) == 5, 0.0, 1.0))
    field = PiecewiseConstantField(mesh_small, values)
    with pytest.raises(FieldError):
        field.require_positive()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_positive_rejects_non_finite(mesh_small, bad):
    values = np.ones(mesh_small.n_elements)
    values[9] = bad
    with pytest.raises(FieldError, match=f"finite and strictly positive; element 9 has value {bad}"):
        PiecewiseConstantField(mesh_small, values).require_positive()


def test_example1_sigma_values(mesh_small):
    field = sample_coefficient(mesh_small, "example1_sigma")
    cen = mesh_small.centroids
    near_center = int(np.argmin(np.hypot(cen[:, 0], cen[:, 1])))
    near_rim = int(np.argmin(np.hypot(cen[:, 0] - 0.8, cen[:, 1])))
    assert field.values[near_center] == 2.0
    assert field.values[near_rim] == 1.0


def test_example2_q_values(mesh_small):
    field = sample_coefficient(mesh_small, "example2_q")
    cen = mesh_small.centroids
    in_d3 = int(np.argmin(np.hypot(cen[:, 0], cen[:, 1] - 0.5)))
    at_center = int(np.argmin(np.hypot(cen[:, 0], cen[:, 1])))
    assert field.values[in_d3] == 3.0
    assert field.values[at_center] == 1.0


def test_constant_descriptor(mesh_small):
    field = sample_coefficient(mesh_small, "constant:1")
    assert np.all(field.values == 1.0)


def test_parse_descriptor_rejects_garbage():
    with pytest.raises(FieldError, match="^unknown coefficient descriptor 'no_such_thing'$"):
        parse_descriptor("no_such_thing")
    with pytest.raises(FieldError, match="^unknown flux descriptor 'constant:1'$"):
        parse_descriptor("constant:1", FLUXES, "flux")
    for text in ("disk:1,2", "constant", "one:1"):
        with pytest.raises(FieldError, match=f"^malformed coefficient descriptor '{text}'$"):
            parse_descriptor(text)


def _non_finite_cases():
    """Each form with nan, inf or -inf in one numeric position and 1 in the others."""
    for forms, noun in ((COEFFICIENTS, "coefficient"), (FLUXES, "flux")):
        for name, factory in forms.items():
            count = len(inspect.signature(factory).parameters)
            for i, bad in itertools.product(range(count), ("nan", "inf", "-inf")):
                numbers = ["1"] * count
                numbers[i] = bad
                yield forms, noun, f"{name}:{','.join(numbers)}"


MALFORMED = {
    **dict.fromkeys(["constant:abc", "disk:0,0,0.5,x,1", "square:0.5,1,", "constant:nan1",
                     "disk:0,0,-0.5,2,1", "disk:0,0,0,2,1", "square:-0.5,2,1", "square:0,2,1"],
                    (COEFFICIENTS, "coefficient")),
    **dict.fromkeys(["sin:x", "offset_sin:10,", "const:", "cos:1,y", "const:nan", "sin:inf",
                     "offset_sin:-inf,1"], (FLUXES, "flux")),
    **{text: (forms, noun) for forms, noun, text in _non_finite_cases()},
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_descriptor_rejects_malformed_numbers(text):
    forms, noun = MALFORMED[text]
    with pytest.raises(FieldError) as caught:
        parse_descriptor(text, forms, noun)
    assert str(caught.value) == f"malformed {noun} descriptor {text!r}"


def test_transfer_identity_on_same_mesh(mesh_small):
    trace = BoundaryTrace(mesh_small, np.sin(3 * mesh_small.boundary_angles))
    back = transfer_boundary_trace(trace, mesh_small)
    assert np.array_equal(back.values, trace.values)


def test_transfer_cosine_second_order(mesh_medium, mesh_small):
    fine_trace = BoundaryTrace(mesh_medium, np.cos(mesh_medium.boundary_angles))
    coarse = transfer_boundary_trace(fine_trace, mesh_small)
    oracle = np.cos(mesh_small.boundary_angles)
    assert np.max(np.abs(coarse.values - oracle)) <= 2e-3


def test_transfer_preserves_constants(mesh_medium, mesh_small):
    fine_trace = BoundaryTrace(mesh_medium, np.full(mesh_medium.n_boundary, 2.5))
    coarse = transfer_boundary_trace(fine_trace, mesh_small)
    assert np.all(coarse.values == 2.5)


# c * R**2 elements with angular multiplier c >= 4 always have an exact ring layout
DISK_MESHES = st.builds(
    lambda multiplier, rings, refine: (refine_uniform if refine else (lambda m: m))(
        generate_disk_mesh(multiplier * rings * rings, multiplier)),
    st.integers(4, 9), st.integers(2, 12), st.booleans(),
)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(fine=DISK_MESHES, coarse=DISK_MESHES, const=st.floats(-1e3, 1e3),
       alpha=st.floats(-10.0, 10.0), beta=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_transfer_is_exact_on_constants_and_linear(fine, coarse, const, alpha, beta, seed):
    # between any two disk meshes, refined ones included (their boundary
    # node ids are out of angular order)
    flat = transfer_boundary_trace(BoundaryTrace(fine, np.full(fine.n_boundary, const)), coarse)
    assert np.max(np.abs(flat.values - const)) <= 1e-15 * abs(const)
    rng = np.random.default_rng(seed)
    f, h = rng.standard_normal((2, fine.n_boundary))
    combined = transfer_boundary_trace(BoundaryTrace(fine, alpha * f + beta * h), coarse).values
    tf, th = (transfer_boundary_trace(BoundaryTrace(fine, v), coarse).values for v in (f, h))
    scale = (abs(alpha) + abs(beta)) * max(np.max(np.abs(f)), np.max(np.abs(h)))
    assert np.max(np.abs(combined - (alpha * tf + beta * th))) <= 1e-14 * scale


def test_restrict_zero_and_linear(mesh_small):
    zero = NodalField(mesh_small, np.zeros(mesh_small.n_nodes))
    assert np.all(restrict_to_boundary(zero).values == 0.0)
    linear = NodalField(mesh_small, mesh_small.nodes[:, 0])
    trace = restrict_to_boundary(linear)
    # picks nodal values exactly; on the unit circle x1 = cos(theta)
    assert np.array_equal(trace.values, mesh_small.nodes[mesh_small.boundary_nodes, 0])
    np.testing.assert_allclose(trace.values, np.cos(mesh_small.boundary_angles),
                               rtol=0, atol=1e-14)


def test_restrict_dirichlet_round_trip(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    f = BoundaryTrace(mesh_small, np.cos(2 * mesh_small.boundary_angles))
    u = solve_dirichlet(sys, f)
    assert np.array_equal(restrict_to_boundary(u).values, f.values)


# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the infinities, nan, and integers stored as floats.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.0, 3e16, 0.1, -1 / 3]


def _special_values(n, seed):
    values = np.random.default_rng(seed).standard_normal(n)
    values[: len(SPECIAL)] = SPECIAL
    return values


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _reference_element_csv(field, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("element_index,value\n")
        for i, v in enumerate(field.values):
            fh.write(f"{i},{v:.17g}\n")


def _reference_node_csv(field, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node_index,value\n")
        for i, v in enumerate(field.values):
            fh.write(f"{i},{v:.17g}\n")


def _reference_trace_csv(trace, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node_index,value\n")
        for n, v in zip(trace.mesh.boundary_nodes, trace.values):
            fh.write(f"{n},{v:.17g}\n")


def test_write_csv_matches_fstring_rows(tmp_path):
    ints = np.arange(-3, len(SPECIAL) - 3)
    floats = np.array(SPECIAL)
    flags = np.arange(len(SPECIAL)) % 3 == 0
    names = [f"name_{i}" for i in range(len(SPECIAL))]
    write_csv(tmp_path / "new.csv", "i,x,flag,name", [ints, floats, flags, names])
    expected = "i,x,flag,name\n" + "".join(
        f"{i},{x:.17g},{int(b)},{s}\n" for i, x, b, s in zip(ints, floats, flags, names)
    )
    assert (tmp_path / "new.csv").read_bytes() == expected.encode("ascii")
    # Python scalars in lists format like numpy arrays of the same kind.
    write_csv(tmp_path / "lists.csv", "i,x,flag,name",
              [ints.tolist(), floats.tolist(), flags.tolist(), names])
    assert (tmp_path / "lists.csv").read_bytes() == expected.encode("ascii")
    write_csv(tmp_path / "empty.csv", "a,b", [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
    write_csv(tmp_path / "no_rows.csv", "a,b", [[], []])
    assert (tmp_path / "no_rows.csv").read_bytes() == b"a,b\n"


def test_write_csv_matches_fstring_rows_across_blocks(tmp_path, monkeypatch):
    # 10 rows in blocks of 4: each column's widest cell, and its one negative
    # number, lies in the middle block only, and the last block is partial
    monkeypatch.setattr(optitomo.mesh, "TEXT_BLOCK_ROWS", 4)
    ints = np.arange(10)
    ints[5] = -(2**62)
    floats = np.full(10, 0.5)
    floats[6] = -2.2250738585072009e-308
    flags = np.arange(10) % 4 == 1
    names = ["n"] * 10
    names[4] = "wide name"
    write_csv(tmp_path / "x.csv", "i,x,flag,name", [ints, floats, flags, names])
    expected = "i,x,flag,name\n" + "".join(
        f"{i},{x:.17g},{int(b)},{s}\n" for i, x, b, s in zip(ints, floats, flags, names)
    )
    assert (tmp_path / "x.csv").read_bytes() == expected.encode("ascii")


def test_write_csv_refuses_unequal_columns(tmp_path):
    # columns are never truncated to the shortest; nothing is written
    with pytest.raises(FieldError, match=r"unequal length \[3, 1\]"):
        write_csv(tmp_path / "x.csv", "a,b", [[1, 2, 3], [1.0]])
    assert not (tmp_path / "x.csv").exists()


def test_field_writers_match_reference_bytes(tmp_path, mesh_small):
    elem = PiecewiseConstantField(mesh_small, _special_values(mesh_small.n_elements, 1))
    node = NodalField(mesh_small, _special_values(mesh_small.n_nodes, 2))
    trace = BoundaryTrace(mesh_small, _special_values(mesh_small.n_boundary, 3))
    for write, reference, data in (
        (write_element_csv, _reference_element_csv, elem),
        (write_node_csv, _reference_node_csv, node),
        (write_trace_csv, _reference_trace_csv, trace),
    ):
        write(data, tmp_path / "new.csv")
        reference(data, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_round_trips(tmp_path, mesh_small):
    elem = PiecewiseConstantField(mesh_small, _special_values(mesh_small.n_elements, 4))
    node = NodalField(mesh_small, _special_values(mesh_small.n_nodes, 5))
    trace = BoundaryTrace(mesh_small, _special_values(mesh_small.n_boundary, 6))
    write_element_csv(elem, tmp_path / "e.csv")
    write_node_csv(node, tmp_path / "n.csv")
    write_trace_csv(trace, tmp_path / "t.csv")
    for name, keys, values in (
        ("e.csv", np.arange(mesh_small.n_elements), elem.values),
        ("n.csv", np.arange(mesh_small.n_nodes), node.values),
        ("t.csv", mesh_small.boundary_nodes, trace.values),
    ):
        rows = list(csv.reader((tmp_path / name).read_text().splitlines()))[1:]
        assert [int(r[0]) for r in rows] == keys.tolist()
        assert np.array_equal(_bits([float(r[1]) for r in rows]), _bits(values))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, width=64), max_size=40),
       flags=st.lists(st.booleans(), min_size=40, max_size=40))
def test_write_read_round_trip_is_exact(tmp_path_factory, values, flags):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    n = len(values)
    write_csv(path, "i,x,flag", [np.arange(n), np.array(values, dtype=float), flags[:n]])
    header, *rows = csv.reader(path.read_text().splitlines())
    assert header == ["i", "x", "flag"]
    assert [int(r[0]) for r in rows] == list(range(n))
    assert np.array_equal(_bits([float(r[1]) for r in rows]), _bits(values))
    assert [r[2] == "1" for r in rows] == flags[:n]


def test_pgm_emitter_shape_and_background(tmp_path, mesh_small):
    field = sample_coefficient(mesh_small, "example1_sigma")
    path = tmp_path / "field.pgm"
    write_field_pgm(field, path, resolution=64)
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"64 64"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(64, 64)
    assert img[0, 0] == 0  # corner is outside the disk
    assert img[32, 32] > 0  # center is inside
    # rerun is byte-identical
    write_field_pgm(field, tmp_path / "again.pgm", resolution=64)
    assert (tmp_path / "again.pgm").read_bytes() == raw


def _reference_pgm(field, resolution):
    """The rasterizer as a plain loop: elements painted one by one, in index order."""
    mesh = field.mesh
    img = np.zeros((resolution, resolution), dtype=np.uint8)
    vmin = float(field.values.min())
    vmax = float(field.values.max())
    span = vmax - vmin
    if span > 0.0:
        gray = (1.0 + np.round(254.0 * (field.values - vmin) / span)).astype(np.uint8)
    else:
        gray = np.full(mesh.n_elements, 255, dtype=np.uint8)
    h = 2.0 / resolution
    centers = -1.0 + (np.arange(resolution) + 0.5) * h
    p = mesh.nodes[mesh.elements]
    for e in range(mesh.n_elements):
        tri = p[e]
        xlo = int(np.clip(np.floor((tri[:, 0].min() + 1.0) / h), 0, resolution - 1))
        xhi = int(np.clip(np.ceil((tri[:, 0].max() + 1.0) / h), 0, resolution - 1))
        ylo = int(np.clip(np.floor((tri[:, 1].min() + 1.0) / h), 0, resolution - 1))
        yhi = int(np.clip(np.ceil((tri[:, 1].max() + 1.0) / h), 0, resolution - 1))
        gx, gy = np.meshgrid(centers[xlo:xhi + 1], centers[ylo:yhi + 1])
        (x0, y0), (x1, y1), (x2, y2) = tri
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((gx - x0) * (y2 - y0) - (gy - y0) * (x2 - x0)) / det
        l2 = ((gy - y0) * (x1 - x0) - (gx - x0) * (y1 - y0)) / det
        inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
        rows, cols = np.nonzero(inside)
        img[(resolution - 1) - (ylo + rows), xlo + cols] = gray[e]
    return f"P5\n{resolution} {resolution}\n255\n".encode("ascii") + img.tobytes()


@pytest.mark.parametrize("resolution", [64, 512])
@pytest.mark.parametrize("level", [0, 1])
def test_pgm_matches_per_element_reference(tmp_path, mesh_chain, level, resolution):
    mesh = mesh_chain[level]
    rng = np.random.default_rng(level)
    fields = {
        "random": PiecewiseConstantField(mesh, rng.standard_normal(mesh.n_elements)),
        "constant": sample_coefficient(mesh, "constant:3"),
        "example1_sigma": sample_coefficient(mesh, "example1_sigma"),
    }
    for name, field in fields.items():
        path = tmp_path / f"{name}.pgm"
        write_field_pgm(field, path, resolution=resolution)
        assert path.read_bytes() == _reference_pgm(field, resolution), name


@pytest.mark.parametrize("elements", [[(0, 1, 2), (0, 2, 3)], [(0, 2, 3), (0, 1, 2)]])
def test_pgm_shared_edge_takes_highest_element_index(tmp_path, elements):
    # Two triangles split the square [-1, 1]^2 along y = x, so at resolution 4
    # the pixel centres (-0.75, -0.75), ..., (0.75, 0.75) lie on the shared edge.
    nodes = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    mesh = TriMesh(nodes, elements, [0, 1, 2, 3])
    field = PiecewiseConstantField(mesh, [1.0, 2.0])
    path = tmp_path / "tie.pgm"
    write_field_pgm(field, path, resolution=4)
    img = np.frombuffer(path.read_bytes()[-16:], dtype=np.uint8).reshape(4, 4)
    assert np.all(np.diag(img[::-1]) == 255)  # gray of element 1, the last one
    assert path.read_bytes() == _reference_pgm(field, 4)


@pytest.mark.parametrize("offset", [-1e-7, 0.0, 1e-7])
def test_pgm_horizontal_edges_beside_a_row_centre(tmp_path, offset):
    # a quad with a horizontal bottom and top edge, each within 1e-7 pixel
    # of a row centre: outside the quad by that much, a row is not painted
    h = 2.0 / 8
    bottom, top = -1.0 + 2.5 * h + offset * h, -1.0 + 5.5 * h - offset * h
    nodes = [(-0.9, bottom), (0.9, bottom), (0.9, top), (-0.9, top)]
    mesh = TriMesh(nodes, [(0, 1, 2), (0, 2, 3)], [0, 1, 2, 3])
    field = PiecewiseConstantField(mesh, [1.0, 2.0])
    path = tmp_path / "quad.pgm"
    write_field_pgm(field, path, resolution=8)
    assert path.read_bytes() == _reference_pgm(field, 8)
    img = np.frombuffer(path.read_bytes()[-64:], dtype=np.uint8).reshape(8, 8)
    assert np.count_nonzero(img.any(axis=1)) == (2 if offset > 0 else 4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(-1000, 1000), st.integers(0, 5)), max_size=12))
def test_runs_lists_each_run_in_order(runs):
    # empty runs, a leading or trailing one included, contribute nothing
    first = np.array([f for f, _ in runs], dtype=np.int64)
    count = np.array([n for _, n in runs], dtype=np.int64)
    expected = [f + i for f, n in runs for i in range(n)]
    assert optitomo.field._runs(first, count).tolist() == expected


def _write_pgm_counting_exact_tests(field, path, resolution):
    """Write the PGM; return how many points went to the exact inside test."""
    exact = optitomo.field._barycentric_mask
    with mock.patch.object(optitomo.field, "_barycentric_mask", wraps=exact) as spy:
        write_field_pgm(field, path, resolution=resolution)
    return sum(np.size(call.args[1]) for call in spy.call_args_list)


def _pgm_mesh(multiplier, rings, layout, resolution, seed):
    """A disk mesh whose interior nodes are kept, jittered, or moved onto the nearest pixel centres."""
    mesh = generate_disk_mesh(multiplier * rings * rings, multiplier)
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    if layout == "jittered":
        step = 0.3 / np.sqrt(mesh.n_elements)
        nodes[interior] += np.random.default_rng(seed).uniform(-step, step, (interior.size, 2))
    elif layout == "on_centres":
        h = 2.0 / resolution
        nodes[interior] = -1.0 + (np.floor((nodes[interior] + 1.0) / h) + 0.5) * h
    return TriMesh(nodes, mesh.elements, mesh.boundary_nodes)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(multiplier=st.integers(4, 9), rings=st.integers(2, 10),
       layout=st.sampled_from(["plain", "jittered", "on_centres"]), refine=st.booleans(),
       resolution=st.integers(1, 600), seed=st.integers(0, 2**16))
@example(multiplier=8, rings=6, layout="on_centres", refine=False, resolution=64, seed=0)
@example(multiplier=4, rings=5, layout="on_centres", refine=True, resolution=301, seed=0)
def test_pgm_row_spans_match_per_element_reference(tmp_path_factory, multiplier, rings, layout, refine,
                                                    resolution, seed):
    # the spans claim every pixel the exact test accepts and no other, and
    # on nodes at pixel centres the exact test decides the centres on edges
    mesh = _pgm_mesh(multiplier, rings, layout, resolution, seed)
    if not np.all(mesh.areas > 0.0):  # a fine mesh can fold when snapped to a coarse pixel grid
        mesh = _pgm_mesh(multiplier, rings, "plain", resolution, seed)
        layout = "plain"
    if refine:
        mesh = refine_uniform(mesh)
    field = PiecewiseConstantField(mesh, np.random.default_rng(seed).standard_normal(mesh.n_elements))
    path = tmp_path_factory.mktemp("pgm") / "field.pgm"
    tested = _write_pgm_counting_exact_tests(field, path, resolution)
    assert path.read_bytes() == _reference_pgm(field, resolution)
    if layout == "on_centres" and resolution > 1:
        assert tested > 0


def test_pgm_sends_few_points_to_the_exact_test(tmp_path, mesh_medium):
    # a bounding-box rasterizer tests 526 795 (element, pixel) pairs here
    field = sample_coefficient(mesh_medium, "example1_sigma")
    assert _write_pgm_counting_exact_tests(field, tmp_path / "field.pgm", 512) <= 0.05 * 512 ** 2


def test_pgm_peak_memory_does_not_grow_with_the_mesh(tmp_path):
    # at 65 536 elements the writer's peak is a few copies of its 512 x 512
    # int32 owner image, with no array of the mesh's size beside it
    mesh = generate_disk_mesh(65536)
    field = PiecewiseConstantField(mesh, np.arange(mesh.n_elements, dtype=float))
    tracemalloc.start()
    try:
        write_field_pgm(field, tmp_path / "field.pgm", resolution=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 4 * 512 ** 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_refuses_non_finite_values(tmp_path, mesh_small, bad):
    values = np.ones(mesh_small.n_elements)
    values[7] = bad
    path = tmp_path / "field.pgm"
    with pytest.raises(FieldError, match=f"PGM field must be finite; element 7 has value {bad}"):
        write_field_pgm(PiecewiseConstantField(mesh_small, values), path)
    assert not path.exists()


@pytest.mark.parametrize("resolution", [0, -4, np.int64(0), 2.0, 64.5, True, "64", None])
def test_pgm_refuses_a_resolution_that_is_not_a_positive_int(tmp_path, mesh_small, resolution):
    path = tmp_path / "field.pgm"
    with pytest.raises(FieldError, match="PGM resolution must be a positive int"):
        write_field_pgm(sample_coefficient(mesh_small, "one"), path, resolution=resolution)
    assert not path.exists()


def test_pgm_accepts_a_numpy_integer_resolution(tmp_path, mesh_small):
    field = sample_coefficient(mesh_small, "example1_sigma")
    write_field_pgm(field, tmp_path / "numpy.pgm", resolution=np.int32(64))
    write_field_pgm(field, tmp_path / "int.pgm", resolution=64)
    assert (tmp_path / "numpy.pgm").read_bytes() == (tmp_path / "int.pgm").read_bytes()


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, 1e307), (-np.finfo(float).max, np.finfo(float).max)])
def test_pgm_maps_a_range_that_overflows(tmp_path, mesh_small, low, high):
    # max - min, or 254 (max - min), is not finite, yet the map stays linear
    values = np.full(mesh_small.n_elements, low)
    values[1::2] = high
    values[2::4] = 0.5 * low + 0.5 * high
    path = tmp_path / "field.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_field_pgm(PiecewiseConstantField(mesh_small, values), path, resolution=64)
    reference = np.where(values == low, 1, np.where(values == high, 255, 128)).astype(np.uint8)
    flat = PiecewiseConstantField(mesh_small, reference.astype(float))
    write_field_pgm(flat, tmp_path / "reference.pgm", resolution=64)
    assert path.read_bytes() == (tmp_path / "reference.pgm").read_bytes()

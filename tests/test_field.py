import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optitomo.errors import FieldError
from optitomo.field import (
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    parse_descriptor,
    read_csv,
    read_element_csv,
    read_node_csv,
    read_trace_csv,
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
from optitomo.mesh import TriMesh


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
    with pytest.raises(FieldError):
        parse_descriptor("no_such_thing")
    with pytest.raises(FieldError):
        parse_descriptor("disk:1,2")


@pytest.mark.parametrize("text", ["constant:abc", "disk:0,0,0.5,x,1", "square:0.5,1,", "constant:nan1"])
def test_parse_descriptor_rejects_malformed_numbers(text):
    with pytest.raises(FieldError, match="malformed coefficient descriptor"):
        parse_descriptor(text)


def test_transfer_identity_on_same_mesh(mesh_small):
    trace = BoundaryTrace(mesh_small, np.sin(3 * mesh_small.boundary_angles))
    back = transfer_boundary_trace(mesh_small, trace, mesh_small)
    assert np.array_equal(back.values, trace.values)


def test_transfer_cosine_second_order(mesh_medium, mesh_small):
    fine_trace = BoundaryTrace(mesh_medium, np.cos(mesh_medium.boundary_angles))
    coarse = transfer_boundary_trace(mesh_medium, fine_trace, mesh_small)
    oracle = np.cos(mesh_small.boundary_angles)
    assert np.max(np.abs(coarse.values - oracle)) <= 2e-3


def test_transfer_preserves_constants(mesh_medium, mesh_small):
    fine_trace = BoundaryTrace(mesh_medium, np.full(mesh_medium.n_boundary, 2.5))
    coarse = transfer_boundary_trace(mesh_medium, fine_trace, mesh_small)
    assert np.all(coarse.values == 2.5)


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
    assert np.array_equal(_bits(read_element_csv(mesh_small, tmp_path / "e.csv").values),
                          _bits(elem.values))
    assert np.array_equal(_bits(read_node_csv(mesh_small, tmp_path / "n.csv").values),
                          _bits(node.values))
    assert np.array_equal(_bits(read_trace_csv(mesh_small, tmp_path / "t.csv").values),
                          _bits(trace.values))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, width=64), max_size=40),
       flags=st.lists(st.booleans(), min_size=40, max_size=40))
def test_write_read_round_trip_is_exact(tmp_path_factory, values, flags):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    n = len(values)
    write_csv(path, "i,x,flag", [np.arange(n), np.array(values, dtype=float), flags[:n]])
    rows = read_csv(path, "i,x,flag")
    assert [int(r[0]) for r in rows] == list(range(n))
    assert np.array_equal(_bits([float(r[1]) for r in rows]), _bits(values))
    assert [r[2] == "1" for r in rows] == flags[:n]


def _element_rows(mesh, tmp_path, rows):
    path = tmp_path / "e.csv"
    lines = [f"{i},{v:.17g}" for i, v in enumerate(np.arange(mesh.n_elements, dtype=float))]
    lines += rows
    path.write_text("element_index,value\n" + "".join(line + "\n" for line in lines))
    return path


def test_index_reader_rejects_negative_index(tmp_path, mesh_small):
    path = _element_rows(mesh_small, tmp_path, ["-1,999"])
    with pytest.raises(FieldError, match="unexpected index -1"):
        read_element_csv(mesh_small, path)


def test_index_reader_rejects_out_of_range_index(tmp_path, mesh_small):
    path = _element_rows(mesh_small, tmp_path, [f"{mesh_small.n_elements},1"])
    with pytest.raises(FieldError, match="unexpected index"):
        read_element_csv(mesh_small, path)


def test_index_reader_rejects_duplicate_index(tmp_path, mesh_small):
    path = _element_rows(mesh_small, tmp_path, ["7,999"])
    with pytest.raises(FieldError, match="index 7 appears more than once"):
        read_element_csv(mesh_small, path)


def test_index_reader_rejects_missing_index(tmp_path, mesh_small):
    path = _element_rows(mesh_small, tmp_path, [])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + lines[5:]) + "\n")  # drops element 3
    with pytest.raises(FieldError, match="index 3 is missing"):
        read_element_csv(mesh_small, path)


def test_index_reader_reads_nan_as_a_value(tmp_path, mesh_small):
    path = _element_rows(mesh_small, tmp_path, [])
    path.write_text(path.read_text().replace("\n5,5\n", "\n5,nan\n"))
    values = read_element_csv(mesh_small, path).values
    assert np.isnan(values[5])
    assert np.array_equal(np.delete(values, 5), np.delete(np.arange(mesh_small.n_elements), 5))


def test_trace_reader_rejects_interior_node(tmp_path, mesh_small):
    trace = BoundaryTrace(mesh_small, np.zeros(mesh_small.n_boundary))
    write_trace_csv(trace, tmp_path / "t.csv")
    interior = np.setdiff1d(np.arange(mesh_small.n_nodes), mesh_small.boundary_nodes)[0]
    text = (tmp_path / "t.csv").read_text()
    (tmp_path / "t.csv").write_text(text + f"{interior},1\n")
    with pytest.raises(FieldError, match=f"unexpected index {interior}"):
        read_trace_csv(mesh_small, tmp_path / "t.csv")


@pytest.mark.parametrize("body, message", [
    ("node_index,value\n0,1\n", "unexpected CSV header"),
    ("element_index,value\n0,1,2\n", "line 2: expected 2 fields, got 3"),
    ("element_index,value\n0,abc\n", "malformed value"),
    ("element_index,value\n0.5,1\n", "malformed value"),
    ("element_index,value\n0,1\u00e9\n", "malformed value"),
    ("element_index,valu\u00e9\n0,1\n", "unexpected CSV header"),
])
def test_csv_reader_rejects_malformed_files(tmp_path, mesh_small, body, message):
    (tmp_path / "bad.csv").write_bytes(body.encode("utf-8"))
    with pytest.raises(FieldError, match=message):
        read_element_csv(mesh_small, tmp_path / "bad.csv")


def test_read_csv_returns_split_rows(tmp_path):
    write_csv(tmp_path / "a.csv", "x,name", [[1.5, -0.0], ["a", "b"]])
    assert read_csv(tmp_path / "a.csv", "x,name") == [["1.5", "a"], ["-0", "b"]]


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
    mesh = TriMesh(nodes, elements, [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    field = PiecewiseConstantField(mesh, [1.0, 2.0])
    path = tmp_path / "tie.pgm"
    write_field_pgm(field, path, resolution=4)
    img = np.frombuffer(path.read_bytes()[-16:], dtype=np.uint8).reshape(4, 4)
    assert np.all(np.diag(img[::-1]) == 255)  # gray of element 1, the last one
    assert path.read_bytes() == _reference_pgm(field, 4)

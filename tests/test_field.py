import numpy as np
import pytest

from optitomo.errors import FieldError
from optitomo.field import (
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    parse_descriptor,
    read_element_csv,
    read_node_csv,
    read_trace_csv,
    restrict_to_boundary,
    sample_coefficient,
    transfer_boundary_trace,
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


def test_csv_round_trips(tmp_path, mesh_small):
    rng = np.random.default_rng(3)
    elem = PiecewiseConstantField(mesh_small, rng.standard_normal(mesh_small.n_elements))
    node = NodalField(mesh_small, rng.standard_normal(mesh_small.n_nodes))
    trace = BoundaryTrace(mesh_small, rng.standard_normal(mesh_small.n_boundary))
    write_element_csv(elem, tmp_path / "e.csv")
    write_node_csv(node, tmp_path / "n.csv")
    write_trace_csv(trace, tmp_path / "t.csv")
    assert np.array_equal(read_element_csv(mesh_small, tmp_path / "e.csv").values, elem.values)
    assert np.array_equal(read_node_csv(mesh_small, tmp_path / "n.csv").values, node.values)
    assert np.array_equal(read_trace_csv(mesh_small, tmp_path / "t.csv").values, trace.values)


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

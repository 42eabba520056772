import numpy as np
import pytest

from optitomo.errors import MeshError
from optitomo.mesh import (
    Partition,
    TriMesh,
    generate_disk_mesh,
    read_mesh,
    refine_uniform,
    subdomain_partition,
    write_mesh,
)


@pytest.mark.parametrize(
    "target, lo, hi",
    [(1016, 864, 1168), (4064, 3455, 4674), (254, 216, 292)],
)
def test_generate_counts_within_band(target, lo, hi):
    mesh = generate_disk_mesh(target)
    assert lo <= mesh.n_elements <= hi


@pytest.mark.parametrize("target", [254, 1016, 4064])
def test_generate_positive_areas_and_disk_area(target):
    mesh = generate_disk_mesh(target)
    assert np.all(mesh.signed_areas > 0.0)
    assert abs(mesh.areas.sum() - np.pi) <= 0.02 * np.pi


def test_generate_rejects_tiny_target():
    with pytest.raises(MeshError):
        generate_disk_mesh(15)


def test_generate_validates_invariants(mesh_small):
    mesh_small.validate()
    radii = np.linalg.norm(mesh_small.nodes[mesh_small.boundary_nodes], axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 2e-12
    assert np.all(np.diff(mesh_small.boundary_angles) > 0.0)


def test_refine_quadruples_exactly(mesh_small):
    refined = refine_uniform(mesh_small)
    assert refined.n_elements == 4 * mesh_small.n_elements
    again = refine_uniform(refined)
    assert again.n_elements == 16 * mesh_small.n_elements


def test_refine_snaps_boundary_and_stays_valid(mesh_chain):
    for mesh in mesh_chain[1:]:
        mesh.validate()
        radii = np.linalg.norm(mesh.nodes[mesh.boundary_nodes], axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 2e-12


def _arrays(mesh):
    """Writable copies of (nodes, elements, boundary_nodes, boundary_edges)."""
    return (mesh.nodes.copy(), mesh.elements.copy(), mesh.boundary_nodes.copy(),
            mesh.boundary_edges.copy())


def test_validate_rejects_nonexistent_node(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    for bad in (mesh_small.n_nodes, -1):
        elements[7, 1] = bad
        with pytest.raises(MeshError, match="^element references a nonexistent node$"):
            TriMesh(nodes, elements, bn, be).validate()


def test_validate_rejects_flipped_element(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    elements[5, [1, 2]] = elements[5, [2, 1]]
    with pytest.raises(MeshError, match=r"^degenerate triangulation: element 5 has signed area -"):
        TriMesh(nodes, elements, bn, be).validate()


def test_validate_rejects_edge_shared_by_three_elements(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    a, b, _ = elements[0]
    # A new node on the same side of edge (a, b) as element 0 gives a third,
    # positively oriented element on that interior edge.
    nodes = np.vstack((nodes, mesh_small.centroids[0]))
    elements = np.vstack((elements, (a, b, mesh_small.n_nodes)))
    mesh = TriMesh(nodes, elements, bn, be)
    assert np.all(mesh.signed_areas > 0.0)
    with pytest.raises(MeshError, match="^an edge is shared by more than two elements$"):
        mesh.validate()


def test_validate_compares_boundary_edges_as_a_set(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    message = "^declared boundary edges do not match single-element edges$"
    with pytest.raises(MeshError, match=message):
        TriMesh(nodes, elements, bn, be[:-1]).validate()
    interior = elements[0, :2]
    with pytest.raises(MeshError, match=message):
        TriMesh(nodes, elements, bn, np.vstack((be, interior))).validate()
    # Orientation and repetition do not matter: this declares the same edge set.
    TriMesh(nodes, elements, bn, np.vstack((be, be[3, ::-1]))).validate()


def test_validate_rejects_boundary_node_off_circle(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    nodes[bn[4]] *= 1.0 + 1e-9
    with pytest.raises(MeshError, match="^a boundary node is off the unit circle beyond tolerance$"):
        TriMesh(nodes, elements, bn, be).validate()


def test_validate_rejects_unsorted_boundary_nodes(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    bn[[2, 3]] = bn[[3, 2]]
    with pytest.raises(MeshError, match="^boundary nodes are not strictly sorted by angle$"):
        TriMesh(nodes, elements, bn, be).validate()


def test_validate_rejects_boundary_edges_off_the_angular_cycle(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    # Still sorted and on the circle, but skipping a node breaks the cycle.
    with pytest.raises(MeshError, match="^boundary edges do not form the angular cycle$"):
        TriMesh(nodes, elements, np.delete(bn, 3), be).validate()


def test_partition_single_cell_matches_centroid_scan(mesh_small):
    part = subdomain_partition(mesh_small, 0.5, 1)
    cen = mesh_small.centroids
    inside = np.hypot(cen[:, 0], cen[:, 1]) < 0.5
    assert np.array_equal(part.labels == 1, inside)
    assert np.array_equal(part.labels == 0, ~inside)


def test_partition_eight_sectors_on_aligned_paper_mesh():
    mesh = generate_disk_mesh(1016, angular_multiplier=8)
    part = subdomain_partition(mesh, 0.5, 8)
    # brute-force oracle: recount each sector from the centroids
    cen = mesh.centroids
    r = np.hypot(cen[:, 0], cen[:, 1])
    theta = np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2 * np.pi)
    areas = []
    for j in range(1, 9):
        oracle = (r < 0.5) & (theta >= (j - 1) * np.pi / 4) & (theta < j * np.pi / 4)
        assert np.array_equal(part.labels == j, oracle)
        area = part.cell_area(j)
        assert area > 0.0
        areas.append(area)
    mean = np.mean(areas)
    assert np.max(np.abs(np.array(areas) - mean)) <= 0.25 * mean
    assert sum(areas) == pytest.approx(part.omega_area)


def test_partition_labels_cover_omega_once(mesh_small_aligned):
    part = subdomain_partition(mesh_small_aligned, 0.5, 4)
    inside = np.hypot(*mesh_small_aligned.centroids.T) < 0.5
    assert np.array_equal(part.omega_mask, inside)
    counts = np.bincount(part.labels, minlength=5)
    assert counts[1:].sum() == inside.sum()


def test_partition_too_many_cells_errors(mesh_small_aligned):
    omega_count = int((np.hypot(*mesh_small_aligned.centroids.T) < 0.2).sum())
    with pytest.raises(MeshError):
        subdomain_partition(mesh_small_aligned, 0.2, omega_count + 8)


def test_partition_rejects_bad_radius(mesh_small):
    with pytest.raises(MeshError):
        subdomain_partition(mesh_small, 1.5, 2)


def test_partition_rejects_disconnected_cells(mesh_small):
    labels = np.zeros(mesh_small.n_elements, dtype=np.int64)
    labels[0] = 1
    far = int(np.argmax(np.hypot(*mesh_small.centroids.T)))
    labels[far] = 1
    with pytest.raises(MeshError):
        Partition(mesh_small, labels, 1)


def test_mesh_file_round_trip(tmp_path, mesh_small):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh_small, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh_small.nodes)
    assert np.array_equal(back.elements, mesh_small.elements)
    assert np.array_equal(back.boundary_nodes, mesh_small.boundary_nodes)
    assert np.array_equal(back.boundary_edges, mesh_small.boundary_edges)

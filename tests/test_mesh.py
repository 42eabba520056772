import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def test_validate_rejects_boundary_edge_beyond_node_range(mesh_small):
    nodes, elements, bn, be = _arrays(mesh_small)
    # With keys lo * (n + 1) + hi, the declared edge (u - 1, n + v + 1) has the
    # key of the real boundary edge (u, v); it names a node that does not exist.
    u, v = sorted(be[0])
    be[0] = (u - 1, mesh_small.n_nodes + v + 1)
    with pytest.raises(MeshError, match="^declared boundary edges do not match single-element edges$"):
        TriMesh(nodes, elements, bn, be).validate()


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


@pytest.mark.parametrize("section, row, bad", [
    ("nodes", 0, "0 1.0 zero\n"),      # non-numeric field
    ("nodes", 0, "0 1.0\n"),           # too few fields
    ("nodes", 1, "2 0.0 1.0\n"),       # node index off its row position
    ("elements", 1, "0 0 1 2\n"),      # element index off its row position
])
def test_read_mesh_rejects_malformed_rows(tmp_path, mesh_small, section, row, bad):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh_small, path)
    lines = path.read_text().splitlines(keepends=True)
    line = lines.index(f"# {section}\n") + 2 + row    # 1-based file line of the row
    lines[line - 1] = bad
    path.write_text("".join(lines))
    with pytest.raises(MeshError, match=f"mesh.txt, line {line}: malformed {section} row"):
        read_mesh(path)


def test_mesh_file_round_trip(tmp_path, mesh_small):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh_small, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh_small.nodes)
    assert np.array_equal(back.elements, mesh_small.elements)
    assert np.array_equal(back.boundary_nodes, mesh_small.boundary_nodes)
    assert np.array_equal(back.boundary_edges, mesh_small.boundary_edges)


# The loops below are the mesh layer as it was written before it was
# vectorized; the tests require the array code to reproduce them exactly.

def _reference_sew_rings(inner, outer):
    m, n = len(inner), len(outer)
    tris = []
    t = s = 0
    while t < m or s < n:
        adv_inner = (t + 1) / m
        adv_outer = (s + 1) / n
        if t < m and (s >= n or adv_inner <= adv_outer):
            tris.append((int(inner[t % m]), int(outer[s % n]), int(inner[(t + 1) % m])))
            t += 1
        else:
            tris.append((int(outer[s % n]), int(outer[(s + 1) % n]), int(inner[t % m])))
            s += 1
    return tris


def _reference_elements(mesh):
    """Elements of a generated mesh, rebuilt from its rings: c * i nodes on ring i."""
    c = int(np.any(mesh.elements == 0, axis=1).sum())
    rings = mesh.n_boundary // c
    starts = [1 + c * i * (i - 1) // 2 for i in range(1, rings + 2)]
    ring_ids = [np.arange(starts[i], starts[i + 1]) for i in range(rings)]
    tris = [(0, int(ring_ids[0][t]), int(ring_ids[0][(t + 1) % c])) for t in range(c)]
    for inner, outer in zip(ring_ids, ring_ids[1:]):
        tris.extend(_reference_sew_rings(inner, outer))
    return np.asarray(tris, dtype=np.int64)


def _reference_refine(mesh):
    """(nodes, elements, boundary_nodes, boundary_edges) of the refined mesh."""
    boundary = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in mesh.boundary_edges}
    new_nodes = []
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            p = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            if key in boundary:
                p = p / np.linalg.norm(p)
            new_nodes.append(p)
            midpoint[key] = mesh.n_nodes + len(midpoint)
        return midpoint[key]

    tris = []
    for a, b, c in mesh.elements.tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend(((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)))
    nodes = np.vstack([mesh.nodes] + new_nodes)
    elements = np.asarray(tris, dtype=np.int64)
    counts = {}
    for a, b, c in tris:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    bn = np.asarray(sorted({i for key, n in counts.items() if n == 1 for i in key}), dtype=np.int64)
    bn = bn[np.argsort(np.mod(np.arctan2(nodes[bn, 1], nodes[bn, 0]), 2.0 * np.pi))]
    return nodes, elements, bn, np.column_stack((bn, np.roll(bn, -1)))


def _reference_neighbors(mesh):
    owner = {}
    nbrs = np.full((mesh.n_elements, 3), -1, dtype=np.int64)
    for e, (a, b, c) in enumerate(mesh.elements.tolist()):
        for i, (u, v) in enumerate(((b, c), (c, a), (a, b))):
            key = (min(u, v), max(u, v))
            if key in owner:
                oe, oi = owner.pop(key)
                nbrs[e, i] = oe
                nbrs[oe, oi] = e
            else:
                owner[key] = (e, i)
    return nbrs


def _reference_boundary_mass(mesh):
    nb = mesh.n_boundary
    pos = {int(n): t for t, n in enumerate(mesh.boundary_nodes)}
    m = np.zeros((nb, nb))
    for (na, nbb), length in zip(mesh.boundary_edges, mesh.boundary_edge_lengths):
        i, j = pos[int(na)], pos[int(nbb)]
        m[i, i] += length / 3.0
        m[j, j] += length / 3.0
        m[i, j] += length / 6.0
        m[j, i] += length / 6.0
    return m


def _reference_mesh_text(mesh):
    lines = ["# nodes\n"]
    lines += [f"{i} {x:.17g} {y:.17g}\n" for i, (x, y) in enumerate(mesh.nodes)]
    lines.append("# elements\n")
    lines += [f"{i} {a} {b} {c}\n" for i, (a, b, c) in enumerate(mesh.elements)]
    lines.append("# boundary\n")
    lines += [f"{n}\n" for n in mesh.boundary_nodes]
    return "".join(lines).encode("ascii")


def _reference_edge_connected(mesh, members):
    member_set = set(members.tolist())
    seen = {int(members[0])}
    stack = [int(members[0])]
    while stack:
        for o in mesh.element_neighbors[stack.pop()].tolist():
            if o >= 0 and o in member_set and o not in seen:
                seen.add(o)
                stack.append(o)
    return len(seen) == len(member_set)


@pytest.fixture(scope="module", params=[(t, c) for t in (254, 1016, 4064) for c in (None, 4, 8)],
                ids=lambda p: f"{p[0]}-c{p[1]}")
def refinement_chain(request):
    """A generated mesh and its refinements: three levels from 254 elements, two otherwise."""
    target, multiplier = request.param
    chain = [generate_disk_mesh(target, multiplier)]
    for _ in range(3 if target == 254 else 2):
        chain.append(refine_uniform(chain[-1]))
    return chain


def test_generate_matches_reference_sewing(refinement_chain):
    mesh = refinement_chain[0]
    assert np.array_equal(mesh.elements, _reference_elements(mesh))


def test_refine_matches_reference(refinement_chain):
    for coarse, fine in zip(refinement_chain, refinement_chain[1:]):
        for got, want in zip(_arrays(fine), _reference_refine(coarse)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_neighbors_and_boundary_mass_match_reference(refinement_chain):
    for mesh in refinement_chain:
        assert np.array_equal(mesh.element_neighbors, _reference_neighbors(mesh))
        assert np.array_equal(mesh.boundary_mass, _reference_boundary_mass(mesh))


def test_write_mesh_matches_reference_bytes(tmp_path):
    mesh = generate_disk_mesh(16384)
    assert mesh.n_nodes > 4096 and mesh.n_elements > 3 * 4096
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    assert path.read_bytes() == _reference_mesh_text(mesh)


def _sector_labels(mesh, radius, n_cells):
    cen = mesh.centroids
    theta = np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * np.pi)
    sector = np.minimum((theta / (2.0 * np.pi) * n_cells).astype(np.int64), n_cells - 1) + 1
    return np.where(np.hypot(cen[:, 0], cen[:, 1]) < radius, sector, 0)


@pytest.mark.parametrize("multiplier", [3, 4, 6, 8])
@pytest.mark.parametrize("n_cells", [4, 5, 7, 8])
def test_partition_connectivity_matches_reference(multiplier, n_cells):
    # Sectors cut across misaligned spokes often leave a cell in two pieces.
    mesh = generate_disk_mesh(254, multiplier)
    labels = _sector_labels(mesh, 0.6, n_cells)
    assert set(labels.tolist()) == set(range(n_cells + 1))
    broken = [j for j in range(1, n_cells + 1)
              if not _reference_edge_connected(mesh, np.flatnonzero(labels == j))]
    if broken:
        with pytest.raises(MeshError, match=f"^partition cell {broken[0]} is not edge-connected"):
            Partition(mesh, labels, n_cells)
    else:
        Partition(mesh, labels, n_cells)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(target=st.integers(16, 3000), multiplier=st.sampled_from([None, 3, 4, 5, 6, 7, 8, 9]))
def test_mesh_layer_properties(target, multiplier):
    try:
        mesh = generate_disk_mesh(target, multiplier)
    except MeshError:
        assume(False)  # no ring layout within 15% of the target for this multiplier

    refined = refine_uniform(mesh)
    assert refined.n_elements == 4 * mesh.n_elements
    refined.validate()

    # Neighbors are symmetric and -1 exactly across the declared boundary edges.
    nbrs = mesh.element_neighbors
    e, i = np.nonzero(nbrs >= 0)
    assert np.all(np.any(nbrs[nbrs[e, i]] == e[:, None], axis=1))
    e, i = np.nonzero(nbrs < 0)
    open_edges = np.sort(np.column_stack((mesh.elements[e, (i + 1) % 3], mesh.elements[e, (i + 2) % 3])), axis=1)
    declared = np.sort(mesh.boundary_edges, axis=1)
    assert len(e) == mesh.n_boundary
    assert set(map(tuple, open_edges.tolist())) == set(map(tuple, declared.tolist()))

    xy = mesh.nodes[mesh.boundary_nodes]
    perimeter = np.hypot(*(np.roll(xy, -1, axis=0) - xy).T).sum()
    assert mesh.boundary_mass.sum(axis=1).sum() == pytest.approx(perimeter, rel=1e-12)

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        write_mesh(mesh, first)
        write_mesh(read_mesh(first), second)
        assert first.read_bytes() == second.read_bytes()

"""Triangular meshes of the unit disk: generation, refinement, partitions, file I/O.

The mesher builds structured concentric-ring triangulations: rings of nodes at
radii i/R with node counts proportional to the radius.  This keeps element
counts predictable (count = c * R**2 for an angular multiplier c) and avoids
any external meshing dependency.  Meshes are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshError

# Boundary nodes are snapped onto the circle; the tolerance is relative to the
# disk diameter (= 2).
GEOM_TOL = 1e-12 * 2.0


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of the unit disk.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
    elements : (n_elements, 3) int array, counterclockwise vertex order
    boundary_nodes : (n_boundary,) int array, sorted by angle in [0, 2*pi)
    boundary_edges : (n_boundary, 2) int array, consecutive cycle pairs
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.array(self.nodes, dtype=float, copy=True))
        object.__setattr__(self, "elements", np.array(self.elements, dtype=np.int64, copy=True))
        object.__setattr__(self, "boundary_nodes", np.array(self.boundary_nodes, dtype=np.int64, copy=True))
        object.__setattr__(self, "boundary_edges", np.array(self.boundary_edges, dtype=np.int64, copy=True))
        for name in ("nodes", "elements", "boundary_nodes", "boundary_edges"):
            getattr(self, name).setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_nodes.shape[0]

    @cached_property
    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.elements]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    @cached_property
    def areas(self) -> np.ndarray:
        return self.signed_areas

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    @cached_property
    def element_grads(self) -> np.ndarray:
        """Gradients of the three P1 hat functions per element, shape (n_elements, 3, 2)."""
        p = self.nodes[self.elements]
        grads = np.empty((self.n_elements, 3, 2))
        inv2a = 1.0 / (2.0 * self.signed_areas)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) * inv2a
            grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) * inv2a
        return grads

    @cached_property
    def boundary_angles(self) -> np.ndarray:
        """Angles of boundary nodes in [0, 2*pi), ascending."""
        xy = self.nodes[self.boundary_nodes]
        return np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * np.pi)

    @cached_property
    def boundary_edge_lengths(self) -> np.ndarray:
        a = self.nodes[self.boundary_edges[:, 0]]
        b = self.nodes[self.boundary_edges[:, 1]]
        return np.linalg.norm(b - a, axis=1)

    @cached_property
    def boundary_mass(self) -> np.ndarray:
        """Boundary mass matrix M from P1 edge integration, dense cyclic tridiagonal.

        Rows and columns follow the angular ordering of ``boundary_nodes``.
        """
        nb = self.n_boundary
        pos = {int(n): t for t, n in enumerate(self.boundary_nodes)}
        m = np.zeros((nb, nb))
        for (na, nbb), length in zip(self.boundary_edges, self.boundary_edge_lengths):
            i, j = pos[int(na)], pos[int(nbb)]
            m[i, i] += length / 3.0
            m[j, j] += length / 3.0
            m[i, j] += length / 6.0
            m[j, i] += length / 6.0
        m.setflags(write=False)
        return m

    @cached_property
    def element_neighbors(self) -> np.ndarray:
        """Neighbor element across edge opposite local vertex i, -1 on the boundary."""
        owner: dict[tuple[int, int], int] = {}
        nbrs = np.full((self.n_elements, 3), -1, dtype=np.int64)
        for e, (a, b, c) in enumerate(self.elements):
            for i, (u, v) in enumerate(((b, c), (c, a), (a, b))):
                key = (min(int(u), int(v)), max(int(u), int(v)))
                if key in owner:
                    other = owner.pop(key)
                    oe, oi = other
                    nbrs[e, i] = oe
                    nbrs[oe, oi] = e
                else:
                    owner[key] = (e, i)
        return nbrs

    def validate(self) -> None:
        """Check all mesh invariants, raising :class:`MeshError` on violation."""
        if self.elements.min() < 0 or self.elements.max() >= self.n_nodes:
            raise MeshError("element references a nonexistent node")
        if np.any(self.signed_areas <= 0.0):
            bad = int(np.argmin(self.signed_areas))
            raise MeshError(
                f"degenerate triangulation: element {bad} has signed area "
                f"{self.signed_areas[bad]:.3e}"
            )
        # Edges as scalar keys lo * base + hi; base exceeds every node id in
        # play, so distinct edges with nonnegative ids never share a key.
        base = 1 + max(self.n_nodes, int(self.boundary_edges.max(initial=0)),
                       int(self.boundary_nodes.max(initial=0)))
        keys, counts = np.unique(
            _edge_keys(self.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), base),
            return_counts=True,
        )
        if np.any(counts > 2):
            raise MeshError("an edge is shared by more than two elements")
        declared = np.unique(_edge_keys(self.boundary_edges, base))
        if not np.array_equal(keys[counts == 1], declared):
            raise MeshError("declared boundary edges do not match single-element edges")
        radii = np.linalg.norm(self.nodes[self.boundary_nodes], axis=1)
        if np.any(np.abs(radii - 1.0) > GEOM_TOL):
            raise MeshError("a boundary node is off the unit circle beyond tolerance")
        ang = self.boundary_angles
        if np.any(np.diff(ang) <= 0.0):
            raise MeshError("boundary nodes are not strictly sorted by angle")
        # The edges must link consecutive nodes of the angular ordering into one cycle.
        bn = self.boundary_nodes
        cycle = np.unique(_edge_keys(np.column_stack((bn, np.roll(bn, -1))), base))
        if not np.array_equal(cycle, declared):
            raise MeshError("boundary edges do not form the angular cycle")


def _edge_keys(pairs: np.ndarray, base: int) -> np.ndarray:
    """Orientation-free scalar key of each node pair (row) of ``pairs``."""
    return pairs.min(axis=1) * base + pairs.max(axis=1)


def _ring_layout(target_elements: int, angular_multiplier: int | None) -> tuple[int, int]:
    """Pick (angular multiplier c, ring count R) with c * R**2 closest to target."""
    candidates = range(4, 10) if angular_multiplier is None else (angular_multiplier,)
    best = None
    for c in candidates:
        r0 = max(2, int(round(math.sqrt(target_elements / c))))
        for rings in (r0 - 1, r0, r0 + 1):
            if rings < 2:
                continue
            count = c * rings * rings
            key = (abs(count - target_elements), abs(c - 6), rings)
            if best is None or key < best[0]:
                best = (key, c, rings)
    _, c, rings = best
    count = c * rings * rings
    if abs(count - target_elements) > 0.15 * target_elements:
        raise MeshError(
            f"no ring layout within 15% of {target_elements} elements "
            f"(closest achievable: {count})"
        )
    return c, rings


def generate_disk_mesh(target_elements: int, angular_multiplier: int | None = None) -> TriMesh:
    """Generate a structured triangulation of the unit disk.

    Parameters
    ----------
    target_elements : int
        Desired element count (>= 16).  The result is within 15% of it.
    angular_multiplier : int, optional
        Fix the per-ring node-count multiplier instead of choosing it freely.
        A multiplier divisible by n aligns the mesh spokes with the boundaries
        of an n-sector partition, which keeps sector cells edge-connected.
    """
    if target_elements < 16:
        raise MeshError("target_elements must be at least 16")
    if angular_multiplier is not None and angular_multiplier < 3:
        raise MeshError("angular_multiplier must be at least 3")
    c, rings = _ring_layout(target_elements, angular_multiplier)

    nodes = [np.zeros((1, 2))]
    ring_ids: list[np.ndarray] = [np.array([0], dtype=np.int64)]
    next_id = 1
    for i in range(1, rings + 1):
        n_i = c * i
        theta = 2.0 * np.pi * np.arange(n_i) / n_i
        r = i / rings
        nodes.append(np.column_stack((r * np.cos(theta), r * np.sin(theta))))
        ring_ids.append(np.arange(next_id, next_id + n_i, dtype=np.int64))
        next_id += n_i
    coords = np.vstack(nodes)

    tris: list[tuple[int, int, int]] = []
    inner = ring_ids[1]
    for t in range(c):
        tris.append((0, int(inner[t]), int(inner[(t + 1) % c])))
    for i in range(2, rings + 1):
        tris.extend(_sew_rings(ring_ids[i - 1], ring_ids[i]))

    elements = np.asarray(tris, dtype=np.int64)
    bn = ring_ids[rings]
    nb = len(bn)
    bedges = np.column_stack((bn, np.roll(bn, -1)))
    mesh = TriMesh(coords, elements, bn, bedges)
    mesh.validate()
    return mesh


def _sew_rings(inner: np.ndarray, outer: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate the annulus between two angle-ordered rings of node ids."""
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


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Split every triangle into four; boundary midpoints are snapped to the circle."""
    boundary = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in mesh.boundary_edges}
    coords = [mesh.nodes]
    new_nodes: list[np.ndarray] = []
    midpoint: dict[tuple[int, int], int] = {}
    next_id = mesh.n_nodes

    def mid(a: int, b: int) -> int:
        nonlocal next_id
        key = (min(a, b), max(a, b))
        if key in midpoint:
            return midpoint[key]
        p = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
        if key in boundary:
            p = p / np.linalg.norm(p)
        new_nodes.append(p)
        midpoint[key] = next_id
        next_id += 1
        return midpoint[key]

    tris: list[tuple[int, int, int]] = []
    for a, b, c in mesh.elements:
        a, b, c = int(a), int(b), int(c)
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend(((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)))

    if new_nodes:
        coords.append(np.vstack(new_nodes))
    all_nodes = np.vstack(coords)
    elements = np.asarray(tris, dtype=np.int64)
    bn, bedges = _boundary_cycle(all_nodes, elements)
    refined = TriMesh(all_nodes, elements, bn, bedges)
    refined.validate()
    return refined


def _boundary_cycle(nodes: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the angle-ordered boundary cycle from element connectivity."""
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in elements:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            counts[key] = counts.get(key, 0) + 1
    bedge_set = [key for key, n in counts.items() if n == 1]
    ids = sorted({i for e in bedge_set for i in e})
    bn = np.asarray(ids, dtype=np.int64)
    ang = np.mod(np.arctan2(nodes[bn, 1], nodes[bn, 0]), 2.0 * np.pi)
    bn = bn[np.argsort(ang)]
    bedges = np.column_stack((bn, np.roll(bn, -1)))
    cycle = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in bedges}
    if cycle != set(bedge_set):
        raise MeshError("boundary edges do not form a single angular cycle")
    return bn, bedges


@dataclass(frozen=True)
class Partition:
    """Per-element labels: 0 outside the probed subdomain, 1..n_cells inside it."""

    mesh: TriMesh
    labels: np.ndarray
    n_cells: int

    def __post_init__(self):
        object.__setattr__(self, "labels", np.array(self.labels, dtype=np.int64, copy=True))
        self.labels.setflags(write=False)
        if self.labels.shape != (self.mesh.n_elements,):
            raise MeshError("partition labels must have one entry per element")
        if self.labels.min() < 0 or self.labels.max() > self.n_cells:
            raise MeshError("partition labels out of range")
        for j in range(1, self.n_cells + 1):
            members = np.flatnonzero(self.labels == j)
            if members.size == 0:
                raise MeshError(f"partition cell {j} contains no elements (mesh too coarse)")
            if not self._edge_connected(members):
                raise MeshError(
                    f"partition cell {j} is not edge-connected; generate the mesh "
                    f"with an angular multiplier divisible by n_cells"
                )

    def _edge_connected(self, members: np.ndarray) -> bool:
        member_set = set(int(m) for m in members)
        seen = {int(members[0])}
        stack = [int(members[0])]
        nbrs = self.mesh.element_neighbors
        while stack:
            e = stack.pop()
            for other in nbrs[e]:
                o = int(other)
                if o >= 0 and o in member_set and o not in seen:
                    seen.add(o)
                    stack.append(o)
        return len(seen) == len(member_set)

    @cached_property
    def omega_mask(self) -> np.ndarray:
        return self.labels > 0

    def cell_mask(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.n_cells:
            raise MeshError(f"cell index {j} out of range 1..{self.n_cells}")
        return self.labels == j

    def cell_area(self, j: int) -> float:
        return float(self.mesh.areas[self.cell_mask(j)].sum())

    @cached_property
    def omega_area(self) -> float:
        return float(self.mesh.areas[self.omega_mask].sum())


def subdomain_partition(mesh: TriMesh, omega_radius: float, n_cells: int) -> Partition:
    """Label elements of the concentric subdomain by equal-angle sectors.

    An element belongs to the subdomain when its centroid lies inside the
    circle of radius ``omega_radius``; sector j covers centroid angles in
    [2*pi*(j-1)/n_cells, 2*pi*j/n_cells).
    """
    if not 0.0 < omega_radius < 1.0:
        raise MeshError("omega_radius must lie strictly between 0 and 1")
    if n_cells < 1:
        raise MeshError("n_cells must be positive")
    cen = mesh.centroids
    inside = np.hypot(cen[:, 0], cen[:, 1]) < omega_radius
    labels = np.zeros(mesh.n_elements, dtype=np.int64)
    theta = np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * np.pi)
    sector = np.minimum((theta / (2.0 * np.pi) * n_cells).astype(np.int64), n_cells - 1)
    labels[inside] = sector[inside] + 1
    return Partition(mesh, labels, n_cells)


def write_mesh(mesh: TriMesh, path) -> None:
    """Write the plain-text mesh format (# nodes / # elements / # boundary)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# nodes\n")
        for i, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{i} {x:.17g} {y:.17g}\n")
        fh.write("# elements\n")
        for i, (a, b, c) in enumerate(mesh.elements):
            fh.write(f"{i} {a} {b} {c}\n")
        fh.write("# boundary\n")
        for n in mesh.boundary_nodes:
            fh.write(f"{n}\n")


def read_mesh(path) -> TriMesh:
    """Read the plain-text mesh format written by :func:`write_mesh`."""
    section = None
    nodes: list[tuple[float, float]] = []
    elements: list[tuple[int, int, int]] = []
    bn: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            parts = line.split()
            if section == "nodes":
                nodes.append((float(parts[1]), float(parts[2])))
            elif section == "elements":
                elements.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif section == "boundary":
                bn.append(int(parts[0]))
            else:
                raise MeshError(f"unrecognized mesh file section {section!r}")
    bn_arr = np.asarray(bn, dtype=np.int64)
    bedges = np.column_stack((bn_arr, np.roll(bn_arr, -1)))
    mesh = TriMesh(np.asarray(nodes), np.asarray(elements, dtype=np.int64), bn_arr, bedges)
    mesh.validate()
    return mesh

"""Triangular meshes of the unit disk: generation, refinement, partitions, file I/O.

Each mesh also carries the P1 quantities every assembly on it reads: element
gradients, the boundary mass matrix and the CSC assembly pattern, with the
band maps of A and A_II that the Kohn-Vogelius pair solve factors.

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
import scipy.sparse as sp

from .errors import FieldError, MeshError

# Boundary nodes are snapped onto the circle; the tolerance is relative to the
# disk diameter (= 2).
GEOM_TOL = 1e-12 * 2.0


def _edge_table(elements: np.ndarray, base: int) -> tuple:
    """Key, count and locate every edge of ``elements`` in one ``np.unique`` pass.

    Element e has the slots 3e, 3e + 1, 3e + 2 for its edges (a, b), (b, c),
    (c, a).  Returns ``(base, keys, first, slot_edge, counts)``: the sorted
    distinct keys ``lo * base + hi``, the first slot that meets each edge, the
    (n_elements, 3) edge index of each slot, and the number of elements
    meeting each edge, which is 1 exactly on the boundary.
    """
    slots = elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys, first, inverse, counts = np.unique(
        _edge_keys(slots, base), return_index=True, return_inverse=True, return_counts=True
    )
    return base, keys, first, inverse.reshape(-1, 3), counts


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of the unit disk.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
    elements : (n_elements, 3) int array, counterclockwise vertex order
    boundary_nodes : (n_boundary,) int array, sorted by angle in [0, 2*pi); each
        joins the next, the last the first, by a boundary edge (``boundary_edges``)
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.array(self.nodes, dtype=float, copy=True))
        object.__setattr__(self, "elements", np.array(self.elements, dtype=np.int64, copy=True))
        object.__setattr__(self, "boundary_nodes", np.array(self.boundary_nodes, dtype=np.int64, copy=True))
        for name in ("nodes", "elements", "boundary_nodes"):
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
    def areas(self) -> np.ndarray:
        """Signed element areas, positive for counterclockwise elements (``validate`` checks)."""
        p = self.nodes[self.elements]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)

    @cached_property
    def element_grads(self) -> np.ndarray:
        """Gradients of the three P1 hat functions per element, shape (n_elements, 3, 2)."""
        p = self.nodes[self.elements]
        grads = np.empty((self.n_elements, 3, 2))
        inv2a = 1.0 / (2.0 * self.areas)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) * inv2a
            grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) * inv2a
        return grads

    @cached_property
    def boundary_angles(self) -> np.ndarray:
        """Angles of boundary nodes in [0, 2*pi), ascending."""
        return _angles(self.nodes[self.boundary_nodes])

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """(n_boundary, 2) node pairs: boundary node i and its successor i + 1 in the cycle."""
        return np.column_stack((self.boundary_nodes, np.roll(self.boundary_nodes, -1)))

    @cached_property
    def boundary_edge_lengths(self) -> np.ndarray:
        a, b = self.nodes[self.boundary_edges].transpose(1, 0, 2)
        return np.linalg.norm(b - a, axis=1)

    @cached_property
    def boundary_mass(self) -> np.ndarray:
        """Boundary mass matrix M from P1 edge integration, dense cyclic tridiagonal.

        Rows and columns follow the angular ordering of ``boundary_nodes``, so
        edge i joins rows i and i + 1 (mod n_boundary).
        """
        i = np.arange(self.n_boundary)
        j = np.roll(i, -1)
        third = self.boundary_edge_lengths / 3.0
        sixth = self.boundary_edge_lengths / 6.0
        m = np.zeros((i.size, i.size))
        m[i, i] = third + np.roll(third, 1)  # edges i and i - 1 meet at node i
        m[i, j] = sixth
        m[j, i] = sixth
        m.setflags(write=False)
        return m

    @cached_property
    def assembly_pattern(self) -> AssemblyPattern:
        """CSC structure of the P1 system matrix, shared by every assembly on the mesh."""
        return AssemblyPattern(self)

    @cached_property
    def element_neighbors(self) -> np.ndarray:
        """Neighbor element across edge opposite local vertex i, -1 on the boundary."""
        _, _, _, slot_edge, counts = _edge_table(self.elements, self.n_nodes + 1)
        by_edge = np.argsort(slot_edge.ravel())
        start = (np.cumsum(counts) - counts)[counts == 2]
        s, t = by_edge[start], by_edge[start + 1]
        across = np.full(3 * self.n_elements, -1, dtype=np.int64)
        across[s] = t // 3
        across[t] = s // 3
        # Slot k joins local vertices k and k + 1, so it lies opposite vertex k + 2.
        return across.reshape(-1, 3)[:, [1, 2, 0]]

    def validate(self) -> None:
        """Check all mesh invariants, raising :class:`MeshError` on violation."""
        if self.elements.min() < 0 or self.elements.max() >= self.n_nodes:
            raise MeshError("element references a nonexistent node")
        if not np.all(self.areas > 0.0):  # NaN fails too
            bad = int(np.argmin(self.areas))
            raise MeshError(
                f"degenerate triangulation: element {bad} has signed area "
                f"{self.areas[bad]:.3e}"
            )
        base, keys, _, _, counts = _edge_table(self.elements, self.n_nodes + 1)
        if np.any(counts > 2):
            raise MeshError("an edge is shared by more than two elements")
        # Keys are distinct only for node ids in [0, n_nodes], so a boundary
        # node beyond the node range could alias a real edge: reject it first.
        bn = self.boundary_nodes
        if bn.min(initial=0) < 0 or bn.max(initial=0) >= self.n_nodes:
            raise MeshError("boundary node references a nonexistent node")
        radii = np.linalg.norm(self.nodes[bn], axis=1)
        if not np.all(np.abs(radii - 1.0) <= GEOM_TOL):
            raise MeshError("a boundary node is off the unit circle beyond tolerance")
        if not np.all(np.diff(self.boundary_angles) > 0.0):
            raise MeshError("boundary nodes are not strictly sorted by angle")
        if not np.array_equal(np.unique(_edge_keys(self.boundary_edges, base)), keys[counts == 1]):
            raise MeshError("boundary edges do not form the angular cycle")


@dataclass(frozen=True)
class BandMap:
    """Lower band of a principal block of the P1 system matrix, in LAPACK's band storage.

    ``nodes`` lists the block's nodes in band order, and ``width`` is the
    lower bandwidth in that order.  Entry (i, j), i >= j, of the reordered
    block sits at row i - j, column j of the (width + 1, len(nodes)) lower
    band form that ``scipy.linalg.cholesky_banded`` reads.  Its value is data
    slot ``slots[p]`` of a matrix on the pattern, and its place is
    ``places[p]`` in the band form stored column by column.
    """

    nodes: np.ndarray
    width: int
    slots: np.ndarray
    places: np.ndarray

    def band(self, data: np.ndarray) -> np.ndarray:
        """The Fortran-ordered lower band form of the block of the matrix with CSC data ``data``."""
        # the band form stored column by column is the C-order buffer of its transpose
        columns = np.zeros((self.nodes.size, self.width + 1))
        columns.reshape(-1)[self.places] = data[self.slots]
        return columns.T


class AssemblyPattern:
    """CSC structure of the P1 system matrix: the one map from element matrices and node sets to its entries.

    ``scatter`` sums entry (a, b) of element e's 3x3 matrix, flattened
    row-major, into data slot ``slots[9 e + 3 a + b]`` of a CSC matrix with
    ``indptr`` and ``indices`` (rows sorted within each column, no
    duplicates).  The principal block of such a matrix over a node set is a
    fixed subset of its data slots (``principal_block``).  ``full_band`` and
    ``interior_band`` map those of A over all nodes and of A_II over the
    interior nodes into lower band forms, each with its nodes in a stable
    sort on x; they are built once, on first use.  A sort on x gives a band
    40 wide at 1 014 elements, where reverse Cuthill-McKee gives 27, but it
    needs no graph module.  A pattern costs about 105 B per element, and
    about 70 B more once both band maps are built; it lives as long as its
    mesh, as ``TriMesh.assembly_pattern``.  It keeps the mesh's arrays, not
    the mesh, so that mesh and pattern form no reference cycle.
    """

    def __init__(self, mesh: TriMesh):
        n = mesh.n_nodes
        shape = (mesh.n_elements, 3, 3)
        rows = np.broadcast_to(mesh.elements[:, :, None], shape).ravel()
        cols = np.broadcast_to(mesh.elements[:, None, :], shape).ravel()
        # scipy sorts and merges the entries once; numbering the merged
        # entries reads the slot of every element entry back by (row, column)
        structure = sp.csc_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
        structure.data = np.arange(structure.nnz, dtype=float)
        self.boundary_nodes = mesh.boundary_nodes
        self.x = mesh.nodes[:, 0]
        self.slots = structure[rows, cols].astype(np.intp)
        self.indices = structure.indices
        self.indptr = structure.indptr

    def principal_block(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Data slots of the principal block over ``mask``, and the node row and column of each."""
        cols = np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))
        slots = np.flatnonzero(mask[self.indices] & mask[cols])
        return slots, self.indices[slots], cols[slots]

    def scatter(self, local: np.ndarray) -> np.ndarray:
        """CSC data of the matrix summed from the (n_elements, 3, 3) element matrices ``local``."""
        return np.bincount(self.slots, weights=local.ravel(), minlength=self.indices.size)

    def _band_map(self, mask: np.ndarray) -> BandMap:
        """The band map of the principal block over ``mask``, its nodes in a stable sort on x."""
        slots, rows, cols = self.principal_block(mask)
        nodes = np.flatnonzero(mask)[np.argsort(self.x[mask], kind="stable")]
        rank = np.empty(mask.size, dtype=np.intp)
        rank[nodes] = np.arange(nodes.size)
        rows, cols = rank[rows], rank[cols]
        lower = rows >= cols
        offsets = rows[lower] - cols[lower]
        width = int(offsets.max())
        return BandMap(nodes, width, slots[lower], cols[lower] * (width + 1) + offsets)

    @cached_property
    def full_band(self) -> BandMap:
        """Band map of A over all nodes."""
        return self._band_map(np.ones(self.indptr.size - 1, dtype=bool))

    @cached_property
    def interior_band(self) -> BandMap:
        """Band map of A_II over the interior nodes."""
        interior = np.ones(self.indptr.size - 1, dtype=bool)
        interior[self.boundary_nodes] = False
        return self._band_map(interior)


def _angles(points: np.ndarray) -> np.ndarray:
    """Polar angle in [0, 2*pi) of each point (row) of ``points``."""
    return np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * np.pi)


def _edge_keys(pairs: np.ndarray, base: int) -> np.ndarray:
    """Orientation-free scalar key of each node pair (row) of ``pairs``."""
    a, b = pairs.T
    return np.minimum(a, b) * base + np.maximum(a, b)


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

    fan = np.column_stack((np.zeros(c, dtype=np.int64), ring_ids[1], np.roll(ring_ids[1], -1)))
    elements = np.vstack([fan] + [_sew_rings(ring_ids[i - 1], ring_ids[i])
                                  for i in range(2, rings + 1)])
    mesh = TriMesh(coords, elements, ring_ids[rings])
    mesh.validate()
    return mesh


def _sew_rings(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangulate the annulus between two angle-ordered rings of node ids.

    Each triangle advances one ring by one node, in order of the angle reached,
    (t+1)/m inner or (s+1)/n outer, ties to the inner ring: a stable merge of
    the integer keys (t+1)*n and (s+1)*m.
    """
    m, n = len(inner), len(outer)
    steps = np.argsort(np.concatenate((np.arange(1, m + 1) * n, np.arange(1, n + 1) * m)),
                       kind="stable")
    on_inner = steps < m
    t = np.cumsum(on_inner) - on_inner  # inner steps taken before this one
    s = np.cumsum(~on_inner) - ~on_inner  # outer steps taken before this one
    return np.where(on_inner[:, None],
                    np.column_stack((inner[t % m], outer[s % n], inner[(t + 1) % m])),
                    np.column_stack((outer[s % n], outer[(s + 1) % n], inner[t % m])))


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Split every triangle into four; boundary midpoints are snapped to the circle.

    Midpoint nodes are numbered from ``mesh.n_nodes`` in order of first
    encounter: element by element, and within an element along its edges
    (a, b), (b, c), (c, a).  Element (a, b, c) becomes (a, ab, ca), (b, bc, ab),
    (c, ca, bc), (ab, bc, ca), in that order.  Node order is part of the mesh
    file format.
    """
    base, keys, first, slot_edge, counts = _edge_table(mesh.elements, mesh.n_nodes + 1)
    order = np.argsort(first)  # edges in order of first encounter
    ab, bc, ca = (mesh.n_nodes + np.argsort(order)[slot_edge]).T
    lo, hi = np.divmod(keys[order], base)
    mids = 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])
    on_circle = counts[order] == 1
    # np.vecdot rounds like np.linalg.norm of each point; norm(axis=1) does not.
    mids[on_circle] /= np.sqrt(np.vecdot(mids[on_circle], mids[on_circle]))[:, None]

    nodes = np.vstack((mesh.nodes, mids))
    a, b, c = mesh.elements.T
    elements = np.column_stack((a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca)).reshape(-1, 3)
    bn = np.concatenate((mesh.boundary_nodes, mesh.n_nodes + np.flatnonzero(on_circle)))
    bn = bn[np.argsort(_angles(nodes[bn]))]
    refined = TriMesh(nodes, elements, bn)
    refined.validate()
    return refined


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
        piece = self._pieces()
        for j in range(1, self.n_cells + 1):
            members = np.flatnonzero(self.labels == j)
            if members.size == 0:
                raise MeshError(f"partition cell {j} contains no elements (mesh too coarse)")
            if np.any(piece[members] != piece[members[0]]):
                raise MeshError(
                    f"partition cell {j} is not edge-connected; generate the mesh "
                    f"with an angular multiplier divisible by n_cells"
                )

    def _pieces(self) -> np.ndarray:
        """Lowest element index of each element's edge-connected piece of its cell."""
        nbrs = self.mesh.element_neighbors
        own = np.arange(self.mesh.n_elements)
        nbrs = np.where((nbrs >= 0) & (self.labels[nbrs] == self.labels[:, None]), nbrs, own[:, None])
        # piece[e] stays a member of e's piece, no larger than e, and falls to its minimum.
        piece = own
        while True:
            lower = np.minimum(piece, piece[nbrs].min(axis=1))
            lower = lower[lower]
            if np.array_equal(lower, piece):
                return piece
            piece = lower

    @cached_property
    def omega_mask(self) -> np.ndarray:
        return self.labels > 0

    def cell_mask(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.n_cells:
            raise MeshError(f"cell index {j} out of range 1..{self.n_cells}")
        return self.labels == j


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
    sector = np.minimum((_angles(cen) / (2.0 * np.pi) * n_cells).astype(np.int64), n_cells - 1)
    return Partition(mesh, np.where(inside, sector + 1, 0), n_cells)


def write_mesh(mesh: TriMesh, path) -> None:
    """Write the plain-text mesh format (# nodes / # elements / # boundary).

    Each section is a header line and the rows of ``_ROW_FORMATS``, formatted
    by :func:`text_rows` with ``" "`` separators; the ``%.17g`` coordinates make
    the file round-trip exactly through :func:`read_mesh`.
    """
    with open(path, "wb") as fh:
        fh.writelines((b"# nodes\n", text_rows([np.arange(mesh.n_nodes), *mesh.nodes.T], " ")))
        fh.writelines((b"# elements\n", text_rows([np.arange(mesh.n_elements), *mesh.elements.T], " ")))
        fh.writelines((b"# boundary\n", text_rows([mesh.boundary_nodes], " ")))


def text_rows(columns, sep: str) -> bytes:
    """ASCII rows of equal-length columns: cells joined by ``sep``, each row ended by LF.

    Each column is formatted once by dtype: integers in decimal, booleans as
    0/1, floats as ``%.17g`` (exact round trip), anything else with ``%s``.
    The cells become one NUL-padded byte matrix, so no cell may hold a NUL.
    No columns, or columns without rows, give no text.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise FieldError(f"columns of unequal length {lengths}")
    if not lengths or not lengths[0]:
        return b""
    gap, eol = (np.full((lengths[0], 1), ord(ch), np.uint8) for ch in (sep, "\n"))
    text = np.hstack([p for c in columns for p in (gap, _text_cells(c))][1:] + [eol]).ravel()
    return text[text != 0].tobytes()


def _text_cells(values: np.ndarray) -> np.ndarray:
    """The (n, width) NUL-padded ASCII cells of one column, in ``text_rows``' formats."""
    if values.dtype.kind not in "biu":
        spec = "%.17g\0" if values.dtype.kind == "f" else "%s\0"
        text = (spec * values.size % tuple(values.tolist())).encode("ascii")
        return np.array(text.split(b"\0")[:-1]).view(np.uint8).reshape(values.size, -1)
    # integers by digit arithmetic on their magnitudes, after a sign cell
    mag, neg = values.astype(np.uint64), values < 0
    mag[neg] = -mag[neg]
    width = len(str(mag.max()))
    cells = np.zeros((values.size, width + 1), np.uint8)
    cells[neg, 0] = ord("-")
    for k in range(width, 0, -1):
        mag, digit = np.divmod(mag, 10)
        cells[:, k] = np.where((mag > 0) | (digit > 0) | (k == width), digit + ord("0"), 0)
    return cells


# Row format per mesh file section; i is the row position, counted from 0.
_ROW_FORMATS = {"nodes": "i x y", "elements": "i a b c", "boundary": "node"}


def read_mesh(path) -> TriMesh:
    """Read the plain-text mesh format written by :func:`write_mesh`.

    Rows follow ``_ROW_FORMATS``: the leading index of a node or element row
    must equal its row position.  A malformed row is a :class:`MeshError`
    naming the file and line.
    """
    section, nodes, elements, bn = None, [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                section = line[1:].strip()
                continue
            parts = line.split()
            try:
                if section == "nodes" and len(parts) == 3 and int(parts[0]) == len(nodes):
                    nodes.append((float(parts[1]), float(parts[2])))
                elif section == "elements" and len(parts) == 4 and int(parts[0]) == len(elements):
                    elements.append((int(parts[1]), int(parts[2]), int(parts[3])))
                elif section == "boundary" and len(parts) == 1:
                    bn.append(int(parts[0]))
                elif section in _ROW_FORMATS:
                    raise ValueError
                else:
                    raise MeshError(f"{path}, line {lineno}: unrecognized mesh file section {section!r}")
            except ValueError:
                raise MeshError(f"{path}, line {lineno}: malformed {section} row {line!r}, expected "
                                f"{_ROW_FORMATS[section]!r}") from None
    mesh = TriMesh(np.asarray(nodes), np.asarray(elements, dtype=np.int64), bn)
    mesh.validate()
    return mesh

"""Coefficient, solution, and boundary-trace containers plus samplers and emitters.

Coefficients are piecewise constant per element (values sampled at element
centroids); solutions are nodal P1 fields; boundary traces hold one value per
boundary node in angular order.  Boundary transfer between meshes uses the
angle parameterization of the circle, which is exact for the disk geometry
and reproduces constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import FieldError
from .mesh import TriMesh

# Rasterizer block: (element, pixel) candidates tested per vectorized step.
_PGM_BLOCK = 4096


@dataclass(frozen=True)
class PiecewiseConstantField:
    """One value per element."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.mesh.n_elements,):
            raise FieldError(
                f"expected {self.mesh.n_elements} element values, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def require_positive(self) -> "PiecewiseConstantField":
        """Require every value to be finite and > 0 (NaN fails both tests)."""
        bad = np.flatnonzero(~(np.isfinite(self.values) & (self.values > 0.0)))
        if bad.size:
            raise FieldError(
                f"coefficient must be finite and strictly positive; element {bad[0]} has "
                f"value {self.values[bad[0]]:.6g}"
            )
        return self


@dataclass(frozen=True)
class NodalField:
    """One value per node (P1 finite-element function)."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.mesh.n_nodes,):
            raise FieldError(f"expected {self.mesh.n_nodes} nodal values, got {vals.shape}")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


@dataclass(frozen=True)
class BoundaryTrace:
    """One value per boundary node, in the angular order of ``mesh.boundary_nodes``."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.mesh.n_boundary,):
            raise FieldError(
                f"expected {self.mesh.n_boundary} boundary values, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


def constant(value: float):
    """Descriptor: the constant function."""
    def fn(x, y):
        return np.full_like(np.asarray(x, dtype=float), value)
    return fn


def disk_indicator(cx: float, cy: float, radius: float, inside: float, outside: float):
    """Descriptor: ``inside`` on the open disk around (cx, cy), ``outside`` elsewhere."""
    def fn(x, y):
        hit = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2 < radius ** 2
        return np.where(hit, inside, outside).astype(float)
    return fn


def square_indicator(half_width: float, inside: float, outside: float):
    """Descriptor: sup-norm square of given half width centered at the origin."""
    def fn(x, y):
        hit = np.maximum(np.abs(np.asarray(x)), np.abs(np.asarray(y))) < half_width
        return np.where(hit, inside, outside).astype(float)
    return fn


def _example1_q(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bump = np.cos(np.pi * x) * np.cos(np.pi * y)
    hit = np.maximum(np.abs(x), np.abs(y)) < 0.5
    return 1.0 + np.where(hit, bump, 0.0)


# The four circular inclusions of the simultaneous-reconstruction benchmark.
EX2_DISKS = {
    "d1": (0.5, 0.0, 0.2),
    "d2": (-0.5, 0.0, 0.2),
    "d3": (0.0, 0.5, 0.2),
    "d4": (0.0, -0.5, 0.2),
}


def _two_disk(values_by_disk, background: float):
    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, background, dtype=float)
        for name, value in values_by_disk:
            cx, cy, r = EX2_DISKS[name]
            out = np.where((x - cx) ** 2 + (y - cy) ** 2 < r ** 2, value, out)
        return out
    return fn


CATALOGUE = {
    "one": constant(1.0),
    "example1_sigma": disk_indicator(0.0, 0.0, 0.5, 2.0, 1.0),
    "example1_q": _example1_q,
    "example2_sigma": _two_disk((("d1", 2.0), ("d2", 3.0)), 1.0),
    "example2_q": _two_disk((("d3", 3.0), ("d4", 4.0)), 1.0),
    "example2_sigma_init": _two_disk((("d1", 1.1), ("d2", 1.2)), 1.0),
    "example2_q_init": _two_disk((("d3", 1.1), ("d4", 1.2)), 1.0),
}


def parse_descriptor(text: str):
    """Parse a coefficient descriptor string into a callable of (x, y).

    Accepted forms: a catalogue name, ``constant:VALUE``,
    ``disk:CX,CY,R,INSIDE,OUTSIDE``, and ``square:HALF,INSIDE,OUTSIDE``.
    """
    name, _, arg = text.partition(":")
    name = name.strip()
    if not arg:
        if name in CATALOGUE:
            return CATALOGUE[name]
        raise FieldError(f"unknown coefficient descriptor {text!r}")
    try:
        parts = [float(p) for p in arg.split(",")]
    except ValueError:  # no form matches: malformed descriptor below
        parts = []
    if name == "constant" and len(parts) == 1:
        return constant(parts[0])
    if name == "disk" and len(parts) == 5:
        return disk_indicator(*parts)
    if name == "square" and len(parts) == 3:
        return square_indicator(*parts)
    raise FieldError(f"malformed coefficient descriptor {text!r}")


def sample_coefficient(mesh: TriMesh, expr) -> PiecewiseConstantField:
    """Sample a descriptor at element centroids.

    ``expr`` is a catalogue name, a descriptor string, or a callable of
    vectorized (x, y).  A coefficient must be positive: any non-positive
    sampled value is an error.
    """
    fn = parse_descriptor(expr) if isinstance(expr, str) else expr
    cen = mesh.centroids
    values = np.asarray(fn(cen[:, 0], cen[:, 1]), dtype=float)
    if values.shape != (mesh.n_elements,):
        raise FieldError("descriptor did not evaluate to one value per element")
    return PiecewiseConstantField(mesh, values).require_positive()


def restrict_to_boundary(u: NodalField) -> BoundaryTrace:
    """Pick nodal values at boundary nodes in angular order."""
    return BoundaryTrace(u.mesh, u.values[u.mesh.boundary_nodes])


def transfer_boundary_trace(fine: TriMesh, trace: BoundaryTrace, coarse: TriMesh) -> BoundaryTrace:
    """Transfer a boundary trace between unit-disk meshes by angle interpolation.

    The coarse value at a boundary node with angle theta is the piecewise
    linear interpolant (in theta, periodic) of the fine trace.  Exact on
    constants and linear in the trace.
    """
    if trace.mesh is not fine:
        raise FieldError("trace is not defined on the given fine mesh")
    vals = np.interp(
        coarse.boundary_angles,
        fine.boundary_angles,
        trace.values,
        period=2.0 * np.pi,
    )
    return BoundaryTrace(coarse, vals)


def write_csv(path, header: str, columns) -> None:
    """Write a CSV artifact: ASCII, one header line, ``,`` separators, LF line ends.

    ``columns`` holds equal-length sequences, each formatted once by dtype:
    floats as ``%.17g`` (exact round trip), booleans as 0/1, anything else
    with ``str``.  No columns writes the header alone.
    """
    cells = []
    for values in map(np.asarray, columns):
        values = values.astype(np.int8) if values.dtype.kind == "b" else values
        spec = ".17g" if values.dtype.kind == "f" else ""
        cells.append(list(map(format, values.tolist(), repeat(spec))))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def read_csv(path, header: str) -> list[list[str]]:
    """Rows of a CSV artifact split into cells, after checking its header and row widths."""
    # A non-ASCII byte decodes to U+FFFD and fails the header or number checks.
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise FieldError(f"unexpected CSV header {found!r} in {path}, expected {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh]
    width = header.count(",") + 1
    for n, row in enumerate(rows, start=2):
        if len(row) != width:
            raise FieldError(f"{path} line {n}: expected {width} fields, got {len(row)}")
    return rows


def _numbers(path, rows, column: int, cast) -> np.ndarray:
    """One column of ``read_csv`` rows converted with ``cast`` (int or float)."""
    try:
        return np.array([cast(row[column]) for row in rows], dtype=cast)
    except (ValueError, OverflowError) as exc:
        raise FieldError(f"malformed value in {path}: {exc}") from None


def _positions(source, index: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position in ``keys`` of each row index, every key exactly once; ``source`` labels errors."""
    order = np.argsort(keys)
    ordered = keys[order]
    slot = np.minimum(np.searchsorted(ordered, index), keys.size - 1)
    unknown = ordered[slot] != index
    if np.any(unknown):
        raise FieldError(f"{source}: unexpected index {index[unknown][0]}")
    counts = np.bincount(slot, minlength=keys.size)
    if np.any(counts > 1):
        raise FieldError(f"{source}: index {ordered[np.argmax(counts)]} appears more than once")
    if np.any(counts == 0):
        raise FieldError(f"{source}: index {ordered[np.argmin(counts)]} is missing")
    return order[slot]


def _read_indexed(path, header: str, keys: np.ndarray) -> np.ndarray:
    """Values of an ``index,value`` CSV in the order of ``keys``; ``nan`` is a value."""
    rows = read_csv(path, header)
    values = np.empty(keys.size)
    values[_positions(path, _numbers(path, rows, 0, int), keys)] = _numbers(path, rows, 1, float)
    return values


def write_element_csv(field: PiecewiseConstantField, path) -> None:
    write_csv(path, "element_index,value", [np.arange(field.mesh.n_elements), field.values])


def read_element_csv(mesh: TriMesh, path) -> PiecewiseConstantField:
    values = _read_indexed(path, "element_index,value", np.arange(mesh.n_elements))
    return PiecewiseConstantField(mesh, values)


def write_node_csv(field: NodalField, path) -> None:
    write_csv(path, "node_index,value", [np.arange(field.mesh.n_nodes), field.values])


def read_node_csv(mesh: TriMesh, path) -> NodalField:
    return NodalField(mesh, _read_indexed(path, "node_index,value", np.arange(mesh.n_nodes)))


def write_trace_csv(trace: BoundaryTrace, path) -> None:
    """Boundary trace rows keyed by global node index, in angular order."""
    write_csv(path, "node_index,value", [trace.mesh.boundary_nodes, trace.values])


def read_trace_csv(mesh: TriMesh, path) -> BoundaryTrace:
    return BoundaryTrace(mesh, _read_indexed(path, "node_index,value", mesh.boundary_nodes))


def write_field_pgm(field: PiecewiseConstantField, path, resolution: int = 512) -> None:
    """Rasterize element values to a binary PGM heatmap.

    Pixels outside the (polygonal) disk get gray level 0; inside pixels are
    mapped linearly onto 1..255 between the field minimum and maximum (a
    constant field maps to 255).  Row 0 of the image is y = +1.

    A pixel is tested at its centre: it belongs to an element when the
    centre's barycentric coordinates are all at least -1e-12.  A centre on an
    edge or vertex shared by several elements takes the gray of the one with
    the highest element index.
    """
    mesh = field.mesh
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
    # Pixel bounding box of each element; column 0 is x, column 1 is y.
    lo = np.clip(np.floor((p.min(axis=1) + 1.0) / h), 0, resolution - 1).astype(np.int64)
    hi = np.clip(np.ceil((p.max(axis=1) + 1.0) / h), 0, resolution - 1).astype(np.int64)
    nx, ny = (hi - lo + 1).T
    # Element e owns the candidates offset[e] <= c < offset[e + 1]; candidate c
    # is pixel (k // nx, k % nx) of its box, with k = c - offset[e].
    offset = np.concatenate(([0], np.cumsum(nx * ny)))
    total = int(offset[-1])
    owner = np.full((resolution, resolution), -1, dtype=np.int32)
    for start in range(0, total, _PGM_BLOCK):
        cand = np.arange(start, min(start + _PGM_BLOCK, total))
        elem = np.searchsorted(offset, cand, side="right") - 1
        iy, ix = np.divmod(cand - offset[elem], nx[elem])
        ix += lo[elem, 0]
        iy += lo[elem, 1]
        inside = _barycentric_mask(p[elem].transpose(1, 2, 0), centers[ix], centers[iy])
        rows = (resolution - 1) - iy[inside]
        # A pixel claimed by several elements takes the highest element index.
        np.maximum.at(owner, (rows, ix[inside]), elem[inside].astype(np.int32))
    img = np.where(owner >= 0, gray[owner], 0).astype(np.uint8)

    with open(path, "wb") as fh:
        fh.write(f"P5\n{resolution} {resolution}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _barycentric_mask(tri: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Points (gx, gy) inside ``tri``, whose vertices are (3, 2) or (3, 2, n) per point."""
    (x0, y0), (x1, y1), (x2, y2) = tri
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = ((gx - x0) * (y2 - y0) - (gy - y0) * (x2 - x0)) / det
    l2 = ((gy - y0) * (x1 - x0) - (gx - x0) * (y1 - y0)) / det
    eps = 1e-12
    return (l1 >= -eps) & (l2 >= -eps) & (l1 + l2 <= 1.0 + eps)

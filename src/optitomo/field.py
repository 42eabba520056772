"""Coefficient, solution, and boundary-trace containers plus samplers and emitters.

Coefficients are piecewise constant per element (values sampled at element
centroids); solutions are nodal P1 fields; boundary traces hold one value per
boundary node in angular order.  Boundary transfer between meshes uses the
angle parameterization of the circle, which is exact for the disk geometry
and reproduces constants.

Coefficients and boundary currents are text descriptors of one grammar,
``NAME`` or ``NAME:V1,...,Vn`` with every number finite and every disk radius
or square half width positive (``parse_descriptor``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .mesh import TriMesh, text_rows

# Rasterizer block: (element, pixel) candidates tested per vectorized step.
_PGM_BLOCK = 4096


@dataclass(frozen=True)
class _MeshValues:
    """One value per mesh entity, held as a read-only float copy.

    A subclass names its entity: ``_count`` is the ``TriMesh`` attribute that
    counts it, ``_noun`` the word for its values in the shape error.
    """

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        n = getattr(self.mesh, self._count)
        if vals.shape != (n,):
            raise FieldError(f"expected {n} {self._noun} values, got {vals.shape}")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


@dataclass(frozen=True)
class PiecewiseConstantField(_MeshValues):
    """One value per element."""

    _count, _noun = "n_elements", "element"

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
class NodalField(_MeshValues):
    """One value per node (P1 finite-element function)."""

    _count, _noun = "n_nodes", "nodal"


@dataclass(frozen=True)
class BoundaryTrace(_MeshValues):
    """One value per boundary node, in the angular order of ``mesh.boundary_nodes``."""

    _count, _noun = "n_boundary", "boundary"


def constant(value: float):
    """Descriptor: the constant function."""
    def fn(x, y):
        return np.full_like(np.asarray(x, dtype=float), value)
    return fn


def in_disk(x, y, cx: float, cy: float, radius: float) -> np.ndarray:
    """Whether each point (x, y) lies in the open disk of ``radius`` around (cx, cy)."""
    return (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2 < radius ** 2


def disk_indicator(cx: float, cy: float, radius: float, inside: float, outside: float):
    """Descriptor: ``inside`` on the open disk around (cx, cy), ``outside`` elsewhere."""
    if radius <= 0.0:
        raise ValueError(f"disk radius must be positive, got {radius}")

    def fn(x, y):
        return np.where(in_disk(x, y, cx, cy, radius), inside, outside).astype(float)
    return fn


def square_indicator(half_width: float, inside: float, outside: float):
    """Descriptor: sup-norm square of given half width centered at the origin."""
    if half_width <= 0.0:
        raise ValueError(f"square half width must be positive, got {half_width}")

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
            out = np.where(in_disk(x, y, *EX2_DISKS[name]), value, out)
        return out
    return fn


# Coefficient forms of parse_descriptor; a catalogue name takes no numbers.
COEFFICIENTS = {
    "constant": constant,
    "disk": disk_indicator,
    "square": square_indicator,
    "one": lambda: constant(1.0),
    "example1_sigma": lambda: disk_indicator(0.0, 0.0, 0.5, 2.0, 1.0),
    "example1_q": lambda: _example1_q,
    "example2_sigma": lambda: _two_disk((("d1", 2.0), ("d2", 3.0)), 1.0),
    "example2_q": lambda: _two_disk((("d3", 3.0), ("d4", 4.0)), 1.0),
    "example2_sigma_init": lambda: _two_disk((("d1", 1.1), ("d2", 1.2)), 1.0),
    "example2_q_init": lambda: _two_disk((("d3", 1.1), ("d4", 1.2)), 1.0),
}


def parse_descriptor(text: str, forms: dict = COEFFICIENTS, noun: str = "coefficient"):
    """Parse ``NAME`` or ``NAME:V1,...,Vn`` into the callable its form makes.

    ``forms`` maps each name to a factory whose parameters are the numbers.
    A name not in ``forms`` is an unknown descriptor; a count other than the
    factory's, a number that is missing or not finite, or one the factory
    refuses with ``ValueError`` (a disk radius or square half width <= 0), a
    malformed one.
    """
    name, _, arg = text.partition(":")
    factory = forms.get(name.strip())
    if factory is None:
        raise FieldError(f"unknown {noun} descriptor {text!r}")
    try:
        values = [float(v) for v in arg.split(",")] if arg else []
        if len(values) != len(inspect.signature(factory).parameters) or not all(map(math.isfinite, values)):
            raise ValueError  # float() accepts nan and inf
        return factory(*values)
    except ValueError:
        raise FieldError(f"malformed {noun} descriptor {text!r}") from None


def sample_coefficient(mesh: TriMesh, expr) -> PiecewiseConstantField:
    """Sample a descriptor at element centroids.

    ``expr`` is a coefficient descriptor or a callable of vectorized (x, y).
    A coefficient must be positive: any non-positive sampled value is an error.
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


def transfer_boundary_trace(trace: BoundaryTrace, coarse: TriMesh) -> BoundaryTrace:
    """Transfer a boundary trace onto another unit-disk mesh by angle interpolation.

    The coarse value at a boundary node with angle theta is the piecewise
    linear interpolant (in theta, periodic) of the trace on its own mesh.
    Exact on constants and linear in the trace.
    """
    vals = np.interp(
        coarse.boundary_angles,
        trace.mesh.boundary_angles,
        trace.values,
        period=2.0 * np.pi,
    )
    return BoundaryTrace(coarse, vals)


def write_csv(path, header: str, columns) -> None:
    """Write a CSV artifact: ASCII, one header line, ``,`` separators, LF line ends.

    ``columns`` holds equal-length sequences; :func:`~optitomo.mesh.text_rows`
    formats the rows, floats as ``%.17g`` (exact round trip) and booleans as
    0/1, and refuses columns of unequal length.  No columns writes the header
    alone.
    """
    lines = (header.encode("ascii") + b"\n", text_rows(columns, ","))
    with open(path, "wb") as fh:
        fh.writelines(lines)


def write_element_csv(field: PiecewiseConstantField, path) -> None:
    write_csv(path, "element_index,value", [np.arange(field.mesh.n_elements), field.values])


def write_node_csv(field: NodalField, path) -> None:
    write_csv(path, "node_index,value", [np.arange(field.mesh.n_nodes), field.values])


def write_trace_csv(trace: BoundaryTrace, path) -> None:
    """Boundary trace rows keyed by global node index, in angular order."""
    write_csv(path, "node_index,value", [trace.mesh.boundary_nodes, trace.values])


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

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

# Rasterizer block: write_field_pgm reads the elements in blocks of this many
# and finds their pixel spans in steps of about this many pixel rows, so no
# temporary grows with the mesh.
_PGM_BLOCK = 2048
# Slack of the row spans of write_field_pgm: in pixels, and in barycentric
# units; each is far above the rounding of the spans and of the inside test.
_SPAN_SLACK = 1e-6
_BARY_SLACK = 1e-9


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

    def require_mesh(self, mesh: TriMesh) -> "_MeshValues":
        """Require the values to live on ``mesh`` itself; an equal copy is another mesh."""
        if self.mesh is not mesh:
            raise FieldError(f"{self._noun} values live on a different mesh")
        return self


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

    def require_absorption(self) -> "PiecewiseConstantField":
        """Require finite values >= 0, some > 0: an absorption that vanishes identically leaves the Neumann problem singular."""
        if not (np.all(np.isfinite(self.values) & (self.values >= 0.0)) and np.any(self.values > 0.0)):
            raise FieldError("absorption coefficient must be finite, nonnegative and not identically 0")
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
    formats the rows block by block, floats as ``%.17g`` (exact round trip)
    and booleans as 0/1, and refuses columns of unequal length before the
    file is opened.  No columns writes the header alone.
    """
    blocks = text_rows(columns, ",")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.writelines(blocks)


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

    A pixel is tested at its centre: it belongs to an element when
    ``_barycentric_mask`` accepts the centre, that is when its barycentric
    coordinates are all at least -1e-12.  A centre on an edge or vertex shared
    by several elements takes the gray of the highest element index.

    The pixels are found row by row.  On a pixel row each barycentric
    coordinate is affine in the column, so each element's three half-planes
    cut the row to a span of columns: loosened by a slack (``_SPAN_SLACK``
    pixel plus ``_BARY_SLACK`` in barycentric units, both far above rounding)
    the *outer* span holds every centre the test can accept, and tightened
    by it the *inner* span holds only centres the test accepts.  Inner
    pixels are claimed untested; only the few outer ones beside them, where
    a centre can sit on an edge, go through ``_barycentric_mask``.

    Raises :class:`FieldError`, before the file is opened, when a field value
    is not finite or the resolution is not a positive int.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise FieldError(f"PGM resolution must be a positive int, got {resolution!r}")
    resolution = int(resolution)
    gray = _gray_levels(field)
    owner = np.full(resolution * resolution, -1, dtype=np.int32)
    mesh = field.mesh
    for start in range(0, mesh.n_elements, _PGM_BLOCK):
        _claim_pixels(owner, np.take(mesh.nodes, mesh.elements[start:start + _PGM_BLOCK], axis=0), start, resolution)
    img = np.append(gray, np.uint8(0))[owner]  # owner -1, outside the disk, reads 0

    with open(path, "wb") as fh:
        fh.write(f"P5\n{resolution} {resolution}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _gray_levels(field: PiecewiseConstantField) -> np.ndarray:
    """Gray level 1..255 per element, linear between the field minimum and maximum."""
    values = field.values
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldError(f"PGM field must be finite; element {bad[0]} has value {values[bad[0]]}")
    vmin = float(values.min())
    vmax = float(values.max())
    if not math.isfinite(254.0 * (vmax - vmin)):
        # a power of two scales exactly, and 2**-9 keeps 254 * (max - min) finite
        values, vmin, vmax = values * 2.0 ** -9, vmin * 2.0 ** -9, vmax * 2.0 ** -9
    span = vmax - vmin
    if span > 0.0:
        return (1.0 + np.round(254.0 * (values - vmin) / span)).astype(np.uint8)
    return np.full(field.mesh.n_elements, 255, dtype=np.uint8)


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integers first[i], ..., first[i] + count[i] - 1 of every run i, run after run."""
    keep = count > 0
    first, count = first[keep], count[keep]
    # steps of 1 within a run and a jump to each next run's first integer,
    # summed in place: one integer array of the output's length
    ints = np.ones(count.sum(), dtype=np.int64)
    if ints.size:
        ints[0] = first[0]
        ints[np.cumsum(count[:-1])] = first[1:] - (first[:-1] + count[:-1] - 1)
    return np.cumsum(ints, out=ints)


def _claim_pixels(owner: np.ndarray, p: np.ndarray, start: int, resolution: int) -> None:
    """Claim in the flat ``owner`` image the pixels of elements ``start``, ... with vertices ``p``.

    The elements go in steps of consecutive ones whose pixel rows add up to
    at most ``_PGM_BLOCK`` plus the rows of one element.  Inner-span pixels
    are claimed untested, the outer-span pixels beside them only where
    ``_barycentric_mask`` accepts their centre.
    """
    below, above, first, rows, inner_first, inner_last = _half_planes(p, resolution)
    ends = np.cumsum(rows)
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1] + _PGM_BLOCK, _PGM_BLOCK), side="right"))
    centers = -1.0 + (np.arange(resolution) + 0.5) * (2.0 / resolution)
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = rows[a:b]
        elem, iy = np.repeat(np.arange(a, b), n), _runs(first[a:b], n)
        spans = [bound for side, extreme in ((below, np.max), (above, np.min))
                 for bound in _span_bounds(side[:, :, a:b], n, iy, extreme)]
        lo_out, lo_in = (np.ceil(np.clip(lo, 0, resolution)).astype(np.int64) for lo in spans[:2])
        hi_out, hi_in = (np.floor(np.clip(hi, -1, resolution - 1)).astype(np.int64) for hi in spans[2:])
        empty = (lo_in > hi_in) | (iy < inner_first[elem]) | (iy > inner_last[elem])
        lo_in[empty] = hi_out[empty] + 1
        hi_in[empty] = hi_out[empty]
        # pixels as flat indices, image line 0 being row R - 1
        line = (resolution - 1 - iy) * resolution
        pixel, claims, claimant = line + lo_in, hi_in - lo_in + 1, elem
        side_lo = np.concatenate((lo_out, hi_in + 1))
        side_n = np.concatenate((lo_in, hi_out + 1)) - side_lo
        sides = np.flatnonzero(side_n > 0)
        if sides.size:
            tested = _runs(np.tile(line, 2)[sides] + side_lo[sides], side_n[sides])
            band = np.repeat(sides % iy.size, side_n[sides])
            inside = _barycentric_mask(p[elem[band]].transpose(1, 2, 0),
                                       centers[tested - line[band]], centers[iy[band]])
            # the accepted pixels join the inner spans as runs of one
            pixel = np.concatenate((pixel, tested[inside]))
            claims = np.concatenate((claims, np.ones(np.count_nonzero(inside), dtype=np.int64)))
            claimant = np.concatenate((claimant, elem[band[inside]]))
        # a pixel claimed by several elements takes the highest element index
        np.maximum.at(owner, _runs(pixel, claims), np.repeat(claimant.astype(np.int32) + np.int32(start), claims))


def _span_bounds(side: np.ndarray, rows: np.ndarray, iy: np.ndarray, extreme) -> tuple[np.ndarray, np.ndarray]:
    """The outer and inner span bound on each row ``iy``: the ``extreme`` over the edges of one ``side``.

    ``side`` is ``_half_planes``'s ``below`` or ``above`` for the elements
    whose ``rows`` make up ``iy``; its copy per row lives only in this call.
    """
    outer, inner, slope = np.repeat(side, rows, axis=2)
    slope *= iy
    return extreme(outer + slope, axis=0), extreme(inner + slope, axis=0)


def _half_planes(p: np.ndarray, resolution: int) -> tuple[np.ndarray, ...]:
    """The span bounds of the elements with vertices ``p`` and the pixel rows they can reach.

    In pixel coordinates the centre of column ix, row iy (counted from
    y = -1) is (ix, iy).  Edge k of an element runs from vertex k + 1 to
    vertex k + 2, and the barycentric coordinate of vertex k is
    ((Y - yv) ex - (X - xv) ey) / det, with (xv, yv) vertex k + 1, (ex, ey)
    the edge and det > 0 twice the area.  On row iy its half-plane, loosened
    (outer) or tightened (inner) by ``slack``, is ey X <= c + ex iy with
    c = ey xv - ex yv +- slack: a rising edge (ey > 0) bounds the span from
    above, a falling one from below, and a horizontal one holds or fails for
    the whole row.

    Returns ``below`` and ``above``, (3, 3, elements) arrays that hold per
    edge the outer and inner bound at row 0 and their slope in the row, set
    to -inf, -inf, 0 in ``below`` where the edge bounds no span from below
    and to inf, inf, 0 in ``above`` where none from above; then per element
    the first row and the number of rows whose centre can hold an accepted
    point, and the rows from and to which every horizontal half-plane holds
    tightened.
    """
    x, y = np.ascontiguousarray(((p + 1.0) * (resolution / 2.0) - 0.5).T)  # (3, elements): vertex k in row k
    # a clockwise element is taken counterclockwise: the inside test reads p
    cw = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]) < 0.0
    x[1:, cw], y[1:, cw] = x[2:0:-1, cw], y[2:0:-1, cw]
    xv, yv = x[[1, 2, 0]], y[[1, 2, 0]]
    ex, ey = x[[2, 0, 1]] - xv, y[[2, 0, 1]] - yv
    slack = _SPAN_SLACK * (np.abs(ex) + np.abs(ey)) + _BARY_SLACK * (ex[0] * ey[1] - ey[0] * ex[1])
    flat = ey == 0.0
    c = ey * xv - ex * yv
    q = np.stack([c + slack, c - slack, ex]) / np.where(flat, 1.0, ey)
    unbounded = np.array([np.inf, np.inf, 0.0])[:, None, None]
    # every accepted point has barycentric coordinates above -_BARY_SLACK
    ymin, ymax = y.min(axis=0), y.max(axis=0)
    margin = _SPAN_SLACK + 2.0 * _BARY_SLACK * (ymax - ymin)
    first = np.maximum(np.ceil(ymin - margin), 0).astype(np.int64)
    rows = np.maximum(np.minimum(np.floor(ymax + margin), resolution - 1).astype(np.int64) - first + 1, 0)
    # a bottom edge (ex > 0) holds tightened from row yv + slack / ex up, a top edge up to it
    edge_row = yv + slack / np.where(flat, ex, 1.0)
    return (np.where(ey < 0.0, q, -unbounded), np.where(ey > 0.0, q, unbounded), first, rows,
            np.where(flat & (ex > 0.0), edge_row, -np.inf).max(axis=0),
            np.where(flat & (ex < 0.0), edge_row, np.inf).min(axis=0))


def _barycentric_mask(tri: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Points (gx, gy) inside ``tri``, whose vertices are (3, 2) or (3, 2, n) per point."""
    (x0, y0), (x1, y1), (x2, y2) = tri
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    l1 = ((gx - x0) * (y2 - y0) - (gy - y0) * (x2 - x0)) / det
    l2 = ((gy - y0) * (x1 - x0) - (gx - x0) * (y1 - y0)) / det
    eps = 1e-12
    return (l1 >= -eps) & (l2 >= -eps) & (l1 + l2 <= 1.0 + eps)

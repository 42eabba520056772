"""Synthetic experiment construction: benchmark targets, fluxes, data, metrics.

Measurements are produced on a fine mesh, optionally corrupted with Gaussian
noise of standard deviation epsilon * ||f_k||_inf per boundary node, and then
transferred to the coarser inversion mesh.  Generating data on a finer mesh
than the one used for inversion avoids committing the inverse crime.  Noise
is applied on the fine mesh (the measurement side) before transfer.

Randomness uses numpy's PCG64 generator seeded per measurement index through
``SeedSequence([seed, k])``, so runs are reproducible and the per-measurement
streams are independent of each other and of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .field import (
    BoundaryTrace,
    PiecewiseConstantField,
    _numbers,
    _positions,
    read_csv,
    restrict_to_boundary,
    sample_coefficient,
    transfer_boundary_trace,
    write_csv,
    EX2_DISKS,
)
from .fem import assemble, solve_neumann
from .inversion import MeasurementSet
from .mesh import TriMesh, generate_disk_mesh


def parse_flux(text: str):
    """Parse a flux descriptor into a callable of the boundary angle.

    Accepted forms: ``const:C``, ``sin:K``, ``cos:K``, ``offset_sin:C,K``
    (meaning C + sin(K*theta)).
    """
    name, _, arg = text.partition(":")
    name = name.strip()
    try:
        parts = [float(p) for p in arg.split(",")] if arg else []
    except ValueError:  # no form matches: malformed descriptor below
        parts = []
    if name == "const" and len(parts) == 1:
        return lambda theta: np.full_like(np.asarray(theta, dtype=float), parts[0])
    if name == "sin" and len(parts) == 1:
        return lambda theta: np.sin(parts[0] * np.asarray(theta, dtype=float))
    if name == "cos" and len(parts) == 1:
        return lambda theta: np.cos(parts[0] * np.asarray(theta, dtype=float))
    if name == "offset_sin" and len(parts) == 2:
        return lambda theta: parts[0] + np.sin(parts[1] * np.asarray(theta, dtype=float))
    raise FieldError(f"malformed flux descriptor {text!r}")


def sample_flux(mesh: TriMesh, flux) -> BoundaryTrace:
    """Sample a flux descriptor (string or callable of theta) at boundary nodes."""
    fn = parse_flux(flux) if isinstance(flux, str) else flux
    return BoundaryTrace(mesh, np.asarray(fn(mesh.boundary_angles), dtype=float))


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible synthetic experiment."""

    name: str
    fine_elements: int
    coarse_elements: int
    fluxes: tuple
    noise_level: float
    seed: int
    truth_sigma: str
    truth_q: str
    init_sigma: str
    init_q: str
    angular_multiplier: int | None = None

    def __post_init__(self):
        if self.fine_elements <= self.coarse_elements:
            raise FieldError("fine mesh must have more elements than the coarse mesh")
        if not 0.0 <= self.noise_level < math.inf:  # also false for NaN
            raise FieldError(f"noise level must be finite and nonnegative, got {self.noise_level}")
        if len(self.fluxes) < 1:
            raise FieldError("at least one flux is required")


def example1_spec(noise_level: float = 0.0, seed: int = 0) -> ExperimentSpec:
    """Absorption-only benchmark: two-phase diffusion, cosine-bump absorption.

    Fluxes are 10 + sin(k*theta) for k = 1..5; data on ~4064 elements,
    inversion on ~1016.
    """
    return ExperimentSpec(
        name="example1",
        fine_elements=4064,
        coarse_elements=1016,
        fluxes=tuple(f"offset_sin:10,{k}" for k in range(1, 6)),
        noise_level=noise_level,
        seed=seed,
        truth_sigma="example1_sigma",
        truth_q="example1_q",
        init_sigma="example1_sigma",
        init_q="constant:1",
    )


def example2_spec(noise_level: float = 0.0, seed: int = 0) -> ExperimentSpec:
    """Simultaneous benchmark: four circular inclusions, fluxes sin(k*theta)."""
    return ExperimentSpec(
        name="example2",
        fine_elements=4064,
        coarse_elements=1016,
        fluxes=tuple(f"sin:{k}" for k in range(1, 6)),
        noise_level=noise_level,
        seed=seed,
        truth_sigma="example2_sigma",
        truth_q="example2_q",
        init_sigma="example2_sigma_init",
        init_q="example2_q_init",
    )


def apply_trace_noise(trace: BoundaryTrace, epsilon: float, rng: np.random.Generator) -> BoundaryTrace:
    """Add independent Gaussian noise of std epsilon * ||trace||_inf per node.

    With epsilon = 0 the trace is returned unchanged (no generator draw), so
    the noise-free path is bit-identical to the clean transfer.
    """
    if epsilon == 0.0:
        return trace
    scale = epsilon * float(np.max(np.abs(trace.values)))
    noise = rng.normal(0.0, scale, size=trace.values.shape)
    return BoundaryTrace(trace.mesh, trace.values + noise)


def make_measurements(spec: ExperimentSpec) -> MeasurementSet:
    """Generate measurement pairs on the coarse mesh from fine-mesh truth solves."""
    fine = generate_disk_mesh(spec.fine_elements, spec.angular_multiplier)
    coarse = generate_disk_mesh(spec.coarse_elements, spec.angular_multiplier)
    sigma_f = sample_coefficient(fine, spec.truth_sigma)
    q_f = sample_coefficient(fine, spec.truth_q)
    sys = assemble(fine, sigma_f, q_f)
    pairs = []
    for k, flux in enumerate(spec.fluxes, start=1):
        g_fine = sample_flux(fine, flux)
        u = solve_neumann(sys, g_fine)
        f_fine = restrict_to_boundary(u)
        rng = np.random.default_rng([spec.seed, k])
        f_noisy = apply_trace_noise(f_fine, spec.noise_level, rng)
        f_coarse = transfer_boundary_trace(fine, f_noisy, coarse)
        g_coarse = sample_flux(coarse, flux)
        pairs.append((g_coarse, f_coarse))
    return MeasurementSet(coarse, tuple(pairs))


def consistent_measurements(mesh: TriMesh, sigma, q, fluxes) -> MeasurementSet:
    """Noise-free pairs generated on the inversion mesh itself.

    With these, the data-generating coefficients drive the functional to an
    exact zero; used for optimizer and gradient consistency checks.
    """
    sys = assemble(mesh, sigma, q)
    pairs = []
    for flux in fluxes:
        g = sample_flux(mesh, flux)
        pairs.append((g, restrict_to_boundary(solve_neumann(sys, g))))
    return MeasurementSet(mesh, tuple(pairs))


def example2_regions(mesh: TriMesh) -> dict[str, np.ndarray]:
    """Element masks of the four inclusions and the background."""
    cen = mesh.centroids
    masks = {}
    covered = np.zeros(mesh.n_elements, dtype=bool)
    for name, (cx, cy, r) in EX2_DISKS.items():
        hit = (cen[:, 0] - cx) ** 2 + (cen[:, 1] - cy) ** 2 < r ** 2
        masks[name] = hit
        covered |= hit
    masks["background"] = ~covered
    return masks


def error_metrics(
    rec: PiecewiseConstantField,
    truth: PiecewiseConstantField,
    regions: dict[str, np.ndarray] | None = None,
):
    """Area-weighted relative L2 error, sup-norm error, and per-region means.

    Returns (rel_l2, rel_linf, table) where each table row holds the region
    name, its element count, the mean absolute error, and the mean
    reconstructed and true values over the region.
    """
    if rec.mesh is not truth.mesh:
        raise FieldError("fields live on different meshes")
    mesh = rec.mesh
    diff = rec.values - truth.values
    denom_l2 = math.sqrt(float(np.sum(mesh.areas * truth.values ** 2)))
    rel_l2 = math.sqrt(float(np.sum(mesh.areas * diff ** 2))) / denom_l2
    rel_linf = float(np.max(np.abs(diff))) / float(np.max(np.abs(truth.values)))
    table = []
    for name, mask in (regions or {"all": np.ones(mesh.n_elements, dtype=bool)}).items():
        if not np.any(mask):
            continue
        table.append(
            {
                "region": name,
                "n_elements": int(mask.sum()),
                "mean_abs_error": float(np.mean(np.abs(diff[mask]))),
                "mean_rec": float(np.mean(rec.values[mask])),
                "mean_truth": float(np.mean(truth.values[mask])),
            }
        )
    return rel_l2, rel_linf, table


def write_measurements_csv(meas: MeasurementSet, path) -> None:
    """Rows (k, boundary node index, g value, f value)."""
    nodes = meas.mesh.boundary_nodes
    write_csv(path, "k,boundary_node,g,f", [
        np.repeat(np.arange(1, len(meas) + 1), nodes.size),
        np.tile(nodes, len(meas)),
        np.concatenate([g.values for g, _ in meas.pairs]),
        np.concatenate([f.values for _, f in meas.pairs]),
    ])


def read_measurements_csv(mesh: TriMesh, path) -> MeasurementSet:
    """Pairs in increasing k; each k must list every boundary node exactly once."""
    rows = read_csv(path, "k,boundary_node,g,f")
    ks, nodes = _numbers(path, rows, 0, int), _numbers(path, rows, 1, int)
    gf = np.column_stack([_numbers(path, rows, c, float) for c in (2, 3)])
    pairs = []
    for k in np.unique(ks):
        values = np.empty((mesh.n_boundary, 2))
        values[_positions(f"{path}, k={k}", nodes[ks == k], mesh.boundary_nodes)] = gf[ks == k]
        pairs.append((BoundaryTrace(mesh, values[:, 0]), BoundaryTrace(mesh, values[:, 1])))
    return MeasurementSet(mesh, tuple(pairs))

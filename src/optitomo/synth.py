"""Synthetic experiment construction: benchmark targets, fluxes, data, metrics.

Boundary currents are flux descriptors: the ``FLUXES`` forms ``const:C``,
``sin:K``, ``cos:K`` and ``offset_sin:C,K`` of ``field.parse_descriptor``.

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
    EX2_DISKS,
    BoundaryTrace,
    PiecewiseConstantField,
    in_disk,
    parse_descriptor,
    sample_coefficient,
    transfer_boundary_trace,
    write_csv,
)
from .fem import assemble, solve_neumann_many
from .inversion import MeasurementSet
from .mesh import TriMesh, generate_disk_mesh


# Flux forms of parse_descriptor, callables of the boundary angle theta;
# offset_sin:C,K is C + sin(K*theta).
FLUXES = {
    "const": lambda c: lambda theta: np.full_like(np.asarray(theta, dtype=float), c),
    "sin": lambda k: lambda theta: np.sin(k * np.asarray(theta, dtype=float)),
    "cos": lambda k: lambda theta: np.cos(k * np.asarray(theta, dtype=float)),
    "offset_sin": lambda c, k: lambda theta: c + np.sin(k * np.asarray(theta, dtype=float)),
}


def sample_flux(mesh: TriMesh, flux) -> BoundaryTrace:
    """Sample a flux descriptor (string or callable of theta) at boundary nodes."""
    fn = parse_descriptor(flux, FLUXES, "flux") if isinstance(flux, str) else flux
    values = np.asarray(fn(mesh.boundary_angles), dtype=float)
    if not np.all(np.isfinite(values)):
        raise FieldError("flux samples must be finite")
    return BoundaryTrace(mesh, values)


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible synthetic experiment."""

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
    """Generate measurement pairs on the coarse mesh from one K-column truth solve on the fine mesh."""
    fine = generate_disk_mesh(spec.fine_elements, spec.angular_multiplier)
    coarse = generate_disk_mesh(spec.coarse_elements, spec.angular_multiplier)
    sys = assemble(fine, sample_coefficient(fine, spec.truth_sigma), sample_coefficient(fine, spec.truth_q))
    g_fine = np.column_stack([sample_flux(fine, flux).values for flux in spec.fluxes])
    f_fine = solve_neumann_many(sys, g_fine)[fine.boundary_nodes]
    traces = []
    for k, f in enumerate(f_fine.T, start=1):
        rng = np.random.default_rng([spec.seed, k])
        f_noisy = apply_trace_noise(BoundaryTrace(fine, f), spec.noise_level, rng)
        traces.append(transfer_boundary_trace(f_noisy, coarse).values)
    fluxes = [sample_flux(coarse, flux).values for flux in spec.fluxes]
    return MeasurementSet(coarse, np.column_stack(fluxes), np.column_stack(traces))


def consistent_measurements(mesh: TriMesh, sigma, q, fluxes) -> MeasurementSet:
    """Noise-free pairs generated on the inversion mesh itself.

    With these, the data-generating coefficients drive the functional to an
    exact zero; used for optimizer and gradient consistency checks.
    """
    g = np.column_stack([sample_flux(mesh, flux).values for flux in fluxes])
    return MeasurementSet(mesh, g, solve_neumann_many(assemble(mesh, sigma, q), g)[mesh.boundary_nodes])


def example2_regions(mesh: TriMesh) -> dict[str, np.ndarray]:
    """Element masks of the four inclusions and the background."""
    cen = mesh.centroids
    masks = {name: in_disk(cen[:, 0], cen[:, 1], *disk) for name, disk in EX2_DISKS.items()}
    masks["background"] = ~np.any(list(masks.values()), axis=0)
    return masks


def error_metrics(
    rec: PiecewiseConstantField,
    truth: PiecewiseConstantField,
    regions: dict[str, np.ndarray] | None = None,
):
    """Area-weighted relative L2 error, sup-norm error, and per-region mean absolute errors.

    Returns (rel_l2, rel_linf, table) where each table row holds the region
    name and the mean absolute error over the region.
    """
    mesh = rec.mesh
    truth.require_mesh(mesh)
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
                "mean_abs_error": float(np.mean(np.abs(diff[mask]))),
            }
        )
    return rel_l2, rel_linf, table


def write_measurements_csv(meas: MeasurementSet, path) -> None:
    """Rows (k, boundary node index, g value, f value)."""
    nodes = meas.mesh.boundary_nodes
    write_csv(path, "k,boundary_node,g,f", [
        np.repeat(np.arange(1, len(meas) + 1), nodes.size),
        np.tile(nodes, len(meas)),
        meas.fluxes.ravel(order="F"),
        meas.traces.ravel(order="F"),
    ])

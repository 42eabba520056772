"""Constructive stability certificates from localized boundary currents.

For each cell D_j of a partition of the probed subdomain omega and each
absorption bracket k, a probing coefficient eta(j,k) is fixed and a boundary
current g is sought whose Neumann solution u concentrates on D_j.  The
certificate

    beta(j,k) = 1/2 int_{D_j} u^2 - (3b/(2a) - 1/2) int_{omega \\ D_j} u^2

is a quadratic form g^T B g with B = U^T Q U: column i of U is the Neumann
solution for the i-th boundary hat current (the solve ``build_ntd`` makes),
and Q sums the exact P1 element mass matrices over omega with weight 1/2 on
D_j and -(3b/(2a) - 1/2) on the rest.  The current with the largest
certificate per unit squared norm <g, g>_M is the top eigenvector of
B g = lambda M g (Golub & Van Loan, Matrix Computations, section 8.7).
``find_localized_current`` scales it to beta = BETA_TARGET, which makes
<g, g>_M = BETA_TARGET / lambda_max the smallest squared norm of any current
certified at that level; beta and the squared norm are both quadratic under
scaling of g, and any current with its own beta > 1 yields a valid stability
factor.  Every accepted current is certified again by an independent
single-column Neumann solve: the recomputed beta must exceed 1 and lie within
a relative tolerance of BETA_TARGET, which catches a wrong form B or wrong
weights.  The tolerance is RECHECK_RTOL, or RECHECK_ROUNDING * eps * kappa
where that is larger: kappa = max |lambda_i| / lambda_max over the spectrum
of B g = lambda M g, and the rounding of B reaches the re-checked beta as
about eps * kappa (measured at most 0.16 eps * kappa on 288 and 968 elements),
so strongly indefinite forms keep their certificates while a relative weight
error delta, which moves beta by about 3.6 delta, is still refused.

The certified sup-norm stability inequality reads

    ||q1 - q2||_inf <= S * ||Lambda(q1) - Lambda(q2)||_M

with stability factor S = max over (j,k) of <g, g>_M; ``lipschitz_constant``
returns its reciprocal L = 1/S together with the accepted currents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import CertificateError, FieldError
from .field import BoundaryTrace, PiecewiseConstantField
from .fem import assemble, element_l2_products, solve_neumann, solve_neumann_many
from .mesh import Partition, TriMesh
from .ntd import boundary_inner, build_ntd, m_weighted_opnorm

# Certificate level of every accepted current; the margin above 1 is far
# wider than the re-check tolerance.
BETA_TARGET = 1.25
# Relative agreement required between BETA_TARGET and the re-checked beta ...
RECHECK_RTOL = 1e-6
# ... or this multiple of eps * kappa, where the eigenproblem's rounding is larger.
RECHECK_ROUNDING = 4.0


@dataclass(frozen=True)
class ProbingSetup:
    """Partitioned subdomain, coefficient bounds, and the known background diffusion."""

    partition: Partition
    a: float
    b: float
    K: int
    sigma: PiecewiseConstantField

    @property
    def mesh(self) -> TriMesh:
        return self.partition.mesh

    @property
    def n_cells(self) -> int:
        return self.partition.n_cells


@dataclass(frozen=True)
class LocalizedCurrent:
    """An accepted localized current with its re-checked certificate.

    ``recheck_rtol`` is the relative tolerance its re-check was held to;
    ``forward_applications`` counts the Neumann columns solved to find and
    certify it: one per boundary hat current, and the re-check.
    """

    j: int
    k: int
    g: BoundaryTrace
    beta: float
    recheck_rtol: float
    forward_applications: int

    def norm_sq(self) -> float:
        return boundary_inner(self.g, self.g, self.g.mesh.boundary_mass)


def compute_K(a: float, b: float) -> int:
    """Number of absorption brackets: floor(3(b/a - 1)) + 3."""
    if not 0.0 < a <= b:
        raise FieldError("bounds must satisfy 0 < a <= b")
    return int(math.floor(3.0 * (b / a - 1.0))) + 3


def make_probing_setup(partition: Partition, a: float, b: float) -> ProbingSetup:
    """Build a probing setup with the background diffusion 1 outside omega and 2 inside."""
    sigma = PiecewiseConstantField(partition.mesh, np.where(partition.omega_mask, 2.0, 1.0))
    return ProbingSetup(partition, float(a), float(b), compute_K(a, b), sigma)


def eta_field(setup: ProbingSetup, j: int, k: int) -> PiecewiseConstantField:
    """Probing absorption: (k+4)a/3 on cell j, a/3 on the rest of the subdomain, 0 outside."""
    if not 1 <= j <= setup.n_cells:
        raise FieldError(f"cell index {j} out of range 1..{setup.n_cells}")
    if not 1 <= k <= setup.K:
        raise FieldError(f"bracket index {k} out of range 1..{setup.K}")
    part = setup.partition
    values = np.zeros(setup.mesh.n_elements)
    values[part.omega_mask] = setup.a / 3.0
    values[part.cell_mask(j)] = (k + 4) * setup.a / 3.0
    return PiecewiseConstantField(setup.mesh, values)


def cell_values_to_field(partition: Partition, cell_values) -> PiecewiseConstantField:
    """Expand per-cell values to a per-element field, zero outside the subdomain."""
    cell_values = np.asarray(cell_values, dtype=float)
    if cell_values.shape != (partition.n_cells,):
        raise FieldError(f"expected {partition.n_cells} cell values")
    omega = partition.omega_mask
    values = np.zeros(partition.mesh.n_elements)
    values[omega] = cell_values[partition.labels[omega] - 1]
    return PiecewiseConstantField(partition.mesh, values)


def bracket_index(setup: ProbingSetup, qj: float) -> int:
    """The k with (k+2)a/3 <= qj < (k+3)a/3, clipped to 1..K."""
    k = int(math.floor(3.0 * qj / setup.a)) - 2
    return min(max(k, 1), setup.K)


def _cell_and_rest(part: Partition, j: int, usq: np.ndarray) -> tuple[float, float]:
    """Sums of an array over the omega elements, on D_j and on omega \\ D_j."""
    cell = part.labels[part.omega_mask] == j
    return float(usq[cell].sum()), float(usq[~cell].sum())


def _certificate(setup: ProbingSetup, j: int, usq: np.ndarray) -> float:
    """beta(j, k) from the element integrals of u^2 over the subdomain elements."""
    inside, rest = _cell_and_rest(setup.partition, j, usq)
    weight = 3.0 * setup.b / (2.0 * setup.a) - 0.5
    return 0.5 * inside - weight * rest


def localization_gap(setup: ProbingSetup, q: PiecewiseConstantField, g: BoundaryTrace, j: int) -> float:
    """int_{D_j} u^2 - int_{omega \\ D_j} u^2 for the Neumann solution at absorption q."""
    sys = assemble(setup.mesh, setup.sigma, q)
    u = solve_neumann(sys, g)
    usq = element_l2_products(u, u)[setup.partition.omega_mask]
    inside, rest = _cell_and_rest(setup.partition, j, usq)
    return inside - rest


def _certificate_form(mesh: TriMesh, elements: np.ndarray, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_e weights_e int_e u_a u_b over the listed elements, for every column pair (a, b) of u.

    Uses the exact P1 element mass formula of ``element_l2_products``,
    int_e u v = |e|/12 (sum_i u_i sum_i v_i + sum_i u_i v_i) over the vertices i of e.
    """
    vertex = u[mesh.elements[elements]]
    w = weights * mesh.areas[elements] / 12.0
    total = vertex.sum(axis=1)
    flat = vertex.reshape(-1, u.shape[1])
    return (total.T * w) @ total + (flat.T * np.repeat(w, 3)) @ flat


def find_localized_current(setup: ProbingSetup, j: int, k: int) -> LocalizedCurrent:
    """The current with the smallest squared norm certified at beta(j,k) = BETA_TARGET.

    Solves the Neumann problem at eta(j,k) for every boundary hat current,
    forms the certificate's quadratic form B over the omega elements, takes
    the top eigenpair of B g = lambda M g and scales the eigenvector to
    beta = BETA_TARGET.  The current is then certified again by its own
    Neumann solve.

    Raises :class:`CertificateError` if lambda_max <= 0, so that no current
    has a positive certificate (a mesh or partition too coarse for the
    bounds), or if the re-checked beta is not above 1 or not within
    max(RECHECK_RTOL, RECHECK_ROUNDING * eps * kappa) of BETA_TARGET.
    """
    mesh = setup.mesh
    part = setup.partition
    sys = assemble(mesh, setup.sigma, eta_field(setup, j, k))
    omega = np.flatnonzero(part.omega_mask)
    # stated apart from ``_certificate``, so the re-check also catches a wrong weight
    weights = np.where(part.labels[omega] == j, 0.5, 0.5 - 1.5 * setup.b / setup.a)
    n_b = mesh.n_boundary
    form = _certificate_form(mesh, omega, weights, solve_neumann_many(sys, np.eye(n_b)))
    lam, vec = sla.eigh(form, mesh.boundary_mass)
    top = lam[-1]
    if not top > 0.0:
        raise CertificateError(
            f"no certificate for cell {j}, bracket {k}: the best beta per unit squared "
            f"current norm is lambda_max = {top:.4e} <= 0; mesh or partition too coarse"
        )
    kappa = np.max(np.abs(lam)) / top
    rtol = max(RECHECK_RTOL, RECHECK_ROUNDING * np.finfo(float).eps * kappa)
    g = BoundaryTrace(mesh, vec[:, -1] * math.sqrt(BETA_TARGET / top))
    u = solve_neumann(sys, g)
    beta = _certificate(setup, j, element_l2_products(u, u)[omega])
    defect = abs(beta - BETA_TARGET) / BETA_TARGET
    if not (beta > 1.0 and defect <= rtol):
        raise CertificateError(
            f"re-check failed for cell {j}, bracket {k}: beta {beta:.10g} from an independent "
            f"solve against {BETA_TARGET} from the eigenproblem (relative defect {defect:.3e} "
            f"> tolerance {rtol:.3e})"
        )
    return LocalizedCurrent(j, k, g, beta, float(rtol), n_b + 1)


def verify_localization(
    setup: ProbingSetup,
    current: LocalizedCurrent,
    q: PiecewiseConstantField,
) -> float:
    """Localization gap of an in-bounds absorption field under an accepted current.

    When the current's bracket k matches the bracket of q on cell j, the
    returned value is at least the current's certificate and in particular
    exceeds 1.  q must be piecewise constant on the partition with values in
    [a, b] on the subdomain and zero outside.
    """
    part = setup.partition
    if np.any(q.values[~part.omega_mask] != 0.0):
        raise FieldError("absorption field must vanish outside the subdomain")
    for j in range(1, part.n_cells + 1):
        cell_vals = q.values[part.cell_mask(j)]
        if np.ptp(cell_vals) > 1e-14 * max(abs(cell_vals[0]), 1.0):
            raise FieldError(f"absorption field is not constant on cell {j}")
        if not setup.a <= cell_vals[0] <= setup.b:
            raise FieldError(
                f"cell {j} value {cell_vals[0]:.6g} outside bounds [{setup.a}, {setup.b}]"
            )
    return localization_gap(setup, q, current.g, current.j)


def lipschitz_constant(setup: ProbingSetup) -> tuple[float, list[LocalizedCurrent]]:
    """Compute all N*K certified currents and L = 1 / max <g, g>_M."""
    currents = []
    for j in range(1, setup.n_cells + 1):
        for k in range(1, setup.K + 1):
            currents.append(find_localized_current(setup, j, k))
    return 1.0 / stability_factor(currents), currents


def stability_factor(currents: list[LocalizedCurrent]) -> float:
    """The certified sup-norm stability factor max <g, g>_M (reciprocal of L)."""
    return max(c.norm_sq() for c in currents)


def stability_report(
    setup: ProbingSetup,
    currents: list[LocalizedCurrent],
    n_pairs: int,
    seed: int,
) -> list[dict]:
    """Sample random in-bounds absorption pairs and test the certified inequality.

    Each row records the sup-norm coefficient distance, the M-weighted
    operator-norm distance of the NtD matrices, the certified bound (stability
    factor times the operator-norm distance), and whether the inequality held.
    """
    factor = stability_factor(currents)
    rng = np.random.default_rng(seed)
    part = setup.partition
    rows = []
    for i in range(n_pairs):
        q1 = rng.uniform(setup.a, setup.b, size=part.n_cells)
        q2 = rng.uniform(setup.a, setup.b, size=part.n_cells)
        dist = float(np.max(np.abs(q1 - q2)))
        if dist == 0.0:
            continue
        lam1, lam2 = (
            build_ntd(setup.mesh, setup.sigma, cell_values_to_field(part, v)).lam
            for v in (q1, q2)
        )
        opnorm = m_weighted_opnorm(lam1 - lam2, setup.mesh.boundary_mass)
        bound = factor * opnorm
        rows.append(
            {
                "pair": i,
                "coeff_distance": dist,
                "ntd_opnorm": opnorm,
                "certified_bound": bound,
                "holds": dist <= bound,
            }
        )
    return rows

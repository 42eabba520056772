"""Constructive stability certificates from localized boundary currents.

For each cell D_j of a partition of the probed subdomain and each absorption
bracket k, a probing coefficient eta(j,k) is fixed and a boundary current is
sought whose solution concentrates on D_j.  The search runs conjugate
gradients on the normal equations of the current-to-interior operator
T: g -> u|_omega (least-squares form, so the residual decreases monotonically)
against a cell-indicator target.  T maps a current to the element averages
of its Neumann solution over the subdomain elements omega; its adjoint T*
solves with a piecewise-constant source given on omega alone and returns the
boundary trace.  Both act on arrays indexed by the omega elements, and
``find_localized_current`` checks the pair against ADJOINT_RTOL before its
first sweep.  After every iterate the certificate

    beta(j,k) = 1/2 int_{D_j} u^2 - (3b/(2a) - 1/2) int_{omega \\ D_j} u^2

is evaluated, and the first iterate with beta > 1 is accepted.  The target
indicator is scaled so that its squared interior norm is 3, which makes the
certificate limit of an exactly localized solution equal to 3/2 independently
of the cell area.  A sweep that has not improved its best squared current
norm per unit certificate for PLATEAU_ITERATIONS iterations is stopped
uncertified; it is then retried once with the target lifted so that this
best iterate would certify at beta = 1.25, and the retry's first iterate with
beta > 1 is accepted.  Certificates are scale-sensitive (beta and the squared
current norm are both quadratic under scaling of g), and any current with its
own beta > 1 yields a valid stability factor.

The certified sup-norm stability inequality reads

    ||q1 - q2||_inf <= S * ||Lambda(q1) - Lambda(q2)||_M

with stability factor S = max over (j,k) of <g, g>_M; ``lipschitz_constant``
returns its reciprocal L = 1/S together with the accepted currents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, FieldError
from .field import BoundaryTrace, NodalField, PiecewiseConstantField
from .fem import assemble, element_l2_products, solve_neumann, solve_source
from .mesh import Partition, TriMesh
from .ntd import boundary_inner, build_ntd, m_weighted_opnorm

ADJOINT_RTOL = 1e-12
DEFAULT_MAX_ITER = 200
# A sweep ends once its best norm-per-certificate ratio is this many iterations
# old (counted from the start while no iterate has a positive certificate).
PLATEAU_ITERATIONS = 20


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
    """An accepted localized current with its certificate.

    ``cg_iterations`` is the iteration of the accepting sweep at which the
    current certified; ``forward_applications`` counts every Neumann solve
    made to find it (the adjoint check and all sweeps).
    """

    j: int
    k: int
    g: BoundaryTrace
    beta: float
    cg_iterations: int
    residuals: np.ndarray
    forward_applications: int

    def norm_sq(self) -> float:
        return boundary_inner(self.g, self.g, self.g.mesh.boundary_mass)


def compute_K(a: float, b: float) -> int:
    """Number of absorption brackets: floor(3(b/a - 1)) + 3."""
    if not 0.0 < a <= b:
        raise FieldError("bounds must satisfy 0 < a <= b")
    return int(math.floor(3.0 * (b / a - 1.0))) + 3


def make_probing_setup(
    partition: Partition,
    a: float,
    b: float,
    sigma_outside: float = 1.0,
    sigma_inside: float = 2.0,
) -> ProbingSetup:
    """Build a probing setup with the two-phase background diffusion."""
    mesh = partition.mesh
    sigma_vals = np.where(partition.omega_mask, sigma_inside, sigma_outside)
    sigma = PiecewiseConstantField(mesh, sigma_vals).require_positive()
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


def find_localized_current(
    setup: ProbingSetup,
    j: int,
    k: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LocalizedCurrent:
    """Search for a boundary current certified by beta(j,k) > 1.

    Runs CG on the normal equations of T against the indicator of cell j
    scaled so that its squared interior norm is 3, after checking the
    operator pair on a fixed random draw.  The first iterate with beta > 1 is
    accepted.  A sweep ends uncertified after ``max_iter`` iterations or once
    its best squared current norm per unit certificate has not improved for
    PLATEAU_ITERATIONS iterations.  Because CG iterates are linear in the
    target and the certificate is quadratic, an uncertified sweep with a
    positive certificate is then retried once with the target lifted so that
    its best iterate would certify at beta = 1.25; the retry accepts its
    first iterate with beta > 1.  The lift depends only on the first sweep's
    best iterate, so the plateau stop leaves the accepted current unchanged
    whenever no iterate past the plateau would have improved on it or
    certified on its own.

    Raises :class:`CertificateError` with the best certificate seen if no
    iterate ever achieves a positive certificate or the retry ends
    uncertified, which signals a mesh or partition too coarse for the bounds.
    """
    mesh = setup.mesh
    part = setup.partition
    sys = assemble(mesh, setup.sigma, eta_field(setup, j, k))
    mass = mesh.boundary_mass
    omega = np.flatnonzero(part.omega_mask)
    vertices = mesh.elements[omega]
    areas = mesh.areas[omega]
    target = (part.labels[omega] == j).astype(float) * math.sqrt(3.0 / part.cell_area(j))
    forward_applications = 0
    top_beta = -math.inf

    def forward(g):
        """T g: element averages of the Neumann solution over omega, and its nodal values."""
        nonlocal forward_applications
        forward_applications += 1
        u = solve_neumann(sys, BoundaryTrace(mesh, g)).values
        return u[vertices].mean(axis=1), u

    def adjoint(f):
        """T* f: boundary trace of the solve with source f on omega, in the hat basis."""
        return solve_source(sys, omega, f).values[mesh.boundary_nodes]

    def wdot(x, y):
        return float(np.sum(areas * x * y))

    def mdot(x, y):
        return float(x @ (mass @ y))

    def sweep(lift):
        """One CGLS sweep against the lifted target.

        Returns (g, beta, iteration, residuals) of the first certified
        iterate or None, and (norm_sq/beta, beta) of the best iterate with
        beta > 0 or None.
        """
        nonlocal top_beta
        g = np.zeros(mesh.n_boundary)
        u_g = np.zeros(mesh.n_nodes)
        r = target * lift
        s = adjoint(r)
        p = s.copy()
        gamma = mdot(s, s)
        residuals = [math.sqrt(wdot(r, r))]
        best, best_it = None, 0
        for it in range(1, max_iter + 1):
            t_p, u_p = forward(p)
            denom = wdot(t_p, t_p)
            if denom <= 0.0 or gamma <= 0.0:
                break
            alpha = gamma / denom
            g += alpha * p
            u_g += alpha * u_p
            r -= alpha * t_p
            residuals.append(math.sqrt(wdot(r, r)))
            uf = NodalField(mesh, u_g)
            beta = _certificate(setup, j, element_l2_products(uf, uf)[omega])
            top_beta = max(top_beta, beta)
            if beta > 0.0:
                ratio = mdot(g, g) / beta
                if best is None or ratio < best[0]:
                    best, best_it = (ratio, beta), it
            if beta > 1.0:
                return (g.copy(), beta, it, np.asarray(residuals)), best
            if it - best_it >= PLATEAU_ITERATIONS:
                break
            s = adjoint(r)
            gamma_new = mdot(s, s)
            p = s + (gamma_new / gamma) * p
            gamma = gamma_new
        return None, best

    # <T* f, g>_M = <f, T g>_omega on a fixed random draw
    rng = np.random.default_rng([17, j, k])
    f, g = rng.standard_normal(omega.size), rng.standard_normal(mesh.n_boundary)
    lhs, rhs = mdot(adjoint(f), g), wdot(f, forward(g)[0])
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - rhs) > ADJOINT_RTOL * scale:
        raise CertificateError(
            f"adjoint consistency check failed: relative defect {abs(lhs - rhs) / scale:.3e}"
        )

    found, best = sweep(1.0)
    if found is None and best is not None:
        found, _ = sweep(math.sqrt(1.25 / best[1]))
    if found is not None:
        g, beta, it, residuals = found
        return LocalizedCurrent(j, k, BoundaryTrace(mesh, g), beta, it, residuals, forward_applications)
    # every CG iteration makes one forward solve, and the adjoint check made one more
    raise CertificateError(
        f"no certificate for cell {j}, bracket {k} after {forward_applications - 1} CG "
        f"iterations (best beta {top_beta:.4f}); mesh or partition too coarse"
    )


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


def lipschitz_constant(
    setup: ProbingSetup,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, list[LocalizedCurrent]]:
    """Compute all N*K certified currents and L = 1 / max <g, g>_M."""
    currents = []
    for j in range(1, setup.n_cells + 1):
        for k in range(1, setup.K + 1):
            currents.append(find_localized_current(setup, j, k, max_iter=max_iter))
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
        lam1, lam2 = (build_ntd(setup.mesh, setup.sigma, cell_values_to_field(part, v)).lam
                      for v in (q1, q2))
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

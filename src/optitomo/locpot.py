"""Constructive stability certificates from localized boundary currents.

For each cell D_j of a partition of the probed subdomain omega and each
absorption bracket k, a probing coefficient eta(j,k) is fixed and a boundary
current g is sought whose Neumann solution u concentrates on D_j.  The
certificate

    beta(j,k) = 1/2 int_{D_j} u^2 - (3b/(2a) - 1/2) int_{omega \\ D_j} u^2

is a quadratic form g^T B g with B = U^T Q U: column i of U is the Neumann
solution for the i-th boundary hat current on the nodes of the omega
elements, and Q sums the exact P1 element mass matrices over omega with
weight 1/2 on D_j and -(3b/(2a) - 1/2) on the rest.  The current with the
largest certificate per unit squared norm <g, g>_M is the top eigenvector of
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

Every probing absorption (eta(j,k), and the random fields of
``stability_report``) vanishes outside omega, so the systems of one setup
differ only in the block of the nodes of the omega elements.
``Condensation`` eliminates the rest once per setup, with one sparse solve
whose columns are the boundary hat loads and the couplings of omega's rim J
(the nodes of omega next to the rest or on the boundary).  Each system is
then two levels: a band Cholesky of the block of omega's remaining nodes K,
and a dense |J| x |J| Schur complement solve for U on the rim, from which
both the NtD matrices of the stability report and the certificate form are
read: U is -P x_J on K, so B = x_J^T B_J x_J with B_J a |J| x |J| form.  No
system of the condensation is assembled: its blocks of A and Q are
``mesh.Block``s of the stiffness and mass data of ``fem``.  The re-check of
a certificate is a sparse solve of the full system, assembled on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import CertificateError, FieldError
from .field import BoundaryTrace, PiecewiseConstantField
from .fem import (
    assemble,
    element_l2_products,
    mass_data,
    solve_band_spd,
    solve_dense_spd,
    solve_neumann,
    solve_sparse_spd,
    stiffness_data,
)
from .mesh import Partition, TriMesh
from .ntd import NtDMatrix, boundary_inner, opnorm_diff

# Certificate level of every accepted current; the margin above 1 is far
# wider than the re-check tolerance.
BETA_TARGET = 1.25
# Relative agreement required between BETA_TARGET and the re-checked beta ...
RECHECK_RTOL = 1e-6
# ... or this multiple of eps * kappa, where the eigenproblem's rounding is larger.
RECHECK_ROUNDING = 4.0


@dataclass(frozen=True)
class ProbingSetup:
    """Partitioned subdomain, coefficient bounds, and the known background diffusion; ``K`` is ``compute_K(a, b)``."""

    partition: Partition
    a: float
    b: float
    sigma: PiecewiseConstantField
    K: int = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "K", compute_K(self.a, self.b))

    @property
    def mesh(self) -> TriMesh:
        return self.partition.mesh

    @property
    def n_cells(self) -> int:
        return self.partition.n_cells

    @cached_property
    def condensation(self) -> Condensation:
        """The probing systems condensed onto omega, built on first use."""
        return Condensation(self)


class Condensation:
    """The probing systems of a setup, condensed onto the rim of the nodes of the omega elements.

    With I the nodes of the omega elements and E the rest, an absorption that
    vanishes outside omega changes only the block A_II of A; A_EE and A_EI
    are fixed by sigma.  I splits into its rim J, the nodes of I on the
    boundary or coupled to E, and the rest K, so A_EK = 0 and the boundary
    hat loads vanish on K.  The setup factors A_EE once and solves, every
    column under the residual contract, Z = A_EE^-1 b_E for the boundary hat
    loads b and Y = A_EE^-1 A_EJ; it keeps W = A_JE Z - b_J, C = A_JE Y, and
    the boundary rows of Z and Y, reading A_EE and A_EJ from sigma's
    ``fem.stiffness_data``.  Per absorption q, A_II(q) adds q's
    ``fem.mass_data``, with no assembly; one band Cholesky of A_KK gives
    P = A_KK^-1 A_KJ, and the rows J of the Neumann solutions solve
    T x_J = -W with the Schur complement
    T = A_JJ(q) - C - A_KJ^T P (Quarteroni & Valli, Domain Decomposition
    Methods for PDEs, 1999, ch. 1), by dense Cholesky.  The NtD matrix is
    Z_B - Y_B x_J, and the certificate form reads (P, x_J) as well, and its
    mass data through the same K x K, K x J and J x J blocks.  The residual
    of the full system splits into three contracts: its rows E are
    R_Z - R_Y x_J, with R_Z and R_Y the residuals of the A_EE columns; its
    rows K are -R_P x_J, with R_P = A_KK P - A_KJ held column by column; its
    rows J are the Schur residual T x_J + W.  ``sizes`` records |I|, |J|,
    |K| and the columns of the A_EE solve.
    """

    def __init__(self, setup: ProbingSetup):
        mesh = setup.mesh
        self.mesh = mesh
        self.omega_mask = setup.partition.omega_mask
        n_b = mesh.n_boundary
        pattern = mesh.assembly_pattern
        inner = np.zeros(mesh.n_nodes, dtype=bool)
        inner[mesh.elements[self.omega_mask]] = True
        e_nodes, i_nodes = np.flatnonzero(~inner), np.flatnonzero(inner)
        self._stiffness = stiffness_data(mesh, setup.sigma)
        rim = np.zeros(mesh.n_nodes, dtype=bool)
        rim[i_nodes[np.diff(pattern.block(e_nodes, i_nodes).sparse(self._stiffness).indptr) > 0]] = True
        rim[mesh.boundary_nodes] = True
        rim &= inner
        j_nodes = np.flatnonzero(rim)
        self._kk = pattern.band_block(inner & ~rim)
        k_nodes = self._kk.row_nodes
        a_ej = pattern.block(e_nodes, j_nodes).dense(self._stiffness)
        local = np.empty(mesh.n_nodes, dtype=np.intp)
        for nodes in (e_nodes, j_nodes):
            local[nodes] = np.arange(nodes.size)
        bn, mass = mesh.boundary_nodes, mesh.boundary_mass
        on_e = ~inner[bn]
        # the boundary hat loads are the rows of M at the boundary nodes
        rhs = np.zeros((e_nodes.size, n_b + j_nodes.size))
        rhs[local[bn[on_e]], :n_b] = mass[on_e]
        rhs[:, n_b:] = a_ej
        zy = solve_sparse_spd(pattern.block(e_nodes, e_nodes).sparse(self._stiffness), rhs, "exterior solve")
        z, y = zy[:, :n_b], zy[:, n_b:]
        self.w = a_ej.T @ z
        self.w[local[bn[~on_e]]] -= mass[~on_e]
        self.c = a_ej.T @ y
        # Lambda = Z_B - Y_B x_J; a boundary node in omega is in J and reads
        # its own row of x_J (0 in Z_B, -1 in Y_B)
        self.z_b = np.zeros((n_b, n_b))
        self.y_b = np.zeros((n_b, j_nodes.size))
        self.z_b[on_e] = z[local[bn[on_e]]]
        self.y_b[on_e] = y[local[bn[on_e]]]
        self.y_b[~on_e, local[bn[~on_e]]] = -1.0
        self._kj = pattern.block(k_nodes, j_nodes)
        self._jj = pattern.block(j_nodes, j_nodes)
        self.sizes = {"omega_nodes": i_nodes.size, "rim_nodes": j_nodes.size,
                      "interior_nodes": k_nodes.size, "exterior_columns": zy.shape[1]}

    def _rim_solve(self, q: PiecewiseConstantField) -> tuple[np.ndarray, np.ndarray]:
        """P = A_KK(q)^-1 A_KJ(q), and the rows J of the Neumann solutions at absorption q.

        Raises :class:`FieldError` if q is nonzero outside omega or not a
        valid absorption, and :class:`SolverError` if A_KK or T is not
        positive definite or a column misses its residual contract.
        """
        q.require_mesh(self.mesh).require_absorption()
        _require_zero_off_omega(q, self.omega_mask)
        data = self._stiffness + mass_data(self.mesh, q.values)
        kj = self._kj.dense(data)
        p = solve_band_spd(self._kk, data, kj, "interior solve")
        schur = self._jj.dense(data) - self.c - kj.T @ p
        return p, -solve_dense_spd(schur, self.w, "condensed Neumann solve")

    def ntd(self, q: PiecewiseConstantField) -> NtDMatrix:
        """The NtD matrix at absorption q, checked as every ``NtDMatrix`` is."""
        return NtDMatrix(self.mesh, self.z_b - self.y_b @ self._rim_solve(q)[1])

    def certificate_form(self, q: PiecewiseConstantField, weights: np.ndarray) -> np.ndarray:
        """B = x_I^T Q x_I at absorption q, one row and column per boundary hat current.

        Q = ``fem.mass_data(mesh, weights)``, one weight per element, is
        sum_e weights_e int_e phi_a phi_b; the weights vanish off omega, so
        only its block on I is read.  With x_K = -P x_J, B = x_J^T B_J x_J and
        B_J = Q_JJ - H - H^T + P^T Q_KK P, H = Q_KJ^T P, a |J| x |J| matrix.
        """
        p, x_j = self._rim_solve(q)
        mass = mass_data(self.mesh, weights)
        h = self._kj.dense(mass).T @ p
        b_j = self._jj.dense(mass) - h - h.T + p.T @ (self._kk.sparse(mass) @ p)
        return x_j.T @ (b_j @ x_j)


@dataclass(frozen=True)
class LocalizedCurrent:
    """An accepted localized current with its re-checked certificate.

    ``recheck_rtol`` is the relative tolerance its re-check was held to;
    ``forward_applications`` counts the Neumann columns solved to find and
    certify it: one condensed column per boundary hat current, and the
    re-check.
    """

    j: int
    k: int
    g: BoundaryTrace
    beta: float
    recheck_rtol: float
    forward_applications: int

    def norm_sq(self) -> float:
        return boundary_inner(self.g, self.g)


def compute_K(a: float, b: float) -> int:
    """Number of absorption brackets: floor(3(b/a - 1)) + 3."""
    if not 0.0 < a <= b:
        raise FieldError("bounds must satisfy 0 < a <= b")
    brackets = 3.0 * (b / a - 1.0)
    if not math.isfinite(brackets):
        raise FieldError(f"bounds a = {a} and b = {b} give no finite bracket count")
    return int(math.floor(brackets)) + 3


def _require_zero_off_omega(q: PiecewiseConstantField, omega_mask: np.ndarray) -> None:
    """Refuse an absorption field that is nonzero outside omega, where every probing absorption vanishes."""
    if np.any(q.values[~omega_mask] != 0.0):
        raise FieldError("absorption field must vanish outside the subdomain")


def make_probing_setup(partition: Partition, a: float, b: float) -> ProbingSetup:
    """Build a probing setup with the background diffusion 1 outside omega and 2 inside."""
    sigma = PiecewiseConstantField(partition.mesh, np.where(partition.omega_mask, 2.0, 1.0))
    return ProbingSetup(partition, float(a), float(b), sigma)


def eta_field(setup: ProbingSetup, j: int, k: int) -> PiecewiseConstantField:
    """Probing absorption: (k+4)a/3 on cell j, a/3 on the rest of the subdomain, 0 outside."""
    if not 1 <= j <= setup.n_cells:
        raise FieldError(f"cell index {j} out of range 1..{setup.n_cells}")
    if not 1 <= k <= setup.K:
        raise FieldError(f"bracket index {k} out of range 1..{setup.K}")
    values = np.full(setup.n_cells, setup.a / 3.0)
    values[j - 1] = (k + 4) * setup.a / 3.0
    return cell_values_to_field(setup.partition, values)


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


def _cell_and_rest(setup: ProbingSetup, q: PiecewiseConstantField, g: BoundaryTrace, j: int) -> tuple[float, float]:
    """int u^2 on D_j and on omega \\ D_j, u the Neumann solution for g at absorption q.

    A full-system solve of its own and ``fem.element_l2_products`` give them, apart from the form B."""
    part = setup.partition
    u = solve_neumann(assemble(setup.mesh, setup.sigma, q), g).values[:, None]
    usq = element_l2_products(setup.mesh, u, u)[part.omega_mask, 0]
    cell = part.labels[part.omega_mask] == j
    return float(usq[cell].sum()), float(usq[~cell].sum())


def _certificate(setup: ProbingSetup, inside: float, rest: float) -> float:
    """beta(j, k) from int u^2 on D_j (``inside``) and on omega \\ D_j (``rest``)."""
    weight = 3.0 * setup.b / (2.0 * setup.a) - 0.5
    return 0.5 * inside - weight * rest


def localization_gap(setup: ProbingSetup, q: PiecewiseConstantField, g: BoundaryTrace, j: int) -> float:
    """int_{D_j} u^2 - int_{omega \\ D_j} u^2 for the Neumann solution at absorption q."""
    inside, rest = _cell_and_rest(setup, q, g, j)
    return inside - rest


def find_localized_current(setup: ProbingSetup, j: int, k: int) -> LocalizedCurrent:
    """The current with the smallest squared norm certified at beta(j,k) = BETA_TARGET.

    Solves the Neumann problem at eta(j,k) for every boundary hat current,
    condensed onto omega's rim, forms the certificate's quadratic form B
    there (``Condensation.certificate_form``), takes the top eigenpair of
    B g = lambda M g and scales the eigenvector to beta = BETA_TARGET.  The current is then certified
    again by its own Neumann solve of the full system.

    Raises :class:`CertificateError` if lambda_max <= 0, so that no current
    has a positive certificate (a mesh or partition too coarse for the
    bounds), or if the re-checked beta is not above 1 or not within
    max(RECHECK_RTOL, RECHECK_ROUNDING * eps * kappa) of BETA_TARGET.
    """
    mesh = setup.mesh
    part = setup.partition
    eta = eta_field(setup, j, k)
    # stated apart from ``_certificate``, so the re-check also catches a wrong weight
    rest = np.where(part.omega_mask, 0.5 - 1.5 * setup.b / setup.a, 0.0)
    form = setup.condensation.certificate_form(eta, np.where(part.labels == j, 0.5, rest))
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
    beta = _certificate(setup, *_cell_and_rest(setup, eta, g, j))
    defect = abs(beta - BETA_TARGET) / BETA_TARGET
    if not (beta > 1.0 and defect <= rtol):
        raise CertificateError(
            f"re-check failed for cell {j}, bracket {k}: beta {beta:.10g} from an independent "
            f"solve against {BETA_TARGET} from the eigenproblem (relative defect {defect:.3e} "
            f"> tolerance {rtol:.3e})"
        )
    return LocalizedCurrent(j, k, g, beta, float(rtol), form.shape[1] + 1)


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
    _require_zero_off_omega(q, part.omega_mask)
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
        ntd1, ntd2 = (setup.condensation.ntd(cell_values_to_field(part, v)) for v in (q1, q2))
        opnorm = opnorm_diff(ntd1, ntd2)
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

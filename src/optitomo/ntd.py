"""Discrete Neumann-to-Dirichlet operator and monotonicity machinery.

The operator maps coefficient vectors of boundary hat functions to nodal trace
values; all norms are weighted by the boundary mass matrix M so that results
approximate their continuous counterparts on L2 of the circle.  The operator
norm of a difference is computed after M-symmetrization (via a Cholesky factor
of M), which reduces the generalized eigenproblem to a standard symmetric one.
All checks live in discrete boundary spaces; they approximate, but do not
certify, the continuous operator norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import FieldError, SolverError
from .field import BoundaryTrace, PiecewiseConstantField, restrict_to_boundary
from .fem import (
    assemble,
    element_gradients,
    element_l2_products,
    solve_neumann,
    solve_neumann_many,
)
from .mesh import TriMesh

# Relative defect allowed in the M-symmetry invariant of a built operator.
MSYM_RTOL = 1e-10


@dataclass(frozen=True)
class NtDMatrix:
    """Dense discrete Neumann-to-Dirichlet operator with its boundary mass matrix."""

    mesh: TriMesh
    sigma: PiecewiseConstantField
    q: PiecewiseConstantField
    lam: np.ndarray
    mass: np.ndarray

    @property
    def n_boundary(self) -> int:
        return self.lam.shape[0]


def build_ntd(mesh: TriMesh, sigma: PiecewiseConstantField, q: PiecewiseConstantField) -> NtDMatrix:
    """Build the discrete NtD matrix column by column from boundary hat currents.

    Column j is the boundary trace of the Neumann solution driven by the j-th
    boundary hat function.  M-symmetry and M-positive-definiteness are
    verified on every build.
    """
    sys = assemble(mesh, sigma, q)
    columns = np.eye(mesh.n_boundary)
    x = solve_neumann_many(sys, columns)
    lam = x[mesh.boundary_nodes, :]
    m = mesh.boundary_mass

    ml = m @ lam
    defect = np.max(np.abs(ml - ml.T))
    scale = np.max(np.abs(ml))
    if defect > MSYM_RTOL * scale:
        raise SolverError(f"NtD M-symmetry defect {defect / scale:.3e} exceeds {MSYM_RTOL}")
    eigmin = float(np.min(sla.eigvalsh(0.5 * (ml + ml.T))))
    if eigmin <= 0.0:
        raise SolverError(f"NtD quadratic form is not positive definite (min eig {eigmin:.3e})")
    return NtDMatrix(mesh, sigma, q, lam, m)


def boundary_inner(g: BoundaryTrace, h: BoundaryTrace, mass: np.ndarray) -> float:
    """Discrete L2 inner product on the boundary, <g, h>_M = g^T M h.

    Evaluated in symmetrized form so that swapping the arguments gives the
    bit-identical result.
    """
    a = g.values @ (mass @ h.values)
    b = h.values @ (mass @ g.values)
    return 0.5 * (a + b)


def _m_symmetrized(diff: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Symmetric matrix L^T diff L^{-T} (M = L L^T) with the eigenvalues of diff."""
    chol = sla.cholesky(mass, lower=True)
    right = sla.solve_triangular(chol, diff.T, lower=True).T  # diff @ L^{-T}
    sym = chol.T @ right
    return 0.5 * (sym + sym.T)


def m_weighted_opnorm(diff: np.ndarray, mass: np.ndarray) -> float:
    """Largest |eigenvalue| of an M-self-adjoint operator given as a plain matrix."""
    return float(np.max(np.abs(sla.eigvalsh(_m_symmetrized(diff, mass)))))


def opnorm_diff(l1: NtDMatrix, l2: NtDMatrix) -> float:
    """M-weighted operator norm of the difference of two NtD operators."""
    if l1.mesh is not l2.mesh:
        raise FieldError("NtD operators live on different meshes")
    return m_weighted_opnorm(l1.lam - l2.lam, l1.mass)


def min_m_eigenvalue(l1: NtDMatrix, l2: NtDMatrix) -> float:
    """Smallest M-generalized eigenvalue of l1 - l2 (quadratic-form ordering test)."""
    if l1.mesh is not l2.mesh:
        raise FieldError("NtD operators live on different meshes")
    return float(np.min(sla.eigvalsh(_m_symmetrized(l1.lam - l2.lam, l1.mass))))


def _common_support(q1: PiecewiseConstantField, q2: PiecewiseConstantField) -> np.ndarray:
    s1 = q1.values > 0.0
    s2 = q2.values > 0.0
    if not np.array_equal(s1, s2):
        raise FieldError("absorption fields must be positive on the same element set")
    return s1


def monotonicity_gap_q(
    q1: PiecewiseConstantField,
    q2: PiecewiseConstantField,
    sigma: PiecewiseConstantField,
    g: BoundaryTrace,
) -> tuple[float, float, float]:
    """Evaluate the three terms of the absorption monotonicity sandwich.

    Returns (upper, middle, lower) where, with u2 the solution for q2,

        upper  = int (q1 - q2) u2^2
        middle = <g, (Lambda(q2) - Lambda(q1)) g>_M
        lower  = int (q2 - q2^2 / q1) u2^2

    and upper >= middle >= lower holds exactly for the Galerkin solutions.
    Integrals run over the common support of q1 and q2.
    """
    mesh = sigma.mesh
    supp = _common_support(q1, q2)
    sys1 = assemble(mesh, sigma, q1)
    sys2 = assemble(mesh, sigma, q2)
    u1 = solve_neumann(sys1, g)
    u2 = solve_neumann(sys2, g)
    m = mesh.boundary_mass
    middle = (boundary_inner(g, restrict_to_boundary(u2), m)
              - boundary_inner(g, restrict_to_boundary(u1), m))
    u2sq = element_l2_products(u2, u2)
    upper = float(np.sum((q1.values[supp] - q2.values[supp]) * u2sq[supp]))
    ratio = q2.values[supp] - q2.values[supp] ** 2 / q1.values[supp]
    lower = float(np.sum(ratio * u2sq[supp]))
    return upper, middle, lower


def monotonicity_gap_joint(
    s1: PiecewiseConstantField,
    q1: PiecewiseConstantField,
    s2: PiecewiseConstantField,
    q2: PiecewiseConstantField,
    g: BoundaryTrace,
) -> tuple[float, float, float]:
    """Evaluate the simultaneous diffusion-absorption monotonicity terms.

    Returns (upper, middle, lower) where, with u1 the solution for (s1, q1),

        upper  = int (s2 - s1)|grad u1|^2 + (q2 - q1) u1^2
        middle = <g, (Lambda(s1, q1) - Lambda(s2, q2)) g>_M
        lower  = int (s1/s2)(s2 - s1)|grad u1|^2 + (q1/q2)(q2 - q1) u1^2

    and upper >= middle >= lower holds exactly for the Galerkin solutions.
    """
    mesh = s1.mesh
    sys1 = assemble(mesh, s1, q1)
    sys2 = assemble(mesh, s2, q2)
    u1 = solve_neumann(sys1, g)
    u2 = solve_neumann(sys2, g)
    m = mesh.boundary_mass
    middle = (boundary_inner(g, restrict_to_boundary(u1), m)
              - boundary_inner(g, restrict_to_boundary(u2), m))
    grad1 = element_gradients(u1)
    gradsq1 = mesh.areas * np.sum(grad1 * grad1, axis=1)
    u1sq = element_l2_products(u1, u1)
    ds = s2.values - s1.values
    dq = q2.values - q1.values
    upper = float(np.sum(ds * gradsq1) + np.sum(dq * u1sq))
    lower = float(np.sum(s1.values / s2.values * ds * gradsq1)
                  + np.sum(q1.values / q2.values * dq * u1sq))
    return upper, middle, lower


def lambda_frechet_form(
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
    d1: PiecewiseConstantField,
    d2: PiecewiseConstantField,
    g: BoundaryTrace,
    h: BoundaryTrace,
) -> float:
    """Bilinear form of the NtD derivative in coefficient direction (d1, d2).

    Equals - int d1 grad(u_g) . grad(u_h) - int d2 u_g u_h, where u_g and u_h
    solve the Neumann problem for currents g and h at coefficients (sigma, q).
    """
    mesh = sigma.mesh
    sys = assemble(mesh, sigma, q)
    ug = solve_neumann(sys, g)
    uh = solve_neumann(sys, h)
    gg = element_gradients(ug)
    gh = element_gradients(uh)
    grad_term = float(np.sum(d1.values * mesh.areas * np.sum(gg * gh, axis=1)))
    mass_term = float(np.sum(d2.values * element_l2_products(ug, uh)))
    return -grad_term - mass_term


def dirichlet_flux(sys, u) -> BoundaryTrace:
    """Boundary flux coefficients of a solution: the discrete Dirichlet-to-Neumann map.

    Solves M g = r where r is the boundary residual of A u (interior rows of
    A u vanish for any solution of the homogeneous equation).
    """
    mesh = sys.mesh
    r = (sys.matrix @ u.values)[mesh.boundary_nodes]
    g = np.linalg.solve(mesh.boundary_mass, r)
    return BoundaryTrace(mesh, g)

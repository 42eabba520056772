"""Discrete Neumann-to-Dirichlet operator and monotonicity machinery.

The operator maps coefficient vectors of boundary hat functions to nodal trace
values; all norms are weighted by the boundary mass matrix M so that results
approximate their continuous counterparts on L2 of the circle.  The operator
norm of a difference is computed after M-symmetrization (via the Cholesky
factor of M cached on the mesh), which reduces the generalized eigenproblem
to a standard symmetric one.  All checks live in discrete boundary spaces; they approximate, but do not
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
    element_energy_products,
    element_l2_products,
    solve_neumann,
    solve_neumann_many,
)
from .mesh import TriMesh

# Relative defect allowed in the M-symmetry invariant of a built operator.
MSYM_RTOL = 1e-10


@dataclass(frozen=True)
class NtDMatrix:
    """Dense discrete Neumann-to-Dirichlet operator; ``mesh.boundary_mass`` weights its norms.

    Finite entries, M-symmetry and M-positive-definiteness are verified on
    construction, so every operator built, by ``build_ntd`` or otherwise,
    passes all three checks; a non-finite operator is refused before any
    arithmetic on it.
    """

    mesh: TriMesh
    lam: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.lam)):
            raise SolverError("NtD operator has a non-finite entry")
        ml = self.mesh.boundary_mass @ self.lam
        defect = np.max(np.abs(ml - ml.T))
        scale = np.max(np.abs(ml))
        if not defect <= MSYM_RTOL * scale:
            raise SolverError(f"NtD M-symmetry defect {defect / scale:.3e} exceeds {MSYM_RTOL}")
        sym = 0.5 * (ml + ml.T)
        try:
            sla.cholesky(sym, check_finite=False)
        except sla.LinAlgError:
            eigmin = float(np.min(sla.eigvalsh(sym)))
            raise SolverError(
                f"NtD quadratic form is not positive definite (min eig {eigmin:.3e})"
            ) from None

    @property
    def n_boundary(self) -> int:
        return self.lam.shape[0]


def build_ntd(
    mesh: TriMesh,
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
) -> NtDMatrix:
    """Build the discrete NtD matrix column by column from boundary hat currents.

    Column j is the boundary trace of the Neumann solution driven by the j-th
    boundary hat function.
    """
    x = solve_neumann_many(assemble(mesh, sigma, q), np.eye(mesh.n_boundary))
    return NtDMatrix(mesh, x[mesh.boundary_nodes, :])


def boundary_inner(g: BoundaryTrace, h: BoundaryTrace) -> float:
    """Discrete L2 inner product on the boundary, <g, h>_M = g^T M h.

    M is the boundary mass matrix of the mesh both traces live on.  Evaluated in symmetrized form so that swapping the arguments gives the
    bit-identical result.
    """
    h.require_mesh(g.mesh)
    mass = g.mesh.boundary_mass
    a = g.values @ (mass @ h.values)
    b = h.values @ (mass @ g.values)
    return 0.5 * (a + b)


def _m_spectrum(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of diff after M-symmetrization: of L^T diff L^{-T}, with
    ``chol`` the lower Cholesky factor L of M = L L^T."""
    right = sla.solve_triangular(chol, diff.T, lower=True).T  # diff @ L^{-T}
    sym = chol.T @ right
    return sla.eigvalsh(0.5 * (sym + sym.T))


def m_weighted_opnorm(diff: np.ndarray, chol: np.ndarray) -> float:
    """Largest |eigenvalue| of an M-self-adjoint operator given as a plain matrix.

    ``chol`` is the lower Cholesky factor L of M = L L^T, as
    ``TriMesh.boundary_mass_factor`` holds it for the boundary mass matrix.
    """
    return float(np.max(np.abs(_m_spectrum(diff, chol))))


def _difference(l1: NtDMatrix, l2: NtDMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The difference l1 - l2 of two NtD operators on one mesh, and the Cholesky factor of its mass matrix."""
    if l1.mesh is not l2.mesh:
        raise FieldError("NtD operators live on different meshes")
    return l1.lam - l2.lam, l1.mesh.boundary_mass_factor


def opnorm_diff(l1: NtDMatrix, l2: NtDMatrix) -> float:
    """M-weighted operator norm of the difference of two NtD operators."""
    return m_weighted_opnorm(*_difference(l1, l2))


def min_m_eigenvalue(l1: NtDMatrix, l2: NtDMatrix) -> float:
    """Smallest M-generalized eigenvalue of l1 - l2 (quadratic-form ordering test)."""
    return float(np.min(_m_spectrum(*_difference(l1, l2))))


def monotonicity_gap(
    s1: PiecewiseConstantField,
    q1: PiecewiseConstantField,
    s2: PiecewiseConstantField,
    q2: PiecewiseConstantField,
    g: BoundaryTrace,
) -> tuple[float, float, float]:
    """Evaluate the three terms of the diffusion-absorption monotonicity sandwich.

    Returns (upper, middle, lower) where, with u1 the solution for (s1, q1),

        upper  = int (s2 - s1)|grad u1|^2 + (q2 - q1) u1^2
        middle = <g, (Lambda(s1, q1) - Lambda(s2, q2)) g>_M
        lower  = int (s1/s2)(s2 - s1)|grad u1|^2 + (q1/q2)(q2 - q1) u1^2

    and upper >= middle >= lower holds exactly for the Galerkin solutions.
    The q terms run over the support of q2, where q1 must vanish too (the
    lower bound has no finite value elsewhere).  The absorption-only
    sandwich is the case s1 = s2.
    """
    mesh = s1.mesh
    supp = q2.values > 0.0
    if np.any(q1.values[~supp] > 0.0):
        raise FieldError("q1 must vanish wherever q2 does")
    u1 = solve_neumann(assemble(mesh, s1, q1), g)
    u2 = solve_neumann(assemble(mesh, s2, q2), g)
    middle = (boundary_inner(g, restrict_to_boundary(u1))
              - boundary_inner(g, restrict_to_boundary(u2)))
    col = u1.values[:, None]
    gradsq1 = element_energy_products(mesh, col, col)[:, 0]
    u1sq = element_l2_products(mesh, col, col)[supp, 0]
    ds = s2.values - s1.values
    dq = q2.values[supp] - q1.values[supp]
    upper = float(np.sum(ds * gradsq1) + np.sum(dq * u1sq))
    lower = float(np.sum(s1.values / s2.values * ds * gradsq1)
                  + np.sum(q1.values[supp] / q2.values[supp] * dq * u1sq))
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
    for value in (d1, d2, g, h):
        value.require_mesh(mesh)
    u = solve_neumann_many(assemble(mesh, sigma, q), np.column_stack((g.values, h.values)))
    ug, uh = u[:, :1], u[:, 1:]
    grad_term = float(np.sum(d1.values * element_energy_products(mesh, ug, uh)[:, 0]))
    mass_term = float(np.sum(d2.values * element_l2_products(mesh, ug, uh)[:, 0]))
    return -grad_term - mass_term


"""P1 finite elements for -div(sigma grad u) + q u = 0 on the unit disk.

Element integrals are evaluated in closed form for piecewise-constant
coefficients times P1 products, so the assembled matrix carries no quadrature
error.  The Neumann problem needs no mean-zero gauge: q > 0 on a set of
positive area makes the bilinear form coercive, and the system matrix is
symmetric positive definite.  Factorizations are cached per coefficient pair
and reused across right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FieldError, SolverError
from .field import BoundaryTrace, NodalField, PiecewiseConstantField
from .mesh import TriMesh

# Relative residual beyond which a direct solve is reported as failed.
SOLVE_RTOL = 1e-8

_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass
class AssembledSystem:
    """Stiffness+mass matrix A(sigma, q) with cached factorizations.

    Factorizations are created lazily on first use; warm them up before
    sharing a system across threads.
    """

    mesh: TriMesh
    sigma: PiecewiseConstantField
    q: PiecewiseConstantField
    matrix: sp.csc_matrix
    _full_lu: object = dc_field(default=None, repr=False)
    _interior: object = dc_field(default=None, repr=False)

    def full_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._full_lu is None:
            self._full_lu = spla.splu(self.matrix)
        return self._full_lu.solve(rhs)

    def _interior_parts(self):
        if self._interior is None:
            mask = np.ones(self.mesh.n_nodes, dtype=bool)
            mask[self.mesh.boundary_nodes] = False
            idx = np.flatnonzero(mask)
            sub = self.matrix[np.ix_(idx, idx)].tocsc()
            coupling = self.matrix[np.ix_(idx, self.mesh.boundary_nodes)]
            self._interior = (idx, sub, coupling, spla.splu(sub))
        return self._interior

    def interior_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._interior_parts()[3].solve(rhs)


def assemble(mesh: TriMesh, sigma: PiecewiseConstantField, q: PiecewiseConstantField) -> AssembledSystem:
    """Assemble A(sigma, q) for the weak form of the diffusion-absorption equation.

    Requires sigma > 0 everywhere and q >= 0 with q > 0 somewhere; a q that
    vanishes identically leaves the Neumann problem singular up to constants
    and is rejected.
    """
    if sigma.mesh is not mesh or q.mesh is not mesh:
        raise FieldError("coefficient fields live on a different mesh")
    sigma.require_positive()
    if np.any(q.values < 0.0):
        raise FieldError("absorption coefficient must be nonnegative")
    if not np.any(q.values > 0.0):
        raise FieldError("absorption coefficient vanishes identically; system is singular")

    grads = mesh.element_grads
    areas = mesh.areas
    stiff = np.einsum("eik,ejk->eij", grads, grads) * (areas * sigma.values)[:, None, None]
    mass = _MASS_PATTERN[None, :, :] * (areas * q.values)[:, None, None]
    data = (stiff + mass).ravel()
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)).tocsc()
    return AssembledSystem(mesh, sigma, q, matrix)


def boundary_load(mesh: TriMesh, g: BoundaryTrace) -> np.ndarray:
    """Load vector of the boundary term: exact edge integration of P1 g."""
    out = np.zeros(mesh.n_nodes)
    out[mesh.boundary_nodes] = mesh.boundary_mass @ g.values
    return out


def source_load(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """Load vector of an interior piecewise-constant source."""
    out = np.zeros(mesh.n_nodes)
    contrib = np.repeat(values * mesh.areas / 3.0, 3)
    np.add.at(out, mesh.elements.ravel(), contrib)
    return out


def _check_residual(matrix, x, b, what: str) -> None:
    res = np.linalg.norm(matrix @ x - b)
    scale = np.linalg.norm(b)
    if res > SOLVE_RTOL * max(scale, 1e-300):
        raise SolverError(f"{what} did not converge: relative residual {res / max(scale, 1e-300):.3e}")


def solve_neumann(sys: AssembledSystem, g: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary flux g (coefficients of boundary hat functions)."""
    if g.mesh is not sys.mesh:
        raise FieldError("boundary trace lives on a different mesh")
    b = boundary_load(sys.mesh, g)
    x = sys.full_solve(b)
    _check_residual(sys.matrix, x, b, "Neumann solve")
    return NodalField(sys.mesh, x)


def solve_neumann_many(sys: AssembledSystem, g_values: np.ndarray) -> np.ndarray:
    """Solve for many boundary-flux columns at once; returns (n_nodes, k) array."""
    b = np.zeros((sys.mesh.n_nodes, g_values.shape[1]))
    b[sys.mesh.boundary_nodes, :] = sys.mesh.boundary_mass @ g_values
    x = sys.full_solve(b)
    res = np.linalg.norm(sys.matrix @ x - b)
    if res > SOLVE_RTOL * max(np.linalg.norm(b), 1e-300):
        raise SolverError("multi-column Neumann solve did not converge")
    return x


def solve_dirichlet(sys: AssembledSystem, f: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary values f; exact at boundary nodes."""
    if f.mesh is not sys.mesh:
        raise FieldError("boundary trace lives on a different mesh")
    mesh = sys.mesh
    idx, sub, coupling, _ = sys._interior_parts()
    rhs = -coupling @ f.values
    x_int = sys.interior_solve(rhs)
    _check_residual(sub, x_int, rhs, "Dirichlet solve")
    out = np.zeros(mesh.n_nodes)
    out[idx] = x_int
    out[mesh.boundary_nodes] = f.values
    return NodalField(mesh, out)


def solve_source(
    sys: AssembledSystem,
    F: PiecewiseConstantField,
    support: np.ndarray | None = None,
) -> NodalField:
    """Solve with an interior piecewise-constant source F.

    When a boolean element mask ``support`` is given, F must vanish outside it.
    """
    if F.mesh is not sys.mesh:
        raise FieldError("source field lives on a different mesh")
    if support is not None and np.any(F.values[~support] != 0.0):
        raise FieldError("source field is nonzero outside its declared support")
    b = source_load(sys.mesh, F.values)
    x = sys.full_solve(b)
    _check_residual(sys.matrix, x, b, "source solve")
    return NodalField(sys.mesh, x)


def element_gradients(u: NodalField) -> np.ndarray:
    """Constant P1 gradient per element, shape (n_elements, 2)."""
    mesh = u.mesh
    return np.einsum("eik,ei->ek", mesh.element_grads, u.values[mesh.elements])


def element_means(u: NodalField) -> np.ndarray:
    """Vertex average per element (= centroid value for P1)."""
    return u.values[u.mesh.elements].mean(axis=1)


def element_l2_products(u: NodalField, v: NodalField) -> np.ndarray:
    """Exact per-element integrals of the P1 product u*v."""
    mesh = u.mesh
    uv = u.values[mesh.elements]
    vv = v.values[mesh.elements]
    return mesh.areas / 12.0 * (uv.sum(axis=1) * vv.sum(axis=1) + (uv * vv).sum(axis=1))


def energy(sys: AssembledSystem, u: NodalField) -> float:
    """Quadratic form u^T A u = int sigma |grad u|^2 + q u^2."""
    return float(u.values @ (sys.matrix @ u.values))

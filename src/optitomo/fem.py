"""P1 finite elements for -div(sigma grad u) + q u = 0 on the unit disk.

Element integrals are evaluated in closed form for piecewise-constant
coefficients times P1 products, so the assembled matrix carries no quadrature
error.  The Neumann problem needs no mean-zero gauge: q > 0 on a set of
positive area makes the bilinear form coercive, and the system matrix is
symmetric positive definite.  Factorizations are cached per coefficient pair
and reused across right-hand sides.  There is one full-system path, for
boundary-flux loads (``solve_neumann_many``, with ``solve_neumann`` its
one-column call) and interior loads (``solve_source``) alike, and one
Dirichlet path (``solve_dirichlet_many``, with ``solve_dirichlet``).  Every
column of a solve must meet the SOLVE_RTOL residual contract on its own.
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
        """Interior node numbers, A_II, A_IB (columns in boundary order) and the LU of A_II.

        Both blocks are cut from the CSC entries of ``matrix`` by one mask,
        entries in interior rows; every column holds its diagonal entry, so
        ``reduceat`` counts each column's kept entries.
        """
        if self._interior is None:
            a = self.matrix
            bn = self.mesh.boundary_nodes
            itype = a.indices.dtype
            interior = np.ones(self.mesh.n_nodes, dtype=bool)
            interior[bn] = False
            idx = np.flatnonzero(interior)
            number = np.full(self.mesh.n_nodes, -1, dtype=itype)
            number[idx] = np.arange(idx.size, dtype=itype)
            rows = number[a.indices]
            keep = rows >= 0
            # Interior columns ascend, so their kept entries are already in place.
            inner = keep & np.repeat(interior, np.diff(a.indptr))
            counts = np.add.reduceat(inner, a.indptr[:-1], dtype=itype)[idx]
            sub = _csc_block(a.data[inner], rows[inner], counts, idx.size)
            # Boundary columns follow the angular order of ``bn``.
            lo = a.indptr[bn]
            span = a.indptr[bn + 1] - lo
            start = np.zeros(bn.size + 1, dtype=itype)
            np.cumsum(span, out=start[1:])
            take = np.repeat(lo - start[:-1], span) + np.arange(start[-1], dtype=itype)
            flags = keep[take]
            take = take[flags]
            counts = np.add.reduceat(flags, start[:-1], dtype=itype)
            coupling = _csc_block(a.data[take], rows[take], counts, idx.size)
            self._interior = (idx, sub, coupling, spla.splu(sub))
        return self._interior


def _csc_block(data, rows, counts, n_rows: int) -> sp.csc_matrix:
    """CSC matrix from column-ordered entries and per-column entry counts."""
    ptr = np.zeros(counts.size + 1, dtype=counts.dtype)
    np.cumsum(counts, out=ptr[1:])
    return sp.csc_matrix((data, rows, ptr), shape=(n_rows, counts.size))


def assemble(mesh: TriMesh, sigma: PiecewiseConstantField, q: PiecewiseConstantField) -> AssembledSystem:
    """Assemble A(sigma, q) for the weak form of the diffusion-absorption equation.

    Requires finite coefficients, sigma > 0 everywhere and q >= 0 with q > 0
    somewhere; a q that vanishes identically leaves the Neumann problem
    singular up to constants and is rejected.
    """
    if sigma.mesh is not mesh or q.mesh is not mesh:
        raise FieldError("coefficient fields live on a different mesh")
    sigma.require_positive()
    if not np.all(np.isfinite(q.values) & (q.values >= 0.0)):
        raise FieldError("absorption coefficient must be finite and nonnegative")
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


def boundary_load(mesh: TriMesh, g_values: np.ndarray) -> np.ndarray:
    """Load of the boundary term: exact edge integration of P1 g, per column of g_values."""
    out = np.zeros((mesh.n_nodes, *g_values.shape[1:]))
    out[mesh.boundary_nodes] = mesh.boundary_mass @ g_values
    return out


def _check_residual(matrix, x, b, what: str) -> None:
    """Require ||A x - b|| <= SOLVE_RTOL ||b|| for every column of b."""
    if b.ndim == 2 and b.shape[1] == 1:
        x, b = x[:, 0], b[:, 0]
    r = matrix @ x - b
    if b.ndim == 1:
        # one column: the vector product and dot-based norms are the cheapest
        res, scale = np.linalg.norm(r), max(np.linalg.norm(b), 1e-300)
        if res > SOLVE_RTOL * scale:
            raise SolverError(f"{what} did not converge: relative residual {res / scale:.3e}")
        return
    res = np.sqrt(np.einsum("ij,ij->j", r, r))
    ratio = res / np.maximum(np.sqrt(np.einsum("ij,ij->j", b, b)), 1e-300)
    worst = int(np.argmax(ratio))
    if ratio[worst] > SOLVE_RTOL:
        raise SolverError(
            f"{what} did not converge in column {worst}: relative residual {ratio[worst]:.3e}"
        )


def solve_neumann(sys: AssembledSystem, g: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary flux g (coefficients of boundary hat functions)."""
    if g.mesh is not sys.mesh:
        raise FieldError("boundary trace lives on a different mesh")
    return NodalField(sys.mesh, solve_neumann_many(sys, g.values[:, None])[:, 0])


def solve_neumann_many(sys: AssembledSystem, g_values: np.ndarray) -> np.ndarray:
    """Solve for many boundary-flux columns at once; returns (n_nodes, k) array."""
    return _full_system_solve(sys, boundary_load(sys.mesh, g_values), "Neumann solve")


def _full_system_solve(sys: AssembledSystem, b: np.ndarray, what: str) -> np.ndarray:
    """Solve A x = b on the full LU under the residual contract."""
    x = sys.full_solve(b)
    _check_residual(sys.matrix, x, b, what)
    return x


def solve_dirichlet(sys: AssembledSystem, f: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary values f; exact at boundary nodes."""
    if f.mesh is not sys.mesh:
        raise FieldError("boundary trace lives on a different mesh")
    return NodalField(sys.mesh, solve_dirichlet_many(sys, f.values[:, None])[:, 0])


def solve_dirichlet_many(sys: AssembledSystem, f_values: np.ndarray) -> np.ndarray:
    """Solve for many boundary-value columns at once; returns (n_nodes, k) array."""
    idx, sub, coupling, lu = sys._interior_parts()
    rhs = -coupling @ f_values
    x_int = lu.solve(rhs)
    _check_residual(sub, x_int, rhs, "Dirichlet solve")
    out = np.empty((sys.mesh.n_nodes, f_values.shape[1]))
    out[idx] = x_int
    out[sys.mesh.boundary_nodes] = f_values
    return out


def solve_source(sys: AssembledSystem, elements: np.ndarray, values: np.ndarray) -> NodalField:
    """Solve with an interior source equal to ``values`` on ``elements``, zero elsewhere."""
    mesh = sys.mesh
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, mesh.elements[elements].ravel(), np.repeat(values * mesh.areas[elements] / 3.0, 3))
    return NodalField(mesh, _full_system_solve(sys, b, "source solve"))


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

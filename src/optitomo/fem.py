"""P1 finite elements for -div(sigma grad u) + q u = 0 on the unit disk.

Element integrals are evaluated in closed form for piecewise-constant
coefficients times P1 products, so the assembled matrix carries no quadrature
error.  The Neumann problem needs no mean-zero gauge: q > 0 on a set of
positive area makes the bilinear form coercive, and the system matrix is
symmetric positive definite.  This module is the one writer of the P1
element matrices: ``assemble`` sums each element's stiffness plus mass into
CSC data with the ``scatter`` of the mesh's ``TriMesh.assembly_pattern``,
built once per mesh; ``stiffness_data`` and ``mass_data`` scatter one part.
It also writes the P1 element integrals of solution columns,
``element_l2_products`` and ``element_energy_products``, in closed forms of
their own, apart from the element matrices that a form checked by them scatters.

Each kernel factors per call and keeps no factor after it returns.  The
Kohn-Vogelius pair solve (``solve_pairs``, with ``solve_dirichlet`` its
one-column Dirichlet call) reads the data of A into the band forms of the
pattern's blocks of A and of A_II, and factors each by LAPACK's band
Cholesky for all its columns (George & Liu, "Computer Solution of Large
Sparse Positive Definite Systems", 1981): at 1 014 elements that takes
0.2-0.3 ms where a SuperLU call takes over 1 ms, nearly all of it per-call
overhead.  ``solve_band_spd`` makes the same factorization of any principal
``mesh.Block``, for the interior block of ``locpot.Condensation``.
``solve_sparse_spd`` makes one SuperLU factorization in symmetric mode
(``SPLU_OPTIONS``) for all the columns of its call; the
boundary-flux loads of ``solve_neumann_many`` (``solve_neumann`` is its
one-column call) and the interior loads of ``solve_source`` go through it.
On large meshes SuperLU is the better kernel: at 65 536 elements the band
sorted on x factors more slowly with four times SuperLU's fill memory, and
even a reverse Cuthill-McKee band needs twice that memory.
``solve_dense_spd`` solves with a dense block by Cholesky.  Every column of
a solve must meet the SOLVE_RTOL residual contract on its own, which also
catches a breakdown of the unpivoted LU; a Cholesky that fails reports that
the matrix is not positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .field import BoundaryTrace, NodalField, PiecewiseConstantField
from .mesh import Block, TriMesh

# Relative residual beyond which a direct solve is reported as failed.
SOLVE_RTOL = 1e-8
# Bytes of solution columns multiplied at a time when a residual is formed.
_RESIDUAL_BYTES = 2 ** 20

# SuperLU settings of every factorization: minimum degree on A^T + A, diagonal
# pivots only, and a symmetric ordering of rows and columns (Li, "An overview
# of SuperLU", ACM TOMS 31, 2005), which needs no row interchanges and fills
# less than the default ordering.  Safe without pivoting because A and its
# principal blocks are symmetric positive definite for every input
# ``assemble`` accepts.
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True}}

_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class AssembledSystem:
    """Stiffness+mass matrix A(sigma, q) on its mesh; it holds no factorization."""

    mesh: TriMesh
    matrix: sp.csc_matrix


def assemble(
    mesh: TriMesh,
    sigma: PiecewiseConstantField,
    q: PiecewiseConstantField,
) -> AssembledSystem:
    """Assemble A(sigma, q) for the weak form of the diffusion-absorption equation.

    Requires finite coefficients, sigma > 0 everywhere and q >= 0 with q > 0
    somewhere (``require_positive`` and ``require_absorption``).
    """
    q.require_mesh(mesh).require_absorption()

    # a first call builds the pattern before the element matrices take memory
    pattern = mesh.assembly_pattern
    local = _element_stiffness(mesh, sigma)
    local += _element_mass(mesh, q.values)
    matrix = sp.csc_matrix((pattern.scatter(local), pattern.indices, pattern.indptr),
                           shape=(mesh.n_nodes, mesh.n_nodes))
    return AssembledSystem(mesh, matrix)


def stiffness_data(mesh: TriMesh, sigma: PiecewiseConstantField) -> np.ndarray:
    """CSC data, on the mesh's pattern, of sum_e sigma_e int_e grad phi_a . grad phi_b, the stiffness of A."""
    return mesh.assembly_pattern.scatter(_element_stiffness(mesh, sigma))


def mass_data(mesh: TriMesh, weights: np.ndarray) -> np.ndarray:
    """CSC data, on the mesh's pattern, of sum_e weights_e int_e phi_a phi_b, one weight per element."""
    return mesh.assembly_pattern.scatter(_element_mass(mesh, weights))


def _element_stiffness(mesh: TriMesh, sigma: PiecewiseConstantField) -> np.ndarray:
    """The (n_elements, 3, 3) element stiffness matrices sigma_e |e| grad phi_a . grad phi_b."""
    sigma.require_mesh(mesh).require_positive()
    gx = mesh.element_grads[:, :, 0]
    gy = mesh.element_grads[:, :, 1]
    local = gx[:, :, None] * gx[:, None, :]
    local += gy[:, :, None] * gy[:, None, :]
    local *= (mesh.areas * sigma.values)[:, None, None]
    return local


def _element_mass(mesh: TriMesh, weights: np.ndarray) -> np.ndarray:
    """The (n_elements, 3, 3) exact P1 element mass matrices |e|/12 (1 1^T + I), times weights_e."""
    return _MASS_PATTERN * (mesh.areas * weights)[:, None, None]


def boundary_load(mesh: TriMesh, g_values: np.ndarray) -> np.ndarray:
    """Load of the boundary term: exact edge integration of P1 g, per column of g_values."""
    out = np.zeros((mesh.n_nodes, *g_values.shape[1:]))
    out[mesh.boundary_nodes] = mesh.boundary_mass @ g_values
    return out


def _check_squared_norms(r_sq: np.ndarray, b: np.ndarray, what: str) -> None:
    """Require ||r|| <= SOLVE_RTOL ||b|| per column of the 2-D b, given r's squared column norms ``r_sq``; NaN fails."""
    ratio = np.sqrt(r_sq) / np.maximum(np.sqrt(np.einsum("ij,ij->j", b, b)), 1e-300)
    worst = int(np.argmax(ratio))  # the first NaN, if any
    if not ratio[worst] <= SOLVE_RTOL:
        raise SolverError(
            f"{what} did not converge in column {worst}: relative residual {ratio[worst]:.3e}"
        )


def _check_solve(matrix, x: np.ndarray, rhs: np.ndarray, what: str) -> None:
    """Hold the solution x of matrix @ x = rhs to the residual contract.

    The residual is formed in place, for blocks of columns of about
    ``_RESIDUAL_BYTES``: a sparse matrix copies a Fortran-ordered x (as
    every solver returns it) to C order before it multiplies, so a whole x
    would cost two more solution-sized arrays beside the load and the
    solution.
    """
    r_sq = np.empty(x.shape[1])
    block = max(1, _RESIDUAL_BYTES // (8 * max(1, x.shape[0])))
    for j in range(0, x.shape[1], block):
        r = matrix @ x[:, j:j + block]
        r -= rhs[:, j:j + block]
        r_sq[j:j + block] = np.einsum("ij,ij->j", r, r)
    _check_squared_norms(r_sq, rhs, what)


def solve_neumann(sys: AssembledSystem, g: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary flux g (coefficients of boundary hat functions)."""
    g.require_mesh(sys.mesh)
    return NodalField(sys.mesh, solve_neumann_many(sys, g.values[:, None])[:, 0])


def solve_neumann_many(sys: AssembledSystem, g_values: np.ndarray) -> np.ndarray:
    """Solve for many boundary-flux columns on one factorization; returns (n_nodes, k) array."""
    return solve_sparse_spd(sys.matrix, boundary_load(sys.mesh, g_values), "Neumann solve")


def solve_dirichlet(sys: AssembledSystem, f: BoundaryTrace) -> NodalField:
    """Solve with prescribed boundary values f; exact at boundary nodes."""
    f.require_mesh(sys.mesh)
    return NodalField(sys.mesh, _band_dirichlet(sys, f.values[:, None])[:, 0])


def solve_pairs(
    sys: AssembledSystem, g_values: np.ndarray, f_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Neumann solutions for the flux columns g_values, Dirichlet ones for the value columns f_values.

    Returns (U_N, U_D), (n_nodes, k) arrays with one column per input
    column.  Each half is one band Cholesky factorization made for the call,
    of A and of A_II respectively, and every column meets its own residual
    contract: a Neumann column against its load.
    """
    full = sys.mesh.assembly_pattern.full_band
    b = boundary_load(sys.mesh, g_values)
    un = np.empty_like(b)
    un[full.row_nodes] = _band_solve(full, sys.matrix.data, b[full.row_nodes], "Neumann solve")
    _check_solve(sys.matrix, un, b, "Neumann solve")
    return un, _band_dirichlet(sys, f_values)


def _band_dirichlet(sys: AssembledSystem, f_values: np.ndarray) -> np.ndarray:
    """Dirichlet columns on a band Cholesky of A_II.

    With X holding f on the boundary rows and zeros elsewhere, the interior
    rows solve A_II x = -(A X)_I = -A_IB f.  The interior rows of A X are then
    the residual A_II x + A_IB f, checked against ||A_IB f|| per column; the
    boundary rows are f exactly.
    """
    mesh = sys.mesh
    interior = mesh.assembly_pattern.interior_band
    x = np.zeros((mesh.n_nodes, f_values.shape[1]))
    x[mesh.boundary_nodes] = f_values
    rhs = -(sys.matrix @ x)[interior.row_nodes]
    x[interior.row_nodes] = _band_solve(interior, sys.matrix.data, rhs, "Dirichlet solve")
    r = (sys.matrix @ x)[interior.row_nodes]
    _check_squared_norms(np.einsum("ij,ij->j", r, r), rhs, "Dirichlet solve")
    return x


def _cholesky(factorize, matrix: np.ndarray, what: str, **options):
    """The lower Cholesky factor by ``factorize``; its failure raises :class:`SolverError`."""
    try:
        return factorize(matrix, lower=True, check_finite=False, **options)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} failed: the matrix is not positive definite ({exc})") from None


def _band_solve(block: Block, data: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with the principal ``block`` of the matrix with CSC data ``data``, rows in block order."""
    factor = _cholesky(sla.cholesky_banded, block.band(data), what, overwrite_ab=True)
    # rhs is not overwritten: the Dirichlet check still reads it
    return sla.cho_solve_banded((factor, True), rhs, check_finite=False)


def solve_band_spd(block: Block, data: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with the principal ``block`` of the matrix with CSC data ``data``, rows in block order.

    One band Cholesky factorization serves every column, and each column is
    held to the residual contract against the block's sparse form, read apart
    from the band form, so a wrong band form, load or solution fails it.
    """
    x = _band_solve(block, data, rhs, what)
    _check_solve(block.sparse(data), x, rhs, what)
    return x


def solve_sparse_spd(matrix, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with a sparse SPD matrix on an LU made for this call, each column under the contract."""
    x = spla.splu(matrix, **SPLU_OPTIONS).solve(rhs)
    _check_solve(matrix, x, rhs, what)
    return x


def solve_dense_spd(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve with a dense SPD matrix by Cholesky, every column under the residual contract.

    The factorization reads the lower triangle; the residual is taken against
    the whole matrix, and also refuses a NaN that a non-finite input leaves.
    Raises :class:`SolverError` if the matrix is not positive definite.
    """
    factor = _cholesky(sla.cho_factor, matrix, what)
    x = sla.cho_solve(factor, rhs, check_finite=False)
    _check_solve(matrix, x, rhs, what)
    return x


def solve_source(sys: AssembledSystem, elements: np.ndarray, values: np.ndarray) -> NodalField:
    """Solve with an interior source equal to ``values`` on ``elements``, zero elsewhere."""
    mesh = sys.mesh
    b = np.zeros((mesh.n_nodes, 1))
    np.add.at(b[:, 0], mesh.elements[elements].ravel(), np.repeat(values * mesh.areas[elements] / 3.0, 3))
    return NodalField(mesh, solve_sparse_spd(sys.matrix, b, "source solve")[:, 0])


def element_means(u: NodalField) -> np.ndarray:
    """Vertex average per element (= centroid value for P1)."""
    return u.values[u.mesh.elements].mean(axis=1)


def element_l2_products(mesh: TriMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact int_e u_c v_c per element e and column c of the (n_nodes, k) P1 columns u, v; (n_elements, k)."""
    # one gather per corner: arithmetic on the strided corner views of a single
    # (n_elements, 3, k) gather is about four times slower
    u0, u1, u2 = (u[mesh.elements[:, i]] for i in range(3))
    v0, v1, v2 = (v[mesh.elements[:, i]] for i in range(3))
    return mesh.areas[:, None] / 12.0 * ((u0 + u1 + u2) * (v0 + v1 + v2) + (u0 * v0 + u1 * v1 + u2 * v2))


def element_energy_products(mesh: TriMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact int_e grad u_c . grad v_c per element e and column c of P1 columns u, v; (n_elements, k)."""
    (ux, uy), (vx, vy) = _gradients(mesh, u), _gradients(mesh, v)
    return mesh.areas[:, None] * (ux * vx + uy * vy)


def _gradients(mesh: TriMesh, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The constant x and y derivatives of the P1 columns u on each element, (n_elements, k) each."""
    g = mesh.element_grads[:, :, :, None]
    u0, u1, u2 = (u[mesh.elements[:, i]] for i in range(3))
    return tuple(g[:, 0, d] * u0 + g[:, 1, d] * u1 + g[:, 2, d] * u2 for d in range(2))

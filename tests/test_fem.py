import gc
from types import SimpleNamespace
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import iv

import optitomo.fem
from optitomo.errors import FieldError, SolverError
from optitomo.field import (
    BoundaryTrace,
    PiecewiseConstantField,
    restrict_to_boundary,
    sample_coefficient,
)
from optitomo.fem import (
    SOLVE_RTOL,
    _check_squared_norms,
    assemble,
    boundary_load,
    element_energy_products,
    element_l2_products,
    element_means,
    mass_data,
    solve_dirichlet,
    solve_neumann,
    solve_neumann_many,
    solve_pairs,
    solve_source,
    solve_sparse_spd,
    stiffness_data,
)
from optitomo.inversion import MeasurementSet, _solutions
from optitomo.locpot import lipschitz_constant, make_probing_setup, stability_report
from optitomo.mesh import AssemblyPattern, generate_disk_mesh, refine_uniform, subdomain_partition
from optitomo.ntd import boundary_inner, build_ntd, monotonicity_gap


def bessel_dn(n, x=1.0):
    return 0.5 * (iv(n - 1, x) + iv(n + 1, x))


def test_row_sums_are_mass_row_sums(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    row_sums = np.asarray(sys.matrix.sum(axis=1)).ravel()
    expected = np.zeros(mesh_small.n_nodes)
    np.add.at(expected, mesh_small.elements.ravel(), np.repeat(mesh_small.areas / 3.0, 3))
    np.testing.assert_allclose(row_sums, expected, rtol=0, atol=1e-14)


def test_matrix_symmetry(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    diff = (sys.matrix - sys.matrix.T).tocoo()
    scale = np.max(np.abs(sys.matrix.data))
    assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-14 * scale


def test_smallest_eigenvalue_positive(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    eigs = sla.eigvalsh(sys.matrix.toarray())
    assert eigs[0] > 0.0


def test_assemble_rejects_bad_coefficients(mesh_small):
    bad_sigma = PiecewiseConstantField(mesh_small, np.zeros(mesh_small.n_elements))
    one = sample_coefficient(mesh_small, "one")
    with pytest.raises(FieldError):
        assemble(mesh_small, bad_sigma, one)
    zero_q = PiecewiseConstantField(mesh_small, np.zeros(mesh_small.n_elements))
    with pytest.raises(FieldError):
        assemble(mesh_small, one, zero_q)
    negative_q = PiecewiseConstantField(mesh_small, np.full(mesh_small.n_elements, -1.0))
    with pytest.raises(FieldError):
        assemble(mesh_small, one, negative_q)
    for bad in (np.nan, np.inf):
        values = np.ones(mesh_small.n_elements)
        values[7] = bad
        field = PiecewiseConstantField(mesh_small, values)
        with pytest.raises(FieldError, match="must be finite and strictly positive"):
            assemble(mesh_small, field, one)
        with pytest.raises(FieldError, match="absorption coefficient must be finite"):
            assemble(mesh_small, one, field)


def test_neumann_zero_current(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    u = solve_neumann(sys, BoundaryTrace(mesh_small, np.zeros(mesh_small.n_boundary)))
    assert np.all(u.values == 0.0)


def test_neumann_constant_current_bessel(mesh_chain):
    # sigma = q = 1, g = 1: radially symmetric solution with boundary value
    # I0(1)/I1(1); second-order convergence makes 1% comfortable at level 1.
    mesh = mesh_chain[1]
    one = sample_coefficient(mesh, "one")
    sys = assemble(mesh, one, one)
    u = solve_neumann(sys, BoundaryTrace(mesh, np.ones(mesh.n_boundary)))
    expected = iv(0, 1.0) / iv(1, 1.0)
    trace = restrict_to_boundary(u).values
    assert np.max(np.abs(trace - expected)) <= 0.01 * expected


def test_neumann_coercivity_sign(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    sys = assemble(mesh_small, sigma, q)
    g = BoundaryTrace(mesh_small, np.sin(mesh_small.boundary_angles))
    u = solve_neumann(sys, g)
    assert boundary_inner(g, restrict_to_boundary(u)) > 0.0


def test_neumann_energy_identity(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    sys = assemble(mesh_small, sigma, q)
    g = BoundaryTrace(mesh_small, 1.0 + np.sin(2 * mesh_small.boundary_angles))
    u = solve_neumann(sys, g)
    lhs = u.values @ (sys.matrix @ u.values)
    rhs = float(g.values @ (mesh_small.boundary_mass @ restrict_to_boundary(u).values))
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_dirichlet_zero(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    u = solve_dirichlet(sys, BoundaryTrace(mesh_small, np.zeros(mesh_small.n_boundary)))
    assert np.all(u.values == 0.0)


def test_dirichlet_bessel_interior_value(mesh_chain):
    mesh = mesh_chain[2]
    one = sample_coefficient(mesh, "one")
    sys = assemble(mesh, one, one)
    f = BoundaryTrace(mesh, np.cos(mesh.boundary_angles))
    u = solve_dirichlet(sys, f)
    # compare at the node nearest (0.5, 0) against the exact solution there
    d = np.linalg.norm(mesh.nodes - np.array([0.5, 0.0]), axis=1)
    i = int(np.argmin(d))
    r = np.linalg.norm(mesh.nodes[i])
    theta = np.arctan2(mesh.nodes[i, 1], mesh.nodes[i, 0])
    exact = iv(1, r) / iv(1, 1.0) * np.cos(theta)
    assert abs(u.values[i] - exact) <= 5e-3 * abs(iv(1, 0.5) / iv(1, 1.0))


def test_dirichlet_matches_neumann_on_shared_trace(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    sys = assemble(mesh_small, sigma, q)
    g = BoundaryTrace(mesh_small, 10.0 + np.sin(mesh_small.boundary_angles))
    u_n = solve_neumann(sys, g)
    u_d = solve_dirichlet(sys, restrict_to_boundary(u_n))
    assert np.max(np.abs(u_d.values - u_n.values)) <= 1e-8 * np.max(np.abs(u_n.values))


@pytest.mark.parametrize("target, levels", [(254, 0), (1016, 0), (4064, 0), (254, 1), (254, 2)])
def test_dirichlet_many_matches_dense_interior_solve(target, levels):
    # the many-column pair solve against dense oracles: A x = B G for the
    # Neumann columns, and A_II x = -A_IB F from index slices for the
    # Dirichlet ones, with A_IB columns in the angular order of
    # boundary_nodes (refined meshes number their boundary nodes out of
    # angular order, so F must be placed by node id)
    mesh = generate_disk_mesh(target)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    sys = assemble(mesh, sample_coefficient(mesh, "example1_sigma"),
                   sample_coefficient(mesh, "example1_q"))
    bn = mesh.boundary_nodes
    idx = np.setdiff1d(np.arange(mesh.n_nodes), bn)
    a = sys.matrix.toarray()
    cols = _boundary_columns(mesh)
    un, ud = solve_pairs(sys, cols[:, ::-1], cols)
    ref = np.linalg.solve(a, boundary_load(mesh, cols[:, ::-1]))
    assert np.linalg.norm(un - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = np.linalg.solve(a[np.ix_(idx, idx)], -a[np.ix_(idx, bn)] @ cols)
    np.testing.assert_array_equal(ud[bn], cols)
    assert np.linalg.norm(ud[idx] - ref) <= 1e-12 * np.linalg.norm(ref)


def _coo_matrix(mesh, sigma, q):
    """A(sigma, q) by the COO route: element matrices by einsum, duplicates summed by scipy."""
    grads = mesh.element_grads
    local = (np.einsum("eik,ejk->eij", grads, grads) * (mesh.areas * sigma.values)[:, None, None]
             + (np.ones((3, 3)) + np.eye(3)) / 12.0 * (mesh.areas * q.values)[:, None, None])
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsc()


@pytest.mark.parametrize("target, levels", [(254, 0), (1016, 0), (4064, 0), (254, 1), (254, 2)])
def test_pattern_assembly_matches_the_coo_route(target, levels):
    # the bincount into the pattern's slots sums in another order than
    # scipy's duplicate summation: same structure, entries within 1e-15
    mesh = generate_disk_mesh(target)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    sigma = sample_coefficient(mesh, "example1_sigma")
    q = sample_coefficient(mesh, "example1_q")
    a = assemble(mesh, sigma, q).matrix
    ref = _coo_matrix(mesh, sigma, q)
    np.testing.assert_array_equal(a.indptr, ref.indptr)
    np.testing.assert_array_equal(a.indices, ref.indices)
    assert np.max(np.abs(a.data - ref.data) / np.abs(ref.data)) <= 1e-15

    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[mesh.boundary_nodes] = False
    pattern = mesh.assembly_pattern
    for band, mask in ((pattern.full_band, np.ones_like(interior)),
                       (pattern.interior_band, interior)):
        nodes = band.row_nodes
        assert np.array_equal(np.sort(nodes), np.flatnonzero(mask))
        # the band order is a stable sort on x
        assert np.all(np.diff(mesh.nodes[nodes, 0]) >= 0.0)
        _assert_band_of(band, a.data, a[nodes][:, nodes].toarray())


def _assert_band_of(block, data, dense):
    """Every entry of the principal block's band form equals its entry of ``dense``, the block
    in the block's node order, and nothing of ``dense`` lies outside the band."""
    ab = block.band(data)
    m, w = block.shape[0], ab.shape[0] - 1
    assert ab.shape[1] == m
    for r in range(w + 1):
        np.testing.assert_array_equal(ab[r, :m - r], np.diagonal(dense, -r))
        assert np.all(ab[r, m - r:] == 0.0)
    assert not np.any(np.tril(dense, -w - 1)) and (m == 0 or np.any(np.diagonal(dense, -w)))


@pytest.mark.parametrize("target, levels", [(254, 0), (1016, 0), (254, 2)])
def test_stiffness_and_mass_data_sum_to_the_assembly(target, levels):
    # fem writes the element matrices once: its two parts, scattered apart
    # and added, match the assembly, which sums them before the scatter
    mesh = generate_disk_mesh(target)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    sigma = sample_coefficient(mesh, "example1_sigma")
    q = sample_coefficient(mesh, "example1_q")
    a = assemble(mesh, sigma, q).matrix.data
    parts = stiffness_data(mesh, sigma) + mass_data(mesh, q.values)
    assert np.max(np.abs(parts - a) / np.abs(a)) <= 1e-15


def test_band_widths_are_pinned_at_the_inversion_mesh(mesh_medium):
    # a sort on x gives these bands at 1 014 elements; a wider band from a
    # worse ordering costs each pair solve time and memory
    pattern = mesh_medium.assembly_pattern
    assert mesh_medium.n_elements == 1014
    data = np.ones(pattern.indices.size)
    assert (pattern.full_band.band(data).shape[0], pattern.interior_band.band(data).shape[0]) == (41, 37)


def test_each_mesh_builds_one_assembly_pattern(monkeypatch):
    # certificates, the stability report, objective evaluations, NtD builds
    # and the monotonicity terms all share their mesh's pattern
    built = []
    original = AssemblyPattern.__init__

    def counting(self, mesh):
        built.append(mesh)
        original(self, mesh)

    monkeypatch.setattr(AssemblyPattern, "__init__", counting)
    probed = generate_disk_mesh(254, angular_multiplier=8)
    setup = make_probing_setup(subdomain_partition(probed, 0.5, 4), 1.0, 1.2)
    _, currents = lipschitz_constant(setup)
    stability_report(setup, currents, 3, seed=0)

    mesh = generate_disk_mesh(254)
    sigma = sample_coefficient(mesh, "example1_sigma")
    q = sample_coefficient(mesh, "example1_q")
    ang = mesh.boundary_angles
    g = BoundaryTrace(mesh, np.cos(ang))
    meas = MeasurementSet(mesh, np.cos(ang)[:, None], np.sin(ang)[:, None])
    _solutions(meas, sigma, q)
    _solutions(meas, sigma, q)
    build_ntd(mesh, sigma, q)
    monotonicity_gap(sigma, sample_coefficient(mesh, "one"), sigma, q, g)
    assert len(built) == 2 and built[0] is probed and built[1] is mesh


def test_mesh_and_pattern_form_no_reference_cycle():
    # the pattern keeps the mesh's arrays, not the mesh, so dropping the last
    # reference frees the mesh without the cyclic collector
    gc.disable()
    try:
        mesh = generate_disk_mesh(254)
        one = sample_coefficient(mesh, "one")
        sys = assemble(mesh, one, one)
        solve_pairs(sys, _boundary_columns(mesh), _boundary_columns(mesh))
        alive = weakref.ref(mesh)
        del mesh, one, sys
        assert alive() is None
    finally:
        gc.enable()


def test_unpivoted_factorization_meets_the_contract_at_high_contrast(mesh_medium):
    # log-uniform sigma in [1e-3, 1e3] and q in [1e-6, 1]: the symmetric-mode
    # LU makes no row interchanges, and it and both band Cholesky solves
    # still meet SOLVE_RTOL per column and agree with dense solves
    mesh = mesh_medium
    rng = np.random.default_rng(13)
    sigma = PiecewiseConstantField(mesh, 10.0 ** rng.uniform(-3.0, 3.0, mesh.n_elements))
    q = PiecewiseConstantField(mesh, 10.0 ** rng.uniform(-6.0, 0.0, mesh.n_elements))
    sys = assemble(mesh, sigma, q)
    a = sys.matrix.toarray()
    cols = _boundary_columns(mesh)
    un, ud = solve_pairs(sys, cols, cols)
    ref = np.linalg.solve(a, boundary_load(mesh, cols))
    for x in (solve_neumann_many(sys, cols), un):
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    bn = mesh.boundary_nodes
    idx = np.setdiff1d(np.arange(mesh.n_nodes), bn)
    ref = np.linalg.solve(a[np.ix_(idx, idx)], -a[np.ix_(idx, bn)] @ cols)
    assert np.linalg.norm(ud[idx] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_symmetric_mode_fills_less_than_the_default_ordering(mesh_medium, monkeypatch):
    # minimum degree on A^T + A with diagonal pivots: L + U hold 16.3k
    # entries at 1 014 elements against 20.7k under splu's defaults
    sys = assemble(mesh_medium, sample_coefficient(mesh_medium, "example1_sigma"),
                   sample_coefficient(mesh_medium, "example1_q"))
    factors = []
    original = spla.splu

    def keeping(matrix, **options):
        factors.append(original(matrix, **options))
        return factors[-1]

    monkeypatch.setattr(optitomo.fem.spla, "splu", keeping)
    solve_neumann_many(sys, _boundary_columns(mesh_medium))
    (lu,) = factors
    default = original(sys.matrix)
    assert lu.L.nnz + lu.U.nnz < 0.85 * (default.L.nnz + default.U.nnz)


def _boundary_columns(mesh):
    ang = mesh.boundary_angles
    return np.column_stack([np.cos(ang), 1.0 + np.sin(2 * ang), np.zeros_like(ang),
                            np.cos(3 * ang) ** 2])


def test_dirichlet_many_matches_column_solves(mesh_small):
    # the many Dirichlet columns of the pair solve against the one-column
    # call of the same path, its Neumann columns against the SuperLU path of
    # solve_neumann
    sys = assemble(mesh_small, sample_coefficient(mesh_small, "example1_sigma"),
                   sample_coefficient(mesh_small, "example1_q"))
    f = _boundary_columns(mesh_small)
    un, ud = solve_pairs(sys, f[:, 1:], f)
    assert un.shape == (mesh_small.n_nodes, f.shape[1] - 1)
    assert ud.shape == (mesh_small.n_nodes, f.shape[1])
    for k in range(f.shape[1]):
        col = solve_dirichlet(sys, BoundaryTrace(mesh_small, f[:, k])).values
        np.testing.assert_array_equal(ud[mesh_small.boundary_nodes, k], f[:, k])
        np.testing.assert_allclose(ud[:, k], col, rtol=0, atol=1e-14 * np.max(np.abs(col), initial=1.0))
    for k in range(1, f.shape[1]):
        col = solve_neumann(sys, BoundaryTrace(mesh_small, f[:, k])).values
        np.testing.assert_allclose(un[:, k - 1], col, rtol=0, atol=1e-12 * np.max(np.abs(col), initial=1.0))


def test_multi_column_residual_is_checked_per_column(mesh_small, unit_coefficients, monkeypatch):
    # column 1 carries a load a million times smaller than column 0; spoiling
    # it by 1e-5 keeps the block's Frobenius residual far below SOLVE_RTOL but
    # breaks that column's own contract, which each multi-column solve enforces
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    ang = mesh_small.boundary_angles
    g = np.column_stack((np.cos(ang), 1e-6 * np.sin(2 * ang)))
    x = solve_neumann_many(sys, g)
    spoiled = x.copy()
    spoiled[:, 1] *= 1.0 + 1e-5
    b = sys.matrix @ x
    frobenius = np.linalg.norm(sys.matrix @ spoiled - b) / np.linalg.norm(b)
    assert frobenius <= SOLVE_RTOL
    result = [spoiled]
    monkeypatch.setattr(optitomo.fem.spla, "splu", lambda matrix, **options: SimpleNamespace(
        solve=lambda rhs: result[0]))
    with pytest.raises(SolverError, match="Neumann solve did not converge in column 1"):
        solve_neumann_many(sys, g)
    # one column takes the same test, also through the one-column callers
    result[0] = spoiled[:, :1] * (1.0 + 1e-5)
    with pytest.raises(SolverError, match="Neumann solve did not converge in column 0"):
        solve_neumann(sys, BoundaryTrace(mesh_small, g[:, 0]))
    with pytest.raises(SolverError, match="source solve did not converge in column 0"):
        solve_source(sys, np.arange(mesh_small.n_elements), np.ones(mesh_small.n_elements))

    # the same spoiling of the band solves of the pair solve: each half
    # checks its own columns
    sys = assemble(mesh_small, sigma, q)
    un, ud = solve_pairs(sys, g, g)
    interior = np.ones(mesh_small.n_nodes, dtype=bool)
    interior[mesh_small.boundary_nodes] = False
    sub = sys.matrix[interior][:, interior]
    rhs = sub @ ud[interior]
    spoiled = ud[interior].copy()
    spoiled[:, 1] *= 1.0 + 1e-5
    assert np.linalg.norm(sub @ spoiled - rhs) <= SOLVE_RTOL * np.linalg.norm(rhs)
    solve = optitomo.fem.sla.cho_solve_banded
    size = []

    def spoiling(factor_and_lower, b, **options):
        x = solve(factor_and_lower, b, **options)
        if x.shape[0] == size[0]:
            x[:, -1] *= 1.0 + 1e-5
        return x

    monkeypatch.setattr(optitomo.fem.sla, "cho_solve_banded", spoiling)
    for what, n in (("Neumann", mesh_small.n_nodes), ("Dirichlet", int(interior.sum()))):
        size[:] = [n]
        with pytest.raises(SolverError, match=f"{what} solve did not converge in column 1"):
            solve_pairs(sys, g, g)
    with pytest.raises(SolverError, match="Dirichlet solve did not converge in column 0"):
        solve_dirichlet(sys, BoundaryTrace(mesh_small, g[:, 1]))


@pytest.mark.parametrize("columns", [1, 2, 64])
def test_residual_is_formed_block_by_block(mesh_small, unit_coefficients, monkeypatch, columns):
    # the residual is formed a few columns at a time: a spoiled column in a
    # later block is named by its own index
    monkeypatch.setattr(optitomo.fem, "_RESIDUAL_BYTES", 8 * mesh_small.n_nodes * columns)
    sys = assemble(mesh_small, *unit_coefficients)
    g = np.column_stack([np.cos(k * mesh_small.boundary_angles) for k in range(1, 6)])
    spoiled = solve_neumann_many(sys, g)
    spoiled[:, 3] *= 1.0 + 1e-5
    monkeypatch.setattr(optitomo.fem.spla, "splu", lambda matrix, **options: SimpleNamespace(
        solve=lambda rhs: spoiled))
    with pytest.raises(SolverError, match="Neumann solve did not converge in column 3"):
        solve_neumann_many(sys, g)


@pytest.mark.parametrize("columns", [1, 3])
def test_dirichlet_check_reads_the_load_not_the_solution(mesh_small, unit_coefficients, monkeypatch,
                                                         columns):
    # the band solve must leave its right-hand side intact: a one-column
    # right-hand side is also Fortran-contiguous, and a solve that overwrote
    # it would have the contract measure the residual against the solution
    sys = assemble(mesh_small, *unit_coefficients)
    f = _boundary_columns(mesh_small)[:, :columns]
    loads = []
    check = optitomo.fem._check_squared_norms

    def keeping(r_sq, b, what):
        loads.append((what, b.copy()))
        check(r_sq, b, what)

    monkeypatch.setattr(optitomo.fem, "_check_squared_norms", keeping)
    solve_pairs(sys, f, f)
    x = np.zeros((mesh_small.n_nodes, columns))
    x[mesh_small.boundary_nodes] = f
    interior = mesh_small.assembly_pattern.interior_band.row_nodes
    assert loads[1][0] == "Dirichlet solve"
    np.testing.assert_array_equal(loads[1][1], -(sys.matrix @ x)[interior])
    np.testing.assert_array_equal(loads[0][1], boundary_load(mesh_small, f))


def test_pair_solve_refuses_an_indefinite_band(mesh_small, unit_coefficients, monkeypatch):
    # the band Cholesky is the positive-definiteness check of the pair solve:
    # a negative shift of the band's diagonal must fail it, whichever half
    sys = assemble(mesh_small, *unit_coefficients)
    g = _boundary_columns(mesh_small)
    factor = optitomo.fem.sla.cholesky_banded
    size = []

    def shifted(ab, **options):
        if ab.shape[1] == size[0]:
            ab[0] -= 2.0 * ab[0].max()
        return factor(ab, **options)

    monkeypatch.setattr(optitomo.fem.sla, "cholesky_banded", shifted)
    n_interior = mesh_small.n_nodes - mesh_small.n_boundary
    for what, n in (("Neumann", mesh_small.n_nodes), ("Dirichlet", n_interior)):
        size[:] = [n]
        with pytest.raises(SolverError, match=f"{what} solve failed: the matrix is not positive definite"):
            solve_pairs(sys, g, g)


def test_residual_check_refuses_nan_columns(mesh_small, unit_coefficients):
    # a NaN ratio compares false with SOLVE_RTOL: a NaN load, or the NaN of a
    # broken-down factorization, must fail the contract all the same
    sys = assemble(mesh_small, *unit_coefficients)
    ang = mesh_small.boundary_angles
    x = solve_neumann_many(sys, np.column_stack((np.cos(ang), np.sin(ang))))
    b = sys.matrix @ x

    def check(x, b, what):
        r = sys.matrix @ x - b
        _check_squared_norms(np.einsum("ij,ij->j", r, r), b, what)

    check(x, b, "clean solve")
    for spoil in ("solution", "load"):
        xs, bs = x.copy(), b.copy()
        (xs if spoil == "solution" else bs)[3, 1] = np.nan
        with pytest.raises(SolverError, match="spoiled solve did not converge in column 1"):
            check(xs, bs, "spoiled solve")


def test_source_zero(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    every = np.arange(mesh_small.n_elements)
    v = solve_source(sys, every, np.zeros(mesh_small.n_elements))
    assert np.all(v.values == 0.0)


def test_source_adjoint_identity(mesh_small_aligned, rng_seed=5):
    mesh = mesh_small_aligned
    one = sample_coefficient(mesh, "one")
    sys = assemble(mesh, one, one)
    part = subdomain_partition(mesh, 0.5, 4)
    omega = np.flatnonzero(part.omega_mask)
    rng = np.random.default_rng(rng_seed)
    for _ in range(5):
        fvals = rng.standard_normal(omega.size)
        gvals = rng.standard_normal(mesh.n_boundary)
        v = solve_source(sys, omega, fvals)
        u = solve_neumann(sys, BoundaryTrace(mesh, gvals))
        lhs = float(v.values[mesh.boundary_nodes] @ (mesh.boundary_mass @ gvals))
        rhs = float(np.sum(mesh.areas[omega] * fvals * element_means(u)[omega]))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_source_indicator_peaks_inside(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    mesh = mesh_small
    sys = assemble(mesh, sigma, q)
    inside = np.hypot(*mesh.centroids.T) < 0.5
    v = solve_source(sys, np.flatnonzero(inside), np.ones(inside.sum()))
    # dense oracle
    dense = np.linalg.solve(sys.matrix.toarray(),
                            np.zeros(mesh.n_nodes) + _source_vec(mesh, inside.astype(float)))
    np.testing.assert_allclose(v.values, dense, rtol=0, atol=1e-10 * np.max(np.abs(dense)))
    omega_nodes = np.unique(mesh.elements[inside])
    assert v.values[omega_nodes].max() > v.values[mesh.boundary_nodes].max()


def _source_vec(mesh, values):
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.elements.ravel(), np.repeat(values * mesh.areas / 3.0, 3))
    return out


@pytest.mark.parametrize("subset", ["omega", "every", "scattered"])
def test_source_on_listed_elements_matches_full_field_load(mesh_small_aligned, subset):
    # Loads scattered for the listed elements only give the same bits as the
    # full-field load with zeros elsewhere: the omitted addends are all zero.
    mesh = mesh_small_aligned
    sys = assemble(mesh, sample_coefficient(mesh, "example1_sigma"),
                   sample_coefficient(mesh, "example1_q"))
    rng = np.random.default_rng(12)
    elements = {
        "omega": np.flatnonzero(subdomain_partition(mesh, 0.5, 4).omega_mask),
        "every": np.arange(mesh.n_elements),
        "scattered": np.sort(rng.choice(mesh.n_elements, 40, replace=False)),
    }[subset]
    values = rng.standard_normal(elements.size)
    full = np.zeros(mesh.n_elements)
    full[elements] = values
    v = solve_source(sys, elements, values)
    b = _source_vec(mesh, full)[:, None]
    assert np.array_equal(v.values, solve_sparse_spd(sys.matrix, b, "source solve")[:, 0])


def test_element_gradients_linear_reproduction(mesh_small):
    # grad x = (1, 0), grad y = (0, 1) and grad c = 0 on every element, so the
    # energy products of the columns (x, y, y, c) with (x, y, x, x) are
    # |e|, |e|, 0 and 0
    mesh = mesh_small
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    const = np.full(mesh.n_nodes, 4.2)
    got = element_energy_products(mesh, np.column_stack((x, y, y, const)), np.column_stack((x, y, x, x)))
    assert got.shape == (mesh.n_elements, 4)
    np.testing.assert_allclose(got[:, :2], np.column_stack((mesh.areas, mesh.areas)), rtol=1e-12)
    np.testing.assert_allclose(got[:, 2:], 0.0, rtol=0, atol=1e-13 * mesh.areas.max())


def test_gradient_assembly_consistency(mesh_small):
    # per column, sum_e sigma_e int_e |grad u|^2 + q_e int_e u^2 is u^T A u,
    # and a product of two columns is the bilinear form u^T A v
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    a = assemble(mesh_small, sigma, q).matrix
    rng = np.random.default_rng(11)
    u = rng.standard_normal((mesh_small.n_nodes, 4))
    v = rng.standard_normal((mesh_small.n_nodes, 4))
    for left, right in ((u, u), (u, v)):
        energy = element_energy_products(mesh_small, left, right)
        mass = element_l2_products(mesh_small, left, right)
        assert energy.shape == mass.shape == (mesh_small.n_elements, 4)
        quad = sigma.values @ energy + q.values @ mass
        ref = np.einsum("ij,ij->j", left, a @ right)
        assert np.all(np.abs(quad - ref) <= 1e-12 * np.abs(ref))
        # each column is the one-column call
        for c in range(4):
            one = (left[:, c:c + 1], right[:, c:c + 1])
            assert np.array_equal(energy[:, c], element_energy_products(mesh_small, *one)[:, 0])
            assert np.array_equal(mass[:, c], element_l2_products(mesh_small, *one)[:, 0])


def test_boundary_load_uses_edge_mass(mesh_small):
    load = boundary_load(mesh_small, np.ones(mesh_small.n_boundary))
    # total load = integral of 1 over the polygon boundary = perimeter
    perimeter = mesh_small.boundary_edge_lengths.sum()
    assert load.sum() == pytest.approx(perimeter, rel=1e-12)


def test_convergence_ratio_sample(mesh_chain):
    # One harmonic here; the acceptance suite sweeps n in {0, 1, 2}.
    errors = []
    for mesh in mesh_chain:
        one = sample_coefficient(mesh, "one")
        sys = assemble(mesh, one, one)
        ang = mesh.boundary_angles
        g = BoundaryTrace(mesh, np.cos(ang))
        u = solve_neumann(sys, g)
        exact = iv(1, 1.0) / bessel_dn(1) * np.cos(ang)
        err = restrict_to_boundary(u).values - exact
        errors.append(float(np.sqrt(err @ (mesh.boundary_mass @ err))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0

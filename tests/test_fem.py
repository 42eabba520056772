import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import iv

from optitomo.errors import FieldError, SolverError
from optitomo.field import (
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    restrict_to_boundary,
    sample_coefficient,
)
from optitomo.fem import (
    SOLVE_RTOL,
    assemble,
    boundary_load,
    element_gradients,
    element_l2_products,
    element_means,
    energy,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_neumann,
    solve_neumann_many,
    solve_source,
)
from optitomo.mesh import generate_disk_mesh, refine_uniform, subdomain_partition
from optitomo.ntd import boundary_inner


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
    assert boundary_inner(g, restrict_to_boundary(u), mesh_small.boundary_mass) > 0.0


def test_neumann_energy_identity(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    sys = assemble(mesh_small, sigma, q)
    g = BoundaryTrace(mesh_small, 1.0 + np.sin(2 * mesh_small.boundary_angles))
    u = solve_neumann(sys, g)
    lhs = energy(sys, u)
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
def test_interior_blocks_match_index_slices(target, levels):
    # the masked CSC cut of A_II and A_IB equals fancy-index slicing entry
    # for entry, with A_IB columns in the angular order of boundary_nodes
    # (refined meshes number their boundary nodes out of angular order)
    mesh = generate_disk_mesh(target)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    sys = assemble(mesh, sample_coefficient(mesh, "example1_sigma"),
                   sample_coefficient(mesh, "example1_q"))
    idx, sub, coupling, _ = sys._interior_parts()
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[mesh.boundary_nodes] = False
    np.testing.assert_array_equal(idx, np.flatnonzero(interior))
    for block, cols in ((sub, idx), (coupling, mesh.boundary_nodes)):
        ref = sys.matrix[np.ix_(idx, cols)].tocsc()
        assert block.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(block, part), getattr(ref, part))


def _boundary_columns(mesh):
    ang = mesh.boundary_angles
    return np.column_stack([np.cos(ang), 1.0 + np.sin(2 * ang), np.zeros_like(ang),
                            np.cos(3 * ang) ** 2])


def test_dirichlet_many_matches_column_solves(mesh_small):
    sys = assemble(mesh_small, sample_coefficient(mesh_small, "example1_sigma"),
                   sample_coefficient(mesh_small, "example1_q"))
    f = _boundary_columns(mesh_small)
    x = solve_dirichlet_many(sys, f)
    assert x.shape == (mesh_small.n_nodes, f.shape[1])
    for k in range(f.shape[1]):
        col = solve_dirichlet(sys, BoundaryTrace(mesh_small, f[:, k])).values
        np.testing.assert_array_equal(x[mesh_small.boundary_nodes, k], f[:, k])
        np.testing.assert_allclose(x[:, k], col, rtol=0, atol=1e-14 * np.max(np.abs(col), initial=1.0))


def test_multi_column_residual_is_checked_per_column(mesh_small, unit_coefficients):
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
    sys.full_solve = lambda rhs: spoiled
    with pytest.raises(SolverError, match="Neumann solve did not converge in column 1"):
        solve_neumann_many(sys, g)

    sys = assemble(mesh_small, sigma, q)
    idx, sub, coupling, lu = sys._interior_parts()
    rhs = -coupling @ g
    x_int = lu.solve(rhs)
    spoiled = x_int.copy()
    spoiled[:, 1] *= 1.0 + 1e-5
    assert np.linalg.norm(sub @ spoiled - rhs) <= SOLVE_RTOL * np.linalg.norm(rhs)

    class SpoiledLU:
        def solve(self, rhs):
            return spoiled

    sys._interior = (idx, sub, coupling, SpoiledLU())
    with pytest.raises(SolverError, match="Dirichlet solve did not converge in column 1"):
        solve_dirichlet_many(sys, g)


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
    assert np.array_equal(v.values, sys.full_solve(_source_vec(mesh, full)))


def test_element_gradients_linear_reproduction(mesh_small):
    u = NodalField(mesh_small, mesh_small.nodes[:, 0])
    grads = element_gradients(u)
    np.testing.assert_allclose(grads[:, 0], 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(grads[:, 1], 0.0, rtol=0, atol=1e-13)
    const = NodalField(mesh_small, np.full(mesh_small.n_nodes, 4.2))
    assert np.max(np.abs(element_gradients(const))) <= 1e-13


def test_gradient_assembly_consistency(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q = sample_coefficient(mesh_small, "example1_q")
    sys = assemble(mesh_small, sigma, q)
    rng = np.random.default_rng(11)
    u = NodalField(mesh_small, rng.standard_normal(mesh_small.n_nodes))
    grads = element_gradients(u)
    quad = float(np.sum(sigma.values * mesh_small.areas * np.sum(grads * grads, axis=1)))
    quad += float(np.sum(q.values * element_l2_products(u, u)))
    assert abs(quad - energy(sys, u)) <= 1e-12 * abs(quad)


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

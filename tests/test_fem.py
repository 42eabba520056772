import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import iv

from optitomo.errors import FieldError
from optitomo.field import (
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    restrict_to_boundary,
    sample_coefficient,
)
from optitomo.fem import (
    assemble,
    boundary_load,
    element_gradients,
    element_l2_products,
    element_means,
    energy,
    solve_dirichlet,
    solve_neumann,
    solve_source,
)
from optitomo.mesh import subdomain_partition
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


def test_source_zero(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    sys = assemble(mesh_small, sigma, q)
    v = solve_source(sys, PiecewiseConstantField(mesh_small, np.zeros(mesh_small.n_elements)))
    assert np.all(v.values == 0.0)


def test_source_adjoint_identity(mesh_small_aligned, rng_seed=5):
    mesh = mesh_small_aligned
    one = sample_coefficient(mesh, "one")
    sys = assemble(mesh, one, one)
    part = subdomain_partition(mesh, 0.5, 4)
    omega = part.omega_mask
    rng = np.random.default_rng(rng_seed)
    for _ in range(5):
        fvals = np.where(omega, rng.standard_normal(mesh.n_elements), 0.0)
        gvals = rng.standard_normal(mesh.n_boundary)
        v = solve_source(sys, PiecewiseConstantField(mesh, fvals), part.omega_mask)
        u = solve_neumann(sys, BoundaryTrace(mesh, gvals))
        lhs = float(v.values[mesh.boundary_nodes] @ (mesh.boundary_mass @ gvals))
        rhs = float(np.sum(mesh.areas[omega] * fvals[omega] * element_means(u)[omega]))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_source_indicator_peaks_inside(mesh_small, unit_coefficients):
    sigma, q = unit_coefficients
    mesh = mesh_small
    sys = assemble(mesh, sigma, q)
    inside = np.hypot(*mesh.centroids.T) < 0.5
    v = solve_source(sys, PiecewiseConstantField(mesh, inside.astype(float)))
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


def test_source_rejects_offsupport_values(mesh_small_aligned):
    mesh = mesh_small_aligned
    one = sample_coefficient(mesh, "one")
    sys = assemble(mesh, one, one)
    part = subdomain_partition(mesh, 0.5, 4)
    vals = np.ones(mesh.n_elements)  # nonzero outside omega
    with pytest.raises(FieldError):
        solve_source(sys, PiecewiseConstantField(mesh, vals), part.omega_mask)


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
    g = BoundaryTrace(mesh_small, np.ones(mesh_small.n_boundary))
    load = boundary_load(mesh_small, g)
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

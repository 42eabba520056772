import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import optitomo.fem
import optitomo.locpot
from optitomo.errors import CertificateError, FieldError, MeshError, SolverError
from optitomo.field import BoundaryTrace, PiecewiseConstantField
from optitomo.fem import (
    assemble,
    boundary_load,
    element_l2_products,
    element_means,
    solve_neumann,
    solve_source,
)
from optitomo.locpot import (
    BETA_TARGET,
    RECHECK_ROUNDING,
    RECHECK_RTOL,
    bracket_index,
    cell_values_to_field,
    compute_K,
    eta_field,
    find_localized_current,
    lipschitz_constant,
    localization_gap,
    make_probing_setup,
    stability_factor,
    stability_report,
    verify_localization,
)
from optitomo.mesh import Partition, generate_disk_mesh, subdomain_partition
from optitomo.ntd import build_ntd
from test_fem import _assert_band_of


@pytest.fixture(scope="module")
def setup_small(mesh_small_aligned):
    part = subdomain_partition(mesh_small_aligned, 0.5, 4)
    return make_probing_setup(part, 1.0, 2.0)


@pytest.fixture(scope="module")
def narrow_setup(mesh_small_aligned):
    # b/a close to 1 keeps K = 3, so the full pipeline stays fast
    part = subdomain_partition(mesh_small_aligned, 0.5, 4)
    return make_probing_setup(part, 1.0, 1.2)


@pytest.fixture(scope="module")
def narrow_pipeline(narrow_setup):
    return lipschitz_constant(narrow_setup)


def test_compute_K_values():
    assert compute_K(1.0, 2.0) == 6
    assert compute_K(3.0, 3.0) == 3
    assert compute_K(1.0, 2.5) == 7
    with pytest.raises(FieldError):
        compute_K(0.0, 1.0)
    with pytest.raises(FieldError):
        compute_K(2.0, 1.0)
    # an infinite bound, or a ratio b/a that overflows, has no bracket count
    for a, b in ((1.0, np.inf), (1e-300, 1e300)):
        with pytest.raises(FieldError, match="no finite bracket count"):
            compute_K(a, b)


def test_probing_setup_derives_its_bracket_count(setup_small):
    # K follows the bounds it is computed from, also through replace()
    assert setup_small.K == compute_K(setup_small.a, setup_small.b)
    wider = dataclasses.replace(setup_small, b=3.0)
    assert wider.K == compute_K(setup_small.a, 3.0) != setup_small.K
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(setup_small, K=3)


def test_eta_field_values(mesh_small_aligned):
    part = subdomain_partition(mesh_small_aligned, 0.5, 4)
    setup = make_probing_setup(part, 3.0, 4.0)
    eta = eta_field(setup, 2, 1)
    cell = part.cell_mask(2)
    rest = part.omega_mask & ~cell
    assert np.all(eta.values[cell] == 5.0)
    assert np.all(eta.values[rest] == 1.0)
    assert np.all(eta.values[~part.omega_mask] == 0.0)


def test_eta_field_top_bracket_exceeds_upper_bound(setup_small):
    eta = eta_field(setup_small, 1, setup_small.K)
    cell = setup_small.partition.cell_mask(1)
    assert np.all(eta.values[cell] >= setup_small.b)
    omega = setup_small.partition.omega_mask
    assert eta.values[omega].min() == setup_small.a / 3.0 > 0.0


def test_eta_field_rejects_bad_indices(setup_small):
    with pytest.raises(FieldError):
        eta_field(setup_small, 0, 1)
    with pytest.raises(FieldError):
        eta_field(setup_small, 1, setup_small.K + 1)


def test_bracket_index_brackets(setup_small):
    a, K = setup_small.a, setup_small.K
    for qj in np.linspace(setup_small.a, setup_small.b, 17):
        k = bracket_index(setup_small, float(qj))
        assert 1 <= k <= K
        assert (k + 2) * a / 3.0 <= qj or k == 1
        assert qj < (k + 3) * a / 3.0 or k == K


def test_certificate_accepted(setup_small):
    cur = find_localized_current(setup_small, 1, 2)
    assert cur.beta > 1.0
    assert abs(cur.beta - BETA_TARGET) <= RECHECK_RTOL * BETA_TARGET
    assert cur.norm_sq() > 0.0


def _operator_pair(setup, j, k):
    """The current-to-subdomain map at eta(j, k) and its adjoint, from fem's public parts."""
    mesh = setup.mesh
    sys = assemble(mesh, setup.sigma, eta_field(setup, j, k))
    omega = np.flatnonzero(setup.partition.omega_mask)

    def forward(g):
        return element_means(solve_neumann(sys, BoundaryTrace(mesh, g)))[omega]

    def adjoint(f):
        return solve_source(sys, omega, f).values[mesh.boundary_nodes]

    return omega, forward, adjoint


def _adjoint_defect(setup, omega, forward, adjoint, f, g):
    mesh = setup.mesh
    lhs = float(adjoint(f) @ (mesh.boundary_mass @ g))
    rhs = float(np.sum(mesh.areas[omega] * f * forward(g)))
    return abs(lhs - rhs), max(abs(lhs), abs(rhs))


def test_adjoint_identity_explicit(setup_small):
    # trace of the source solve against subdomain averages of the Neumann solve
    omega, forward, adjoint = _operator_pair(setup_small, 2, 2)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = rng.standard_normal(omega.size)
        g = rng.standard_normal(setup_small.mesh.n_boundary)
        defect, scale = _adjoint_defect(setup_small, omega, forward, adjoint, f, g)
        assert defect <= 1e-12 * scale


# Random aligned meshes, bounds and (j, k) for the property tests.
PROPERTY = settings(max_examples=12, derandomize=True, deadline=None)
TARGETS = st.integers(100, 1200)
CELLS = st.sampled_from([2, 4, 8])
RATIO = st.floats(1.0, 3.0)
PICK = st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
SEEDS = st.integers(0, 2**32 - 1)


def _drawn_setup(target, n_cells, a, ratio, pick):
    """A probing setup on an aligned mesh and the (j, k) that ``pick`` selects."""
    try:
        part = subdomain_partition(generate_disk_mesh(target, angular_multiplier=8), 0.5, n_cells)
    except MeshError:
        assume(False)
    setup = make_probing_setup(part, a, a * ratio)
    return setup, 1 + int(pick[0] * n_cells), 1 + int(pick[1] * setup.K)


@PROPERTY
@given(target=TARGETS, n_cells=CELLS, a=st.floats(0.1, 5.0), ratio=RATIO, pick=PICK, seed=SEEDS)
def test_adjoint_identity_property(target, n_cells, a, ratio, pick, seed):
    # <T* f, g>_M = <f, T g>_omega for random aligned meshes, bounds and (j, k)
    setup, j, k = _drawn_setup(target, n_cells, a, ratio, pick)
    omega, forward, adjoint = _operator_pair(setup, j, k)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(omega.size)
    g = rng.standard_normal(setup.mesh.n_boundary)
    defect, scale = _adjoint_defect(setup, omega, forward, adjoint, f, g)
    assert defect <= 1e-12 * scale


def _rayleigh_quotient(setup, j, k, g):
    """beta(j, k) of the current g per unit <g, g>_M, by its own route.

    ``localization_gap`` gives I - R, with I and R the integrals of u^2 over
    D_j and omega \\ D_j at eta(j, k); a second solve gives I + R.
    """
    eta = eta_field(setup, j, k)
    gap = localization_gap(setup, eta, g, j)
    u = solve_neumann(assemble(setup.mesh, setup.sigma, eta), g).values[:, None]
    total = float(np.sum(element_l2_products(setup.mesh, u, u)[setup.partition.omega_mask]))
    inside, rest = 0.5 * (total + gap), 0.5 * (total - gap)
    beta = 0.5 * inside - (1.5 * setup.b / setup.a - 0.5) * rest
    return beta / float(g.values @ (setup.mesh.boundary_mass @ g.values))


def _dense_lambda_max(setup, j, k):
    """Top eigenvalue of B g = lambda M g from a dense solve and a nodal weighted mass matrix."""
    mesh = setup.mesh
    part = setup.partition
    a = assemble(mesh, setup.sigma, eta_field(setup, j, k)).matrix.toarray()
    u = np.linalg.solve(a, boundary_load(mesh, np.eye(mesh.n_boundary)))
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    q = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for e in np.flatnonzero(part.omega_mask):
        weight = 0.5 if part.labels[e] == j else 0.5 - 1.5 * setup.b / setup.a
        q[np.ix_(mesh.elements[e], mesh.elements[e])] += weight * mesh.areas[e] * local
    return sla.eigh(u.T @ q @ u, mesh.boundary_mass, eigvals_only=True)[-1]


# Below a = 0.5 with 8 cells the eigenproblem's rounding nears RECHECK_RTOL,
# the tolerance of the comparisons below (see
# test_rounding_dominated_certificates_pass_the_recheck).
@PROPERTY
@given(target=TARGETS, n_cells=CELLS, a=st.floats(0.5, 5.0), ratio=RATIO, pick=PICK,
       spread=st.floats(1e-3, 1e3), seed=SEEDS)
def test_certificate_is_the_top_rayleigh_quotient(target, n_cells, a, ratio, pick, spread, seed):
    # lambda_max = BETA_TARGET / <g, g>_M is the top eigenvalue of a dense
    # reference, bounds beta per unit squared norm for random currents and
    # random perturbations of g, and g attains it
    setup, j, k = _drawn_setup(target, n_cells, a, ratio, pick)
    cur = find_localized_current(setup, j, k)
    lam = BETA_TARGET / cur.norm_sq()
    assert lam == pytest.approx(_dense_lambda_max(setup, j, k), rel=RECHECK_RTOL)
    assert _rayleigh_quotient(setup, j, k, cur.g) == pytest.approx(lam, rel=RECHECK_RTOL)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(setup.mesh.n_boundary)
    h *= math.sqrt(cur.norm_sq() / float(h @ (setup.mesh.boundary_mass @ h)))
    for g in (h, cur.g.values + spread * h):
        assert _rayleigh_quotient(setup, j, k, BoundaryTrace(setup.mesh, g)) <= lam * (1.0 + 1e-8)


def test_monotonicity_of_squared_solutions(setup_small):
    # int delta u_q^2 >= int delta u_{q+delta}^2 for delta >= 0 on the subdomain
    setup = setup_small
    mesh = setup.mesh
    part = setup.partition
    rng = np.random.default_rng(9)
    for _ in range(10):
        qv = np.where(part.omega_mask, rng.uniform(setup.a, setup.b, mesh.n_elements), 0.0)
        dv = np.where(part.omega_mask, rng.uniform(0.0, 1.0, mesh.n_elements), 0.0)
        g = BoundaryTrace(mesh, rng.standard_normal(mesh.n_boundary))
        u_q, u_qd = (solve_neumann(assemble(mesh, setup.sigma, PiecewiseConstantField(mesh, v)), g).values[:, None]
                     for v in (qv, qv + dv))
        lhs = float(np.sum(dv * element_l2_products(mesh, u_q, u_q)[:, 0]))
        rhs = float(np.sum(dv * element_l2_products(mesh, u_qd, u_qd)[:, 0]))
        assert lhs >= rhs - 1e-10 * max(abs(lhs), 1.0)


def test_verify_localization_random_inbounds(narrow_setup, narrow_pipeline):
    setup = narrow_setup
    _, currents = narrow_pipeline
    by_jk = {(c.j, c.k): c for c in currents}
    rng = np.random.default_rng(10)
    for _ in range(20):
        cells = rng.uniform(setup.a, setup.b, setup.n_cells)
        j = int(rng.integers(1, setup.n_cells + 1))
        k = bracket_index(setup, float(cells[j - 1]))
        cur = by_jk[(j, k)]
        gap = verify_localization(setup, cur, cell_values_to_field(setup.partition, cells))
        assert gap > 1.0
        assert gap >= cur.beta - 1e-10


def test_verify_localization_relabel_invariance(narrow_setup, narrow_pipeline):
    setup = narrow_setup
    _, currents = narrow_pipeline
    cur = next(c for c in currents if c.j == 1)
    rng = np.random.default_rng(11)
    cells = rng.uniform(setup.a, setup.b, setup.n_cells)
    cells[0] = (cur.k + 2.4) * setup.a / 3.0  # keep the matching bracket
    q = cell_values_to_field(setup.partition, cells)
    gap = verify_localization(setup, cur, q)

    # swap the labels of cells 3 and 4 together with their values: the
    # coefficient field and the probed cell are unchanged
    labels = setup.partition.labels.copy()
    swapped = labels.copy()
    swapped[labels == 3] = 4
    swapped[labels == 4] = 3
    part2 = Partition(setup.mesh, swapped, setup.n_cells)
    setup2 = make_probing_setup(part2, setup.a, setup.b)
    cells2 = cells.copy()
    cells2[2], cells2[3] = cells[3], cells[2]
    q2 = cell_values_to_field(part2, cells2)
    assert np.array_equal(q2.values, q.values)
    gap2 = verify_localization(setup2, cur, q2)
    assert gap2 == gap


def test_verify_localization_rejects_out_of_bounds(narrow_setup, narrow_pipeline):
    setup = narrow_setup
    _, currents = narrow_pipeline
    bad = np.full(setup.n_cells, setup.b + 1.0)
    with pytest.raises(FieldError):
        verify_localization(setup, currents[0], cell_values_to_field(setup.partition, bad))


def test_lipschitz_constant_structure(narrow_setup, narrow_pipeline):
    setup = narrow_setup
    lip, currents = narrow_pipeline
    assert len(currents) == setup.n_cells * setup.K
    assert all(c.beta > 1.0 for c in currents)
    assert lip > 0.0
    assert lip == pytest.approx(1.0 / stability_factor(currents), rel=1e-12)


def test_scaling_halves(narrow_setup, narrow_pipeline):
    # doubling every accepted current quadruples its certificate and squared
    # norm, so the constant drops by exactly 4
    setup = narrow_setup
    lip, currents = narrow_pipeline
    scaled_norms = []
    for c in currents:
        doubled = BoundaryTrace(setup.mesh, 2.0 * c.g.values)
        beta2 = localization_gap(setup, eta_field(setup, c.j, c.k), doubled, c.j)
        gap1 = localization_gap(setup, eta_field(setup, c.j, c.k), c.g, c.j)
        assert beta2 == pytest.approx(4.0 * gap1, rel=1e-10)
        m = setup.mesh.boundary_mass
        scaled_norms.append(float(doubled.values @ (m @ doubled.values)))
    lip_scaled = 1.0 / max(scaled_norms)
    assert lip_scaled == pytest.approx(lip / 4.0, rel=1e-12)


def test_sampled_stability_report(narrow_setup, narrow_pipeline):
    _, currents = narrow_pipeline
    rows = stability_report(narrow_setup, currents, 10, seed=77)
    assert len(rows) == 10
    assert all(r["holds"] for r in rows)


def test_determinism_bit_for_bit(setup_small):
    a = find_localized_current(setup_small, 2, 3)
    b = find_localized_current(setup_small, 2, 3)
    assert a.beta == b.beta
    assert np.array_equal(a.g.values, b.g.values)


def test_forward_applications_count_every_solve(setup_small, forward_solves):
    cur = find_localized_current(setup_small, 2, 4)
    # one condensed column per boundary hat current, and one for the re-check
    assert forward_solves == [setup_small.mesh.n_boundary, 1]
    assert cur.forward_applications == sum(forward_solves)


# omega radius 0.5 keeps the boundary outside omega; at 0.9 omega reaches
# part of the boundary, and at 0.99 it covers the whole mesh, so that the rim
# J is all of omega's boundary nodes; at 4 232 elements the interior block
# A_KK is 521 (radius 0.5) and 1 361 (radius 0.8) nodes wide
@pytest.mark.parametrize("target, radius", [(254, 0.5), (1016, 0.5), (254, 0.9), (254, 0.99),
                                            (4064, 0.5), (4064, 0.8)])
def test_condensed_ntd_matches_build_ntd(target, radius):
    mesh = generate_disk_mesh(target, angular_multiplier=8)
    setup = make_probing_setup(subdomain_partition(mesh, radius, 8), 1.0, 2.0)
    omega = setup.partition.omega_mask
    rng = np.random.default_rng(target)
    for _ in range(3):
        values = np.where(omega, rng.uniform(setup.a, setup.b, mesh.n_elements), 0.0)
        q = PiecewiseConstantField(mesh, values)
        lam = setup.condensation.ntd(q).lam
        ref = build_ntd(mesh, setup.sigma, q).lam
        assert np.max(np.abs(lam - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def pattern_setups():
    """Probing setups on two aligned meshes, each condensation built on first use."""
    meshes = {target: generate_disk_mesh(target, angular_multiplier=8) for target in (254, 1016)}
    return {target: make_probing_setup(subdomain_partition(mesh, 0.5, 4), 1.0, 2.0)
            for target, mesh in meshes.items()}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(target=st.sampled_from([254, 1016]), density=st.floats(0.0, 1.0), seed=SEEDS)
def test_pattern_blocks_match_the_scipy_slices(pattern_setups, target, density, seed):
    # a matrix on the pattern with random, unsymmetric data, so that a
    # transposed or shifted place shows, and node lists in shuffled order,
    # so that a block numbered in node order shows; the blocks must match
    # exactly, and the sparse form is CSC with sorted rows
    setup = pattern_setups[target]
    mesh = setup.mesh
    pattern = mesh.assembly_pattern
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(pattern.indices.size)
    a = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(mesh.n_nodes,) * 2)
    mask = rng.random(mesh.n_nodes) < density
    some, rest = rng.permutation(np.flatnonzero(mask)), rng.permutation(np.flatnonzero(~mask))
    for rows, cols in ((some, some), (some, rest), (rest, some), (rest, rest)):
        block = pattern.block(rows, cols)
        cut = a[rows][:, cols].toarray()
        assert np.array_equal(block.dense(data), cut)
        sparse = block.sparse(data)
        assert sparse.has_sorted_indices and np.array_equal(sparse.toarray(), cut)
        if rows is cols:
            _assert_band_of(block, data, cut)
    # the condensation's A_KK, its nodes in a stable sort on x
    kk = setup.condensation._kk
    k_nodes = kk.row_nodes
    assert np.all(np.diff(mesh.nodes[k_nodes, 0]) >= 0.0)
    cut = a[k_nodes][:, k_nodes].toarray()
    assert np.array_equal(kk.dense(data), cut) and np.array_equal(kk.sparse(data).toarray(), cut)
    _assert_band_of(kk, data, cut)


@pytest.mark.parametrize("target", [254, 1016])
def test_condensation_omega_block_matches_the_assembly(pattern_setups, target, monkeypatch):
    # A_II(q) of the condensation is sigma's stiffness data plus q's mass
    # data, with no assembly: at a random q on omega it matches the same
    # block of the assembled A, entry by entry
    setup = pattern_setups[target]
    mesh = setup.mesh
    rng = np.random.default_rng(target)
    q = PiecewiseConstantField(
        mesh, np.where(setup.partition.omega_mask, rng.uniform(0.5, 3.0, mesh.n_elements), 0.0))
    seen = []
    solve = optitomo.locpot.solve_band_spd

    def keeping(block, data, rhs, what):
        seen.append(data)
        return solve(block, data, rhs, what)

    monkeypatch.setattr(optitomo.locpot, "solve_band_spd", keeping)
    setup.condensation.ntd(q)
    i_nodes = np.unique(mesh.elements[setup.partition.omega_mask])
    ii = mesh.assembly_pattern.block(i_nodes, i_nodes)
    got, ref = ii.dense(seen[0]), ii.dense(assemble(mesh, setup.sigma, q).matrix.data)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def _unique_route_form(mesh, elements, weights, u):
    """The certificate form over the listed elements with the nodes numbered by ``np.unique``
    and Q summed by a bincount of its own, |I|^2 bins."""
    _, local = np.unique(mesh.elements[elements], return_inverse=True)
    local = local.reshape(-1, 3)
    n = u.shape[0]
    entries = (weights * mesh.areas[elements] / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    pairs = (local[:, :, None] * n + local[:, None, :]).ravel()
    q = np.bincount(pairs, weights=entries.ravel(), minlength=n * n).reshape(n, n)
    return u.T @ (q @ u)


@pytest.mark.parametrize("target, radius", [(254, 0.5), (1016, 0.5), (254, 0.99)])
def test_certificate_form_matches_the_unique_route(target, radius):
    # the rim form x_J^T B_J x_J against x_I^T Q x_I, with x_I the rows I of a
    # dense solve of the full system, apart from P and the condensation
    mesh = generate_disk_mesh(target, angular_multiplier=8)
    setup = make_probing_setup(subdomain_partition(mesh, radius, 8), 1.0, 2.0)
    omega = setup.partition.omega_mask
    rng = np.random.default_rng(target)
    weights = np.where(omega, rng.uniform(-2.0, 1.0, mesh.n_elements), 0.0)
    eta = eta_field(setup, 1, 1)
    a = assemble(mesh, setup.sigma, eta).matrix.toarray()
    x_i = np.linalg.solve(a, boundary_load(mesh, np.eye(mesh.n_boundary)))[np.unique(mesh.elements[omega])]
    form = setup.condensation.certificate_form(eta, weights)
    ref = _unique_route_form(mesh, np.flatnonzero(omega), weights[omega], x_i)
    assert np.max(np.abs(form - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_certificates_and_report_share_one_exterior_factorization(mesh_small_aligned, monkeypatch):
    # one LU of A_EE per setup, and one of the full system per re-check
    setup = make_probing_setup(subdomain_partition(mesh_small_aligned, 0.5, 4), 1.0, 1.2)
    sizes = []
    original = optitomo.fem.spla.splu

    def counting(matrix, **options):
        sizes.append(matrix.shape[0])
        return original(matrix, **options)

    monkeypatch.setattr(optitomo.fem.spla, "splu", counting)
    _, currents = lipschitz_constant(setup)
    stability_report(setup, currents, 5, seed=0)
    n_exterior = mesh_small_aligned.n_nodes - setup.condensation.sizes["omega_nodes"]
    assert sizes == [n_exterior] + [mesh_small_aligned.n_nodes] * (setup.n_cells * setup.K)


def _form_at(condensation):
    """``certificate_form`` with weight 1 on omega, as a call of q alone."""
    return lambda q: condensation.certificate_form(q, condensation.omega_mask.astype(float))


def test_condensation_refuses_absorption_outside_omega(setup_small):
    values = eta_field(setup_small, 1, 1).values.copy()
    values[np.flatnonzero(~setup_small.partition.omega_mask)[0]] = 1.0
    for call in (setup_small.condensation.ntd, _form_at(setup_small.condensation)):
        with pytest.raises(FieldError, match="must vanish outside the subdomain"):
            call(PiecewiseConstantField(setup_small.mesh, values))


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, 0.0])
def test_condensation_refuses_an_invalid_absorption(setup_small, value):
    # the condensed systems are never assembled, so they check q themselves:
    # a non-finite or negative value on one element, or q = 0 on all of omega
    values = eta_field(setup_small, 1, 1).values.copy()
    omega = setup_small.partition.omega_mask
    if value == 0.0:
        values[omega] = 0.0
    else:
        values[np.flatnonzero(omega)[0]] = value
    q = PiecewiseConstantField(setup_small.mesh, values)
    for call in (setup_small.condensation.ntd, _form_at(setup_small.condensation)):
        with pytest.raises(FieldError, match="absorption coefficient must be finite"):
            call(q)
    other = PiecewiseConstantField(generate_disk_mesh(254, angular_multiplier=8), values)
    with pytest.raises(FieldError, match="different mesh"):
        setup_small.condensation.ntd(other)


def test_condensed_ntd_with_no_interior_block(mesh_small_aligned):
    # omega one ring of elements thick: every node of omega couples to E, so
    # K is empty and the Schur complement is all of A_II(q) - C
    mesh = mesh_small_aligned
    radius = np.round(np.hypot(*mesh.nodes.T), 12)
    levels = np.unique(radius)
    middle = levels.size // 2
    ring = np.all(np.isin(radius[mesh.elements], levels[middle:middle + 2]), axis=1)
    setup = make_probing_setup(Partition(mesh, ring.astype(int), 1), 1.0, 2.0)
    assert setup.condensation.sizes["interior_nodes"] == 0
    assert setup.condensation.sizes["rim_nodes"] == setup.condensation.sizes["omega_nodes"] > 0
    q = PiecewiseConstantField(mesh, np.where(ring, 1.5, 0.0))
    ref = build_ntd(mesh, setup.sigma, q).lam
    assert np.max(np.abs(setup.condensation.ntd(q).lam - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_condensation_work_counts(monkeypatch):
    # one SuperLU solve of n_b + |J| columns per setup; per q, for each of
    # ntd and the certificate form, one band factorization of A_KK, one dense
    # factorization of the |J| x |J| Schur complement, and no assembly
    setup = _eight_cells(generate_disk_mesh(1016, angular_multiplier=8), 1.0, 2.0)
    columns, band, dense = [], [], []
    sparse_solve = optitomo.locpot.solve_sparse_spd
    monkeypatch.setattr(optitomo.locpot, "solve_sparse_spd",
                        lambda m, rhs, what: columns.append(rhs.shape[1]) or sparse_solve(m, rhs, what))
    band_factor, dense_factor = optitomo.fem.sla.cholesky_banded, optitomo.fem.sla.cho_factor
    monkeypatch.setattr(optitomo.fem.sla, "cholesky_banded",
                        lambda ab, **kw: band.append(ab.shape[1]) or band_factor(ab, **kw))
    monkeypatch.setattr(optitomo.fem.sla, "cho_factor",
                        lambda a, **kw: dense.append(a.shape) or dense_factor(a, **kw))
    sizes = setup.condensation.sizes
    n_j, n_k = sizes["rim_nodes"], sizes["interior_nodes"]
    assert (sizes["omega_nodes"], n_j, n_k) == (161, 48, 113)
    assert columns == [setup.mesh.n_boundary + n_j] == [sizes["exterior_columns"]]
    assert band == dense == []

    def no_assembly(*args):
        raise AssertionError("the condensed solve assembled A")

    monkeypatch.setattr(optitomo.locpot, "assemble", no_assembly)
    q = eta_field(setup, 3, 2)
    setup.condensation.ntd(q)
    _form_at(setup.condensation)(q)
    assert band == [n_k] * 2
    assert dense == [(n_j, n_j)] * 2
    assert columns == [sizes["exterior_columns"]]


def _perturbed(original, where):
    """``original`` with a relative 1e-6 error on its load (``where`` "load") or its result."""
    def call(factor, rhs, **options):
        if where == "load":
            rhs = rhs * (1.0 + 1e-6)
        x = original(factor, rhs, **options)
        return x * (1.0 + 1e-6) if where == "result" else x
    return call


# a wrong A_KJ as the band solve sees it, a wrong P, or a wrong band form of A_KK
@pytest.mark.parametrize("defect", ["A_KJ", "P", "A_KK"])
def test_interior_solve_is_held_to_the_k_row_contract(setup_small, monkeypatch, defect):
    sla_ = optitomo.fem.sla
    if defect == "A_KK":
        band_factor = sla_.cholesky_banded
        monkeypatch.setattr(sla_, "cholesky_banded", lambda ab, **kw: band_factor(ab * (1.0 + 1e-6), **kw))
    else:
        where = "load" if defect == "A_KJ" else "result"
        monkeypatch.setattr(sla_, "cho_solve_banded", _perturbed(sla_.cho_solve_banded, where))
    q = eta_field(setup_small, 1, 1)
    for call in (setup_small.condensation.ntd, _form_at(setup_small.condensation)):
        with pytest.raises(SolverError, match="interior solve did not converge"):
            call(q)


def test_condensation_setup_holds_no_omega_sized_arrays():
    # at 4 232 elements |I| = 617, |J| = 96 and |E| = 1 592: the setup keeps
    # less than one |I| x |I| array and its peak is the exterior load,
    # |E| x (n_b + |J|), its solution and a block of the residual, with no
    # |E| x |I| array and no whole residual (A_EE @ x copies a whole x first)
    mesh = generate_disk_mesh(4232, angular_multiplier=8)
    setup = _eight_cells(mesh, 1.0, 2.0)
    for cached in ("assembly_pattern", "element_grads", "areas", "boundary_mass"):
        getattr(mesh, cached)
    setup.partition.omega_mask
    tracemalloc.start()
    try:
        condensation = optitomo.locpot.Condensation(setup)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = condensation.sizes
    n_i = sizes["omega_nodes"]
    n_e = mesh.n_nodes - n_i
    assert (n_i, sizes["rim_nodes"], n_e) == (617, 96, 1592)
    assert held < 8 * n_i * n_i
    assert peak < 4 * 8 * n_e * sizes["exterior_columns"]


def test_indefinite_schur_complement_is_a_solver_error(mesh_small_aligned, monkeypatch):
    # a shift of the J x J coupling C makes T = A_JJ(q) - C - A_KJ^T P indefinite
    setup = make_probing_setup(subdomain_partition(mesh_small_aligned, 0.5, 4), 1.0, 2.0)
    condensation = setup.condensation
    shifted = condensation.c + 1e3 * np.eye(condensation.c.shape[0])
    monkeypatch.setattr(condensation, "c", shifted)
    with pytest.raises(SolverError, match="not positive definite"):
        find_localized_current(setup, 1, 1)


def test_certificate_error_names_best_beta(setup_small, monkeypatch):
    # with B = -M every current has beta = -<g, g>_M: the best beta per unit
    # squared current norm is lambda_max = -1
    monkeypatch.setattr(optitomo.locpot.Condensation, "certificate_form",
                        lambda condensation, *_: -condensation.mesh.boundary_mass)
    with pytest.raises(CertificateError) as info:
        find_localized_current(setup_small, 1, 1)
    message = str(info.value)
    assert message.startswith("no certificate for cell 1, bracket 1:")
    assert "lambda_max = -1.0000e+00 <= 0" in message


def _scaled_rest_weight(monkeypatch, factor):
    # scales the weight on omega \ D_j in B alone, so only the independent
    # re-check solve sees the true certificate
    original = optitomo.locpot.Condensation.certificate_form
    monkeypatch.setattr(
        optitomo.locpot.Condensation, "certificate_form",
        lambda condensation, q, w: original(condensation, q, np.where(w < 0.0, factor * w, w)),
    )


def _eight_cells(mesh, a, b):
    return make_probing_setup(subdomain_partition(mesh, 0.5, 8), a, b)


# a halved weight on omega \ D_j moves beta far from BETA_TARGET; a 1e-4
# relative error moves it by about 3.6e-4, above the tolerance both where
# rounding widens it (288 elements at [0.1, 0.3], kappa up to 6e10) and at the
# stability workload's settings (968 elements at [1, 2]: RECHECK_RTOL)
RECHECK_CASES = {
    "wrong weight": (None, 0.5),
    "1e-4 weight error, rounding-dominated": ((254, 0.1, 0.3), 1.0 + 1e-4),
    "1e-4 weight error, stability settings": ((1016, 1.0, 2.0), 1.0 + 1e-4),
}


@pytest.mark.parametrize("case", list(RECHECK_CASES))
def test_recheck_refuses_a_disagreeing_certificate(setup_small, monkeypatch, case):
    settings_, factor = RECHECK_CASES[case]
    setup = setup_small
    if settings_ is not None:
        target, a, b = settings_
        setup = _eight_cells(generate_disk_mesh(target, angular_multiplier=8), a, b)
    pairs = ((1, 1), (setup.n_cells, setup.K))
    for j, k in pairs:
        assert find_localized_current(setup, j, k).recheck_rtol < 1e-4
    _scaled_rest_weight(monkeypatch, factor)
    for j, k in pairs:
        with pytest.raises(CertificateError, match=f"re-check failed for cell {j}, bracket {k}"):
            find_localized_current(setup, j, k)


def test_recheck_tolerance_stays_fixed_at_the_stability_settings():
    setup = _eight_cells(generate_disk_mesh(1016, angular_multiplier=8), 1.0, 2.0)
    for j, k in ((1, 1), (4, 3), (8, setup.K)):
        assert find_localized_current(setup, j, k).recheck_rtol == RECHECK_RTOL


def test_rounding_dominated_certificates_pass_the_recheck(mesh_small_aligned):
    # 8 cells at bounds [0.1, 0.3]: the rounding of B relative to its tiny top
    # eigenvalue leaves the re-check 1e-6 to 8e-6 off BETA_TARGET, which the
    # fixed RECHECK_RTOL refused for about half of the (j, k); the tolerance
    # tied to kappa certifies every one
    setup = _eight_cells(mesh_small_aligned, 0.1, 0.3)
    lip, currents = lipschitz_constant(setup)
    assert len(currents) == setup.n_cells * setup.K == 64
    assert max(c.recheck_rtol for c in currents) > RECHECK_RTOL
    for c in currents:
        assert abs(c.beta - BETA_TARGET) <= c.recheck_rtol * BETA_TARGET
        assert c.recheck_rtol <= RECHECK_ROUNDING * np.finfo(float).eps * 1e11
    assert lip > 0.0

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import optitomo.locpot
from optitomo.errors import CertificateError, FieldError, MeshError
from optitomo.field import BoundaryTrace, PiecewiseConstantField
from optitomo.fem import assemble, element_l2_products, element_means, solve_neumann, solve_source
from optitomo.locpot import (
    DEFAULT_MAX_ITER,
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
    assert cur.cg_iterations >= 1
    assert cur.norm_sq() > 0.0


def test_cg_residual_non_increasing(setup_small):
    cur = find_localized_current(setup_small, 3, 1)
    assert np.all(np.diff(cur.residuals) <= 1e-12 * cur.residuals[0])


def _operator_pair(setup, j, k):
    """The normal-equation pair of the search, built from its public parts."""
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
    # the operator pair behind the normal equations: trace of the source
    # solve against interior averages of the Neumann solve
    omega, forward, adjoint = _operator_pair(setup_small, 2, 2)
    rng = np.random.default_rng(8)
    for _ in range(5):
        f = rng.standard_normal(omega.size)
        g = rng.standard_normal(setup_small.mesh.n_boundary)
        defect, scale = _adjoint_defect(setup_small, omega, forward, adjoint, f, g)
        assert defect <= 1e-12 * scale


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    target=st.integers(100, 1200),
    n_cells=st.sampled_from([2, 4, 8]),
    a=st.floats(0.1, 5.0),
    ratio=st.floats(1.0, 3.0),
    pick=st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_identity_property(target, n_cells, a, ratio, pick, seed):
    # <T* f, g>_M = <f, T g>_omega for random aligned meshes, bounds and (j, k),
    # and the search's own check passes on the same setup
    try:
        part = subdomain_partition(generate_disk_mesh(target, angular_multiplier=8), 0.5, n_cells)
    except MeshError:
        assume(False)
    setup = make_probing_setup(part, a, a * ratio)
    j = 1 + int(pick[0] * n_cells)
    k = 1 + int(pick[1] * setup.K)
    omega, forward, adjoint = _operator_pair(setup, j, k)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(omega.size)
    g = rng.standard_normal(setup.mesh.n_boundary)
    defect, scale = _adjoint_defect(setup, omega, forward, adjoint, f, g)
    assert defect <= 1e-12 * scale
    try:
        find_localized_current(setup, j, k, max_iter=1)
    except CertificateError as exc:
        assert "adjoint" not in str(exc)


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
        u_q = solve_neumann(assemble(mesh, setup.sigma, PiecewiseConstantField(mesh, qv)), g)
        u_qd = solve_neumann(assemble(mesh, setup.sigma, PiecewiseConstantField(mesh, qv + dv)), g)
        lhs = float(np.sum(dv * element_l2_products(u_q, u_q)))
        rhs = float(np.sum(dv * element_l2_products(u_qd, u_qd)))
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
    assert a.cg_iterations == b.cg_iterations
    assert np.array_equal(a.g.values, b.g.values)


@pytest.mark.parametrize("name", ["setup_small", "narrow_setup"])
def test_plateau_stop_leaves_currents_unchanged(request, monkeypatch, name):
    # narrow_setup's sweeps certify on their own up to 10 iterations after
    # their last ratio improvement, so too short a patience changes L there
    setup = request.getfixturevalue(name)
    _, stopped = lipschitz_constant(setup)
    monkeypatch.setattr(optitomo.locpot, "PLATEAU_ITERATIONS", DEFAULT_MAX_ITER + 1)
    _, full = lipschitz_constant(setup)
    assert [(c.j, c.k) for c in stopped] == [(c.j, c.k) for c in full]
    for a, b in zip(stopped, full):
        assert a.beta == b.beta
        assert a.cg_iterations == b.cg_iterations
        assert np.array_equal(a.g.values, b.g.values)


def test_forward_applications_count_every_solve(setup_small, forward_solves):
    cur = find_localized_current(setup_small, 2, 4)
    # the first sweep did not certify: its forward solves come on top of the
    # adjoint check and the accepting retry's
    assert len(forward_solves) > 1 + cur.cg_iterations
    assert cur.forward_applications == len(forward_solves)
    assert len(forward_solves) <= (1 + DEFAULT_MAX_ITER) // 4


def test_certificate_error_names_best_beta(setup_small, monkeypatch):
    seen = []
    original = optitomo.locpot._certificate

    def recording(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(optitomo.locpot, "_certificate", recording)
    with pytest.raises(CertificateError) as info:
        find_localized_current(setup_small, 1, 1, max_iter=1)
    assert len(seen) == 1
    message = str(info.value)
    assert "after 1 CG iterations" in message
    assert f"best beta {max(seen):.4f}" in message

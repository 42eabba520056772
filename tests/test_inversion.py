import dataclasses

import numpy as np
import pytest

from optitomo.errors import FieldError
from optitomo.field import NodalField, PiecewiseConstantField, sample_coefficient
from optitomo.fem import (
    assemble,
    element_gradients,
    element_l2_products,
    energy,
    solve_dirichlet,
    solve_neumann,
)
from optitomo.inversion import (
    FTOL,
    JOINT,
    LBFGS_MEMORY,
    Q_ONLY,
    InversionConfig,
    _LimitedMemoryInverseHessian,
    _Objective,
    balancing_rho,
    bfgs_minimize,
    kv_gradient,
    kv_terms,
)
from optitomo.synth import (
    consistent_measurements,
    example1_spec,
    example2_spec,
    make_measurements,
)


FLUXES = [f"offset_sin:10,{k}" for k in range(1, 6)]


@pytest.fixture(scope="module")
def example1_consistent(mesh_small):
    sigma = sample_coefficient(mesh_small, "example1_sigma")
    q_true = sample_coefficient(mesh_small, "example1_q")
    meas = consistent_measurements(mesh_small, sigma, q_true, FLUXES)
    return sigma, q_true, meas


def _reference_kv(meas, sigma, q, rho, mode):
    """The functional pair by pair: 2K single-column solves, per-pair data fit and gradient."""
    mesh = meas.mesh
    sys = assemble(mesh, sigma, q)
    sols = [(solve_neumann(sys, g), solve_dirichlet(sys, f)) for g, f in meas.pairs]
    fit = 0.0
    gsig = np.zeros(mesh.n_elements)
    gq = np.zeros(mesh.n_elements)
    for un, ud in sols:
        diff = NodalField(mesh, un.values - ud.values)
        grad = element_gradients(diff)
        fit += float(np.sum(sigma.values * mesh.areas * np.sum(grad * grad, axis=1)))
        fit += float(np.sum(q.values * element_l2_products(diff, diff)))
        gn = element_gradients(un)
        gd = element_gradients(ud)
        gsig += mesh.areas * (np.sum(gd * gd, axis=1) - np.sum(gn * gn, axis=1))
        gq += element_l2_products(ud, ud) - element_l2_products(un, un)
    pen = float(np.sum(mesh.areas * q.values ** 2))
    gq += rho * mesh.areas * q.values
    if mode == JOINT:
        pen += float(np.sum(mesh.areas * sigma.values ** 2))
        gsig += rho * mesh.areas * sigma.values
    pen *= 0.5 * rho
    return fit + pen, fit, pen, (gq if mode == Q_ONLY else np.concatenate((gsig, gq)))


@pytest.fixture(scope="module")
def benchmark_data():
    small = dict(fine_elements=1016, coarse_elements=254)
    return {
        "example1": make_measurements(dataclasses.replace(example1_spec(0.05, seed=3), **small)),
        "example2": make_measurements(dataclasses.replace(example2_spec(0.03, seed=5), **small)),
    }


@pytest.mark.parametrize("example", ["example1", "example2"])
@pytest.mark.parametrize("mode", [Q_ONLY, JOINT])
def test_batched_evaluation_matches_per_pair_reference(benchmark_data, example, mode):
    # one assembly, two K-column solves and array-wide fit and gradient agree
    # with the pair-by-pair loop at random in-bounds points
    meas = benchmark_data[example]
    mesh = meas.mesh
    rng = np.random.default_rng(7)
    cfg = InversionConfig(
        mode=mode, sigma0=sample_coefficient(mesh, "one"), q0=sample_coefficient(mesh, "one"),
        q_bounds=(0.5, 6.0), sigma_bounds=(0.5, 5.0),
    )
    obj = _Objective(meas, cfg)
    for rho in (0.0, 1e-3):
        x = rng.uniform(obj.lo, obj.hi)
        sigma, q = obj.split(x)
        value, fit, pen, grad = obj.value_and_gradient(x, rho)
        ref_value, ref_fit, ref_pen, ref_grad = _reference_kv(meas, sigma, q, rho, mode)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert fit == pytest.approx(ref_fit, rel=1e-12)
        assert pen == ref_pen
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
        assert kv_terms(meas, sigma, q, rho, mode) == (value, fit, pen)
        gsig, gq = kv_gradient(meas, sigma, q, rho, mode)
        np.testing.assert_array_equal(gq.values, grad[-mesh.n_elements:])
        if mode == JOINT:
            np.testing.assert_array_equal(gsig.values, grad[:mesh.n_elements])
        else:
            assert gsig is None


def _data_energy(meas, sigma, q):
    sys = assemble(meas.mesh, sigma, q)
    return sum(energy(sys, solve_neumann(sys, g)) for g, _ in meas.pairs)


def test_value_zero_on_consistent_data(example1_consistent):
    sigma, q_true, meas = example1_consistent
    value = kv_terms(meas, sigma, q_true, 0.0, Q_ONLY)[0]
    assert 0.0 <= value <= 1e-10 * _data_energy(meas, sigma, q_true)


def test_value_reduces_to_penalty_on_consistent_data(example1_consistent):
    sigma, q_true, meas = example1_consistent
    mesh = meas.mesh
    rho = 0.37
    expected = 0.5 * rho * float(np.sum(mesh.areas * q_true.values ** 2))
    value = kv_terms(meas, sigma, q_true, rho, Q_ONLY)[0]
    assert value == pytest.approx(expected, rel=1e-10)
    expected_joint = 0.5 * rho * float(
        np.sum(mesh.areas * (sigma.values ** 2 + q_true.values ** 2))
    )
    assert kv_terms(meas, sigma, q_true, rho, JOINT)[0] == pytest.approx(expected_joint, rel=1e-10)


def test_value_nonnegative(example1_consistent):
    sigma, _, meas = example1_consistent
    rng = np.random.default_rng(0)
    q = PiecewiseConstantField(meas.mesh, rng.uniform(0.5, 3.0, meas.mesh.n_elements))
    assert kv_terms(meas, sigma, q, 0.0, Q_ONLY)[0] >= 0.0


def test_gradient_vanishes_at_truth(example1_consistent):
    sigma, q_true, meas = example1_consistent
    gsig, gq = kv_gradient(meas, sigma, q_true, 0.0, JOINT)
    assert np.max(np.abs(gq.values)) <= 1e-10
    assert np.max(np.abs(gsig.values)) <= 1e-10


def test_gradient_matches_finite_differences(example1_consistent):
    sigma, q_true, meas = example1_consistent
    mesh = meas.mesh
    rng = np.random.default_rng(42)
    q = PiecewiseConstantField(mesh, q_true.values * rng.uniform(0.9, 1.1, mesh.n_elements))
    rho = 1e-3
    _, gq = kv_gradient(meas, sigma, q, rho, Q_ONLY)
    for _ in range(5):
        d = rng.standard_normal(mesh.n_elements)
        analytic = float(gq.values @ d)
        best = np.inf
        for t in (1e-2, 1e-3, 1e-4):
            plus = PiecewiseConstantField(mesh, q.values + t * d)
            minus = PiecewiseConstantField(mesh, q.values - t * d)
            fd = (kv_terms(meas, sigma, plus, rho, Q_ONLY)[0]
                  - kv_terms(meas, sigma, minus, rho, Q_ONLY)[0]) / (2 * t)
            best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-300))
        assert best <= 1e-4


def test_gradient_penalty_only_term(example1_consistent):
    # consistent data: the data-term gradient vanishes, leaving rho * area * sigma
    sigma, q_true, meas = example1_consistent
    mesh = meas.mesh
    rho = 0.25
    gsig, _ = kv_gradient(meas, sigma, q_true, rho, JOINT)
    expected = rho * mesh.areas * sigma.values
    np.testing.assert_allclose(gsig.values, expected, rtol=0,
                               atol=1e-10 * np.max(np.abs(expected)))


@pytest.fixture(scope="module")
def q_only_descent(example1_consistent):
    sigma, _, meas = example1_consistent
    cfg = InversionConfig(
        mode=Q_ONLY,
        sigma0=sigma,
        q0=sample_coefficient(meas.mesh, "constant:1"),
        q_bounds=(0.1, 5.0),
        rho=0.0,
        max_iter=400,
        gradient_tolerance=1e-12,
    )
    _, q_rec, trace = bfgs_minimize(meas, cfg)
    return q_rec, [r["J"] for r in trace.rows]


def test_bfgs_descends_consistent_data(q_only_descent):
    q_rec, values = q_only_descent
    assert all(b <= a + 1e-15 * abs(a) for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-6 * values[0]
    assert np.all(q_rec.values >= 0.1) and np.all(q_rec.values <= 5.0)


def test_bfgs_limited_memory_variant(q_only_descent):
    # the solve runs past the memory depth, so old pairs are evicted, and it
    # keeps making progress on the rolling window of the newest pairs
    _, values = q_only_descent
    assert len(values) - 1 > LBFGS_MEMORY
    assert values[-1] <= 1e-2 * values[LBFGS_MEMORY]


def test_relative_reduction_stop_fires_on_converged_solve(benchmark_data):
    # a regularized q-only solve on noisy data: J flattens out long before the
    # budget, and the first accepted step that lowers J by at most FTOL
    # relative ends the solve at a stationary point
    meas = benchmark_data["example1"]
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sample_coefficient(mesh, "example1_sigma"),
        q0=sample_coefficient(mesh, "constant:1"), q_bounds=(0.1, 5.0),
        rho=100.0, max_iter=400, gradient_tolerance=1e-14,
    )
    _, _, trace = bfgs_minimize(meas, cfg)
    assert trace.message.startswith("relative reduction")
    assert trace.converged and len(trace.rows) - 1 < cfg.max_iter
    assert trace.rows[-1]["grad_norm"] <= 1e-5 * trace.rows[0]["grad_norm"]
    values = [r["J"] for r in trace.rows]
    drops = [(a - b) / max(abs(a), abs(b), 1.0) for a, b in zip(values, values[1:])]
    assert drops[-1] <= FTOL
    assert min(drops[:-1]) > FTOL


def test_q_only_solve_matches_scipy_lbfgsb():
    # scipy's L-BFGS-B as an oracle for the line-search and stopping constants:
    # on criterion 6b's data at its balanced weight rho* = 204.3577, from the
    # same start and on the same value and gradient, our projected L-BFGS must
    # stop no higher than scipy's, up to 1e-9 relative.
    from scipy.optimize import minimize

    spec = example1_spec(0.05, seed=7)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sample_coefficient(mesh, spec.truth_sigma),
        q0=sample_coefficient(mesh, spec.init_q), q_bounds=(0.1, 5.0), rho=204.3577,
        max_iter=150, gradient_tolerance=1e-10,
    )
    _, _, trace = bfgs_minimize(meas, cfg)
    obj = _Objective(meas, cfg)

    def value_and_gradient(x):
        value, _, _, grad = obj.value_and_gradient(x, cfg.rho)
        return value, grad

    oracle = minimize(value_and_gradient, obj.start(cfg.sigma0, cfg.q0), jac=True,
                      method="L-BFGS-B", bounds=list(zip(obj.lo, obj.hi)),
                      options={"maxiter": cfg.max_iter, "gtol": cfg.gradient_tolerance})
    assert oracle.success
    assert trace.rows[-1]["J"] <= (1.0 + 1e-9) * oracle.fun


def test_trace_counts_objective_evaluations(example1_consistent, monkeypatch):
    # every objective evaluation assembles A(sigma, q) exactly once
    import optitomo.inversion

    sigma, _, meas = example1_consistent
    assemblies = []
    original = optitomo.inversion.assemble

    def counting(*args, **kwargs):
        assemblies.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optitomo.inversion, "assemble", counting)
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sigma, q0=sample_coefficient(meas.mesh, "constant:1"),
        q_bounds=(0.1, 5.0), max_iter=12,
    )
    _, _, trace = bfgs_minimize(meas, cfg)
    assert trace.evaluations == len(assemblies) > len(trace.rows)


@pytest.mark.parametrize("n_pairs", [5, LBFGS_MEMORY + 7])
def test_two_loop_direction_matches_explicit_inverse_hessian(n_pairs):
    # pairs from a convex quadratic (y = A s, so s.y > 0); the second case
    # stores more pairs than the memory depth, so the oldest are evicted
    rng = np.random.default_rng(n_pairs)
    n = 30
    basis = rng.standard_normal((n, n))
    a = basis @ basis.T / n + np.eye(n)
    hessian = _LimitedMemoryInverseHessian()
    pairs = []
    for _ in range(n_pairs):
        s = rng.standard_normal(n)
        y = a @ s
        sy = float(s @ y)
        hessian.update(s, y, sy)
        pairs.append((s, y, sy))

    kept = pairs[-LBFGS_MEMORY:]
    s_new, y_new, sy_new = kept[-1]
    h = (sy_new / float(y_new @ y_new)) * np.eye(n)
    for s, y, sy in kept:
        v = np.eye(n) - np.outer(y, s) / sy
        h = v.T @ h @ v + np.outer(s, s) / sy
    grad = rng.standard_normal(n)
    np.testing.assert_allclose(hessian.direction(grad), -(h @ grad), rtol=1e-10,
                               atol=1e-12 * np.linalg.norm(h @ grad))


def test_bfgs_pure_penalty_hits_projected_zero(mesh_small):
    sigma = sample_coefficient(mesh_small, "one")
    cfg = InversionConfig(
        mode=Q_ONLY,
        sigma0=sigma,
        q0=sample_coefficient(mesh_small, "constant:2"),
        q_bounds=(0.5, 4.0),
        rho=1.0,
        max_iter=200,
        gradient_tolerance=1e-14,
    )
    _, q_rec, _ = bfgs_minimize(None, cfg)
    np.testing.assert_allclose(q_rec.values, 0.5, rtol=0, atol=1e-8)


def test_bfgs_example2_paper_rho_terminates(mesh_small):
    spec = example2_spec(noise_level=0.03, seed=5)
    spec = dataclasses.replace(spec, fine_elements=1016, coarse_elements=254)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=JOINT,
        sigma0=sample_coefficient(mesh, spec.init_sigma),
        q0=sample_coefficient(mesh, spec.init_q),
        q_bounds=(0.5, 6.0),
        sigma_bounds=(0.5, 5.0),
        rho=1.674e-6,
        max_iter=40,
        gradient_tolerance=1e-11,
    )
    sigma_rec, q_rec, trace = bfgs_minimize(meas, cfg)
    values = [r["J"] for r in trace.rows]
    assert len(values) - 1 <= 40
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(values, values[1:]))
    assert np.all(sigma_rec.values >= 0.5) and np.all(sigma_rec.values <= 5.0)


def test_config_validation(mesh_small):
    sigma = sample_coefficient(mesh_small, "one")
    q0 = sample_coefficient(mesh_small, "one")
    with pytest.raises(FieldError):
        InversionConfig(mode="bogus", sigma0=sigma, q0=q0, q_bounds=(1, 2))
    with pytest.raises(FieldError):
        InversionConfig(mode=Q_ONLY, sigma0=sigma, q0=q0, q_bounds=(2, 1))
    with pytest.raises(FieldError):
        InversionConfig(mode=JOINT, sigma0=sigma, q0=q0, q_bounds=(1, 2))
    with pytest.raises(FieldError):
        InversionConfig(mode=Q_ONLY, sigma0=sigma, q0=q0, q_bounds=(1, 2), beta_balance=1.0)


def test_balancing_one_step_closed_form(monkeypatch):
    # noisy data so the fit term is nonzero; frozen coefficients via max_iter=0
    import optitomo.inversion
    from optitomo.synth import example1_spec

    monkeypatch.setattr(optitomo.inversion, "BALANCE_MAX_OUTER", 1)
    spec = example1_spec(noise_level=0.05, seed=3)
    spec = dataclasses.replace(spec, fine_elements=1016, coarse_elements=254)
    meas = make_measurements(spec)
    mesh = meas.mesh
    sigma = sample_coefficient(mesh, spec.truth_sigma)
    q0 = sample_coefficient(mesh, "constant:1")
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sigma, q0=q0, q_bounds=(0.1, 5.0),
        max_iter=0, beta_balance=1.5,
    )
    rho_star, history = balancing_rho(meas, cfg)
    _, fit0, _ = kv_terms(meas, sigma, q0, 0.0, Q_ONLY)
    pen0 = float(np.sum(mesh.areas * q0.values ** 2))
    assert len(history) == 1
    assert history[0]["rho"] == pytest.approx(2.0 * 0.5 * fit0 / pen0, rel=1e-12)
    assert rho_star == pytest.approx(history[-1]["rho"])


def test_balancing_degenerates_on_consistent_data(example1_consistent):
    sigma, q_true, meas = example1_consistent
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sigma, q0=q_true, q_bounds=(0.1, 5.0), max_iter=5,
    )
    rho_star, history = balancing_rho(meas, cfg)
    assert rho_star == 0.0
    assert history[0]["degenerate"]


def test_balancing_residual_contract(mesh_small):
    from optitomo.synth import example1_spec

    spec = example1_spec(noise_level=0.05, seed=3)
    spec = dataclasses.replace(spec, fine_elements=1016, coarse_elements=254)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=Q_ONLY,
        sigma0=sample_coefficient(mesh, spec.truth_sigma),
        q0=sample_coefficient(mesh, "constant:1"),
        q_bounds=(0.1, 5.0),
        max_iter=60,
        gradient_tolerance=1e-10,
    )
    rho_star, history = balancing_rho(meas, cfg)
    assert rho_star > 0.0
    last = history[-1]
    assert last["residual"] <= 1e-3 * (cfg.beta_balance - 1.0) * last["data_fit"] * 1.5


def test_balancing_history_data_fit_is_the_final_fit(monkeypatch):
    # Each outer row's data fit is read from its solve's trace; it must equal
    # an independent evaluation at that solve's reconstruction, bit for bit.
    import optitomo.inversion

    spec = dataclasses.replace(example2_spec(noise_level=0.05, seed=7),
                               fine_elements=1016, coarse_elements=254)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=JOINT,
        sigma0=sample_coefficient(mesh, spec.init_sigma),
        q0=sample_coefficient(mesh, spec.init_q),
        q_bounds=(0.5, 6.0),
        sigma_bounds=(0.5, 5.0),
        max_iter=10,
    )
    solves = []

    def recording(*args, **kwargs):
        solves.append(bfgs_minimize(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(optitomo.inversion, "bfgs_minimize", recording)
    _, history = balancing_rho(meas, cfg)
    assert len(history) == len(solves) >= 2
    for row, (sigma_rec, q_rec, _) in zip(history, solves):
        assert row["data_fit"] == kv_terms(meas, sigma_rec, q_rec, 0.0, JOINT)[1]

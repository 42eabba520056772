"""Acceptance suite: one test per exit criterion, each printing a report line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
of every criterion.  Regression thresholds come from
``tests/fixtures/acceptance_thresholds.json`` (frozen reference run).
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from scipy.special import iv

from optitomo.cli import main as cli_main
from optitomo.field import (
    BoundaryTrace,
    PiecewiseConstantField,
    restrict_to_boundary,
    sample_coefficient,
)
from optitomo.fem import assemble, solve_neumann
from optitomo.inversion import (
    JOINT,
    Q_ONLY,
    InversionConfig,
    balancing_rho,
    bfgs_minimize,
    kv_evaluate,
)
from optitomo.locpot import lipschitz_constant, make_probing_setup, stability_report
from optitomo.mesh import generate_disk_mesh, refine_uniform, subdomain_partition
from optitomo.ntd import (
    build_ntd,
    lambda_frechet_form,
    min_m_eigenvalue,
    monotonicity_gap,
)
from optitomo.synth import (
    consistent_measurements,
    error_metrics,
    example1_spec,
    example2_regions,
    example2_spec,
    make_measurements,
)

FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "acceptance_thresholds.json").read_text()
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def paper_mesh():
    return generate_disk_mesh(1016)


def test_criterion_1_fem_convergence():
    meshes = [generate_disk_mesh(254)]
    meshes.append(refine_uniform(meshes[0]))
    meshes.append(refine_uniform(meshes[1]))
    ratios = []
    for n in (0, 1, 2):
        errors = []
        for mesh in meshes:
            one = sample_coefficient(mesh, "one")
            sys = assemble(mesh, one, one)
            ang = mesh.boundary_angles
            u = solve_neumann(sys, BoundaryTrace(mesh, np.cos(n * ang)))
            dn = 0.5 * (iv(n - 1, 1.0) + iv(n + 1, 1.0))
            exact = iv(n, 1.0) / dn * np.cos(n * ang)
            err = restrict_to_boundary(u).values - exact
            errors.append(float(np.sqrt(err @ (mesh.boundary_mass @ err))))
        ratios.extend(errors[i] / errors[i + 1] for i in range(2))
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report("1 (FEM convergence)", ok,
           "error ratios per refinement: " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_2_ntd_structure():
    mesh = generate_disk_mesh(4064)
    one = sample_coefficient(mesh, "one")
    op = build_ntd(mesh, one, one)
    ml = op.mesh.boundary_mass @ op.lam
    defect = float(np.max(np.abs(ml - ml.T)) / np.max(np.abs(ml)))
    g = np.cos(mesh.boundary_angles)
    rq = float(g @ (ml @ g)) / float(g @ (op.mesh.boundary_mass @ g))
    oracle = iv(1, 1.0) / (0.5 * (iv(0, 1.0) + iv(2, 1.0)))
    ok = defect <= 1e-10 and abs(rq - oracle) <= 0.02 * oracle
    report("2 (NtD structure)", ok,
           f"M-symmetry defect {defect:.2e}, Rayleigh quotient {rq:.5f} vs {oracle:.5f}")


def test_criterion_3_monotonicity_suites(paper_mesh):
    mesh = paper_mesh
    m = mesh.boundary_mass
    rng = np.random.default_rng(2024)
    sigma_bg = sample_coefficient(mesh, "example1_sigma")
    inside = np.hypot(*mesh.centroids.T) < 0.5

    violations = 0
    for _ in range(100):
        q1 = PiecewiseConstantField(mesh, np.where(inside, rng.uniform(1, 2, mesh.n_elements), 0.0))
        q2 = PiecewiseConstantField(mesh, np.where(inside, rng.uniform(1, 2, mesh.n_elements), 0.0))
        g = rng.standard_normal(mesh.n_boundary)
        g = BoundaryTrace(mesh, g / np.sqrt(g @ (m @ g)))
        upper, middle, lower = monotonicity_gap(sigma_bg, q2, sigma_bg, q1, g)
        if upper < middle - 1e-10 or middle < lower - 1e-10:
            violations += 1

    for _ in range(100):
        s1 = PiecewiseConstantField(mesh, rng.uniform(1, 2, mesh.n_elements))
        s2 = PiecewiseConstantField(mesh, rng.uniform(1, 2, mesh.n_elements))
        q1 = PiecewiseConstantField(mesh, rng.uniform(1, 3, mesh.n_elements))
        q2 = PiecewiseConstantField(mesh, rng.uniform(1, 3, mesh.n_elements))
        g = rng.standard_normal(mesh.n_boundary)
        g = BoundaryTrace(mesh, g / np.sqrt(g @ (m @ g)))
        upper, middle, lower = monotonicity_gap(s1, q1, s2, q2, g)
        if upper < middle - 1e-10 or middle < lower - 1e-10:
            violations += 1

    min_eigs = []
    one = sample_coefficient(mesh, "one")
    for _ in range(20):
        lo = rng.uniform(1.0, 1.5, mesh.n_elements)
        hi = lo + rng.uniform(0.0, 1.0, mesh.n_elements)
        lam_lo = build_ntd(mesh, one, PiecewiseConstantField(mesh, lo))
        lam_hi = build_ntd(mesh, one, PiecewiseConstantField(mesh, hi))
        min_eigs.append(min_m_eigenvalue(lam_lo, lam_hi))
    eig_ok = all(e >= -1e-10 for e in min_eigs)

    ok = violations == 0 and eig_ok
    report("3 (monotonicity suites)", ok,
           f"sandwich violations {violations}/200, "
           f"min ordered-pair eigenvalue {min(min_eigs):.2e}")


def test_criterion_4_frechet_and_gradient_checks():
    mesh = generate_disk_mesh(254)
    sigma = sample_coefficient(mesh, "example1_sigma")
    q = sample_coefficient(mesh, "example1_q")
    m = mesh.boundary_mass
    rng = np.random.default_rng(31)

    worst_form = 0.0
    for _ in range(5):
        d1 = PiecewiseConstantField(mesh, rng.uniform(-0.5, 0.5, mesh.n_elements))
        d2 = PiecewiseConstantField(mesh, rng.uniform(-0.5, 0.5, mesh.n_elements))
        gv = rng.standard_normal(mesh.n_boundary)
        g = BoundaryTrace(mesh, gv)
        form = lambda_frechet_form(sigma, q, d1, d2, g, g)
        best = np.inf
        for t in (1e-2, 1e-3, 1e-4):
            lam_p = build_ntd(mesh, PiecewiseConstantField(mesh, sigma.values + t * d1.values),
                              PiecewiseConstantField(mesh, q.values + t * d2.values))
            lam_m = build_ntd(mesh, PiecewiseConstantField(mesh, sigma.values - t * d1.values),
                              PiecewiseConstantField(mesh, q.values - t * d2.values))
            fd = float(gv @ (m @ ((lam_p.lam - lam_m.lam) @ gv))) / (2 * t)
            best = min(best, abs(fd - form) / max(abs(form), 1e-300))
        worst_form = max(worst_form, best)

    meas = consistent_measurements(mesh, sigma, q, [f"offset_sin:10,{k}" for k in range(1, 6)])
    q_off = PiecewiseConstantField(mesh, q.values * rng.uniform(0.9, 1.1, mesh.n_elements))
    rho = 1e-3
    gq = kv_evaluate(meas, sigma, q_off, rho, Q_ONLY)[4]
    worst_grad = 0.0
    for _ in range(5):
        d = rng.standard_normal(mesh.n_elements)
        analytic = float(gq @ d)
        best = np.inf
        for t in (1e-2, 1e-3, 1e-4):
            plus = PiecewiseConstantField(mesh, q_off.values + t * d)
            minus = PiecewiseConstantField(mesh, q_off.values - t * d)
            fd = (kv_evaluate(meas, sigma, plus, rho, Q_ONLY)[0]
                  - kv_evaluate(meas, sigma, minus, rho, Q_ONLY)[0]) / (2 * t)
            best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-300))
        worst_grad = max(worst_grad, best)

    ok = worst_form <= 1e-4 and worst_grad <= 1e-4
    report("4 (derivative checks)", ok,
           f"NtD-form FD error {worst_form:.2e}, gradient FD error {worst_grad:.2e}")


def test_criterion_5_lipschitz_pipeline():
    mesh = generate_disk_mesh(1016, angular_multiplier=8)
    part = subdomain_partition(mesh, 0.5, 8)
    setup = make_probing_setup(part, 1.0, 2.0)
    assert setup.K == 6
    lip, currents = lipschitz_constant(setup)
    betas = [c.beta for c in currents]
    rows = stability_report(setup, currents, 50, seed=123)
    violations = sum(1 for r in rows if not r["holds"])
    ok = (len(currents) == 48 and all(b > 1.0 for b in betas)
          and lip > 0.0 and len(rows) == 50 and violations == 0)
    report("5 (quantitative stability pipeline)", ok,
           f"48 certificates, beta in [{min(betas):.3f}, {max(betas):.3f}], "
           f"L = {lip:.3e}, stability violations {violations}/50")


def test_criterion_6a_absorption_regression(paper_mesh):
    mesh = paper_mesh
    sigma = sample_coefficient(mesh, "example1_sigma")
    q_true = sample_coefficient(mesh, "example1_q")
    meas = consistent_measurements(
        mesh, sigma, q_true, [f"offset_sin:10,{k}" for k in range(1, 6)]
    )
    cfg = InversionConfig(
        mode=Q_ONLY, sigma0=sigma,
        q0=sample_coefficient(mesh, "constant:1"),
        q_bounds=(0.1, 5.0), rho=0.0, max_iter=400, gradient_tolerance=1e-12,
    )
    _, q_rec, trace = bfgs_minimize(meas, cfg)
    values = [r["J"] for r in trace.rows]
    monotone = all(b <= a + 1e-15 * abs(a) for a, b in zip(values, values[1:]))
    rel_l2, _, _ = error_metrics(q_rec, q_true)
    threshold = FIXTURES["example1_consistent"]["thresholds"]["rel_l2_q"]
    ok = monotone and values[-1] <= 1e-6 * values[0] and rel_l2 <= threshold
    report("6a (absorption regression, noise-free)", ok,
           f"monotone={monotone}, J_final/J_0 = {values[-1] / values[0]:.2e}, "
           f"rel_L2(q) = {rel_l2:.4f} (threshold {threshold})")


def test_criterion_6b_balancing_rho():
    spec = example1_spec(noise_level=0.05, seed=7)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=Q_ONLY,
        sigma0=sample_coefficient(mesh, spec.truth_sigma),
        q0=sample_coefficient(mesh, spec.init_q),
        q_bounds=(0.1, 5.0), rho=0.0, max_iter=150, gradient_tolerance=1e-10,
    )
    rho_star, history = balancing_rho(meas, cfg)
    last = history[-1]
    fixture = FIXTURES["example1_balancing"]
    thresholds = fixture["thresholds"]
    contract = thresholds["balance_residual_relative"]
    beta = cfg.beta_balance
    rel_residual = last["residual"] / ((beta - 1.0) * last["data_fit"])
    residual_ok = rel_residual <= contract
    # The fixed point, checked outside the balancing loop: a fresh solve at
    # rho* from the configured start must reach a stationary point of
    # J(., rho*) on the box, and that minimizer must balance at rho* under
    # the same contract.  A loop that reports a balanced history without
    # minimizing at its weights fails here.
    _, q_rec, _ = bfgs_minimize(meas, dataclasses.replace(cfg, rho=rho_star))
    fit_rec = kv_evaluate(meas, cfg.sigma0, q_rec, 0.0, Q_ONLY)[1]
    pen_rec = float(np.sum(mesh.areas * q_rec.values ** 2))
    rel_refit = abs((beta - 1.0) * fit_rec - 0.5 * rho_star * pen_rec) / ((beta - 1.0) * fit_rec)

    def projected_gradient_norm(q):
        grad = kv_evaluate(meas, cfg.sigma0, q, rho_star, Q_ONLY)[4]
        step = np.clip(q.values - grad, *cfg.q_bounds)
        return float(np.linalg.norm(q.values - step))

    stationarity = projected_gradient_norm(q_rec) / projected_gradient_norm(cfg.q0)
    fixed_point_ok = (rel_refit <= contract
                      and stationarity <= thresholds["projected_gradient_relative"])
    # Magnitude reference: the balancing weight at the true coefficient on
    # these data.  The fixed point scales with the data fit, and the truth's
    # data fit is the floor that noise and the fine-to-coarse discretization
    # leave, so a balanced weight lies within two decades of it.  The weight
    # reported in the literature would need a data fit some nine decades
    # below that floor; it is printed for information only.
    q_true = sample_coefficient(mesh, spec.truth_q)
    fit_true = kv_evaluate(meas, cfg.sigma0, q_true, 0.0, Q_ONLY)[1]
    pen_true = float(np.sum(mesh.areas * q_true.values ** 2))
    rho_floor = 2.0 * (beta - 1.0) * fit_true / pen_true
    ratio = rho_star / rho_floor
    low, high = thresholds["rho_over_floor"]
    magnitude_ok = low <= ratio <= high
    literature = fixture["reference"]["rho_literature_not_checked"]
    report("6b (balancing-principle rho)", residual_ok and fixed_point_ok and magnitude_ok,
           f"rho* = {rho_star:.3e}, rho_floor = {rho_floor:.3e}, "
           f"rho*/rho_floor = {ratio:.3g} (band [{low:g}, {high:g}]), "
           f"F(rec) = {last['data_fit']:.1f} vs F(q_true) = {fit_true:.1f}, "
           f"balance residual {rel_residual:.2e}, re-solved at rho* {rel_refit:.2e} "
           f"(contract {contract:g}), projected gradient ratio {stationarity:.1e} "
           f"(threshold {thresholds['projected_gradient_relative']:g}), "
           f"factor vs literature rho {rho_star / literature:.1e} (not checked)")


@pytest.mark.parametrize("eps,rho", [(0.0, 0.0), (0.03, 1.674e-6), (0.05, 3.192e-7)])
def test_criterion_7_joint_regression(eps, rho):
    spec = example2_spec(noise_level=eps, seed=11)
    meas = make_measurements(spec)
    mesh = meas.mesh
    cfg = InversionConfig(
        mode=JOINT,
        sigma0=sample_coefficient(mesh, spec.init_sigma),
        q0=sample_coefficient(mesh, spec.init_q),
        q_bounds=(0.5, 6.0), sigma_bounds=(0.5, 5.0),
        rho=rho, max_iter=150, gradient_tolerance=1e-11,
    )
    sigma_rec, q_rec, trace = bfgs_minimize(meas, cfg)
    values = [r["J"] for r in trace.rows]
    monotone = all(b <= a + 1e-12 * abs(a) for a, b in zip(values, values[1:]))
    regions = example2_regions(mesh)
    ct_sigma = float(np.mean(np.abs(sigma_rec.values[regions["d3"] | regions["d4"]] - 1.0)))
    ct_q = float(np.mean(np.abs(q_rec.values[regions["d1"] | regions["d2"]] - 1.0)))
    thresholds = FIXTURES["example2_crosstalk"]["thresholds"]
    ok = (monotone and ct_sigma <= thresholds["sigma_error_d34"]
          and ct_q <= thresholds["q_error_d12"])
    report(f"7 (joint regression, eps={eps})", ok,
           f"monotone={monotone}, crosstalk sigma@D3+D4 = {ct_sigma:.4f} "
           f"(threshold {thresholds['sigma_error_d34']}), q@D1+D2 = {ct_q:.4f} "
           f"(threshold {thresholds['q_error_d12']})")


def test_criterion_8_determinism(tmp_path):
    comparisons = []

    def run_twice(name, args, files):
        out1, out2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        same = all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files)
        comparisons.append((name, same))

    run_twice("mesh", ["mesh", "--mesh.target_elements=254"], ["mesh.txt"])
    run_twice(
        "forward",
        ["forward", "--mesh.target_elements=254", "--coefficients.sigma=example1_sigma",
         "--coefficients.q=example1_q", "--forward.flux=offset_sin:10,1"],
        ["solution.csv", "trace.csv", "solution.pgm"],
    )
    run_twice(
        "ntd",
        ["ntd", "--mesh.target_elements=254", "--coefficients.sigma=one",
         "--coefficients.q=one"],
        ["ntd.csv"],
    )
    run_twice(
        "lipschitz",
        ["lipschitz", "--mesh.target_elements=254", "--lipschitz.n_cells=2",
         "--lipschitz.a=1", "--lipschitz.b=1.2", "--lipschitz.stability_pairs=3"],
        ["certificates.csv", "stability.csv", "lipschitz.csv"],
    )
    run_twice(
        "reconstruct",
        ["example1", "--mesh.coarse_elements=254", "--mesh.fine_elements=1016",
         "--epsilon=0.05", "--seed", "13", "--optimizer.max_iter=15"],
        ["measurements.csv", "iterations.csv", "q_rec.csv", "q_rec.pgm", "q_errors.csv"],
    )
    ok = all(same for _, same in comparisons)
    report("8 (determinism)", ok,
           ", ".join(f"{name}:{'identical' if same else 'DIFFERS'}" for name, same in comparisons))

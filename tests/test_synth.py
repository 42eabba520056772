import csv
import dataclasses

import numpy as np
import pytest

from optitomo.errors import FieldError
from optitomo.field import (
    BoundaryTrace,
    NodalField,
    PiecewiseConstantField,
    parse_descriptor,
    restrict_to_boundary,
    sample_coefficient,
    transfer_boundary_trace,
)
from optitomo.fem import assemble, solve_neumann_many
from optitomo.inversion import MeasurementSet
from optitomo.mesh import generate_disk_mesh
from optitomo.synth import (
    FLUXES,
    apply_trace_noise,
    error_metrics,
    example1_spec,
    example2_regions,
    example2_spec,
    make_measurements,
    sample_flux,
    write_measurements_csv,
)

SMALL = dict(fine_elements=1016, coarse_elements=254)


def small(spec):
    return dataclasses.replace(spec, **SMALL)


def test_example1_formulas():
    spec = example1_spec()
    q = parse_descriptor(spec.truth_q)
    assert q(np.array([0.0]), np.array([0.0]))[0] == 2.0
    assert q(np.array([0.7]), np.array([0.0]))[0] == 1.0
    g3 = parse_descriptor(spec.fluxes[2], FLUXES, "flux")
    assert g3(np.pi / 2) == pytest.approx(10.0 + np.sin(3 * np.pi / 2))
    sigma = parse_descriptor(spec.truth_sigma)
    assert sigma(np.array([0.0]), np.array([0.0]))[0] == 2.0


def test_example2_formulas():
    spec = example2_spec()
    sigma = parse_descriptor(spec.truth_sigma)
    q = parse_descriptor(spec.truth_q)
    init_sigma = parse_descriptor(spec.init_sigma)
    assert sigma(np.array([0.5]), np.array([0.0]))[0] == 2.0
    assert q(np.array([0.0]), np.array([-0.5]))[0] == 4.0
    assert init_sigma(np.array([0.5]), np.array([0.0]))[0] == 1.1
    g = parse_descriptor(spec.fluxes[0], FLUXES, "flux")
    assert g(np.pi / 2) == pytest.approx(1.0)


def test_example_specs_match_formulas_at_random_points():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    x, y = pts[:, 0], pts[:, 1]
    q1 = parse_descriptor(example1_spec().truth_q)(x, y)
    bump = np.cos(np.pi * x) * np.cos(np.pi * y)
    inside = np.maximum(np.abs(x), np.abs(y)) < 0.5
    np.testing.assert_allclose(q1, 1.0 + np.where(inside, bump, 0.0))
    s2 = parse_descriptor(example2_spec().truth_sigma)(x, y)
    oracle = np.ones_like(x)
    oracle[(x - 0.5) ** 2 + y ** 2 < 0.04] = 2.0
    oracle[(x + 0.5) ** 2 + y ** 2 < 0.04] = 3.0
    np.testing.assert_allclose(s2, oracle)


def test_spec_validation():
    with pytest.raises(FieldError):
        dataclasses.replace(example1_spec(), fine_elements=100, coarse_elements=200)
    for level in (-0.1, float("nan"), float("inf")):
        with pytest.raises(FieldError):
            example1_spec(noise_level=level)


def test_noise_free_equals_clean_transfer():
    # bit-equal to one K-column solve of the fine fluxes, transferred per column
    spec = small(example1_spec(noise_level=0.0, seed=9))
    meas = make_measurements(spec)
    fine = generate_disk_mesh(spec.fine_elements)
    coarse = generate_disk_mesh(spec.coarse_elements)
    sigma = sample_coefficient(fine, spec.truth_sigma)
    q = sample_coefficient(fine, spec.truth_q)
    g_fine = np.column_stack([sample_flux(fine, flux).values for flux in spec.fluxes])
    u = solve_neumann_many(assemble(fine, sigma, q), g_fine)
    for k, (g, f, flux) in enumerate(zip(meas.fluxes.T, meas.traces.T, spec.fluxes)):
        expected = transfer_boundary_trace(restrict_to_boundary(NodalField(fine, u[:, k])), coarse)
        assert np.array_equal(f, expected.values)
        assert np.array_equal(g, sample_flux(coarse, flux).values)


def test_noise_standard_deviation():
    mesh = generate_disk_mesh(254)
    clean = BoundaryTrace(mesh, 2.0 + np.cos(mesh.boundary_angles))
    eps = 0.05
    scale = eps * np.max(np.abs(clean.values))
    draws = np.empty(10_000)
    for i in range(draws.size):
        rng = np.random.default_rng([100, i])
        draws[i] = apply_trace_noise(clean, eps, rng).values[0] - clean.values[0]
    assert abs(draws.std() - scale) <= 0.05 * scale
    assert abs(draws.mean()) <= 0.05 * scale


def test_same_seed_bit_identical():
    spec = small(example1_spec(noise_level=0.05, seed=21))
    a = make_measurements(spec)
    b = make_measurements(spec)
    assert np.array_equal(a.fluxes, b.fluxes)
    assert np.array_equal(a.traces, b.traces)


def test_different_k_streams_independent():
    spec = small(example1_spec(noise_level=0.05, seed=21))
    clean = small(example1_spec(noise_level=0.0, seed=21))
    noisy = make_measurements(spec)
    base = make_measurements(clean)
    deltas = list((noisy.traces - base.traces).T)
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            assert not np.array_equal(deltas[i], deltas[j])


def test_error_metrics_trivial_cases(mesh_small):
    truth = sample_coefficient(mesh_small, "one")
    regions = {"left": mesh_small.centroids[:, 0] < 0, "right": mesh_small.centroids[:, 0] >= 0}
    rel_l2, rel_linf, table = error_metrics(truth, truth, regions)
    assert rel_l2 == 0.0 and rel_linf == 0.0
    assert all(row["mean_abs_error"] == 0.0 for row in table)

    shifted = PiecewiseConstantField(mesh_small, truth.values + 1.0)
    _, rel_linf, _ = error_metrics(shifted, truth)
    assert rel_linf == 1.0

    doubled = PiecewiseConstantField(mesh_small, 2.0 * truth.values)
    rel_l2, _, _ = error_metrics(doubled, truth)
    assert rel_l2 == pytest.approx(1.0, rel=1e-12)


def test_example2_regions_partition(mesh_small):
    masks = example2_regions(mesh_small)
    total = np.zeros(mesh_small.n_elements, dtype=int)
    for mask in masks.values():
        total += mask.astype(int)
    assert np.all(total == 1)


def test_sample_flux_rejects_non_finite_samples(mesh_small):
    with pytest.raises(FieldError, match="flux samples must be finite"):
        sample_flux(mesh_small, lambda theta: np.where(theta > 1.0, np.nan, 1.0))


def _reference_measurements_csv(meas, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("k,boundary_node,g,f\n")
        for k, (g, f) in enumerate(zip(meas.fluxes.T, meas.traces.T), start=1):
            for node, gv, fv in zip(meas.mesh.boundary_nodes, g, f):
                fh.write(f"{k},{node},{gv:.17g},{fv:.17g}\n")


def test_measurements_writer_matches_reference_bytes(tmp_path, mesh_small):
    rng = np.random.default_rng(9)
    fluxes = rng.standard_normal((mesh_small.n_boundary, 3))
    traces = rng.standard_normal((mesh_small.n_boundary, 3))
    traces[:3] = np.array([-0.0, np.inf, np.nan])[:, None]
    meas = MeasurementSet(mesh_small, fluxes, traces)
    write_measurements_csv(meas, tmp_path / "new.csv")
    _reference_measurements_csv(meas, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_measurements_csv_round_trip(tmp_path):
    spec = small(example1_spec(noise_level=0.05, seed=2))
    meas = make_measurements(spec)
    path = tmp_path / "meas.csv"
    write_measurements_csv(meas, path)
    header, *rows = csv.reader(path.read_text().splitlines())
    assert header == ["k", "boundary_node", "g", "f"]
    k, node, g, f = np.array([[float(c) for c in r] for r in rows]).T.reshape(4, len(meas), -1)
    assert np.all(k == np.arange(1, len(meas) + 1)[:, None])
    assert np.all(node == meas.mesh.boundary_nodes)
    assert np.array_equal(g.T, meas.fluxes)
    assert np.array_equal(f.T, meas.traces)

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import iv

import optitomo.ntd

from optitomo.errors import FieldError, MeshError, SolverError
from optitomo.field import BoundaryTrace, PiecewiseConstantField, sample_coefficient
from optitomo.mesh import TriMesh, generate_disk_mesh, subdomain_partition
from optitomo.ntd import (
    NtDMatrix,
    boundary_inner,
    build_ntd,
    lambda_frechet_form,
    m_weighted_opnorm,
    min_m_eigenvalue,
    monotonicity_gap,
    opnorm_diff,
)


@pytest.fixture(scope="module")
def ntd_unit(mesh_medium):
    one = sample_coefficient(mesh_medium, "one")
    return build_ntd(mesh_medium, one, one)


# Property tests draw an aligned mesh of 100 to 1 200 target elements, lower
# coefficient bounds with an upper-to-lower ratio of 1 to 3, and a seed for
# the in-bounds coefficient values and the boundary current.
PROPERTY = settings(max_examples=20, derandomize=True, deadline=None)
TARGETS = st.integers(100, 1200)
LOWER = st.floats(0.1, 5.0)
RATIO = st.floats(1.0, 3.0)
SEEDS = st.integers(0, 2**32 - 1)


def _aligned_mesh(target):
    try:
        return generate_disk_mesh(target, angular_multiplier=8)
    except MeshError:
        assume(False)


def _element_field(mesh, rng, lo, hi, where=None):
    """Per-element values drawn in [lo, hi], zero outside ``where``."""
    vals = rng.uniform(lo, hi, mesh.n_elements)
    return PiecewiseConstantField(mesh, vals if where is None else np.where(where, vals, 0.0))


def _unit_current(mesh, rng):
    g = BoundaryTrace(mesh, rng.standard_normal(mesh.n_boundary))
    return BoundaryTrace(mesh, g.values / np.sqrt(boundary_inner(g, g)))


@PROPERTY
@given(target=TARGETS, s_lo=LOWER, q_lo=LOWER, ratio=RATIO, seed=SEEDS)
def test_build_invariants(target, s_lo, q_lo, ratio, seed):
    mesh = _aligned_mesh(target)
    rng = np.random.default_rng(seed)
    op = build_ntd(mesh, _element_field(mesh, rng, s_lo, s_lo * ratio),
                   _element_field(mesh, rng, q_lo, q_lo * ratio))
    ml = op.mesh.boundary_mass @ op.lam
    defect = np.max(np.abs(ml - ml.T))
    assert defect <= 1e-10 * np.max(np.abs(ml))
    sym = 0.5 * (ml + ml.T)
    assert np.min(np.linalg.eigvalsh(sym)) > 0.0


def test_ntd_matrix_refuses_asymmetric_or_indefinite_operators(ntd_unit, mesh_medium):
    lam = ntd_unit.lam
    skew = np.zeros_like(lam)
    skew[0, 1] = 1e-6 * np.max(np.abs(lam))
    with pytest.raises(SolverError, match="M-symmetry defect"):
        NtDMatrix(mesh_medium, lam + skew)
    with pytest.raises(SolverError, match="not positive definite"):
        NtDMatrix(mesh_medium, -lam)


@pytest.mark.parametrize("entry", ["one nan", "one inf", "all nan"])
def test_ntd_matrix_refuses_a_non_finite_operator(entry):
    # refused before any arithmetic, so no RuntimeWarning escapes either
    mesh = generate_disk_mesh(64)
    one = sample_coefficient(mesh, "one")
    lam = build_ntd(mesh, one, one).lam.copy()
    if entry == "all nan":
        lam[:] = np.nan
    else:
        lam[2, 5] = np.nan if entry == "one nan" else np.inf
    with pytest.raises(SolverError, match="non-finite"):
        NtDMatrix(mesh, lam)


def test_opnorm_reuses_the_cached_mass_factor(mesh_small):
    # M is factored once per mesh: the operator norms after the first make no Cholesky call
    one = sample_coefficient(mesh_small, "one")
    lam1 = build_ntd(mesh_small, one, one)
    lam2 = build_ntd(mesh_small, one, sample_coefficient(mesh_small, "constant:2"))
    first = opnorm_diff(lam1, lam2)
    factor = mesh_small.boundary_mass_factor
    assert np.allclose(factor @ factor.T, mesh_small.boundary_mass, rtol=0.0, atol=1e-15)
    assert np.array_equal(factor, np.tril(factor))

    def refused(*args, **kwargs):
        raise AssertionError("M was factored again")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", refused)
        mp.setattr(optitomo.ntd.sla, "cholesky", refused)
        assert opnorm_diff(lam1, lam2) == first
        assert min_m_eigenvalue(lam1, lam2) >= -1e-10


def test_rayleigh_quotient_cosine(ntd_unit, mesh_medium):
    ang = mesh_medium.boundary_angles
    g = np.cos(ang)
    num = float(g @ (ntd_unit.mesh.boundary_mass @ (ntd_unit.lam @ g)))
    den = float(g @ (ntd_unit.mesh.boundary_mass @ g))
    oracle = iv(1, 1.0) / (0.5 * (iv(0, 1.0) + iv(2, 1.0)))
    assert abs(num / den - oracle) <= 0.02 * oracle


def test_quadratic_form_monotonicity(mesh_small):
    one = sample_coefficient(mesh_small, "one")
    two = sample_coefficient(mesh_small, "constant:2")
    lam1 = build_ntd(mesh_small, one, one)
    lam2 = build_ntd(mesh_small, one, two)
    assert min_m_eigenvalue(lam1, lam2) >= -1e-10


def test_boundary_inner_constants(mesh_small):
    ones = BoundaryTrace(mesh_small, np.ones(mesh_small.n_boundary))
    val = boundary_inner(ones, ones)
    assert abs(val - 2 * np.pi) <= 0.01 * 2 * np.pi


def test_boundary_inner_orthogonality(mesh_medium):
    c = BoundaryTrace(mesh_medium, np.cos(mesh_medium.boundary_angles))
    s = BoundaryTrace(mesh_medium, np.sin(mesh_medium.boundary_angles))
    assert abs(boundary_inner(c, s)) <= 2e-3


def test_boundary_inner_swap_exact(mesh_small):
    rng = np.random.default_rng(0)
    g = BoundaryTrace(mesh_small, rng.standard_normal(mesh_small.n_boundary))
    h = BoundaryTrace(mesh_small, rng.standard_normal(mesh_small.n_boundary))
    assert boundary_inner(g, h) == boundary_inner(h, g)


def test_boundary_inner_refuses_traces_on_different_meshes(mesh_small):
    ones = np.ones(mesh_small.n_boundary)
    twin = TriMesh(mesh_small.nodes, mesh_small.elements, mesh_small.boundary_nodes)
    with pytest.raises(FieldError, match="^boundary values live on a different mesh$"):
        boundary_inner(BoundaryTrace(mesh_small, ones), BoundaryTrace(twin, ones))


def test_opnorm_zero_and_symmetry(ntd_unit):
    assert opnorm_diff(ntd_unit, ntd_unit) == 0.0


def test_opnorm_swap_invariant(mesh_small):
    one = sample_coefficient(mesh_small, "one")
    two = sample_coefficient(mesh_small, "constant:2")
    lam1 = build_ntd(mesh_small, one, one)
    lam2 = build_ntd(mesh_small, one, two)
    assert opnorm_diff(lam1, lam2) == pytest.approx(opnorm_diff(lam2, lam1), rel=1e-12)


def test_opnorm_hand_case():
    diff = np.diag([2.0, -5.0, 1.0])
    assert m_weighted_opnorm(diff, np.eye(3)) == pytest.approx(5.0, abs=1e-14)


def test_opnorm_rejects_mesh_mismatch(mesh_small, mesh_medium):
    one_s = sample_coefficient(mesh_small, "one")
    one_m = sample_coefficient(mesh_medium, "one")
    with pytest.raises(FieldError):
        opnorm_diff(build_ntd(mesh_small, one_s, one_s), build_ntd(mesh_medium, one_m, one_m))


# The two sandwich cases: the absorption-only one shares sigma and lets q
# vanish off omega, the joint one draws all four coefficients positive.
GAP_CASES = ("absorption", "joint")


def _gap_pair(case, mesh, rng, s_lo, q_lo, ratio):
    """(s1, q1, s2, q2) drawn in [lo, lo * ratio] for one sandwich case."""
    if case == "absorption":
        sigma = sample_coefficient(mesh, "example1_sigma")
        omega = subdomain_partition(mesh, 0.5, 4).omega_mask
        q1, q2 = (_element_field(mesh, rng, q_lo, q_lo * ratio, omega) for _ in range(2))
        return sigma, q1, sigma, q2
    s1, s2 = (_element_field(mesh, rng, s_lo, s_lo * ratio) for _ in range(2))
    q1, q2 = (_element_field(mesh, rng, q_lo, q_lo * ratio) for _ in range(2))
    return s1, q1, s2, q2


def _assert_sandwich(upper, middle, lower):
    assert np.all(np.isfinite([upper, middle, lower]))
    assert upper >= middle - 1e-10
    assert middle >= lower - 1e-10


@pytest.mark.parametrize("case", GAP_CASES)
def test_gap_identical_coefficients(mesh_small_aligned, case):
    mesh = mesh_small_aligned
    s1, q1, _, _ = _gap_pair(case, mesh, np.random.default_rng(1), 1.0, 1.0, 2.0)
    g = BoundaryTrace(mesh, np.sin(mesh.boundary_angles))
    upper, middle, lower = monotonicity_gap(s1, q1, s1, q1, g)
    assert abs(upper) <= 1e-12 and abs(middle) <= 1e-12 and abs(lower) <= 1e-12


@pytest.mark.parametrize("case", GAP_CASES)
@PROPERTY
@given(target=TARGETS, s_lo=LOWER, q_lo=LOWER, ratio=RATIO, seed=SEEDS)
def test_gap_sandwich_random(case, target, s_lo, q_lo, ratio, seed):
    mesh = _aligned_mesh(target)
    rng = np.random.default_rng(seed)
    s1, q1, s2, q2 = _gap_pair(case, mesh, rng, s_lo, q_lo, ratio)
    _assert_sandwich(*monotonicity_gap(s1, q1, s2, q2, _unit_current(mesh, rng)))


# Coefficient pairs ordered (s1, q1) <= (s2, q2), so Lambda(s1, q1) >= Lambda(s2, q2):
# sigma1, sigma2 and the value of both q off omega.
ORDERED = {
    "absorption": ("example1_sigma", "example1_sigma", 0.0),
    "joint": ("one", "constant:1.5", 1.0),
}


@pytest.mark.parametrize("case", GAP_CASES)
def test_gap_ordered_sign(mesh_small_aligned, case):
    mesh = mesh_small_aligned
    omega = subdomain_partition(mesh, 0.5, 4).omega_mask
    sigma1, sigma2, off = ORDERED[case]
    s1, s2 = sample_coefficient(mesh, sigma1), sample_coefficient(mesh, sigma2)
    q1 = PiecewiseConstantField(mesh, np.where(omega, 1.0, off))
    q2 = PiecewiseConstantField(mesh, np.where(omega, 2.5, off))
    for g in (1.0 + np.sin(mesh.boundary_angles), np.cos(2 * mesh.boundary_angles)):
        _, middle, _ = monotonicity_gap(s1, q1, s2, q2, BoundaryTrace(mesh, g))
        assert middle >= -1e-12


def test_gap_support_rule(mesh_small_aligned):
    # q1 must vanish wherever q2 does; a q1 that vanishes where q2 does not is fine
    mesh = mesh_small_aligned
    sigma = sample_coefficient(mesh, "example1_sigma")
    omega = subdomain_partition(mesh, 0.5, 4).omega_mask
    omega_q = PiecewiseConstantField(mesh, np.where(omega, 1.0, 0.0))
    one = sample_coefficient(mesh, "one")
    g = BoundaryTrace(mesh, np.sin(mesh.boundary_angles))
    with pytest.raises(FieldError, match="^q1 must vanish wherever q2 does$"):
        monotonicity_gap(sigma, one, sigma, omega_q, g)
    _assert_sandwich(*monotonicity_gap(sigma, omega_q, sigma, one, g))


def test_gap_different_sigma_with_absorption_vanishing_off_omega(mesh_small_aligned):
    mesh = mesh_small_aligned
    omega = subdomain_partition(mesh, 0.5, 4).omega_mask
    rng = np.random.default_rng(6)
    for _ in range(5):
        s1, s2 = (_element_field(mesh, rng, 1.0, 2.0) for _ in range(2))
        q1, q2 = (_element_field(mesh, rng, 1.0, 2.0, omega) for _ in range(2))
        _assert_sandwich(*monotonicity_gap(s1, q1, s2, q2, _unit_current(mesh, rng)))


@pytest.mark.parametrize("case", GAP_CASES)
def test_gap_upper_is_the_derivative(mesh_small_aligned, case):
    # upper = -Lambda'(s1, q1)[s2 - s1, q2 - q1] as a quadratic form in g
    mesh = mesh_small_aligned
    rng = np.random.default_rng(7)
    s1, q1, s2, q2 = _gap_pair(case, mesh, rng, 1.0, 1.0, 2.0)
    g = _unit_current(mesh, rng)
    upper, _, _ = monotonicity_gap(s1, q1, s2, q2, g)
    ds = PiecewiseConstantField(mesh, s2.values - s1.values)
    dq = PiecewiseConstantField(mesh, q2.values - q1.values)
    assert upper == pytest.approx(-lambda_frechet_form(s1, q1, ds, dq, g, g), rel=1e-12)


def test_frechet_form_zero_direction(mesh_small):
    mesh = mesh_small
    sigma = sample_coefficient(mesh, "one")
    q = sample_coefficient(mesh, "one")
    zero = PiecewiseConstantField(mesh, np.zeros(mesh.n_elements))
    g = BoundaryTrace(mesh, np.sin(mesh.boundary_angles))
    assert lambda_frechet_form(sigma, q, zero, zero, g, g) == 0.0
    twin = TriMesh(mesh.nodes, mesh.elements, mesh.boundary_nodes)
    with pytest.raises(FieldError, match="^boundary values live on a different mesh$"):
        lambda_frechet_form(sigma, q, zero, zero, g, BoundaryTrace(twin, g.values))
    elsewhere = PiecewiseConstantField(twin, np.ones(mesh.n_elements))
    for d1, d2 in ((elsewhere, zero), (zero, elsewhere)):
        with pytest.raises(FieldError, match="^element values live on a different mesh$"):
            lambda_frechet_form(sigma, q, d1, d2, g, g)


def test_frechet_form_sign(mesh_small):
    mesh = mesh_small
    sigma = sample_coefficient(mesh, "one")
    q = sample_coefficient(mesh, "one")
    rng = np.random.default_rng(4)
    d1 = PiecewiseConstantField(mesh, rng.uniform(0.0, 1.0, mesh.n_elements))
    d2 = PiecewiseConstantField(mesh, rng.uniform(0.0, 1.0, mesh.n_elements))
    g = BoundaryTrace(mesh, 1.0 + np.sin(mesh.boundary_angles))
    assert lambda_frechet_form(sigma, q, d1, d2, g, g) <= 0.0


def test_frechet_form_matches_finite_difference(mesh_small):
    mesh = mesh_small
    sigma = sample_coefficient(mesh, "example1_sigma")
    q = sample_coefficient(mesh, "example1_q")
    m = mesh.boundary_mass
    rng = np.random.default_rng(5)
    d1 = PiecewiseConstantField(mesh, rng.uniform(-0.5, 0.5, mesh.n_elements))
    d2 = PiecewiseConstantField(mesh, rng.uniform(-0.5, 0.5, mesh.n_elements))
    gv = rng.standard_normal(mesh.n_boundary)
    g = BoundaryTrace(mesh, gv)
    form = lambda_frechet_form(sigma, q, d1, d2, g, g)
    t = 1e-3
    lam_p = build_ntd(mesh, PiecewiseConstantField(mesh, sigma.values + t * d1.values),
                      PiecewiseConstantField(mesh, q.values + t * d2.values))
    lam_m = build_ntd(mesh, PiecewiseConstantField(mesh, sigma.values - t * d1.values),
                      PiecewiseConstantField(mesh, q.values - t * d2.values))
    fd = float(gv @ (m @ ((lam_p.lam - lam_m.lam) @ gv))) / (2 * t)
    assert abs(fd - form) <= 1e-4 * abs(form)


"""Quadratic-form variance: Monte Carlo, enumeration, and C-free bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sign_fourth_moment_reference
from quadvar.models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    covariance_matrix,
    dependence_profile,
    generate_paths,
)
from quadvar.quadform import (
    brute_force_fourth_moment,
    brute_force_variance,
    fourth_moment_bound,
    gaussian_exact_variance,
    gaussian_test_matrix,
    general_variance_bound,
    hollow_variance_bound,
    linear_process_variance_bound,
    mc_fourth_moment,
    mc_variance,
)

HOLLOW_2 = np.array([[0.0, 1.0], [1.0, 0.0]])


# -------------------------------------------------------------- exact oracle


def test_gaussian_exact_variance_chi_square():
    # y'Iy with Sigma = I is chi-square(p): variance 2p
    for p in (1, 3, 7):
        assert gaussian_exact_variance(np.eye(p), np.eye(p)) == pytest.approx(2.0 * p)


def test_gaussian_exact_variance_off_diagonal():
    # var(2 X1 X2) = 4 for independent standard normals
    assert gaussian_exact_variance(np.eye(2), HOLLOW_2) == pytest.approx(4.0)


def test_gaussian_exact_variance_uses_symmetric_part():
    A = np.array([[0.0, 2.0], [0.0, 0.0]])
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    Sigma = covariance_matrix(GaussianAR1(rho=0.3), 2)
    assert gaussian_exact_variance(Sigma, A) == pytest.approx(
        gaussian_exact_variance(Sigma, sym)
    )


@pytest.mark.parametrize("scale", [1e170, 1.0, 1e-20])
def test_asymmetric_sigma_is_rejected_at_every_scale(scale):
    # the defect is half the largest entry at every scale; at 1e170 a sum of
    # squared entries overflows, and at 1e-20 the defect is far below 1
    Sigma = np.array([[1.0, 0.5], [0.0, 1.0]]) * scale
    profile = dependence_profile(RademacherIID(), 4)
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_exact_variance(Sigma, np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        linear_process_variance_bound(profile, Sigma, np.eye(2))


def test_symmetric_sigma_is_accepted_at_every_scale():
    Sigma = covariance_matrix(GaussianAR1(rho=0.3), 3)
    for scale in (1e150, 1e-20):
        got = gaussian_exact_variance(Sigma * scale, np.eye(3) / scale)
        assert got == pytest.approx(gaussian_exact_variance(Sigma, np.eye(3)), rel=1e-12)


# ----------------------------------------------------------------- brute force


def test_brute_force_hollow_ones_is_four():
    assert brute_force_variance(RademacherIID(), HOLLOW_2) == pytest.approx(4.0)


def test_brute_force_identity_is_constant():
    # sign vectors make X'IX = p identically, so the variance vanishes
    assert brute_force_variance(RademacherIID(), np.eye(3)) == pytest.approx(0.0)


def test_brute_force_agrees_across_sign_models_on_hollow():
    # overlapping-window products only enter through higher moments that a
    # hollow quadratic form never touches, so both sign models agree
    A = gaussian_test_matrix(6, seed=2, hollow=True)
    v_iid = brute_force_variance(RademacherIID(), A)
    v_mds = brute_force_variance(RademacherProductMDS(), A)
    assert v_iid == pytest.approx(v_mds, rel=1e-12)


def test_brute_force_rejects_large_p():
    with pytest.raises(ValueError):
        brute_force_variance(RademacherIID(), np.eye(21))


SIGN_MODELS = [RademacherIID(), RademacherProductMDS()]


@pytest.mark.parametrize("model", SIGN_MODELS)
def test_brute_force_fourth_moment_matches_the_moment_sum(model):
    # integer vectors keep every sum exact on both routes
    for p in range(1, 13):
        a = np.ones(p)
        assert brute_force_fourth_moment(model, a) == sign_fourth_moment_reference(model, a)
    rng = np.random.default_rng(3)
    for p in (1, 5, 9, 12):
        a = rng.standard_normal(p)
        want = sign_fourth_moment_reference(model, a)
        assert brute_force_fourth_moment(model, a) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model", SIGN_MODELS)
def test_brute_force_fourth_moment_is_the_rademacher_closed_form(model):
    # both sign models have the i.i.d. Rademacher law:
    # E (a'x)^4 = 3 (sum a^2)^2 - 2 sum a^4
    rng = np.random.default_rng(4)
    for p in range(1, 17):
        ones = np.ones(p)
        assert brute_force_fourth_moment(model, ones) == 3.0 * p * p - 2.0 * p
        a = rng.standard_normal(p)
        want = 3.0 * float(np.sum(a**2)) ** 2 - 2.0 * float(np.sum(a**4))
        assert brute_force_fourth_moment(model, a) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("model", SIGN_MODELS)
def test_brute_force_fourth_moment_rejects_large_p(model):
    with pytest.raises(ValueError, match="enumeration capped at p = 20, got 21"):
        brute_force_fourth_moment(model, np.ones(21))


# --------------------------------------------------------------- Monte Carlo


def test_mc_variance_is_deterministic_in_seed():
    est1 = mc_variance(GaussianAR1(rho=0.5), HOLLOW_2, 5000, seed=4)
    est2 = mc_variance(GaussianAR1(rho=0.5), HOLLOW_2, 5000, seed=4)
    assert est1 == est2


def test_mc_variance_matches_numpy_var_on_the_same_paths():
    # oracle: each replicate's form x'Ax through BLAS, then numpy's own var
    model = GaussianAR1(rho=0.5)
    A = gaussian_test_matrix(8, seed=1)
    paths = generate_paths(model, 8, 12, 20000)
    q = np.array([x @ A @ x for x in paths])
    est = mc_variance(model, A, 20000, seed=12)
    assert est.variance == pytest.approx(np.var(q, ddof=1), rel=1e-12)
    assert est.mean == pytest.approx(np.mean(q), rel=1e-12)


def test_mc_variance_tracks_exact_gaussian():
    model = GaussianAR1(rho=0.5)
    A = gaussian_test_matrix(8, seed=1)
    exact = gaussian_exact_variance(covariance_matrix(model, 8), A)
    est = mc_variance(model, A, 40000, seed=10)
    assert abs(est.variance - exact) <= 4.0 * est.std_error
    assert est.std_error > 0.0
    assert est.replicates == 40000


def test_mc_variance_tracks_brute_force():
    model = RademacherProductMDS()
    A = gaussian_test_matrix(7, seed=3, hollow=True)
    exact = brute_force_variance(model, A)
    est = mc_variance(model, A, 40000, seed=11)
    assert abs(est.variance - exact) <= 4.0 * est.std_error


def test_mc_fourth_moment_tracks_gaussian_closed_form():
    model = GaussianAR1(rho=0.4)
    a = np.ones(5)
    Sigma = covariance_matrix(model, 5)
    exact = 3.0 * float(a @ Sigma @ a) ** 2
    mean, se = mc_fourth_moment(model, a, 40000, seed=12)
    assert abs(mean - exact) <= 4.0 * se


# --------------------------------------------------------------------- bounds


def test_hollow_bound_components_on_known_profile():
    # AR(1) rho=0.5: sup E X^4 = 3, lag-weighted sum = 3*0.5/0.25 = 6
    profile = dependence_profile(GaussianAR1(rho=0.5), 64)
    report = hollow_variance_bound(profile, HOLLOW_2)
    assert report.coefficient_sum == pytest.approx(9.0, rel=1e-12)
    assert report.trace_term == pytest.approx(2.0)  # tr(AA') for the swap matrix
    assert report.bound_value == pytest.approx(18.0, rel=1e-12)
    assert report.bound_kind == "hollow_variance"


def test_hollow_bound_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        hollow_variance_bound(dependence_profile(RademacherIID(), 4), np.eye(2))


def test_general_bound_adds_square_covariance_mass():
    profile = dependence_profile(GaussianAR1(rho=0.5), 64)
    hollow = hollow_variance_bound(profile, HOLLOW_2)
    general = general_variance_bound(profile, HOLLOW_2)
    assert general.coefficient_sum == pytest.approx(
        hollow.coefficient_sum + 2.0 * 0.25 / 0.75, rel=1e-10
    )
    assert general.bound_kind == "general_variance"


def test_linear_process_bound_uses_sandwiched_trace():
    model = GaussianAR1(rho=0.5)
    profile = dependence_profile(model, 64)
    Sigma = covariance_matrix(model, 4)
    A = gaussian_test_matrix(4, seed=5)
    report = linear_process_variance_bound(profile, Sigma, A)
    expected = float(np.trace(Sigma @ A @ Sigma @ A.T))
    assert report.trace_term == pytest.approx(expected, rel=1e-12)
    assert report.bound_kind == "linear_process_variance"


def test_fourth_moment_bound_scale():
    profile = dependence_profile(RademacherIID(), 8)
    a = np.array([1.0, -2.0, 0.5])
    report = fourth_moment_bound(profile, a)
    assert report.bound_value == pytest.approx(float(a @ a) ** 2, rel=1e-12)


@given(scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_bounds_are_quadratic_in_the_matrix(scale):
    profile = dependence_profile(GaussianAR1(rho=0.3), 32)
    A = gaussian_test_matrix(5, seed=6, hollow=True)
    base = hollow_variance_bound(profile, A).bound_value
    scaled = hollow_variance_bound(profile, scale * A).bound_value
    assert scaled == pytest.approx(scale**2 * base, rel=1e-9)


@given(rho=st.floats(min_value=-0.85, max_value=0.85), seed=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_exact_variance_never_exceeds_certified_bound(rho, seed):
    """The constant-free bound holds with factor 3 over random instances."""
    model = GaussianAR1(rho=rho)
    profile = dependence_profile(model, 64)
    A = gaussian_test_matrix(10, seed=seed)
    exact = gaussian_exact_variance(covariance_matrix(model, 10), A)
    assert exact <= 3.0 * general_variance_bound(profile, A).bound_value + 1e-9


def test_gaussian_test_matrix_is_reproducible():
    assert np.array_equal(gaussian_test_matrix(4, seed=8), gaussian_test_matrix(4, seed=8))
    assert not np.array_equal(gaussian_test_matrix(4, seed=8), gaussian_test_matrix(4, seed=9))
    assert np.all(np.diag(gaussian_test_matrix(4, seed=8, hollow=True)) == 0.0)

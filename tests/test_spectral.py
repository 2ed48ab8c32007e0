"""Spectral limits: fixed-point solver, in-house eigen route, limit CDF."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from quadvar.models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    covariance_matrix,
    generate_paths,
)
from quadvar.spectral import (
    ConvergenceError,
    NotPositiveDefiniteError,
    SpectralModel,
    _defining_residual,
    _sturm_eigenvalues,
    _tridiagonalise,
    cholesky,
    density_from_stieltjes,
    density_grid,
    effective_spectral_model,
    empirical_stieltjes,
    kolmogorov_distance,
    limit_cdf,
    limit_stieltjes,
    mp_stieltjes,
    population_sigma,
    sample_covariance_matrix,
    scaled_paths,
    symmetric_eigenvalues,
)

UNIT = SpectralModel(atoms=((1.0, 1.0),), c=0.5)
TWO_ATOM = SpectralModel(atoms=((1.0, 0.5), (3.0, 0.5)), c=0.5)


# ---------------------------------------------------------------- model setup


def test_spectral_model_rejects_bad_weights():
    with pytest.raises(ValueError):
        SpectralModel(atoms=((1.0, 0.4), (2.0, 0.4)), c=0.5)
    with pytest.raises(ValueError):
        SpectralModel(atoms=((1.0, 1.0),), c=0.0)


def test_population_sigma_largest_remainder_ties_to_smaller_atom():
    # 5 slots at half weight each: 2.5/2.5 rounds to 3 of the smaller and 2
    # of the larger eigenvalue
    Sigma = population_sigma(TWO_ATOM, 5)
    assert np.array_equal(np.diag(Sigma), np.array([1.0, 1.0, 1.0, 3.0, 3.0]))
    assert np.array_equal(Sigma, np.diag(np.diag(Sigma)))


def test_population_sigma_exact_split():
    Sigma = population_sigma(TWO_ATOM, 4)
    assert sorted(np.diag(Sigma)) == [1.0, 1.0, 3.0, 3.0]


# ------------------------------------------------------------------- cholesky


def test_cholesky_hand_case():
    G = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(G, np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-14)


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((6, 6))
    S = B @ B.T + 6.0 * np.eye(6)
    G = cholesky(S)
    assert np.allclose(G @ G.T, S, atol=1e-10)
    assert np.allclose(G, np.tril(G))


def test_cholesky_flags_indefinite_pivot():
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert err.value.pivot_index == 1


# ----------------------------------------------------------------- eigenvalues


def test_symmetric_eigenvalues_matches_lapack_routes():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((20, 20))
    S = (B + B.T) / 2.0
    ours = symmetric_eigenvalues(S)
    lapack = np.linalg.eigvalsh(S)
    assert np.allclose(np.sort(ours), np.sort(lapack), atol=1e-10)


def test_symmetric_eigenvalues_requires_symmetry():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "S",
    [
        np.ones((2, 3)),
        np.ones(3),
        np.zeros((0, 0)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        1e170 * np.array([[1.0, 2.0], [0.0, 1.0]]),  # its Frobenius norm overflows
    ],
    ids=["non_square", "one_dimensional", "empty", "nan", "inf", "asymmetric_1e170"],
)
def test_symmetric_eigenvalues_rejects_bad_input(S):
    with pytest.raises(ValueError):
        symmetric_eigenvalues(S)


def _eigen_test_matrix(kind: str, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        B = rng.standard_normal((p, p))
        return (B + B.T) / 2.0
    if kind == "repeated_diagonal":  # the shape of population_sigma
        k = int(rng.integers(1, min(4, p) + 1))
        atoms = tuple((float(lam), 1.0 / k) for lam in rng.uniform(0.5, 5.0, k))
        return population_sigma(SpectralModel(atoms=atoms, c=0.5), p)
    if kind == "block_diagonal":  # zero columns under the diagonal
        S = np.zeros((p, p))
        cut = int(rng.integers(1, p)) if p > 1 else 1
        for a, b in ((0, cut), (cut, p)):
            B = rng.standard_normal((b - a, b - a))
            S[a:b, a:b] = (B + B.T) / 2.0
        return S
    # a Gram matrix of rank n < p, zero eigenvalues included
    n = int(rng.integers(1, p)) if p > 1 else 1
    Y = rng.standard_normal((p, n))
    S = Y @ Y.T / n
    return (S + S.T) / 2.0


@given(
    kind=st.sampled_from(["random", "repeated_diagonal", "block_diagonal", "rank_deficient"]),
    p=st.integers(min_value=1, max_value=60),
    scale=st.sampled_from([1e-170, 1e-6, 1.0, 1e6, 1e170]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_symmetric_eigenvalues_meet_lapack_error_bound(kind, p, scale, seed):
    """|lambda - lambda_LAPACK| <= 4 p eps ||S||_F, in at most 64 bisection steps.

    Both routes carry an O(p eps ||S||_F) error.  The constant 4 comes from
    measurement: the worst ratio was 1.8 in 4000 draws of this test and 2.56
    in 40 000 seeded draws with p <= 8, where the ratio peaks (p = 3; an
    mpmath reference put LAPACK's own error there at up to 5.5 eps ||S||_F).
    At 1e-170 and 1e170 a plain sum of squares would underflow or overflow.
    """
    S = scale * _eigen_test_matrix(kind, p, seed)
    ours = symmetric_eigenvalues(S)
    lapack = np.linalg.eigvalsh(S)
    frobenius = scale * np.linalg.norm(S / scale)  # the plain norm overflows at 1e170
    bound = 4.0 * p * np.finfo(float).eps * frobenius
    assert np.all(np.diff(ours) >= 0.0)
    assert np.max(np.abs(ours - lapack)) <= bound
    d, e = _tridiagonalise(S)
    if kind == "block_diagonal" and p > 1:
        assert np.any(e == 0.0)  # the reduction kept the blocks apart
    vals, steps = _sturm_eigenvalues(d, e)
    assert np.array_equal(vals, ours)
    assert steps <= 64


def test_eigen_alias_is_the_route_and_the_effective_law_bypasses_it(monkeypatch):
    """The benchmark traces the eigen route by the identity of
    ``jacobi_eigenvalues`` and counts the dimension of every matrix passed to
    it; the effective law must reach the route through the private helpers,
    so its reference matrix is not counted."""
    import quadvar.spectral as spectral

    assert spectral.jacobi_eigenvalues is spectral.symmetric_eigenvalues

    def refuse(S):
        raise AssertionError("effective_spectral_model called the public eigen route")

    monkeypatch.setattr(spectral, "symmetric_eigenvalues", refuse)
    monkeypatch.setattr(spectral, "jacobi_eigenvalues", refuse)
    eff = spectral.effective_spectral_model(GaussianAR1(rho=0.5), UNIT, p_ref=50)
    assert len(eff.atoms) == 50


# ------------------------------------------------------------------ transforms


def test_empirical_stieltjes_single_point():
    # one eigenvalue at 1: m(i) = 1/(1 - i) = (1 + i)/2
    got = empirical_stieltjes(np.array([1.0]), 1j)
    assert got == pytest.approx((1.0 + 1.0j) / 2.0, abs=1e-15)


def test_mp_stieltjes_square_case_frozen_value():
    got = mp_stieltjes(1.0, 1j)
    assert got.real == pytest.approx(0.3002425902201204, abs=1e-13)
    assert got.imag == pytest.approx(0.6248105338438266, abs=1e-13)


@given(
    c=st.floats(min_value=0.05, max_value=4.0),
    x=st.floats(min_value=-3.0, max_value=8.0),
    y=st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_mp_stieltjes_solves_its_quadratic_in_the_upper_half_plane(c, x, y):
    z = complex(x, y)
    m = mp_stieltjes(c, z)
    assert m.imag > 0.0
    residual = c * z * m * m + (z - (1.0 - c)) * m + 1.0
    assert abs(residual) <= 1e-9 * max(1.0, abs(z) ** 2)


def test_limit_stieltjes_matches_closed_form_on_unit_atom():
    for c in (0.1, 0.5, 1.0, 2.0):
        law = SpectralModel(atoms=((1.0, 1.0),), c=c)
        z = 2.0 + 1.0j
        sv = limit_stieltjes(law, z)
        assert abs(sv.m - mp_stieltjes(c, z)) <= 1e-10
        assert sv.residual <= 1e-12
        assert sv.m.imag > 0.0


def test_limit_stieltjes_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        limit_stieltjes(UNIT, 1.0 - 1.0j)


def test_limit_stieltjes_raises_when_budget_too_small():
    with pytest.raises(ConvergenceError):
        limit_stieltjes(UNIT, 1.0 + 1e-6j, tol=1e-14, max_iter=2)


@given(
    lam2=st.floats(min_value=0.5, max_value=5.0),
    c=st.floats(min_value=0.1, max_value=3.0),
    x=st.floats(min_value=-2.0, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_limit_stieltjes_is_herglotz_on_two_atom_models(lam2, c, x):
    """Any solution must map the upper half-plane into itself with |m| <= 1/Im z."""
    law = SpectralModel(atoms=((1.0, 0.5), (lam2, 0.5)), c=c)
    z = complex(x, 0.7)
    sv = limit_stieltjes(law, z)
    assert sv.m.imag > 0.0
    assert abs(sv.m) <= 1.0 / z.imag + 1e-12
    assert sv.residual <= 1e-12


def _two_atom_root(lam2: float, c: float, z: complex) -> complex:
    """Independent oracle for the law {1, lam2} with weights 1/2 each.

    With a = 1 - c - c z m and D_k = lambda_k a - z, the limit equation times
    D_1 D_2 is the cubic m D_1 D_2 - (D_1 + D_2)/2 = 0.  The Stieltjes value is
    its one root with Im m > 0 whose companion v = -(1-c)/z + c m also has
    positive imaginary part.  A root whose Im m or Im v is within rounding of
    zero is no candidate: at lam2 = 1 the cubic gains the root D_1 = D_2 = 0,
    a pole of the equation that lies on the real axis.
    """
    a = Polynomial([1.0 - c, -c * z])
    d1, d2 = a - z, lam2 * a - z
    cubic = Polynomial([0.0, 1.0]) * d1 * d2 - 0.5 * (d1 + d2)
    roots = []
    for m in cubic.roots():
        v = c * m - (1.0 - c) / z
        if m.imag > 1e-9 * abs(m) and v.imag > 1e-9 * abs(v):
            roots.append(complex(m))
    assert len(roots) == 1, roots
    # Newton on the cubic in extended precision, evaluated from its factors,
    # refines the root below double-precision rounding.
    m, z_l = np.clongdouble(roots[0]), np.clongdouble(z)
    lam2_l, c_l = np.longdouble(lam2), np.longdouble(c)
    for _ in range(3):
        a = 1 - c_l - c_l * z_l * m
        d1, d2 = a - z_l, lam2_l * a - z_l
        d1_m, d2_m = -c_l * z_l, -lam2_l * c_l * z_l
        value = m * d1 * d2 - (d1 + d2) / 2
        slope = d1 * d2 + m * (d1_m * d2 + d1 * d2_m) - (d1_m + d2_m) / 2
        m = m - value / slope
    return complex(m)


@pytest.mark.parametrize(
    "c_max, log10_height_min",
    [(1.0, -3.0), (3.0, -2.0)],
    ids=["c_le_1_height_1e-3", "c_le_3_height_1e-2"],
)
@given(
    lam2=st.floats(min_value=0.5, max_value=5.0),
    c_frac=st.floats(min_value=0.0, max_value=1.0),
    x=st.floats(min_value=-2.0, max_value=8.0),
    h_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_limit_stieltjes_matches_cubic_root_on_two_atom_models(
    c_max, log10_height_min, lam2, c_frac, x, h_frac
):
    """The solver agrees with the polynomial root, meets tol = 1e-12, and
    stays within 100 steps even at heights down to 1e-3.

    Where even the correctly rounded root has a defining residual above
    tol / 2 in double precision, no solver can certify tol; that happens for
    c > 1 next to the origin (c = 3, lam2 = 2, z = 0.01i: 1.35e-12 at best),
    and those points are left out.
    """
    c = 0.1 + (c_max - 0.1) * c_frac
    z = complex(x, 10.0 ** (log10_height_min * (1.0 - h_frac)))
    root = _two_atom_root(lam2, c, z)
    lam, w = np.array([1.0, lam2]), np.array([0.5, 0.5])
    assume(_defining_residual(lam, w, c, np.array([z]), np.array([root]))[0] <= 0.5e-12)
    sv = limit_stieltjes(SpectralModel(atoms=((1.0, 0.5), (lam2, 0.5)), c=c), z)
    assert abs(sv.m - root) <= 1e-10 * max(1.0, abs(root))
    assert sv.residual <= 1e-12
    assert sv.iterations <= 100


def test_limit_stieltjes_recovers_from_spurious_damped_root():
    """At c=3, z=0.7i the defining equation has a fixed point with Im m < 0
    that a damped iteration of m <- F(m) settles on; the solver must return
    the Stieltjes branch instead."""
    law = SpectralModel(atoms=((1.0, 0.5), (2.0, 0.5)), c=3.0)
    sv = limit_stieltjes(law, 0.7j)
    assert sv.residual <= 1e-12
    # the zero atom alone (mass 1 - 1/c) forces Im m(i eta) >= (1 - 1/c)/eta
    assert sv.m.imag >= (1.0 - 1.0 / 3.0) / 0.7
    assert sv.m.real >= 0.0
    # frozen against an empirical transform at p = 1500 (agreement ~1e-4)
    assert sv.m == pytest.approx(0.09955987968406477 + 0.9865336948933542j, abs=1e-12)


# --------------------------------------------------------------------- density


def test_density_square_case_spot_value():
    got = density_from_stieltjes(SpectralModel(atoms=((1.0, 1.0),), c=1.0), 1.0)
    assert got == pytest.approx(np.sqrt(3.0) / (2.0 * np.pi), abs=5e-3)


def test_density_vanishes_off_support():
    law = UNIT
    # support of the quarter-circle-type law at c=0.5 is [(1-sqrt(.5))^2, (1+sqrt(.5))^2]
    assert density_from_stieltjes(law, 4.0) <= 2e-3
    assert density_from_stieltjes(law, -1.0) <= 2e-3


def test_density_grid_matches_pointwise_solves():
    xs = np.array([0.5, 1.0, 1.5])
    grid = density_grid(UNIT, xs, epsilon=1e-2, tol=1e-9)
    single = [density_from_stieltjes(UNIT, float(x), epsilon=1e-2, tol=1e-9) for x in xs]
    assert np.allclose(grid, single, atol=1e-9)


# ------------------------------------------------------------------- limit CDF


def test_limit_cdf_is_a_distribution_function():
    cdf = limit_cdf(UNIT)
    xs = np.linspace(-1.0, 6.0, 200)
    values = np.array([cdf(float(x)) for x in xs])
    assert np.all(np.diff(values) >= -1e-12)
    assert cdf(-0.5) == 0.0
    assert cdf(6.0) == pytest.approx(1.0, abs=1e-6)


def test_limit_cdf_places_point_mass_at_zero_when_c_exceeds_one():
    cdf = limit_cdf(SpectralModel(atoms=((1.0, 1.0),), c=2.0))
    assert cdf(0.02) >= 0.45  # mass 1 - 1/c = 0.5 sits at the origin
    assert cdf(0.02) <= 0.55


def _marchenko_pastur_cdf(c: float, xs: np.ndarray) -> np.ndarray:
    """CDF of the unit-atom law at c < 1, by fine quadrature of its density.

    Under x = (a+b)/2 + (b-a)/2 cos(theta) the density
    sqrt((b-x)(x-a)) / (2 pi c x) times dx/dtheta is smooth on [0, pi].
    """
    a, b = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    theta = np.linspace(0.0, math.pi, 200001)
    x = (a + b) / 2.0 + (b - a) / 2.0 * np.cos(theta)
    integrand = ((b - a) / 2.0) ** 2 * np.sin(theta) ** 2 / (2.0 * math.pi * c * x)
    pieces = np.diff(theta) * (integrand[1:] + integrand[:-1]) / 2.0
    tail = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])  # mass in [a, x]
    assert tail[0] == pytest.approx(1.0, abs=1e-9)
    query = np.arccos(np.clip((2.0 * xs - a - b) / (b - a), -1.0, 1.0))
    return np.interp(query, theta, tail)


@pytest.mark.parametrize("c", [0.1, 0.25, 0.5])
def test_limit_cdf_matches_marchenko_pastur_cdf(c):
    """c = 1 is left out: its hard edge at 0 puts the sup distance at 0.024."""
    a, b = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2
    xs = np.linspace(a, b, 2001)
    cdf = limit_cdf(SpectralModel(atoms=((1.0, 1.0),), c=c))
    assert np.max(np.abs(cdf(xs) - _marchenko_pastur_cdf(c, xs))) <= 3e-3


def test_limit_cdf_rejects_nonpositive_atoms():
    with pytest.raises(ValueError):
        limit_cdf(SpectralModel(atoms=((0.0, 0.5), (2.0, 0.5)), c=0.5))


# ------------------------------------------------------------------- distances


def test_kolmogorov_distance_point_mass_vs_uniform():
    esd = np.array([1.0])
    assert kolmogorov_distance(esd, lambda t: min(max(t, 0.0), 1.0)) == pytest.approx(1.0)


def test_kolmogorov_distance_hits_quantile_floor():
    # midpoint quantiles of U[0,1] are the best p-point approximation: the
    # two-sided breakpoint measure gives exactly 1/(2p)
    esd = np.array([0.125, 0.375, 0.625, 0.875])
    got = kolmogorov_distance(esd, lambda t: np.clip(t, 0.0, 1.0))
    assert got == pytest.approx(1.0 / 8.0, abs=1e-15)


# ----------------------------------------------------------- effective spectra


def test_effective_spectral_model_passes_white_noise_through():
    model = GaussianAR1(rho=0.0)
    assert effective_spectral_model(model, TWO_ATOM) == TWO_ATOM


@pytest.mark.parametrize(
    "model", [GaussianMA(coeffs=(2.0,)), RademacherIID(), RademacherProductMDS()]
)
def test_effective_spectral_model_passes_other_white_noise_models_through(model):
    assert effective_spectral_model(model, TWO_ATOM) == TWO_ATOM


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 0.0, -0.5),  # C(1) = 0 and C(2) = -0.4 < 0
        (1.0,) + (0.0,) * 68 + (1.0,),  # C(j) = 0 for j < 69, C(69) = 0.5
    ],
)
def test_effective_spectral_model_sees_dependent_moving_averages(coeffs):
    model = GaussianMA(coeffs=coeffs)
    p_ref = 100
    eff = effective_spectral_model(model, TWO_ATOM, p_ref=p_ref)
    scale = np.sqrt(np.diag(population_sigma(TWO_ATOM, p_ref)))
    true_cov = scale[:, None] * covariance_matrix(model, p_ref) * scale[None, :]
    assert len(eff.atoms) == p_ref
    assert np.allclose(eff.lambdas, np.linalg.eigvalsh(true_cov), atol=1e-12)
    assert not np.allclose(eff.lambdas, np.diag(population_sigma(TWO_ATOM, p_ref)))


def test_effective_spectral_model_widen_under_serial_dependence():
    model = GaussianAR1(rho=0.5)
    eff = effective_spectral_model(model, UNIT, p_ref=400)
    lams = np.array([lam for lam, _ in eff.atoms])
    wts = np.array([w for _, w in eff.atoms])
    # first moment is preserved (unit trace), second moment grows to
    # (1/p) tr(T^2) -> (1 + rho^2)/(1 - rho^2) = 5/3
    assert float(wts @ lams) == pytest.approx(1.0, abs=1e-10)
    assert float(wts @ lams**2) == pytest.approx(5.0 / 3.0, abs=5e-3)
    assert eff.c == UNIT.c


def test_sample_covariance_matrix_shape_and_psd():
    model = GaussianAR1(rho=0.5)
    S = sample_covariance_matrix(model, TWO_ATOM, 12, 24, seed=6)
    assert S.shape == (12, 12)
    assert np.allclose(S, S.T)
    assert np.min(np.linalg.eigvalsh(S)) >= -1e-12


def test_scaled_paths_equal_the_cholesky_product_bit_for_bit():
    # the factor is diagonal, so each entry of the BLAS product is one
    # rounded product plus exact zeros: the same bits as the entrywise scaling
    model = GaussianAR1(rho=0.5)
    G = cholesky(population_sigma(TWO_ATOM, 100))
    oracle = G @ generate_paths(model, 100, 6, 200).T
    assert np.array_equal(scaled_paths(model, TWO_ATOM, 100, 200, seed=6), oracle)


def test_sample_covariance_matrix_is_symmetric_and_matches_blas_gram():
    model = GaussianAR1(rho=0.5)
    S = sample_covariance_matrix(model, TWO_ATOM, 100, 200, seed=6)
    assert np.array_equal(S, S.T)
    G = cholesky(population_sigma(TWO_ATOM, 100))
    Y = G @ generate_paths(model, 100, 6, 200).T
    oracle = (Y @ Y.T) / 200
    assert np.max(np.abs(S - oracle)) <= 1e-12 * np.max(np.abs(oracle))

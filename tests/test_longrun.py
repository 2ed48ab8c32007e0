"""Kernels, long-run variance estimation, and the bias/variance envelopes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cumulant_sum, fourth_cumulant, lrv_mc_mse_reference
from quadvar import models
from quadvar.longrun import (
    Kernel,
    _autocov_tail_sum,
    _lag_sums,
    check_assumptions,
    estimate_lrv,
    exact_bias,
    gamma_q,
    kernel_envelope,
    kernel_eval,
    kernel_kq,
    lrv_true,
    mc_mse,
    mse_bound,
    variance_bound_c_free,
)
from quadvar.models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    autocovariance,
    dependence_profile,
    generate_paths,
)

NAMED_KERNELS = [
    Kernel("bartlett"),
    Kernel("parzen"),
    Kernel("quadratic_spectral"),
    Kernel("truncated"),
]


# -------------------------------------------------------------------- kernels


def test_kernel_eval_closed_values():
    assert kernel_eval(Kernel("bartlett"), 0.5) == pytest.approx(0.5, abs=1e-15)
    assert kernel_eval(Kernel("bartlett"), 1.5) == 0.0
    assert kernel_eval(Kernel("parzen"), 0.25) == pytest.approx(0.71875, abs=1e-15)
    assert kernel_eval(Kernel("parzen"), 0.75) == pytest.approx(0.03125, abs=1e-15)
    assert kernel_eval(Kernel("truncated"), 0.999) == 1.0
    assert kernel_eval(Kernel("truncated"), 1.001) == 0.0
    # QS at 6*pi*x/5 = pi: sinc term 0, cosine term -(-1): K = 3/pi^2
    assert kernel_eval(Kernel("quadratic_spectral"), 5.0 / 6.0) == pytest.approx(
        3.0 / math.pi**2, abs=1e-14
    )


def test_kernels_are_one_at_zero_and_reject_negative_arguments():
    for kernel in NAMED_KERNELS:
        assert kernel_eval(kernel, 0.0) == 1.0
        with pytest.raises(ValueError):
            kernel_eval(kernel, -0.3)


def test_quadratic_spectral_series_agrees_with_direct_form_at_seam():
    # the small-argument series takes over below a = 1.2 pi x = 0.05; just
    # inside that region it must coincide with the cancellation-prone closed
    # form to far better than the switch threshold
    kernel = Kernel("quadratic_spectral")
    x = 0.049 / (1.2 * math.pi)
    a = 1.2 * math.pi * x
    direct = 25.0 / (12.0 * math.pi**2 * x**2) * (math.sin(a) / a - math.cos(a))
    assert kernel_eval(kernel, x) == pytest.approx(direct, abs=1e-12)


def test_kernel_eval_vectorizes():
    xs = np.array([0.0, 0.25, 0.5, 2.0])
    got = kernel_eval(Kernel("bartlett"), xs)
    assert np.array_equal(got, np.array([1.0, 0.75, 0.5, 0.0]))


def test_tabulated_kernel_validates_grid():
    with pytest.raises(ValueError):
        Kernel.tabulated([0.5, 1.0], [1.0, 0.0])  # grid must start at 0
    with pytest.raises(ValueError):
        Kernel.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 0.0])  # strictly increasing
    with pytest.raises(ValueError):
        Kernel.tabulated([0.0, 1.0], [0.9, 0.0])  # K(0) = 1


def test_tabulated_from_csv_round_trip(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("# comment\nx,value\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
    kernel = Kernel.from_csv(path)
    assert kernel_eval(kernel, 0.25) == pytest.approx(0.75, abs=1e-15)
    assert kernel_eval(kernel, 2.0) == 0.0


# ------------------------------------------------------------------- envelopes


@given(
    x1=st.floats(min_value=0.0, max_value=8.0),
    x2=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=80, deadline=None)
@example(x1=4.115364954008553, x2=4.115364954008553)  # between quadratic spectral nodes
def test_envelope_is_nonincreasing_and_dominates(x1, x2):
    lo, hi = sorted((x1, x2))
    for kernel in NAMED_KERNELS:
        env_lo = kernel_envelope(kernel, lo)
        env_hi = kernel_envelope(kernel, hi)
        assert env_lo >= env_hi
        assert env_hi >= abs(kernel_eval(kernel, hi))


def test_quadratic_spectral_far_tail_envelope_is_finite():
    kernel = Kernel("quadratic_spectral")
    far = kernel_envelope(kernel, 300.0)
    assert 0.0 < far < 1e-4
    assert far >= abs(kernel_eval(kernel, 300.0))


def test_envelope_square_integrals():
    assert check_assumptions(Kernel("bartlett")).envelope_sq_integral == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert check_assumptions(Kernel("parzen")).envelope_sq_integral == pytest.approx(
        151.0 / 560.0, abs=1e-15
    )
    assert check_assumptions(Kernel("truncated")).envelope_sq_integral == pytest.approx(
        1.0, abs=1e-15
    )
    qs = check_assumptions(Kernel("quadratic_spectral")).envelope_sq_integral
    assert qs == pytest.approx(0.50243970, abs=1e-5)
    assert math.isfinite(qs)


# ------------------------------------------------------------------- curvature


def test_kernel_kq_closed_forms():
    assert kernel_kq(Kernel("bartlett")) == (1.0, -1.0)
    assert kernel_kq(Kernel("parzen")) == (2.0, -6.0)
    q, kq = kernel_kq(Kernel("quadratic_spectral"))
    assert q == 2.0
    assert kq == pytest.approx(-18.0 * math.pi**2 / 125.0, abs=1e-15)
    assert kernel_kq(Kernel("truncated")) == (math.inf, 0.0)


def test_kernel_kq_certifies_tabulated_triangle():
    grid = [i / 1024 for i in range(1025)]
    values = [1.0 - x for x in grid]
    q, kq = kernel_kq(Kernel.tabulated(grid, values))
    assert q == pytest.approx(1.0, abs=1e-9)
    assert kq == pytest.approx(-1.0, abs=1e-9)


def test_kernel_kq_flat_first_segment_is_degenerate():
    kernel = Kernel.tabulated([0.0, 0.125, 1.0], [1.0, 1.0, 0.0])
    assert kernel_kq(kernel) == (math.inf, 0.0)


def test_kernel_kq_refuses_unresolvable_table():
    kernel = Kernel.tabulated([0.0, 2.0**-43], [1.0, 0.5])
    with pytest.raises(ValueError):
        kernel_kq(kernel)


def test_check_assumptions_pass_fail_matrix():
    for kernel in NAMED_KERNELS:
        report = check_assumptions(kernel)
        assert report.bounded and report.square_integrable and report.curvature_limit
        assert report.all_pass
    assert check_assumptions(Kernel("truncated")).degenerate_limit
    assert not check_assumptions(Kernel("bartlett")).degenerate_limit
    broken = check_assumptions(Kernel.tabulated([0.0, 2.0**-43], [1.0, 0.5]))
    assert not broken.curvature_limit
    assert not broken.all_pass


# ------------------------------------------------------------------ estimation


def _naive_lrv(values: np.ndarray, kernel: Kernel, m: float) -> float:
    n = values.size
    total = float(values @ values)
    for j in range(1, n):
        weight = float(kernel_eval(kernel, j / m))
        if weight != 0.0:
            total += 2.0 * weight * float(values[:-j] @ values[j:])
    return total / n


def test_estimate_lrv_matches_naive_sum_for_every_kernel():
    path = generate_paths(GaussianAR1(rho=0.5), 200, seed=21, count=3)[1]
    table = Kernel.tabulated([i / 64 for i in range(65)], [1.0 - i / 64 for i in range(65)])
    for kernel in NAMED_KERNELS + [table]:
        est = estimate_lrv(path, kernel, 12.0)
        assert est == pytest.approx(_naive_lrv(path, kernel, 12.0), rel=1e-12)


# n + lags at, and one past, a power of two, and every lag of a path
@pytest.mark.parametrize("n, lags", [(1, 0), (2, 1), (8, 0), (9, 0), (100, 28), (100, 29), (100, 99)])
def test_lag_sums_match_direct_sums_at_every_lag(n, lags):
    rows = generate_paths(GaussianAR1(rho=0.5), n, seed=24, count=3)
    got = _lag_sums(rows, lags)
    assert got.shape == (3, lags + 1)
    for sums, row in zip(got, rows):
        want = [math.fsum(row[: n - j] * row[j:]) for j in range(lags + 1)]
        assert np.allclose(sums, want, rtol=0.0, atol=1e-12 * want[0])


@pytest.mark.parametrize("kernel", NAMED_KERNELS, ids=lambda k: k.variant)
def test_mc_mse_is_the_mean_over_the_rows_of_estimate_lrv(monkeypatch, kernel):
    # interleaved n, a repeated point, and (for the finite-support kernels)
    # m = 2 and m = 450 at n = 600 in 1024- and 2048-point transforms; one
    # row a chunk at the widest transform, so every chunk boundary is crossed
    monkeypatch.setattr(models, "_CHUNK_DOUBLES", 2048)
    cfg = SimpleNamespace(model=GaussianAR1(rho=0.5), kernel=kernel, seed=23, replicates=9)
    sweep = [(300, 2.0), (600, 450.0), (600, 2.0), (300, 8.0), (600, 2.0)]
    got = mc_mse(cfg.model, kernel, sweep, cfg.replicates, cfg.seed)
    assert len(got) == len(sweep)
    sigma2 = lrv_true(cfg.model)
    for value, (n, m) in zip(got, sweep):
        assert value.hex() == lrv_mc_mse_reference(cfg, n, m, sigma2).hex(), (n, m)


def test_estimate_lrv_rejects_bad_paths_and_bandwidths():
    kernel = Kernel("bartlett")
    with pytest.raises(ValueError, match="1-D"):
        estimate_lrv(np.ones((2, 5)), kernel, 2.0)
    with pytest.raises(ValueError, match="non-empty"):
        estimate_lrv(np.array([]), kernel, 2.0)
    for m in (0.0, -1.0):
        with pytest.raises(ValueError, match="bandwidth"):
            estimate_lrv(np.ones(5), kernel, m)


def test_estimate_lrv_mean_tracks_exact_bias():
    model = GaussianAR1(rho=0.5)
    kernel = Kernel("bartlett")
    n, m, reps = 1000, 10.0, 2000
    paths = generate_paths(model, n, seed=22, count=reps)
    values = np.array([estimate_lrv(row, kernel, m) for row in paths])
    expected = lrv_true(model) + exact_bias(model, kernel, m, n).exact
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - expected) <= 4.0 * se


# ------------------------------------------------------------------ true value


def test_lrv_true_closed_forms():
    assert lrv_true(GaussianAR1(rho=0.5)) == pytest.approx(3.0, rel=1e-14)
    # MA with unit-variance normalisation: (sum c)^2 / sum c^2
    assert lrv_true(GaussianMA(coeffs=(0.6, 0.3, 0.1))) == pytest.approx(
        1.0 / 0.46, rel=1e-12
    )
    assert lrv_true(RademacherIID()) == 1.0
    assert lrv_true(RademacherProductMDS()) == 1.0


ALL_MODELS = [
    GaussianAR1(rho=0.5),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    RademacherIID(),
    RademacherProductMDS(),
]


@pytest.mark.parametrize(
    "model", ALL_MODELS + [GaussianAR1(rho=-0.7), GaussianMA(coeffs=(1.0, -0.8, 0.4))]
)
def test_autocovariance_sums_match_direct_sums(model):
    # every C here decays at least geometrically, and at J / 2 the largest
    # weighted term is already below 1e-18: the tail past J is far below it
    J = 400
    cov = autocovariance(model, np.arange(J + 1))
    assert J**2 * abs(cov[J // 2]) < 1e-18
    js = np.arange(1, J + 1)
    assert lrv_true(model) == pytest.approx(math.fsum([cov[0], *(2.0 * cov[1:])]), rel=1e-12)
    for q in (1.0, 2.0):
        direct = math.fsum(js**q * cov[1:])
        assert gamma_q(model, q) == pytest.approx(direct, rel=1e-12)
    for start in (1, 2, 3, 5):
        direct = math.fsum(cov[start:])
        assert _autocov_tail_sum(model, start) == pytest.approx(direct, rel=1e-12)


def test_gamma_q_geometric_series():
    model = GaussianAR1(rho=0.5)
    assert gamma_q(model, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert gamma_q(model, 2.0) == pytest.approx(6.0, rel=1e-12)


def test_gamma_q_finite_ma():
    # sum_j j^q C(j) over the two nonzero lags of the normalised MA
    model = GaussianMA(coeffs=(0.6, 0.3, 0.1))
    c1 = (0.6 * 0.3 + 0.3 * 0.1) / 0.46
    c2 = 0.6 * 0.1 / 0.46
    assert gamma_q(model, 2.0) == pytest.approx(c1 + 4.0 * c2, rel=1e-12)


# ------------------------------------------------------------------------ bias


def _naive_bias(model, kernel, m, n) -> float:
    # direct expectation of the lag-window estimator minus the target
    expectation = float(autocovariance(model, 0))
    for j in range(1, n):
        weight = (1.0 - j / n) * float(kernel_eval(kernel, j / m))
        expectation += 2.0 * weight * float(autocovariance(model, j))
    return expectation - lrv_true(model)


def test_exact_bias_matches_direct_expectation():
    model = GaussianAR1(rho=0.5)
    for kernel in NAMED_KERNELS:
        got = exact_bias(model, kernel, 6.0, 80)
        assert got.exact == pytest.approx(_naive_bias(model, kernel, 6.0, 80), rel=1e-12)


def test_exact_bias_leading_frozen_value():
    got = exact_bias(GaussianAR1(rho=0.5), Kernel("bartlett"), 10.0, 1000)
    assert got.leading == pytest.approx(-0.399609375, abs=1e-12)


def test_variance_bound_closed_form():
    profile = dependence_profile(GaussianAR1(rho=0.5))
    got = variance_bound_c_free(profile, Kernel("bartlett"), 10.0, 100)
    # (3 + 6 + 2/3) * (1/n + 2 (m/n) * 1/3) = 29/3 * 23/300
    assert got == pytest.approx(667.0 / 900.0, rel=1e-12)


def test_mse_bound_report_fields():
    model = GaussianAR1(rho=0.5)
    profile = dependence_profile(model)
    [report] = mse_bound(profile, model, Kernel("bartlett"), [(100, 10.0)])
    assert lrv_true(model) == pytest.approx(3.0, rel=1e-14)
    # 4 (k_q Gamma_q)^2 / m^(2q) with q=1: 4 * (1*2)^2 / 100
    assert report.squared_bias_leading == pytest.approx(0.16, rel=1e-12)
    assert report.variance_bound_c_free > 0.0
    assert report.bias == exact_bias(model, Kernel("bartlett"), 10.0, 100)


@pytest.mark.parametrize("kernel", ["bartlett", "quadratic_spectral"])
@pytest.mark.parametrize(
    "model", [GaussianAR1(rho=0.5), GaussianMA(coeffs=(0.6, 0.3, 0.1))], ids=repr
)
def test_mse_bounds_share_a_lag_vector_with_the_bits_of_one_call_a_point(model, kernel):
    # Bartlett at n = 100, m = 150 sums 150 lags and at m = 2 only 99: the
    # second reads a prefix of the first's vector
    kernel = Kernel(kernel)
    profile = dependence_profile(model)
    points = [(100, 2.0), (300, 8.0), (100, 150.0), (100, 2.0), (300, 4.0)]
    reports = mse_bound(profile, model, kernel, points)
    assert len(reports) == len(points)
    for (n, m), got in zip(points, reports):
        [want] = mse_bound(profile, model, kernel, [(n, m)])
        assert got.bias.exact.hex() == want.bias.exact.hex(), (n, m)
        assert got.bias.leading.hex() == want.bias.leading.hex(), (n, m)
        assert got == want, (n, m)


def test_mse_bound_degenerate_kernel_has_zero_leading_bias():
    model = GaussianAR1(rho=0.5)
    profile = dependence_profile(model)
    [report] = mse_bound(profile, model, Kernel("truncated"), [(100, 10.0)])
    assert report.squared_bias_leading == 0.0


def test_mse_bound_rejects_failing_assumptions():
    model = GaussianAR1(rho=0.5)
    profile = dependence_profile(model)
    bad = Kernel.tabulated([0.0, 2.0**-43], [1.0, 0.5])
    with pytest.raises(ValueError):
        mse_bound(profile, model, bad, [(100, 10.0)])


# ------------------------------------------------------------------- cumulants


def test_fourth_cumulant_vanishes_for_gaussian():
    model = GaussianAR1(rho=0.7)
    for j, k, l in [(1, 1, 1), (1, 2, 3), (2, 2, 4), (1, 3, 5)]:
        assert fourth_cumulant(model, j, k, l) == pytest.approx(0.0, abs=1e-14)


def test_cumulant_sum_is_zero_for_all_bundled_models():
    models = [
        GaussianAR1(rho=0.5),
        GaussianAR1(rho=0.9),
        GaussianMA(coeffs=(0.6, 0.3, 0.1)),
        RademacherIID(),
        RademacherProductMDS(),
    ]
    for model in models:
        assert cumulant_sum(model, 10) <= 1e-12

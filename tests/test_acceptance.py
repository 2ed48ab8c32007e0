"""End-to-end acceptance checks at desk scale.

Each test prints one summary line with its measured quantities, keeps its
runtime inside the stated budget, and pins the oracle it is measured
against (closed forms, enumeration, or partial-sum recomputation).  Run
with ``pytest -v`` for the per-check pass/fail listing.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from quadvar.longrun import (
    Kernel,
    check_assumptions,
    cumulant_sum,
    estimate_lrv,
    exact_bias,
    kernel_eval,
    kernel_kq,
    lrv_true,
    mse_bound,
)
from quadvar.models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    autocovariance,
    covariance_matrix,
    dependence_profile,
    exact_product_moment,
    generate_paths,
    min_phi_double_sum,
)
from quadvar.quadform import (
    brute_force_variance,
    gaussian_exact_variance,
    gaussian_test_matrix,
    general_variance_bound,
    hollow_variance_bound,
    linear_process_variance_bound,
    mc_variance,
)
from quadvar.spectral import (
    SpectralModel,
    density_grid,
    effective_spectral_model,
    kolmogorov_distance,
    limit_cdf,
    limit_stieltjes,
    mp_stieltjes,
    sample_covariance_matrix,
    symmetric_eigenvalues,
)

REPO = Path(__file__).resolve().parent.parent

GAUSSIAN_FAMILY = [
    GaussianAR1(rho=0.0),
    GaussianAR1(rho=0.3),
    GaussianAR1(rho=-0.3),
    GaussianAR1(rho=0.6),
    GaussianAR1(rho=-0.6),
    GaussianAR1(rho=0.9),
    GaussianMA(coeffs=(1.0, 0.5)),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    GaussianMA(coeffs=(1.0, -0.8, 0.4)),
]

ALL_MODELS = [
    GaussianAR1(rho=0.5),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    RademacherIID(),
    RademacherProductMDS(),
]


def _report(name: str, detail: str):
    print(f"[acceptance] {name}: PASS ({detail})")


# 1 ------------------------------------------------------------------------


def test_01_monte_carlo_matches_gaussian_closed_form():
    start = time.perf_counter()
    worst_z = 0.0
    for rho in (0.0, 0.5, 0.9):
        model = GaussianAR1(rho=rho)
        Sigma = covariance_matrix(model, 50)
        for seed in range(5):
            A = gaussian_test_matrix(50, seed=seed)
            exact = gaussian_exact_variance(Sigma, A)
            est = mc_variance(model, A, 100000, seed=seed)
            z = abs(est.variance - exact) / est.std_error
            worst_z = max(worst_z, z)
            assert abs(est.variance - exact) <= 4.0 * est.std_error, (rho, seed, z)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _report(
        "gaussian closed-form equivalence",
        f"15 runs, worst |z| = {worst_z:.2f}, {elapsed:.1f}s",
    )


# 2 ------------------------------------------------------------------------


def test_02_monte_carlo_matches_sign_enumeration():
    worst_z = 0.0
    for model in (RademacherIID(), RademacherProductMDS()):
        for seed in range(3):
            A = gaussian_test_matrix(10, seed=seed)
            exact = brute_force_variance(model, A)
            est = mc_variance(model, A, 100000, seed=seed)
            z = abs(est.variance - exact) / est.std_error
            worst_z = max(worst_z, z)
            assert abs(est.variance - exact) <= 4.0 * est.std_error, (model, seed, z)
    # enumeration itself is exact: re-running it reproduces the same float
    A = gaussian_test_matrix(10, seed=0)
    assert brute_force_variance(RademacherIID(), A) == brute_force_variance(
        RademacherIID(), A
    )
    _report("sign-model enumeration equivalence", f"6 runs, worst |z| = {worst_z:.2f}")


# 3 ------------------------------------------------------------------------


def test_03_exact_variance_within_certified_factor_of_bounds():
    checks = 0
    worst_ratio = 0.0
    for model in GAUSSIAN_FAMILY:
        profile = dependence_profile(model, 64)
        Sigma = covariance_matrix(model, 30)
        for seed in range(5):
            for hollow in (False, True):
                A = gaussian_test_matrix(30, seed=seed, hollow=hollow)
                exact = gaussian_exact_variance(Sigma, A)
                bounds = [general_variance_bound(profile, A).bound_value]
                if hollow:
                    bounds.append(hollow_variance_bound(profile, A).bound_value)
                # the innovation view: the path is a linear filter of iid
                # Gaussians, whose own profile is the white one
                white = dependence_profile(GaussianAR1(rho=0.0), 4)
                bounds.append(
                    linear_process_variance_bound(white, Sigma, A).bound_value
                )
                for bound in bounds:
                    checks += 1
                    worst_ratio = max(worst_ratio, exact / bound)
                    assert exact <= 3.0 * bound, (model, seed, hollow, exact / bound)
    _report(
        "variance bounds certified at factor 3",
        f"{checks} bound checks, worst exact/bound = {worst_ratio:.3f}",
    )


# 4 ------------------------------------------------------------------------


def _window_tuples(window: int, gap: int):
    """All sorted index tuples in 1..window that realise each split at `gap`."""
    pairs, one_three, three_one, two_two = [], [], [], []
    for i, j in itertools.combinations(range(1, window + 1), 2):
        if j - i == gap:
            pairs.append((i, j))
    for quad in itertools.combinations_with_replacement(range(1, window + 1), 4):
        i, j, k, l = quad
        if j - i == gap and i < j:
            one_three.append(quad)
        if l - k == gap and k < l:
            three_one.append(quad)
        if k - j == gap and j < k:
            two_two.append(quad)
    return pairs, one_three, three_one, two_two


def test_04_profile_envelopes_hold_at_every_window_tuple():
    window = 12
    tested = 0
    for model in ALL_MODELS:
        profile = dependence_profile(model, 16)
        phi0 = profile.fourth_moment_sup
        for gap in range(1, 11):
            pairs, one_three, three_one, two_two = _window_tuples(window, gap)
            phi = profile.phi_at(gap)
            for i, j in pairs:
                got = abs(exact_product_moment(model, (i, j)))
                assert got <= phi + 1e-12, (model, "pair", gap)
                tested += 1
            for quad in one_three + three_one + two_two:
                moment = exact_product_moment(model, quad)
                i, j, k, l = quad
                if quad in two_two:
                    moment -= exact_product_moment(model, (i, j)) * exact_product_moment(
                        model, (k, l)
                    )
                assert abs(moment) <= phi + 1e-12, (model, quad, gap)
                assert abs(exact_product_moment(model, quad)) <= phi0 + 1e-12
                tested += 1
            # squared-variable channel
            i, j = 1, 1 + gap
            sq_cov = exact_product_moment(model, (i, i, j, j)) - 1.0
            phi_sq = (
                profile.phi_sq[gap - 1]
                if gap <= profile.max_lag
                else profile.tail_coeff * profile.tail_ratio**gap
            )
            assert abs(sq_cov) <= phi_sq + 1e-12, (model, "squares", gap)
            tested += 1
        assert min_phi_double_sum(profile) <= 2.0 * profile.phi_lag_weighted_sum + 1e-12
    _report("dependence envelopes dominate exact moments", f"{tested} tuples checked")


# 5 ------------------------------------------------------------------------


def test_05_fixed_point_matches_closed_form_on_grid():
    start = time.perf_counter()
    xs = np.linspace(-2.0, 6.0, 50)
    worst = 0.0
    for c in (0.1, 0.5, 1.0, 2.0):
        law = SpectralModel(atoms=((1.0, 1.0),), c=c)
        for x in xs:
            z = complex(float(x), 1.0)
            sv = limit_stieltjes(law, z)
            err = abs(sv.m - mp_stieltjes(c, z))
            worst = max(worst, err)
            assert err <= 1e-10, (c, x, err)
            assert sv.residual <= 1e-12
            assert sv.m.imag > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    _report(
        "fixed point vs closed form",
        f"200 points, worst |dm| = {worst:.2e}, {elapsed:.2f}s",
    )


# 6 ------------------------------------------------------------------------


def _ks_ladder(law: SpectralModel, seed: int) -> list[float]:
    model = GaussianAR1(rho=0.5)
    effective = effective_spectral_model(model, law)
    cdf = limit_cdf(effective)
    distances = []
    for p in (50, 100, 200):
        S = sample_covariance_matrix(model, law, p, 2 * p, seed)
        distances.append(kolmogorov_distance(symmetric_eigenvalues(S), cdf))
    return distances


def test_06_esd_approaches_limit_law():
    start = time.perf_counter()
    identity = _ks_ladder(SpectralModel(atoms=((1.0, 1.0),), c=0.5), seed=2024)
    assert identity[2] <= 0.08, identity
    assert identity[0] > identity[1] > identity[2], identity
    two_atom = _ks_ladder(
        SpectralModel(atoms=((1.0, 0.5), (3.0, 0.5)), c=0.5), seed=2024
    )
    assert two_atom[2] <= 0.10, two_atom
    assert two_atom[0] > two_atom[1] > two_atom[2], two_atom
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _report(
        "spectral convergence",
        f"identity ks {identity[2]:.4f}, two-atom ks {two_atom[2]:.4f}, {elapsed:.1f}s",
    )


# 7 ------------------------------------------------------------------------


def test_07_density_spot_value_and_mass():
    [spot] = density_grid(SpectralModel(atoms=((1.0, 1.0),), c=1.0), [1.0], tol=1e-10)
    target = math.sqrt(3.0) / (2.0 * math.pi)
    assert abs(spot - target) <= 0.005, spot

    law = SpectralModel(atoms=((1.0, 1.0),), c=0.5)
    lo = (1.0 - math.sqrt(0.5)) ** 2
    hi = (1.0 + math.sqrt(0.5)) ** 2
    xs = np.linspace(lo, hi, 240)
    dens = density_grid(law, xs, epsilon=1e-3)
    mass = float(np.trapezoid(dens, xs))
    assert abs(mass - 1.0) <= 0.02, mass
    _report(
        "limit density",
        f"spot {spot:.6f} vs {target:.6f}, mass {mass:.4f}",
    )


# 8 ------------------------------------------------------------------------


def _direct_expectation_bias(model, kernel, m, n) -> float:
    total = float(autocovariance(model, 0))
    for j in range(1, n):
        weight = (1.0 - j / n) * float(kernel_eval(kernel, j / m))
        total += 2.0 * weight * float(autocovariance(model, j))
    return total - lrv_true(model)


def test_08_bias_identity_and_remainder_rate():
    model = GaussianAR1(rho=0.5)
    kernel = Kernel("bartlett")

    got = exact_bias(model, kernel, 10.0, 200)
    direct = _direct_expectation_bias(model, kernel, 10.0, 200)
    assert got.exact == pytest.approx(direct, rel=1e-12)

    # leading term recomputed by the partial-sum oracle: inside the support
    # 2 sum_{j=1}^{10} (K(j/10) - 1) (1/2)^j, beyond it K = 0 leaves the
    # geometric tail -2 sum_{j>10} (1/2)^j = -2^-9; together -0.399609375
    partial = 2.0 * sum(
        (float(kernel_eval(kernel, j / 10.0)) - 1.0) * 0.5**j for j in range(1, 11)
    )
    partial -= 2.0 * 0.5**10
    assert partial == pytest.approx(-0.399609375, abs=1e-15)
    assert got.leading == pytest.approx(partial, abs=1e-12)
    assert abs(got.leading + 0.39961) <= 1e-5 + 5e-7

    ns = np.array([1000, 2000, 4000])
    remainders = np.array(
        [abs(exact_bias(model, kernel, 10.0, int(n)).exact - got.leading) for n in ns]
    )
    slope = np.polyfit(np.log(ns), np.log(remainders), 1)[0]
    assert 0.8 <= -slope <= 1.2, slope
    _report(
        "bias identity",
        f"leading {got.leading:.9f}, remainder exponent {-slope:.3f}",
    )


# 9 / 10 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def mse_sweep():
    """Monte Carlo MSE sweep shared by the consistency and shape checks."""
    model = GaussianAR1(rho=0.5)
    kernel = Kernel("bartlett")
    profile = dependence_profile(model, 64)
    sigma2 = lrv_true(model)
    replicates = 500
    start = time.perf_counter()

    def mc_mse(n: int, m: float, paths: np.ndarray) -> float:
        values = np.array([estimate_lrv(row, kernel, m) for row in paths])
        return float(np.mean((values - sigma2) ** 2))

    consistency = {}
    for n in (2000, 8000, 32000):
        paths = generate_paths(model, n, seed=123, count=replicates)
        consistency[n] = mc_mse(n, float(n) ** (1.0 / 3.0), paths)
        if n == 32000:
            shape = {m: mc_mse(n, float(m), paths) for m in (2, 8, 32, 128)}
    budget = {}
    for n in (2000, 8000, 32000):
        m = float(n) ** (1.0 / 3.0)
        report = mse_bound(profile, model, kernel, m, n)
        budget[(n, m)] = report.variance_bound_c_free + report.squared_bias_leading
    for m in (2, 8, 32, 128):
        report = mse_bound(profile, model, kernel, float(m), 32000)
        budget[(32000, float(m))] = (
            report.variance_bound_c_free + report.squared_bias_leading
        )
    return {
        "consistency": consistency,
        "shape": shape,
        "budget": budget,
        "elapsed": time.perf_counter() - start,
    }


def test_09_mse_shrinks_along_the_consistency_sweep(mse_sweep):
    mses = mse_sweep["consistency"]
    assert mses[2000] > mses[8000] > mses[32000], mses
    assert mses[32000] <= 0.05, mses
    assert mse_sweep["elapsed"] <= 300.0
    _report(
        "estimator consistency",
        f"mse {mses[2000]:.4f} -> {mses[8000]:.4f} -> {mses[32000]:.4f}, "
        f"{mse_sweep['elapsed']:.1f}s",
    )


def test_10_mse_stays_within_band_of_the_bound(mse_sweep):
    worst = 0.0
    for n, mse in mse_sweep["consistency"].items():
        ratio = mse / mse_sweep["budget"][(n, float(n) ** (1.0 / 3.0))]
        worst = max(worst, ratio)
        assert ratio <= 3.0, (n, ratio)
    for m, mse in mse_sweep["shape"].items():
        ratio = mse / mse_sweep["budget"][(32000, float(m))]
        worst = max(worst, ratio)
        assert ratio <= 3.0, (m, ratio)
    curve = mse_sweep["shape"]
    best = min(curve, key=curve.get)
    assert best not in (2, 128), curve
    _report(
        "mse tracks bound shape",
        f"worst ratio {worst:.2f}, interior minimum at m = {best}",
    )


# 11 -------------------------------------------------------------------------


def test_11_kernel_suite_certificates():
    assert kernel_kq(Kernel("bartlett")) == (1.0, -1.0)
    assert check_assumptions(Kernel("bartlett")).envelope_sq_integral == 1.0 / 3.0
    assert kernel_kq(Kernel("parzen")) == (2.0, -6.0)
    assert check_assumptions(Kernel("truncated")).degenerate_limit
    qs = check_assumptions(Kernel("quadratic_spectral"))
    assert qs.bounded and qs.square_integrable and qs.curvature_limit
    assert math.isfinite(qs.envelope_sq_integral)
    worst = 0.0
    for model in (GaussianAR1(rho=0.5), GaussianAR1(rho=0.9), GaussianMA(coeffs=(0.6, 0.3, 0.1))):
        worst = max(worst, cumulant_sum(model, 10))
        assert cumulant_sum(model, 10) <= 1e-12
    _report("kernel certificates", f"gaussian cumulant mass <= {worst:.1e}")


# 12 -------------------------------------------------------------------------


def _cli_env(threads: int) -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    return env


def _run_cli(config: Path, out: Path, threads: int, fmt: str):
    experiment = json.loads(config.read_text())["experiment"]
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "quadvar.cli",
            experiment,
            "--config",
            str(config),
            "--out",
            str(out),
            "--format",
            fmt,
        ],
        env=_cli_env(threads),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return out.read_bytes()


def test_12_bundled_configs_are_bit_reproducible(tmp_path):
    configs = sorted((REPO / "configs").glob("*.json"))
    assert len(configs) >= 6
    for config in configs:
        name = config.stem
        for fmt in ("csv", "json"):
            first = _run_cli(config, tmp_path / f"{name}_1.{fmt}", 1, fmt)
            second = _run_cli(config, tmp_path / f"{name}_2.{fmt}", 1, fmt)
            threaded = _run_cli(config, tmp_path / f"{name}_4.{fmt}", 4, fmt)
            assert first == second, f"{name} {fmt} differs between identical runs"
            assert first == threaded, f"{name} {fmt} differs across thread counts"
    _report(
        "bit reproducibility",
        f"{len(configs)} configs x csv+json x thread counts",
    )


# 13 -------------------------------------------------------------------------

CROSS_THREAD_CONFIGS = {
    # the sum over 100 000 replicates in mc_variance
    "quadform_var": {
        "experiment": "quadform_var",
        "seed": 5,
        "model": {"name": "gaussian_ar1", "rho": 0.5},
        "matrix": {"kind": "gaussian", "p": 50, "seed": 2},
        "replicates": 100000,
    },
    # the Gram matrix of sample_covariance_matrix at two sizes
    "esd": {
        "experiment": "esd",
        "seed": 4,
        "model": {"name": "gaussian_ar1", "rho": 0.0},
        "spectral": {"atoms": [[1.0, 0.5], [3.0, 0.5]], "c": 0.5},
        "sizes": [[100, 200], [200, 400]],
    },
    # AR(1) columns: the Szegő reference atoms of effective_spectral_model
    "esd_ar1": {
        "experiment": "esd",
        "seed": 4,
        "model": {"name": "gaussian_ar1", "rho": 0.5},
        "spectral": {"atoms": [[1.0, 1.0]], "c": 0.5},
        "sizes": [[60, 120]],
    },
}


@pytest.mark.parametrize("name", sorted(CROSS_THREAD_CONFIGS))
def test_13_emitted_bytes_do_not_depend_on_thread_count(tmp_path, name):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CROSS_THREAD_CONFIGS[name]))
    # the runs are independent processes, so two at a time halve the wait
    with ThreadPoolExecutor(max_workers=2) as pool:
        single, *threaded = pool.map(
            lambda t: _run_cli(config, tmp_path / f"{name}_{t}.csv", t, "csv"), (1, 2, 4)
        )
    for threads, output in zip((2, 4), threaded):
        assert output == single, f"{name} differs between 1 and {threads} threads"
    _report("thread-count invariance", f"{name} csv at 1, 2 and 4 threads")

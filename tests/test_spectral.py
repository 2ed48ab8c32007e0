"""Spectral limits: fixed-point solver, eigen route, limit CDF."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from oracles import (
    NotPositiveDefiniteError,
    cholesky,
    solve_points_reference,
    sturm_bisection,
    szego_midpoint_law,
)
from quadvar.models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    covariance_matrix,
    generate_paths,
)
import quadvar.spectral as spectral
from quadvar.spectral import (
    ConvergenceError,
    SpectralModel,
    _defining_residual,
    _solve_points,
    _szego_sums,
    _tridiagonalise,
    effective_spectral_model,
    kolmogorov_distance,
    limit_cdf,
    limit_stieltjes,
    mp_stieltjes,
    population_sigma,
    sample_covariance_matrix,
    scaled_paths,
    solve_stieltjes,
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
    for rho in (1.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SpectralModel(atoms=((1.0, 1.0),), c=0.5, rho=rho)


def test_population_sigma_largest_remainder_ties_to_smaller_atom():
    # 5 slots at half weight each: 2.5/2.5 rounds to 3 of the smaller and 2
    # of the larger eigenvalue
    Sigma = population_sigma(TWO_ATOM, 5)
    assert np.array_equal(np.diag(Sigma), np.array([1.0, 1.0, 1.0, 3.0, 3.0]))
    assert np.array_equal(Sigma, np.diag(np.diag(Sigma)))


def test_population_sigma_exact_split():
    Sigma = population_sigma(TWO_ATOM, 4)
    assert sorted(np.diag(Sigma)) == [1.0, 1.0, 3.0, 3.0]


def test_population_sigma_rejects_a_reference_law():
    reference = effective_spectral_model(GaussianAR1(rho=0.5), TWO_ATOM)
    with pytest.raises(ValueError, match="reference law"):
        population_sigma(reference, 4)
    with pytest.raises(ValueError, match="reference law"):
        sample_covariance_matrix(GaussianAR1(rho=0.5), reference, 4, 8, seed=1)


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
    with pytest.raises(ValueError, match=r"S must be symmetric \(defect 2\.000e\+00\)"):
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
        np.array([[1.0, 1.0 + 1e-11], [1.0, 1.0]]),  # past the tolerance of 1e-12 max|S|
    ],
    ids=[
        "non_square",
        "one_dimensional",
        "empty",
        "nan",
        "inf",
        "asymmetric_1e170",
        "asymmetric_1e-11",
    ],
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


def _tridiagonal_bound(d, e) -> float:
    """4 p eps ||T||_F for the tridiagonal (d, e), formed without overflow,
    and never below the smallest normal number, the bisection oracle's own
    stopping width on a zero T."""
    entries = np.concatenate([d, e, e])
    top = float(np.abs(entries).max())
    frobenius = top * np.linalg.norm(entries / top) if top > 0.0 else 0.0
    return max(4.0 * d.size * np.finfo(float).eps * frobenius, np.finfo(float).tiny)


@given(
    kind=st.sampled_from(["random", "repeated_diagonal", "block_diagonal", "rank_deficient"]),
    p=st.integers(min_value=1, max_value=60),
    scale=st.sampled_from([1e-170, 1e-6, 1.0, 1e6, 1e170]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_symmetric_eigenvalues_meet_lapack_error_bound(kind, p, scale, seed):
    """|lambda - lambda_LAPACK| <= 4 p eps ||S||_F, and the eigenvalues of the
    tridiagonal T agree with Sturm-count bisection on T to 4 p eps ||T||_F.

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
    oracle, _ = sturm_bisection(d, e)
    assert np.max(np.abs(ours - oracle)) <= _tridiagonal_bound(d, e)


@pytest.mark.parametrize(
    "d, e",
    [
        (np.zeros(1), np.zeros(0)),
        (np.zeros(3), np.zeros(2)),
        (np.array([0.0, 1.0, 0.0, 2.0]), np.zeros(3)),
        (np.zeros(4), np.ones(3)),
        (np.array([1.0, 1.0]), np.array([1.0])),
        (np.array([1e-310, 1.0]), np.array([0.0])),
    ],
    ids=["zero_1", "zero_3", "zero_diagonal_entries", "path_graph", "ones_2x2", "subnormal"],
)
def test_symmetric_eigenvalues_of_tridiagonal_edge_cases_match_bisection(d, e):
    """Zero blocks, zero pivots, a graph spectrum and a subnormal entry: the
    route on the dense T agrees with Sturm-count bisection on (d, e)."""
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ours = symmetric_eigenvalues(T)
    oracle, _ = sturm_bisection(d, e)
    assert np.all(np.diff(ours) >= 0.0)
    assert np.max(np.abs(ours - oracle)) <= _tridiagonal_bound(d, e)


def test_symmetric_eigenvalues_do_not_depend_on_the_thread_count():
    """At p = 400 LAPACK's dsytrd runs blocked, and on a full matrix its
    bits change with the BLAS thread count; on the tridiagonal T its
    reflectors are the identity, so the bits match at 1, 2 and 4 threads."""
    script = (
        "import sys\n"
        "from quadvar.models import GaussianAR1\n"
        "from quadvar.spectral import SpectralModel, sample_covariance_matrix, "
        "symmetric_eigenvalues\n"
        "law = SpectralModel(atoms=((1.0, 0.5), (3.0, 0.5)), c=0.5)\n"
        "S = sample_covariance_matrix(GaussianAR1(rho=0.5), law, 400, 800, seed=7)\n"
        "sys.stdout.write(symmetric_eigenvalues(S).tobytes().hex())\n"
    )
    src = str(Path(spectral.__file__).resolve().parents[1])

    def eigenvalues(threads: int) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = str(threads)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    single, *threaded = map(eigenvalues, (1, 2, 4))
    assert len(single) == 400 * 16
    for threads, output in zip((2, 4), threaded):
        assert output == single, f"eigenvalues differ between 1 and {threads} threads"


def test_eigen_alias_is_the_route():
    """The benchmark traces the eigen route by the identity of
    ``jacobi_eigenvalues`` and counts the dimension of every matrix passed to
    it."""
    import quadvar.spectral as spectral

    assert spectral.jacobi_eigenvalues is spectral.symmetric_eigenvalues


# ------------------------------------------------------------------ transforms


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


def test_solve_stieltjes_rejects_any_point_off_the_upper_half_plane():
    with pytest.raises(ValueError, match=r"half-plane, got \(2\+0j\)"):
        solve_stieltjes(UNIT, [1.0 + 1.0j, 2.0, 3.0 - 1.0j])
    with pytest.raises(ValueError, match="1-D"):
        solve_stieltjes(UNIT, 1.0 + 1.0j)


def test_limit_stieltjes_is_the_one_point_block():
    for z in (-1.0 + 0.01j, 0.5 + 1e-3j, 2.0 + 1.0j):
        sv = limit_stieltjes(TWO_ATOM, z)
        m, residual, iterations = solve_stieltjes(TWO_ATOM, [z])
        assert (sv.m, sv.residual, sv.iterations) == (m[0], residual[0], iterations[0])


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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_solver_matches_reference(lam, w, c, zs, tol, max_iter, m0=None):
    got = _solve_points(lam, w, c, zs, tol, max_iter, m0)
    want = solve_points_reference(lam, w, c, zs, tol, max_iter, m0)
    assert _same_bits(got[0], want[0])  # m
    assert _same_bits(got[1], want[1])  # residual
    assert np.array_equal(got[2], want[2])  # iterations
    return got


def test_solver_matches_reference_one_point_at_a_time():
    """The limit_stieltjes route: one-point blocks, at each point of the
    50-point bench grid."""
    for x in np.linspace(-1.0, 8.0, 50):
        zs = np.array([complex(x, 0.01)])
        _assert_solver_matches_reference(
            TWO_ATOM.lambdas, TWO_ATOM.weights, TWO_ATOM.c, zs, 1e-12, 10000
        )


def test_solver_matches_reference_on_the_stieltjes_grid_block():
    """The stieltjes_grid route: the 50-point bench grid solved as one block."""
    zs = np.linspace(-1.0, 8.0, 50) + 0.01j
    _assert_solver_matches_reference(
        TWO_ATOM.lambdas, TWO_ATOM.weights, TWO_ATOM.c, zs, 1e-12, 10000
    )


def test_solver_matches_reference_on_warm_started_cdf_grid():
    """The limit_cdf route on a 256-atom law (the Szegő AR(1) law at 128
    midpoint nodes): 320 points at both heights."""
    law = szego_midpoint_law(GaussianAR1(rho=0.5), TWO_ATOM, 128)
    xs = np.linspace(1e-9, 3.0 * (1.0 + math.sqrt(0.5)) ** 2 + 0.1, 320)
    coarse, _, _ = _assert_solver_matches_reference(
        law.lambdas, law.weights, law.c, xs + 4e-3j, 1e-8, 200000
    )
    _assert_solver_matches_reference(
        law.lambdas, law.weights, law.c, xs + 2e-3j, 1e-8, 200000, m0=coarse
    )


def test_solve_stieltjes_passes_the_warm_start_through_bit_for_bit():
    """The checked entry point's m0 is the solver's: the limit_cdf pair on
    the closed-form AR(1) law, where the warm start saves iterations."""
    law = effective_spectral_model(GaussianAR1(rho=0.5), TWO_ATOM)
    xs = np.linspace(1e-9, 3.0 * 3.0 * (1.0 + math.sqrt(0.5)) ** 2 + 0.1, 320)
    coarse, _, _ = solve_stieltjes(law, xs + 4e-3j, 1e-8, 200000)
    got = solve_stieltjes(law, xs + 2e-3j, 1e-8, 200000, m0=coarse)
    want = _solve_points(
        law.lambdas, law.weights, law.c, xs + 2e-3j, 1e-8, 200000, coarse, rho=law.rho
    )
    assert _same_bits(got[0], want[0])  # m
    assert _same_bits(got[1], want[1])  # residual
    assert np.array_equal(got[2], want[2])  # iterations
    cold = solve_stieltjes(law, xs + 2e-3j, 1e-8, 200000)
    assert got[2].sum() < cold[2].sum()


def test_solver_matches_reference_above_c_one():
    law = SpectralModel(atoms=((1.0, 0.5), (2.0, 0.5)), c=3.0)
    zs = np.linspace(-1.0, 6.0, 40) + 0.05j
    _assert_solver_matches_reference(law.lambdas, law.weights, law.c, zs, 1e-10, 1000)


def test_solver_matches_reference_when_budget_runs_out():
    """A point stopped by the budget returns its last step's residual, Newton
    or companion, so every budget up to 10 steps shows that step's bits;
    with the companion residual formed on the rejected points alone instead
    of the whole unconverged set, budgets 7 and 9 gave other bits."""
    law = szego_midpoint_law(GaussianAR1(rho=0.5), TWO_ATOM, 128)
    zs = np.linspace(0.1, 6.0, 64) + 1e-3j
    for max_iter in range(1, 11):
        _, residual, iterations = _assert_solver_matches_reference(
            law.lambdas, law.weights, law.c, zs, 1e-12, max_iter
        )
        assert np.any((iterations == max_iter) & (residual > 1e-12))


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


def _density(law, xs, epsilon, tol):
    """Smoothed density Im m(x + i epsilon) / pi at every x, in one block."""
    zs = np.asarray(xs, dtype=float) + 1j * epsilon
    m, _, _ = solve_stieltjes(law, zs, tol=tol, max_iter=spectral._SMOOTHED_MAX_ITER)
    return m.imag / math.pi


def test_density_square_case_spot_value():
    [got] = _density(SpectralModel(atoms=((1.0, 1.0),), c=1.0), [1.0], 1e-3, 1e-10)
    assert got == pytest.approx(np.sqrt(3.0) / (2.0 * np.pi), abs=5e-3)


def test_density_vanishes_off_support():
    law = UNIT
    # support of the quarter-circle-type law at c=0.5 is [(1-sqrt(.5))^2, (1+sqrt(.5))^2]
    assert _density(law, [4.0], 1e-3, 1e-10)[0] <= 2e-3
    assert _density(law, [-1.0], 1e-3, 1e-10)[0] <= 2e-3


def test_density_grid_matches_pointwise_solves():
    xs = np.array([0.5, 1.0, 1.5])
    grid = _density(UNIT, xs, 1e-2, 1e-9)
    single = [_density(UNIT, [x], 1e-2, 1e-9)[0] for x in xs]
    assert np.allclose(grid, single, atol=1e-9)


def test_density_grid_raises_on_a_converged_point_off_the_branch(monkeypatch):
    """A residual within tol does not make a point solved: Im m must be > 0."""
    solve = spectral._solve_points

    def off_branch(*args, **kwargs):
        m, residual, iterations = solve(*args, **kwargs)
        m[1] = m[1].conjugate()
        residual[1] = 0.0
        return m, residual, iterations

    monkeypatch.setattr(spectral, "_solve_points", off_branch)
    with pytest.raises(ConvergenceError, match=r"branch failure at z = \(1\+0\.01j\)"):
        _density(UNIT, np.array([0.5, 1.0, 1.5]), 1e-2, 1e-9)


# ------------------------------------------------------------------- limit CDF


def test_limit_cdf_raises_on_a_converged_point_off_the_branch(monkeypatch):
    """limit_cdf checks its grid solves like every other route: a point with
    residual 0 but Im m < 0 raises instead of being clipped to density 0."""
    solve = spectral._solve_points
    grids = []

    def off_branch(lam, w, c, zs, *args, **kwargs):
        grids.append(zs)
        m, residual, iterations = solve(lam, w, c, zs, *args, **kwargs)
        m[5] = m[5].conjugate()
        residual[5] = 0.0
        return m, residual, iterations

    monkeypatch.setattr(spectral, "_solve_points", off_branch)
    with pytest.raises(ConvergenceError) as caught:
        limit_cdf(UNIT)
    assert len(grids) == 1  # the coarse grid raises before the fine one is solved
    assert f"branch failure at z = {complex(grids[0][5])}:" in str(caught.value)


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
    assert kolmogorov_distance(esd, lambda t: np.clip(t, 0.0, 1.0)) == pytest.approx(1.0)


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


def _szego_cdf(rho: float, x):
    """P(f(theta) <= x), theta uniform on [0, pi], for the AR(1) density
    f = (1 - rho^2) / (1 - 2 rho cos theta + rho^2), either sign of rho."""
    u = ((1.0 - rho * rho) / np.asarray(x) - 1.0 - rho * rho) / (2.0 * abs(rho))
    return np.arccos(np.clip(u, -1.0, 1.0)) / math.pi


def _law_distance(a, wa, b, wb) -> float:
    """sup_x |F_a(x) - F_b(x)| between two weighted point sets; both step
    functions jump only at their points, so the two one-sided limits there
    cover the supremum."""
    points = np.union1d(a, b)

    def steps(x, w, side):
        order = np.argsort(x)
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        return cum[np.searchsorted(x[order], points, side=side)]

    return max(
        float(np.abs(steps(a, wa, side) - steps(b, wb, side)).max())
        for side in ("left", "right")
    )


@pytest.mark.parametrize("rho", [0.5, -0.7, 0.9])
@pytest.mark.parametrize("p", [50, 100, 200])
def test_kms_spectrum_meets_its_szego_limit(rho, p):
    """The oracle for the limit law itself: the eigenvalues of the AR(1)
    Toeplitz (Kac-Murdock-Szegő) matrix against the closed-form Szegő CDF
    (measured p * KS 0.993-1.000)."""
    vals = np.linalg.eigvalsh(covariance_matrix(GaussianAR1(rho=rho), p))
    assert p * kolmogorov_distance(vals, lambda t: _szego_cdf(rho, t)) <= 1.01


def _law_moments(law: SpectralModel) -> tuple[float, float]:
    """First and second moments of a law's population spectrum; with
    rho != 0 they are t(0) and -t'(0) of the closed-form theta average."""
    if law.rho == 0.0:
        return float((law.weights * law.lambdas).sum()), float(
            (law.weights * law.lambdas**2).sum()
        )
    t, minus_dt = _szego_sums(law.lambdas, law.weights, law.rho, np.zeros(1, dtype=complex))
    assert t.imag[0] == 0.0 and minus_dt.imag[0] == 0.0
    return float(t.real[0]), float(minus_dt.real[0])


@pytest.mark.parametrize("rho", [0.5, -0.7, 0.9])
def test_effective_law_is_the_exact_szego_limit(rho):
    """AR(1) columns keep the declared atoms and carry rho, which the solver
    averages over theta in closed form; there are no nodes."""
    eff = effective_spectral_model(GaussianAR1(rho=rho), TWO_ATOM)
    assert eff == SpectralModel(atoms=TWO_ATOM.atoms, c=TWO_ATOM.c, rho=rho)


@pytest.mark.parametrize("rho", [0.5, -0.7, 0.9, 0.99])
def test_szego_sums_match_a_fine_midpoint_rule(rho):
    """t, -t' and the residual's average 1 - v t against 2^16 nodes per
    declared atom, at random v with Im v in [0.1, 3]."""
    rng = np.random.default_rng(1)
    v = rng.uniform(-3.0, 3.0, 20) + 1j * rng.uniform(0.1, 3.0, 20)
    t, minus_dt = _szego_sums(TWO_ATOM.lambdas, TWO_ATOM.weights, rho, v)
    nodes = szego_midpoint_law(GaussianAR1(rho=rho), TWO_ATOM, 2**16)
    lam, w = nodes.lambdas, nodes.weights
    for i, vi in enumerate(v):
        inv = 1.0 / (1.0 + lam * vi)
        want_t = (w * lam * inv).sum()
        want_dt = (w * (lam * inv) ** 2).sum()
        want_e = (w * inv).sum()
        assert abs(t[i] - want_t) <= 1e-13 * abs(want_t)
        assert abs(minus_dt[i] - want_dt) <= 1e-13 * abs(want_dt)
        assert abs(1.0 - vi * t[i] - want_e) <= 1e-13 * abs(want_e)


@pytest.mark.parametrize("rho", [0.5, -0.7, 0.9])
def test_limit_stieltjes_on_the_szego_law_matches_a_fine_midpoint_law(rho):
    # measured worst relative gaps 3.5e-16, 2.6e-15 and 9.3e-12
    exact = effective_spectral_model(GaussianAR1(rho=rho), TWO_ATOM)
    nodes = szego_midpoint_law(GaussianAR1(rho=rho), TWO_ATOM, 4096)
    edge = 3.0 * (1.0 + abs(rho)) / (1.0 - abs(rho)) * (1.0 + math.sqrt(0.5)) ** 2
    for x in np.linspace(-1.0, edge + 1.0, 12):
        for height in (0.05, 0.5):
            z = complex(x, height)
            got, want = limit_stieltjes(exact, z).m, limit_stieltjes(nodes, z).m
            assert abs(got - want) <= 1e-9 * abs(want)


def test_limit_cdf_on_the_szego_law_matches_a_fine_midpoint_law():
    """At rho = 0.5 the closed form is 1.9e-7 from the 1024-node law, where
    the 128-node law is 1.2e-5 away."""
    exact = limit_cdf(effective_spectral_model(GaussianAR1(rho=0.5), TWO_ATOM))
    nodes = limit_cdf(szego_midpoint_law(GaussianAR1(rho=0.5), TWO_ATOM, 1024))
    xs = np.linspace(0.0, 3.0 * 3.0 * (1.0 + math.sqrt(0.5)) ** 2, 2001)
    assert np.max(np.abs(exact(xs) - nodes(xs))) <= 1e-6


@pytest.mark.parametrize(
    "model",
    [
        GaussianAR1(rho=0.5),
        GaussianAR1(rho=-0.7),
        GaussianMA(coeffs=(1.0, 0.0, -0.5)),
        GaussianMA(coeffs=(1.0,) + (0.0,) * 68 + (1.0,)),
    ],
)
def test_effective_law_keeps_the_mean(model):
    # the MA midpoint rule integrates cos(j theta) exactly for 0 < j < 2N; the
    # AR(1) law is exact, its mean t(0) = sum_k w_k u_k / (1 - rho^2)
    eff = effective_spectral_model(model, TWO_ATOM)
    mean, _ = _law_moments(eff)
    expected = float((TWO_ATOM.weights * TWO_ATOM.lambdas).sum())
    assert abs(mean - expected) <= 1e-14 * expected


@pytest.mark.parametrize(
    "coeffs",
    [
        (1.0, 0.0, -0.5),  # C(1) = 0 and C(2) = -0.4 < 0
        (1.0,) + (0.0,) * 68 + (1.0,),  # C(j) = 0 for j < 69, C(69) = 0.5
    ],
)
def test_effective_spectral_model_sees_dependent_moving_averages(coeffs):
    """The law against the spectrum of G T_p G' at p = 400.  Edge effects of
    a band of width q move O(q) eigenvalues, so the distance is C / p with C
    growing in q: 4.75 at q = 2 and 53.1 at q = 69 were measured."""
    model = GaussianMA(coeffs=coeffs)
    p = 400
    eff = effective_spectral_model(model, TWO_ATOM)
    scale = np.sqrt(np.diag(population_sigma(TWO_ATOM, p)))
    true_cov = scale[:, None] * covariance_matrix(model, p) * scale[None, :]
    vals = np.linalg.eigvalsh(true_cov)
    assert len(eff.atoms) == 2 * 128
    ks = _law_distance(vals, np.full(p, 1.0 / p), eff.lambdas, eff.weights)
    assert ks <= (model.order + 4) / p
    assert _law_distance(vals, np.full(p, 1.0 / p), TWO_ATOM.lambdas, TWO_ATOM.weights) > 0.1


def test_effective_spectral_model_widen_under_serial_dependence():
    for rho in (0.5, -0.7, 0.9):
        eff = effective_spectral_model(GaussianAR1(rho=rho), TWO_ATOM)
        mean, second = _law_moments(eff)
        # the first moment is kept and the second grows by
        # (1/p) tr(T^2) -> (1 + rho^2)/(1 - rho^2), both exactly
        assert mean == pytest.approx(2.0, rel=1e-14)
        assert second == pytest.approx((1.0 + rho * rho) / (1.0 - rho * rho) * 5.0, rel=1e-14)
        assert eff.c == TWO_ATOM.c


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

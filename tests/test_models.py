"""Model layer: exact moments, dependence profiles, reproducible sampling."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fourth_cumulant, parity_moment
from quadvar import models
from quadvar.longrun import Kernel, exact_bias, gamma_q, lrv_true
from quadvar.models import (
    DependenceProfile,
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    _innovation_width,
    _path_chunks,
    autocovariance,
    covariance_matrix,
    dependence_profile,
    enumerate_sign_paths,
    exact_product_moment,
    excess_kurtosis,
    generate_paths,
    isserlis_fourth_moment,
    path_rng,
)

ALL_MODELS = [
    GaussianAR1(rho=0.5),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    RademacherIID(),
    RademacherProductMDS(),
]

rhos = st.floats(min_value=-0.9, max_value=0.9)


# ---------------------------------------------------------------- validation


def test_ar1_rejects_unit_root():
    with pytest.raises(ValueError, match="rho"):
        GaussianAR1(rho=1.0)


def test_ma_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        GaussianMA(coeffs=())
    with pytest.raises(ValueError):
        GaussianMA(coeffs=(0.0, 0.0))


# ------------------------------------------------------------ autocovariance


def test_ar1_autocovariance_is_geometric():
    model = GaussianAR1(rho=0.5)
    lags = np.arange(0, 8)
    assert np.allclose(autocovariance(model, lags), 0.5**lags, atol=0, rtol=1e-15)


def test_ma_autocovariance_matches_convolution():
    # unit-variance normalisation of coeffs (0.6, 0.3, 0.1):
    # C(k) = sum_j c_j c_{j+k} / sum_j c_j^2
    model = GaussianMA(coeffs=(0.6, 0.3, 0.1))
    c = np.array([0.6, 0.3, 0.1])
    norm = float(c @ c)
    assert autocovariance(model, 0) == pytest.approx(1.0, abs=1e-15)
    assert autocovariance(model, 1) == pytest.approx((0.6 * 0.3 + 0.3 * 0.1) / norm, abs=1e-15)
    assert autocovariance(model, 2) == pytest.approx(0.6 * 0.1 / norm, abs=1e-15)
    assert autocovariance(model, 3) == 0.0


def test_white_models_have_no_serial_covariance():
    for model in (RademacherIID(), RademacherProductMDS()):
        assert np.all(autocovariance(model, np.arange(1, 10)) == 0.0)


def test_covariance_matrix_is_unit_diagonal_toeplitz():
    Sigma = covariance_matrix(GaussianAR1(rho=-0.4), 6)
    assert np.allclose(np.diag(Sigma), 1.0)
    assert np.allclose(Sigma, Sigma.T)
    for k in range(6):
        assert np.allclose(np.diag(Sigma, k), (-0.4) ** k)


# ------------------------------------------------------------- exact moments


def test_isserlis_fourth_moment_hand_case():
    # E X1 X2 X3 X4 = r12 r34 + r13 r24 + r14 r23 with r_ij = rho^|i-j|
    S = covariance_matrix(GaussianAR1(rho=0.5), 4)
    got = isserlis_fourth_moment(
        S[0, 1], S[0, 2], S[0, 3], S[1, 2], S[1, 3], S[2, 3]
    )
    assert got == pytest.approx(0.5 * 0.5 + 0.25 * 0.25 + 0.125 * 0.5, abs=1e-15)


def test_gaussian_product_moments_reduce_to_isserlis():
    model = GaussianAR1(rho=0.3)
    Sigma = covariance_matrix(model, 5)
    assert exact_product_moment(model, (1, 4)) == pytest.approx(Sigma[0, 3], abs=1e-15)
    assert exact_product_moment(model, (2, 2, 5, 5)) == pytest.approx(
        1.0 + 2.0 * Sigma[1, 4] ** 2, abs=1e-15
    )
    assert exact_product_moment(model, (1, 1, 1, 1)) == pytest.approx(3.0, abs=1e-15)
    assert exact_product_moment(model, (1, 2, 3)) == 0.0  # odd order is centred away


def test_rademacher_iid_moments_are_parity_counts():
    model = RademacherIID()
    assert exact_product_moment(model, (1, 2)) == 0.0
    assert exact_product_moment(model, (3, 3)) == 1.0
    assert exact_product_moment(model, (1, 1, 2, 2)) == 1.0
    assert exact_product_moment(model, (1, 2, 3, 4)) == 0.0
    assert exact_product_moment(model, (2, 2, 2, 2)) == 1.0


def test_product_mds_moments_track_driving_signs():
    # X_i = e_{i-1} e_i, so a product of X's reduces to a product of driving
    # signs whose expectation is 1 iff every sign appears an even number of
    # times.
    model = RademacherProductMDS()
    assert exact_product_moment(model, (1, 2)) == 0.0
    assert exact_product_moment(model, (1, 1)) == 1.0
    assert exact_product_moment(model, (1, 2, 3, 4)) == 0.0
    assert exact_product_moment(model, (1, 1, 3, 3)) == 1.0
    # e0 e1 * e1 e2 * e2 e3 = e0 e3: odd occurrences survive
    assert exact_product_moment(model, (1, 2, 3)) == 0.0
    # X1 X2 X2 X3 = e0 e1 (e1 e2)^2 e2 e3 = e0 e1 e3 ... still odd
    assert exact_product_moment(model, (1, 2, 2, 3)) == 0.0


@given(
    indices=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    mds=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sign_moments_match_counting_their_driving_signs(indices, mds):
    if mds:
        driving = [s for i in indices for s in (i - 1, i)]
        expected = parity_moment(driving)
        model = RademacherProductMDS()
    else:
        expected = parity_moment(indices)
        model = RademacherIID()
    assert exact_product_moment(model, indices) == expected


def test_exact_product_moment_rejects_positions_below_one():
    for model in ALL_MODELS:
        with pytest.raises(ValueError, match="positions"):
            exact_product_moment(model, (1, 0, 2, 2))


def test_product_mds_is_white():
    # squares are constant, so squared-covariance vanishes; the law is in
    # fact the i.i.d. one (see the enumeration test below), so every tracked
    # covariance is zero as well.
    model = RademacherProductMDS()
    assert autocovariance(model, 1) == 0.0
    profile = dependence_profile(model)
    assert profile.fourth_moment_sup == 1.0
    assert np.all(profile.phi == 0.0)
    assert np.all(profile.phi_sq == 0.0)


@pytest.mark.parametrize("p", [3, 5])
def test_product_mds_is_iid_rademacher(p):
    """X_t = e_{t-1} e_t maps the 2^(p+1) driving signs two-to-one onto all
    2^p sign vectors, so X_1..X_p are independent fair signs."""
    paths = enumerate_sign_paths(RademacherProductMDS(), p)
    assert paths.shape == (2 ** (p + 1), p)
    vectors, counts = np.unique(paths, axis=0, return_counts=True)
    assert len(vectors) == 2**p
    assert np.all(counts == 2)


@pytest.mark.parametrize("model", [RademacherIID(), RademacherProductMDS()])
def test_enumerated_sign_paths_split_into_ranges(model):
    """Configuration c drives bit t from bit t of c, so any split of
    [0, 2^width) into ranges stacks back into the whole enumeration, and a
    stop past the end is clipped."""
    whole = enumerate_sign_paths(model, 5)
    width = _innovation_width(model, 5)
    assert whole.shape == (2**width, 5)
    parts = [enumerate_sign_paths(model, 5, s, s + 7) for s in range(0, 2**width, 7)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert enumerate_sign_paths(model, 5, 2**width, 2**width + 7).shape == (0, 5)
    # configuration 1 sets only the first driving bit
    e = -np.ones(width)
    e[0] = 1.0
    first = e if isinstance(model, RademacherIID) else e[:-1] * e[1:]
    assert np.array_equal(whole[1], first)


def test_enumerated_sign_paths_need_a_sign_model():
    with pytest.raises(TypeError):
        enumerate_sign_paths(GaussianAR1(rho=0.5), 3)


# ------------------------------------------------------------------ sampling


def test_generate_paths_rows_match_single_streams():
    for model in ALL_MODELS:
        block = generate_paths(model, 12, seed=42, count=5)
        first = generate_paths(model, 12, seed=42, count=1)
        assert np.array_equal(block[:1], first)


def _same_bits(a, b):
    # view as integers so that -0.0 and +0.0 differ
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), b.view(np.uint64))


def _oracle_row(model, p, seed, r):
    """Row r of generate_paths, rebuilt alone from its own stream."""
    rng = path_rng(seed, r)
    if isinstance(model, GaussianAR1):
        z = rng.standard_normal(p)
        scale = math.sqrt(1.0 - model.rho * model.rho)
        x = [float(z[0])]
        for t in range(1, p):
            x.append(model.rho * x[-1] + scale * float(z[t]))
        return np.array(x)
    if isinstance(model, GaussianMA):
        z = rng.standard_normal(p + model.order)
        return np.convolve(z, np.asarray(model.coeffs), mode="valid")
    if isinstance(model, RademacherIID):
        return rng.integers(0, 2, size=p) * 2 - 1
    e = rng.integers(0, 2, size=p + 1) * 2 - 1
    return e[:-1] * e[1:]


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_generate_paths_matches_per_row_generators(model, seed):
    # p = 8 and 9 give both parities of innovation width for every model;
    # the sign models pack two draws into each 64-bit Philox word, and
    # p = 130 spans 17 Philox blocks of four words.
    for p, count in ((1, 1), (1, 1000), (8, 1000), (9, 3), (130, 7)):
        block = generate_paths(model, p, seed, count)
        assert block.shape == (count, p)
        assert block.flags.c_contiguous
        for r in range(count):
            assert _same_bits(_oracle_row(model, p, seed, r), block[r])


# Every model family, with AR(1) at a moderate, a negative and a near-unit rho.
CONTRACT_MODELS = [
    GaussianAR1(rho=0.5),
    GaussianAR1(rho=-0.9),
    GaussianAR1(rho=0.99),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    RademacherIID(),
    RademacherProductMDS(),
]
# p = 1 and 2 give one-word sign rows, 9 and 10 both parities of every
# model's innovation width, and 20 000 several segments of the AR(1) scan
# (one at rho = 0.99, whose segments are longer).
CONTRACT_WIDTHS = (1, 2, 9, 10, 130, 20_000)


@pytest.mark.parametrize("model", CONTRACT_MODELS, ids=repr)
def test_chunks_drawn_from_an_offset_are_rows_of_the_whole_block(model):
    for p in CONTRACT_WIDTHS:
        block = generate_paths(model, p, 6, 11)
        for first, stop in ((0, 4), (4, 5), (5, 11), (3, 10)):
            chunk = generate_paths(model, p, 6, stop - first, first=first)
            assert _same_bits(block[first:stop], chunk), (p, first)


@pytest.mark.parametrize("model", CONTRACT_MODELS, ids=repr)
def test_a_path_is_the_prefix_of_every_longer_path_of_its_stream(model):
    longest = generate_paths(model, CONTRACT_WIDTHS[-1], 6, 5, first=3)
    for p in CONTRACT_WIDTHS[:-1] + (19_999,):
        assert _same_bits(longest[:, :p], generate_paths(model, p, 6, 5, first=3)), p


def test_generate_paths_rejects_a_negative_first_row():
    with pytest.raises(ValueError, match="first"):
        generate_paths(GaussianAR1(rho=0.5), 4, 1, 2, first=-1)


def _chunked(model, p, seed, count, width):
    """The rows of ``_path_chunks`` stacked, each chunk copied before the
    next one reuses its buffer, and the row ranges it handed out."""
    parts, ranges = [], []
    for rows, paths in _path_chunks(model, p, seed, count, width):
        assert paths.shape == (len(rows), p)
        parts.append(paths.copy())
        ranges.append(rows)
    return np.concatenate(parts), ranges


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
@pytest.mark.parametrize("budget", [1, 2048])
def test_path_chunks_are_the_rows_of_generate_paths(monkeypatch, model, budget):
    # p = 9 draws on the caller; p = 1100 is past _OVERLAP_WIDTH, so the
    # Gaussian chunks after the first are drawn on the worker.  At a width
    # of 300, 2048 doubles give six rows a chunk and a last chunk of five.
    monkeypatch.setattr(models, "_CHUNK_DOUBLES", budget)
    start = threading.active_count()
    for p in (9, 1100):
        block, ranges = _chunked(model, p, 6, 11, 300)
        assert _same_bits(block, generate_paths(model, p, 6, 11)), p
        step = max(1, budget // 300)
        assert ranges == [range(r, min(r + step, 11)) for r in range(0, 11, step)]
    assert threading.active_count() == start


def _failing_rows(monkeypatch, fail_at):
    """Patch ``_normal_rows`` so that its fill raises at call ``fail_at``
    (counted from 1; 0 never), and record the thread of every call.  A fill off the main thread first
    sleeps, so that a worker nobody joined is still alive afterwards."""
    normal_rows, threads = models._normal_rows, []

    def patched(seed):
        fill = normal_rows(seed)

        def recorded(out, first):
            threads.append(threading.current_thread())
            if threads[-1] is not threading.main_thread():
                time.sleep(0.2)
            if len(threads) == fail_at:
                raise RuntimeError("draw failed")
            fill(out, first)

        return recorded

    monkeypatch.setattr(models, "_normal_rows", patched)
    return threads


def test_a_worker_error_reaches_the_caller_and_the_worker_is_joined(monkeypatch):
    threads = _failing_rows(monkeypatch, 2)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        for _ in _path_chunks(GaussianAR1(rho=0.5), 1100, 6, 3, 2**17):
            pass
    assert threading.active_count() == start
    # the first chunk is drawn on the caller, the second on the worker
    assert threads[0] is threading.main_thread()
    assert threads[1] is not threading.main_thread()


def test_leaving_the_chunk_loop_early_joins_the_worker(monkeypatch):
    threads = _failing_rows(monkeypatch, 0)
    start = threading.active_count()
    with pytest.raises(KeyError):
        for _ in _path_chunks(GaussianMA(coeffs=(0.6, 0.3)), 1100, 6, 3, 2**17):
            raise KeyError("caller failed")
    assert threading.active_count() == start
    assert len(threads) == 2


@given(
    seed=st.sampled_from([0, 2**63, 2**64 - 1]),
    rows=st.integers(min_value=1, max_value=45),
    n_words=st.integers(min_value=1, max_value=70),
    tile=st.sampled_from([5, 16, models._PHILOX_TILE]),
    first=st.sampled_from([0, 1, 7, 2**40]),
)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error")
def test_philox_words_match_numpy_philox(seed, rows, n_words, tile, first):
    # small tiles cut a block across its rows and across each row's blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_PHILOX_TILE", tile)
        words = models._philox_words(seed, rows, n_words, first)
    assert words.dtype == np.uint64 and words.shape == (rows, n_words)
    for r in range(rows):
        key = np.array([seed, first + r], dtype=np.uint64)
        assert np.array_equal(words[r], np.random.Philox(key=key).random_raw(n_words))


@pytest.mark.parametrize("rows, n_words", [(300_000, 1), (40_000, 9), (3, 70_000)])
def test_philox_words_hold_one_tile_of_buffers(rows, n_words):
    models._philox_words(1, 10, 1)  # numpy's lazy set-up is not counted
    tracemalloc.start()
    try:
        words = models._philox_words(1, rows, n_words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nine buffers, the counter start and the row keys of one tile, however
    # many rows the block has
    assert peak <= words.nbytes + 11 * 8 * models._PHILOX_TILE


@pytest.mark.parametrize("model", [RademacherIID(), RademacherProductMDS()])
@pytest.mark.parametrize("p", [1, 16, 127])
def test_sign_generation_allocates_the_block_its_words_and_one_tile(model, p):
    rows = 3000
    generate_paths(model, p, 1, 10)  # numpy's lazy set-up is not counted
    tracemalloc.start()
    try:
        block = generate_paths(model, p, 1, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the paths and one temporary of their size, the words (8 bytes), their
    # bits (2 bytes) and a one-byte temporary a sign each, and one tile
    n_words = (_innovation_width(model, p) + 1) // 2
    assert peak <= 2 * block.nbytes + 12 * rows * n_words + 11 * 8 * models._PHILOX_TILE


SCAN_RHOS = [-0.95, -0.5, 0.0, 0.3, 0.5, 0.9, 0.999]


def _spy_certificates(monkeypatch):
    """Record whether each certificate ``generate_paths`` asks for holds."""
    held = []
    real = models._certified_starts

    def spy(*args):
        starts = real(*args)
        held.append(starts is not None)
        return starts

    monkeypatch.setattr(models, "_certified_starts", spy)
    return held


@pytest.mark.parametrize("rho", SCAN_RHOS)
def test_ar1_scan_matches_the_oracle_across_segment_boundaries(rho, monkeypatch):
    # Size the warm-up as for a block whose largest |entry| is 8, so that the
    # segment length depends on rho alone, and advance few values per step,
    # so that the five rows fall into several groups.
    real = models._warmup_length
    floor = 2.0 * 8.0 / (1.0 - abs(rho)) + 1.0
    monkeypatch.setattr(models, "_warmup_length", lambda r, bound: real(r, max(bound, floor)))
    monkeypatch.setattr(models, "_SCAN_VALUES", 8)
    held = _spy_certificates(monkeypatch)
    seg = 4 * real(rho, floor)
    widths = {1, 2, 5}
    if 2 * seg + 1 <= 12_000:
        widths |= {k * seg + d for k in (1, 2) for d in (-1, 0, 1)}
    for p in sorted(widths):
        block = generate_paths(GaussianAR1(rho=rho), p, 11, 5)
        for r in range(5):
            assert _same_bits(_oracle_row(GaussianAR1(rho=rho), p, 11, r), block[r]), (p, r)
    # the four widths above seg ran in two groups of rows or more, and each
    # group's certificate held
    assert len(held) >= (8 if len(widths) > 3 else 0)
    assert all(held)


@pytest.mark.parametrize("rho", SCAN_RHOS)
def test_ar1_scan_matches_the_oracle_on_a_long_row(rho):
    model = GaussianAR1(rho=rho)
    block = generate_paths(model, 20_000, 5, 3)
    for r in range(3):
        assert _same_bits(_oracle_row(model, 20_000, 5, r), block[r])


@pytest.mark.parametrize("rho", [-0.5, 0.5, 0.9])
def test_ar1_scan_falls_back_to_the_column_loop(rho, monkeypatch):
    # one warm-up step cannot bring -bound and +bound together
    monkeypatch.setattr(models, "_warmup_length", lambda r, bound: 1)
    held = _spy_certificates(monkeypatch)
    model = GaussianAR1(rho=rho)
    block = generate_paths(model, 50, 8, 4)
    assert held and not any(held)
    for r in range(4):
        assert _same_bits(_oracle_row(model, 50, 8, r), block[r])


def test_ar1_generation_allocates_only_the_block():
    model = GaussianAR1(rho=0.5)
    generate_paths(model, 2_000, 1, 10)  # numpy's lazy set-up is not counted
    tracemalloc.start()
    try:
        block = generate_paths(model, 32_000, 1, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + 2**20
    for r in (0, 50, 99):
        assert _same_bits(_oracle_row(model, 32_000, 1, r), block[r])


def test_path_rng_streams_are_distinct_and_reproducible():
    a = path_rng(7, 0).integers(0, 2**32, 8)
    b = path_rng(7, 1).integers(0, 2**32, 8)
    a_again = path_rng(7, 0).integers(0, 2**32, 8)
    assert np.array_equal(a, a_again)
    assert not np.array_equal(a, b)


def test_ar1_paths_have_stationary_second_moments():
    model = GaussianAR1(rho=0.8)
    block = generate_paths(model, 400, seed=3, count=2000)
    var_per_coord = block.var(axis=0)
    assert abs(var_per_coord.mean() - 1.0) < 0.01
    lag1 = np.mean(block[:, :-1] * block[:, 1:])
    assert abs(lag1 - 0.8) < 0.01


def test_rademacher_paths_are_signs():
    for model in (RademacherIID(), RademacherProductMDS()):
        block = generate_paths(model, 50, seed=9, count=100)
        assert np.all(np.abs(block) == 1.0)


# ------------------------------------------------------------------ profiles


def test_ar1_profile_closed_form():
    rho = 0.5
    profile = dependence_profile(GaussianAR1(rho=rho))
    for k in range(1, 41):
        assert profile.phi_at(k) == pytest.approx(3.0 * rho**k, rel=1e-14)
        assert profile.phi_sq_at(k) == pytest.approx(2.0 * rho ** (2 * k), rel=1e-14)
    assert profile.fourth_moment_sup == 3.0
    assert profile.phi_lag_weighted_sum == pytest.approx(
        3.0 * rho / (1.0 - rho) ** 2, rel=1e-12
    )
    assert profile.phi_sq_sum == pytest.approx(2.0 * rho**2 / (1.0 - rho**2), rel=1e-12)


def test_ma_profile_is_exact_at_every_lag():
    # c_j = 0.95^j, j = 0..80: phi_k = 3 psi_k with psi_k = max_{h >= k} |C(h)|
    # up to the order, and C (so the envelope) is 0 past it
    q = 80
    model = GaussianMA(coeffs=tuple(0.95**j for j in range(q + 1)))
    profile = dependence_profile(model)
    acf = [abs(float(autocovariance(model, h))) for h in range(q + 1)]
    weighted = 0.0
    for k in range(1, q + 1):
        psi = max(acf[k:])
        weighted += k * 3.0 * psi
        assert profile.phi_at(k) == pytest.approx(3.0 * psi, rel=1e-12)
        assert profile.phi_sq_at(k) == pytest.approx(2.0 * acf[k] ** 2, rel=1e-12)
    for k in (q + 1, q + 2, 200):
        assert profile.phi_at(k) == 0.0
        assert profile.phi_sq_at(k) == 0.0
    assert profile.phi_lag_weighted_sum == pytest.approx(weighted, rel=1e-12)


@pytest.mark.parametrize(
    "model", ALL_MODELS + [GaussianMA(coeffs=tuple(0.95**j for j in range(81)))]
)
def test_covariance_matrix_is_the_integer_lag_autocovariance(model):
    # covariance_matrix passes its lags as whole doubles
    for p in (1, 5, 120):
        idx = np.arange(p)
        want = autocovariance(model, np.abs(idx[:, None] - idx[None, :]))
        assert covariance_matrix(model, p).tobytes() == want.tobytes()


CUMULANT_MODELS = [
    GaussianAR1(rho=0.5),
    GaussianAR1(rho=0.9),
    GaussianMA(coeffs=(0.6, 0.3, 0.1)),
    RademacherIID(),
    RademacherProductMDS(),
]


@pytest.mark.parametrize("model", CUMULANT_MODELS)
def test_fourth_cumulant_is_excess_kurtosis_on_the_diagonal_only(model):
    # the moment identity over every (j, k, l) of a 6-lag window, from
    # exact_product_moment alone, against the claim excess_kurtosis makes
    kappa4 = excess_kurtosis(model)
    assert kappa4 == (0.0 if isinstance(model, (GaussianAR1, GaussianMA)) else -2.0)
    for j in range(6):
        for k in range(6):
            for l in range(6):
                want = kappa4 if j == k == l == 0 else 0.0
                assert fourth_cumulant(model, j, k, l) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("model", CUMULANT_MODELS)
def test_profile_fourth_moment_is_three_plus_excess_kurtosis(model):
    assert dependence_profile(model).fourth_moment_sup == 3.0 + excess_kurtosis(model)


def test_excess_kurtosis_rejects_unknown_models():
    # the autocovariance table is the one guard of every second-order value
    unknown = object()
    for call in (
        lambda: excess_kurtosis(unknown),
        lambda: autocovariance(unknown, 1),
        lambda: dependence_profile(unknown),
        lambda: lrv_true(unknown),
        lambda: gamma_q(unknown, 1.0),
        lambda: exact_bias(unknown, Kernel("bartlett"), 2.0, 10),
    ):
        with pytest.raises(TypeError):
            call()


def test_rademacher_profiles_are_trivial():
    for model in (RademacherIID(), RademacherProductMDS()):
        profile = dependence_profile(model)
        assert profile.fourth_moment_sup == 1.0
        assert profile.phi_lag_weighted_sum == 0.0
        assert profile.phi_sq_sum == 0.0


ma_models = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6
).filter(lambda c: any(abs(v) > 1e-3 for v in c)).map(lambda c: GaussianMA(coeffs=tuple(c)))


@given(
    model=st.one_of(
        rhos.map(lambda rho: GaussianAR1(rho=rho)),
        ma_models,
        st.sampled_from([RademacherIID(), RademacherProductMDS()]),
    )
)
@settings(max_examples=80, deadline=None)
def test_profile_envelopes_dominate_exact_covariances(model):
    """phi really bounds |cov(X_1, X_{1+k} X_{1+k} X_{1+k})|-type terms."""
    profile = dependence_profile(model)
    for gap in range(1, 9):
        # pair covariance at the gap
        pair = abs(float(autocovariance(model, gap)))
        assert pair <= profile.phi_at(gap) + 1e-12
        # one-vs-three split across the gap; E X_1 = 0 makes the product
        # moment the covariance itself
        m1 = exact_product_moment(model, (1, 1 + gap, 1 + gap, 2 + gap))
        assert abs(m1) <= profile.phi_at(gap) + 1e-12
        # squared-variable channel
        sq = exact_product_moment(model, (1, 1, 1 + gap, 1 + gap)) - 1.0
        assert abs(sq) <= profile.phi_sq_at(gap) + 1e-12


def test_profile_rejects_increasing_phi():
    for fields, match in (
        ({"phi": [0.1, 0.5], "phi_sq": [0.0, 0.0]}, "non-increasing"),
        # the tail's first value continues the stored envelope
        ({"phi": [0.1], "phi_sq": [0.0], "phi_tail": (3.0, 0.5)}, "non-increasing"),
        ({"phi": [0.5, 0.1], "phi_sq": [0.0]}, "one length"),
        ({"phi": [], "phi_sq": [], "phi_tail": (3.0, 1.0)}, "geometric"),
        ({"phi": [], "phi_sq": [], "phi_sq_tail": (2.0, 1.5)}, "geometric"),
        ({"phi": [], "phi_sq": [], "phi_tail": (-1.0, 0.5)}, "geometric"),
    ):
        with pytest.raises(ValueError, match=match):
            DependenceProfile(fourth_moment_sup=1.0, **fields)


def test_profile_tail_continues_envelope():
    profile = dependence_profile(GaussianAR1(rho=0.5))
    # the geometric tail dominates the true covariance at every lag
    for lag in (9, 12, 20):
        assert abs(float(autocovariance(GaussianAR1(rho=0.5), lag))) <= profile.phi_at(lag)

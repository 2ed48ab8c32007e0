"""Weakly dependent unit-variance sequences and their dependence profiles.

A dependence profile summarises how fast mixed product covariances of a
stationary sequence decay.  For a centred, unit-variance sequence X_1, X_2, ...
with bounded fourth moments we track a non-increasing envelope ``phi`` with

    |cov(X_i, X_j X_k X_l)| <= phi[j - i]      (i < j <= k <= l)
    |cov(X_i X_j X_k, X_l)| <= phi[l - k]      (i <= j <= k < l)
    |cov(X_i X_j, X_k X_l)| <= phi[k - j]      (i <= j < k <= l)
    |cov(X_i, X_j)|         <= phi[j - i]      (i < j)

and a second sequence ``phi_sq`` with cov(X_i^2, X_j^2) <= phi_sq[j - i].
The aggregates that enter the variance bounds are the supremum of fourth
moments, the lag-weighted sum of ``phi`` and the plain sum of ``phi_sq``.

Each model's second-order law is one table, ``_acf``: the autocovariance
at the lags 0..L the model sets one by one (AR(1) and the sign models
L = 0, MA(q) L = q) and a geometric tail past them.  The table and the
excess kurtosis, every model's whole joint fourth cumulant, fix the exact
profile by one pairing rule (``dependence_profile``), and the long-run
variance and spectral sums read the same table.  A profile stores each
envelope at the lags 1..L and a geometric tail past them, and derives the
sums from both.  Sampling uses a counter-based generator keyed by (seed,
stream), so any path is reproducible in isolation regardless of execution
order.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

_MASK64 = (1 << 64) - 1

__all__ = [
    "GaussianAR1",
    "GaussianMA",
    "RademacherIID",
    "RademacherProductMDS",
    "CovarianceModel",
    "DependenceProfile",
    "path_rng",
    "generate_paths",
    "enumerate_sign_paths",
    "autocovariance",
    "covariance_matrix",
    "isserlis_fourth_moment",
    "exact_product_moment",
    "excess_kurtosis",
    "dependence_profile",
]


@dataclass(frozen=True)
class GaussianAR1:
    """Stationary Gaussian AR(1) with unit marginal variance, C(j) = rho^|j|."""

    rho: float

    def __post_init__(self):
        if not (abs(self.rho) < 1.0):
            raise ValueError(f"rho must satisfy |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class GaussianMA:
    """Gaussian moving average X_t = sum_j c_j e_{t-j}, rescaled to variance 1.

    Coefficients are normalised at construction so that sum(c_j^2) = 1; the
    stored tuple is the normalised one.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        norm = math.sqrt(float(c @ c))
        if norm == 0.0:
            raise ValueError("coeffs must not all be zero")
        object.__setattr__(self, "coeffs", tuple(float(v) for v in c / norm))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RademacherIID:
    """Independent signs, P(X = +1) = P(X = -1) = 1/2."""


@dataclass(frozen=True)
class RademacherProductMDS:
    """X_t = e_{t-1} e_t for independent signs e_j, t >= 1.

    A martingale difference sequence with X_t^2 = 1, but not a dependent
    one: the map from (e_0, ..., e_p) to (X_1, ..., X_p) is two-to-one onto
    all 2^p sign vectors, so X_1..X_p are i.i.d. Rademacher, the law of
    ``RademacherIID``.
    """


CovarianceModel = Union[GaussianAR1, GaussianMA, RademacherIID, RademacherProductMDS]


def path_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Philox is keyed directly with the pair, so streams for distinct indices
    never overlap and any one of them can be reconstructed independently.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _innovation_width(model: CovarianceModel, p: int) -> int:
    """Innovations one path of length p consumes."""
    if isinstance(model, (GaussianAR1, RademacherIID)):
        return p
    if isinstance(model, GaussianMA):
        return p + model.order
    if isinstance(model, RademacherProductMDS):
        return p + 1
    raise TypeError(f"unknown model {model!r}")


def _signs_to_paths(model: CovarianceModel, bits: np.ndarray) -> np.ndarray:
    """Rows of exact +-1 paths from rows of ``_innovation_width`` driving
    bits (0 or 1), e = 2 bit - 1: X_t = e_t for ``RademacherIID`` and
    X_t = e_{t-1} e_t for ``RademacherProductMDS``."""
    if isinstance(model, RademacherIID):
        return bits * 2.0 - 1.0
    if isinstance(model, RademacherProductMDS):
        # e_{t-1} e_t = +1 exactly when the two driving bits agree.
        return 1.0 - 2.0 * (bits[:, :-1] ^ bits[:, 1:])
    raise TypeError(f"{model!r} is not a sign model")


def enumerate_sign_paths(
    model: CovarianceModel, p: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """The +-1 paths of length p of driving-sign configurations start..stop-1,
    one a row, where bit t of configuration c is driving bit t: what
    ``brute_force_variance`` and the sign-enumeration test oracles average
    over.

    ``stop`` defaults to, and is clipped at, the number of configurations:
    2^p for ``RademacherIID`` and 2^(p+1) for ``RademacherProductMDS``.
    Other models raise TypeError.
    """
    width = _innovation_width(model, p)
    stop = 1 << width if stop is None else min(stop, 1 << width)
    idx = np.arange(start, stop, dtype=np.int64)
    return _signs_to_paths(model, (idx[:, None] >> np.arange(width)) & 1)


# Doubles one chunk of Monte Carlo rows spans: the callers that average
# over many rows draw them ``_row_chunks`` at a time, never as one block.
# On the benchmark's lrv_mse sweep (100 rows of up to 32 000 values, 2 vCPU
# Xeon, one BLAS thread, fresh processes, median of 8) budgets of 2**16,
# 2**17, 2**18 and 2**19 took 0.375, 0.330, 0.309 and 0.292 s against
# 0.375 s for whole blocks, and peaked 5.4, 6.9, 10.4 and 18.3 MiB above
# the baseline against 26.8 MiB.  From 2**18 on, a chunk's two FFT arrays
# outgrow a whole block of 20 rows of 20 000 values.
_CHUNK_DOUBLES = 2**17


def _row_chunks(count: int, width: int) -> list[range]:
    """Rows 0..count-1 as consecutive ranges of at most
    ``_CHUNK_DOUBLES // width`` rows each, and at least one row."""
    step = max(1, _CHUNK_DOUBLES // width)
    return [range(first, min(first + step, count)) for first in range(0, count, step)]


# Values one step of the segmented AR(1) scan advances at most.  A step
# touches one cache line per value, so fewer values per step cost more loop
# steps, and more spill the lines a step revisits out of cache; on 100 x
# 32 000 blocks about 2 000 a step ran fastest at rho = 0.3, 0.5 and 0.9.
_SCAN_VALUES = 2048


def _warmup_length(rho: float, bound: float) -> int:
    """Steps after which two runs of the AR(1) step from -bound and +bound
    meet bit for bit, failing for about one start in 2**33.

    Their gap shrinks from 2 * bound by |rho| a step.  Over 3e6 starts each
    at rho = 0.1, 0.5 and 0.9, the share still apart once
    |rho|**steps * bound = 2**-b fell about as 2**(55 - b); b = 88 here.
    """
    if rho == 0.0:
        return 1
    return math.ceil((88.0 + math.log2(bound)) / -math.log2(abs(rho)))


def _columns(x: np.ndarray, first: int, steps: int, seg: int, n: int) -> np.ndarray:
    """The view v with v[t][k] = x[:, first + t + k * seg] for k < n: step t
    of a scan over n segments of ``seg`` columns as one (n, rows) array, or
    as a (rows,) array for one segment, which numpy loops over faster."""
    if first + steps - 1 + (n - 1) * seg >= x.shape[1]:
        raise IndexError("segments run past the last column")
    row, col = x.strides
    if n == 1:
        shape, strides = (steps, x.shape[0]), (col, row)
    else:
        shape, strides = (steps, n, x.shape[0]), (col, seg * col, row)
    return np.lib.stride_tricks.as_strided(x[:, first:], shape=shape, strides=strides)


def _ar1_scan(x: np.ndarray, rho: float, seg: int, starts: np.ndarray | None = None) -> None:
    """x[:, t] = fl(fl(rho * x[:, t-1]) + x[:, t]) in place, for t >= 1.

    The columns are cut into segments of ``seg``, the last one maybe
    shorter; step t advances column t of every segment at once, so the loop
    takes ``seg`` steps.  ``starts`` holds the values the later segments
    start from, x[:, k * seg - 1] for k >= 1, shaped as one step over those
    segments; without it there must be one segment.
    """
    n = -(-x.shape[1] // seg)
    last = x.shape[1] - (n - 1) * seg
    if starts is not None:
        col = _columns(x, seg, 1, seg, n - 1)[0]
        np.add(np.multiply(starts, rho, out=starts), col, out=col)
    # columns 0 .. last - 1 of every segment, then last - 1 .. seg - 1 of
    # all but the last one, which has ended; each phase's first column only
    # feeds the step after it
    for segments, first, steps in ((n, 0, last), (n - 1, last - 1, seg - last + 1)):
        if segments == 0:
            continue
        columns = iter(_columns(x, first, steps, seg, segments))
        prev = next(columns)
        if segments == 1:
            # a step is one column, and two ufunc calls beat three
            lagged = np.empty(prev.shape)
            for col in columns:
                np.add(np.multiply(prev, rho, out=lagged), col, out=col)
                prev = col
        else:
            # a step is strided in two axes: a contiguous copy of the running
            # values saves re-reading them from the block (30 % faster on a
            # 100 x 32 000 block)
            state = prev.copy()
            for col in columns:
                np.add(np.multiply(state, rho, out=state), col, out=state)
                col[...] = state


def _certified_starts(
    x: np.ndarray, rho: float, seg: int, warm: int, bound: float
) -> np.ndarray | None:
    """The exact x[:, k * seg - 1] (k >= 1) of the recursion ``_ar1_scan``
    runs on the innovations in x, shaped as in ``_ar1_scan``, or None if any
    of them is not proven.

    Each start is run over its last ``warm`` innovations from -bound and
    from +bound (Propp & Wilson's monotone coupling).  In the order of
    doubles that puts -0 below +0 the step is monotone in the previous value
    (antitone for rho < 0), and every value of the recursion lies in
    [-bound, bound], so the true start lies between the two runs: where they
    agree bit for bit, it is their common value.
    """
    columns = _columns(x, seg - warm, warm, seg, -(-x.shape[1] // seg) - 1)
    runs = np.empty((2,) + columns.shape[1:])
    runs[0] = -bound
    runs[1] = bound
    for col in columns:
        np.add(np.multiply(runs, rho, out=runs), col, out=runs)
    low, high = runs.view(np.uint64)
    return runs[0] if np.array_equal(low, high) else None


def _ar1_recursion(block: np.ndarray, rho: float) -> None:
    """Turn x[:, 0] and innovations x[:, t], t >= 1, into the AR(1) path
    x[:, t] = fl(fl(rho * x[:, t-1]) + x[:, t]) in place, with the bits of
    a loop over the columns but in about 5 W loop steps per group of rows,
    W = ``_warmup_length``, instead of one per column.

    Every value has |x_t| <= bound = 2 M / (1 - |rho|) + 1, M the largest
    |entry|: M / (1 - |rho|) bounds the exact recursion, and the slack
    covers rounding once 1 - |rho| > 1e-14, which holds whenever 4 W is
    below a width that fits in memory.  The rows are cut into segments of
    L = 4 W columns, and each segment's start is certified by
    ``_certified_starts``; a group of rows with any start unproven runs as
    one segment, the plain loop.
    """
    count, width = block.shape
    bound = 2.0 * float(max(block.max(), -block.min())) / (1.0 - abs(rho)) + 1.0
    warm = _warmup_length(rho, bound)
    seg = 4 * warm
    if seg >= width:
        _ar1_scan(block, rho, width)
        return
    rows = max(1, _SCAN_VALUES // -(-width // seg))
    for first in range(0, count, rows):
        chunk = block[first : first + rows]
        starts = _certified_starts(chunk, rho, seg, warm, bound)
        if starts is None:
            _ar1_scan(chunk, rho, width)
        else:
            _ar1_scan(chunk, rho, seg, starts)


# Philox4x64-10 constants (Salmon et al., SC 2011), as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# (row, block) pairs ``_philox_words`` keys at a time.  Its nine uint64
# buffers hold one value a pair, so they stay in cache and do not grow with
# the block.  On blocks of 2**18 words (2 vCPU Xeon, median of 9) tiles of
# 2**12 took 0.014-0.066 s over 1-512 words a row, 2**14 0.008-0.035 s and
# 2**16 0.013-0.049 s.  At 2**14 the kernel beat re-keying numpy's Philox
# once per row up to 64 words a row (0.012 s against 0.016 s at 64), tied
# at 128 and lost at 512 (0.008 s against 0.004 s).
_PHILOX_TILE = 2**14


def _mulhi(
    a: np.ndarray, m: int, hi: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray
) -> None:
    """hi = the high word of the 128-bit product a * m, for a constant
    m < 2**64, from 32-bit halves (Warren, Hacker's Delight, 8-2); t, u and v
    are scratch of a's shape, and no partial sum reaches 2**64."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    np.bitwise_and(a, 0xFFFFFFFF, out=u)
    np.multiply(u, m_lo, out=t)
    np.right_shift(t, 32, out=t)
    np.multiply(u, m_hi, out=u)
    np.add(t, u, out=t)
    np.bitwise_and(t, 0xFFFFFFFF, out=u)
    np.right_shift(t, 32, out=t)
    np.right_shift(a, 32, out=hi)
    np.multiply(hi, m_lo, out=v)
    np.add(u, v, out=u)
    np.right_shift(u, 32, out=u)
    np.multiply(hi, m_hi, out=hi)
    np.add(hi, t, out=hi)
    np.add(hi, u, out=hi)


def _philox_tile(seed: int, rows: range, blocks: range) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 block b of numpy's ``Philox(key=[seed, r])`` for r in
    ``rows`` and b in ``blocks``, as four (rows, blocks) uint64 lanes.

    Block b is the cipher of the counter (b + 1, 0, 0, 0) under the key
    (seed, r): numpy bumps the counter before each block, and it never
    carries out of its low word.  The lanes are updated in place.
    """
    shape = (len(rows), len(blocks))
    v0, v1, v2, v3 = (np.zeros(shape, dtype=np.uint64) for _ in range(4))
    v0[:] = np.arange(blocks.start + 1, blocks.stop + 1, dtype=np.uint64)
    scratch = [np.empty(shape, dtype=np.uint64) for _ in range(4)]
    hi = scratch[0]
    k0 = seed & _MASK64
    k1 = np.arange(rows.start, rows.stop, dtype=np.uint64)[:, None]
    for round_ in range(10):
        if round_:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            np.add(k1, _PHILOX_W[1], out=k1)
        # (mulhi(M1 v2) ^ v1 ^ k0, M1 v2, mulhi(M0 v0) ^ v3 ^ k1, M0 v0),
        # formed in the slots of v1, v2, v3 and v0
        for a, m, out, key in ((v2, _PHILOX_M[1], v1, k0), (v0, _PHILOX_M[0], v3, k1)):
            _mulhi(a, m, *scratch)
            np.bitwise_xor(out, hi, out=out)
            np.bitwise_xor(out, key, out=out)
            np.multiply(a, m, out=a)
        v0, v1, v2, v3 = v1, v2, v3, v0
    return v0, v1, v2, v3


def _philox_words(seed: int, rows: int, n_words: int, first: int = 0) -> np.ndarray:
    """The first ``n_words`` words of numpy's ``Philox(key=[seed, first + r])``
    for r < rows, as a (rows, n_words) uint64 array, keyed a tile of at most
    ``_PHILOX_TILE`` (row, block) pairs at a time.
    """
    blocks = -(-n_words // 4)
    tile_blocks = min(blocks, _PHILOX_TILE)
    tile_rows = _PHILOX_TILE // tile_blocks
    words = np.empty((rows, n_words), dtype=np.uint64)
    for r in range(0, rows, tile_rows):
        tile_r = range(first + r, first + min(r + tile_rows, rows))
        for b in range(0, blocks, tile_blocks):
            tile_b = range(b, min(b + tile_blocks, blocks))
            for i, lane in enumerate(_philox_tile(seed, tile_r, tile_b)):
                # word 4 b + i of a row is lane i of block b
                out = words[r : r + len(tile_r), 4 * b + i : 4 * tile_b.stop : 4]
                out[...] = lane[:, : out.shape[1]]
    return words


def _sign_paths(model: CovarianceModel, p: int, seed: int, count: int, first: int) -> np.ndarray:
    """Rows first..first + count - 1 of a sign model's block, keyed all at
    once by ``_philox_words``."""
    # integers(0, 2) spends one 32-bit half of a 64-bit Philox word per
    # draw, low half first, and keeps the top bit of that half: bits 31 and
    # 63 of each word, in that order.
    width = _innovation_width(model, p)
    words = _philox_words(seed, count, (width + 1) // 2, first)
    bits = np.empty((count, 2 * words.shape[1]), dtype=np.uint8)
    bits[:, 0::2] = (words >> 31) & 1
    bits[:, 1::2] = words >> 63
    return _signs_to_paths(model, bits[:, :width])


def _normal_rows(seed: int) -> Callable[[np.ndarray, int], None]:
    """``fill(out, first)``: row r of out gets the ``standard_normal``
    draws of stream (seed, first + r).  One Philox generator serves every
    row, re-keyed to its stream with a fresh counter instead of built anew.
    The fill of a row runs in numpy without the GIL, so a fill on another
    thread overlaps the caller's work."""
    bitgen = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    # The state setter reads plain ints and lists faster than the ndarray
    # entries the getter returns, so re-key through a converted copy.
    fresh = bitgen.state
    state = {
        **fresh,
        "state": {name: v.tolist() for name, v in fresh["state"].items()},
        "buffer": fresh["buffer"].tolist(),
    }
    key = state["state"]["key"]
    gen = np.random.Generator(bitgen)

    def fill(out: np.ndarray, first: int) -> None:
        for r in range(out.shape[0]):
            key[1] = (first + r) & _MASK64
            bitgen.state = state
            gen.standard_normal(out=out[r])

    return fill


def _gaussian_paths(
    model: CovarianceModel, block: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The paths of a block of innovation rows: AR(1) paths in place in
    ``block``, MA paths in ``out`` (a new array if None)."""
    if isinstance(model, GaussianAR1):
        # x_t = rho * x_{t-1} + w_t, with w_t = scale * z_t formed first in
        # one pass; each step is then one multiply and one add.
        block[:, 1:] *= math.sqrt(1.0 - model.rho * model.rho)
        _ar1_recursion(block, model.rho)
        return block
    c = np.asarray(model.coeffs)
    rows, width = block.shape
    out = np.empty((rows, width - model.order)) if out is None else out[:rows]
    for r in range(rows):
        out[r] = np.convolve(block[r], c, mode="valid")
    return out


def generate_paths(
    model: CovarianceModel, p: int, seed: int, count: int, first: int = 0
) -> np.ndarray:
    """Sample `count` independent paths as a C-order (count, p) array.

    Row r is drawn from stream (seed, first + r) and equals what
    ``path_rng(seed, first + r)`` yields through ``standard_normal``
    (Gaussian models) or ``integers(0, 2)`` (sign models) followed by the
    model's transform.  So rows first..first + count - 1 of a block can be
    drawn as a chunk of their own, with the same bits, and a length-p path
    is the prefix of every longer path of its stream: each transform reads
    a row's draws in order.  Sign blocks are keyed all at once by
    ``_philox_words``.  Gaussian blocks are drawn by ``_normal_rows`` and
    then transformed; ``_path_chunks`` takes the same two steps a chunk at a
    time.

    The AR(1) recursion x_t = fl(fl(rho x_{t-1}) + w_t) gives the bits of a
    loop over the columns without one Python step per column.  Each row is
    cut into segments of L = 4 W columns, and step t of a segmented scan
    advances column t of every segment of a group of rows at once, so the
    loop takes about 5 W steps per group instead of ``p``.  W grows with
    log(1/|rho|)^-1 (93 at rho = 0.5).  A segment's start value is proven
    exact by a monotone-coupling certificate (Propp & Wilson, 1996): the
    step is monotone in x and every value is bounded by B, so W steps from
    -B and from +B bracket the true start, and when the two agree bit for
    bit their common value is the start.  A group of rows with any start
    unproven, a width of at most L and a rho near 1 all run as one segment,
    which is the plain loop over the columns.  The scan works in place, with
    no temporary the size of the block.
    """
    if p < 1 or count < 1:
        raise ValueError("p and count must be >= 1")
    if first < 0:
        raise ValueError(f"first must be >= 0, got {first}")
    if isinstance(model, (RademacherIID, RademacherProductMDS)):
        return _sign_paths(model, p, seed, count, first)
    block = np.empty((count, _innovation_width(model, p)))
    _normal_rows(seed)(block, first)
    return _gaussian_paths(model, block)


# Innovations a Gaussian row must hold before ``_path_chunks`` draws the
# next chunk on a worker thread.  Re-keying a row holds the GIL for about
# 1.4 us and its fill releases it for about 15 ns a value (2 vCPU Xeon,
# numpy 2.4), so on short rows the worker and the caller's transform take
# turns at the GIL.  quadform_var over 2e6 values a run took 1.0-1.5 times
# as long with the worker as without at p = 16 ... 512 (AR(1) and MA(2)),
# and 0.76-0.91 times at p = 1024 and 2048.
_OVERLAP_WIDTH = 1024


def _path_chunks(
    model: CovarianceModel, p: int, seed: int, count: int, width: int
) -> Iterator[tuple[range, np.ndarray]]:
    """``(rows, paths)`` for each range of ``_row_chunks(count, width)``,
    paths the bits of ``generate_paths(model, p, seed, len(rows),
    first=rows.start)``.

    The paths of a Gaussian model live in buffers the next chunk reuses, so
    read them before asking for the next chunk.  On rows of at least
    ``_OVERLAP_WIDTH`` innovations, while the caller works on chunk k, one
    worker thread (a new one per chunk, never two at once) draws chunk
    k + 1's innovations into the spare of two chunk buffers, and the caller
    keeps the model transform: the draws run in numpy without the GIL, and
    the AR(1) scan's small ufunc calls do not.  The worker calls nothing but ``_normal_rows``'s fill, so it cannot
    change a bit: each row is re-keyed to its own stream.  It is joined
    before the next chunk is handed out and on every way out of the loop,
    and what it raises is raised here.  Shorter rows are drawn on the
    caller, into one buffer, and sign chunks are keyed on the caller, a
    chunk at a time.
    """
    chunks = _row_chunks(count, width)
    if isinstance(model, (RademacherIID, RademacherProductMDS)):
        for rows in chunks:
            yield rows, _sign_paths(model, p, seed, len(rows), rows.start)
        return
    fill = _normal_rows(seed)
    shape = (len(chunks[0]), _innovation_width(model, p))
    overlap = len(chunks) > 1 and shape[1] >= _OVERLAP_WIDTH
    block, spare = np.empty(shape), np.empty(shape) if overlap else None
    out = np.empty((shape[0], p)) if isinstance(model, GaussianMA) else None
    errors: list[BaseException] = []

    def draw(rows: np.ndarray, first: int) -> None:
        try:
            fill(rows, first)
        except BaseException as exc:  # raised again on the caller after the join
            errors.append(exc)

    fill(block, 0)
    worker = None
    try:
        for rows, after in zip(chunks, chunks[1:] + [None]):
            if after is not None and overlap:
                worker = threading.Thread(target=draw, args=(spare[: len(after)], after.start))
                worker.start()
            yield rows, _gaussian_paths(model, block[: len(rows)], out)
            if worker is not None:
                worker.join()
                worker = None
                if errors:
                    raise errors[0]
                block, spare = spare, block
            elif after is not None:
                fill(block[: len(after)], after.start)
    finally:
        if worker is not None:
            worker.join()


def _acf(model: CovarianceModel) -> tuple[np.ndarray, tuple[float, float]]:
    """The model's second-order law as ``(head, (coeff, ratio))``: head[j]
    is C(j) for the lags 0..L = head.size - 1 the model sets one by one,
    and C(j) = coeff * ratio**j past L."""
    if isinstance(model, GaussianAR1):
        return np.ones(1), (1.0, float(model.rho))
    if isinstance(model, GaussianMA):
        c = np.asarray(model.coeffs)
        return np.array([float(c[: c.size - h] @ c[h:]) for h in range(c.size)]), (0.0, 0.0)
    if isinstance(model, (RademacherIID, RademacherProductMDS)):
        return np.ones(1), (0.0, 0.0)
    raise TypeError(f"unknown model {model!r}")


def autocovariance(model: CovarianceModel, lag) -> np.ndarray | float:
    """C(lag) = cov(X_t, X_{t+lag}); accepts scalars or arrays of integer
    lags, stored as integers or as whole doubles."""
    head, (coeff, ratio) = _acf(model)
    last = head.size - 1
    j = np.abs(np.asarray(lag))
    out = np.where(
        j <= last,
        head[np.minimum(j, last).astype(np.intp)],
        coeff * np.power(ratio, j.astype(float)),
    )
    return float(out) if np.isscalar(lag) else out


def covariance_matrix(model: CovarianceModel, p: int) -> np.ndarray:
    """The p x p Toeplitz matrix [C(|i-j|)]."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    # whole-double lags: the int64 abs and == loops would page in about
    # 0.2 MiB more of NumPy when an exact moment is the first caller
    idx = np.arange(p, dtype=float)
    return autocovariance(model, np.abs(idx[:, None] - idx[None, :]))


def isserlis_fourth_moment(s_ij, s_ik, s_il, s_jk, s_jl, s_kl) -> float:
    """E[X_i X_j X_k X_l] for centred jointly Gaussian variables: the sum of
    the three pairings s_ij*s_kl + s_ik*s_jl + s_il*s_jk."""
    return float(s_ij * s_kl + s_ik * s_jl + s_il * s_jk)


def _gaussian_moment(model, indices) -> float:
    if len(indices) % 2 == 1:
        return 0.0
    if len(indices) == 0:
        return 1.0
    if len(indices) == 2:
        a, b = indices
        return float(autocovariance(model, b - a))
    if len(indices) == 4:
        i, j, k, l = indices
        s = lambda a, b: float(autocovariance(model, b - a))
        return isserlis_fourth_moment(s(i, j), s(i, k), s(i, l), s(j, k), s(j, l), s(k, l))
    raise ValueError("Gaussian product moments implemented up to order 4")


def exact_product_moment(model: CovarianceModel, indices) -> float:
    """Exact E[X_{i1} * ... * X_{in}] at the given (1-based) positions.

    Gaussian models use Isserlis pairings (orders <= 4).  Rademacher models
    reduce to the driving signs: the product's mean is 1 if every sign
    occurs an even number of times and 0 otherwise, which is exact for any
    order.  Bit s - 1 of an XOR mask tracks the parity of sign s: X_i = e_i
    flips bit i - 1, and X_i = e_{i-1} e_i flips bits i - 2 and i - 1.
    """
    idx = tuple(map(int, indices))
    if idx and min(idx) < 1:
        raise ValueError("positions must be >= 1")
    if isinstance(model, (GaussianAR1, GaussianMA)):
        return _gaussian_moment(model, tuple(sorted(idx)))
    if isinstance(model, (RademacherIID, RademacherProductMDS)):
        flips = 1 if isinstance(model, RademacherIID) else 3
        mask = 0
        for i in idx:
            mask ^= flips << (i - 1)
        return 0.0 if mask else 1.0
    raise TypeError(f"unknown model {model!r}")


def excess_kurtosis(model: CovarianceModel) -> float:
    """kappa_4 = E X^4 - 3, and with it the whole joint fourth cumulant.

    Every model here has kappa(X_i, X_j, X_k, X_l) = kappa_4 1{i = j = k = l}:
    a Gaussian vector has no cumulant past the second (kappa_4 = 0), and both
    sign models are i.i.d. Rademacher in law (see ``RademacherProductMDS``),
    so their mixed cumulants vanish and kappa_4 = 1 - 3 = -2.
    """
    if isinstance(model, (GaussianAR1, GaussianMA)):
        return 0.0
    if isinstance(model, (RademacherIID, RademacherProductMDS)):
        return -2.0
    raise TypeError(f"unknown model {model!r}")


@dataclass(frozen=True)
class DependenceProfile:
    """Certified dependence envelopes for one model, valid at every lag.

    ``phi`` and ``phi_sq`` hold the envelopes at the lags 1..L the model
    sets one by one (L = len(phi), maybe 0).  Past lag L each envelope is
    the geometric tail coeff * ratio**lag of its pair ``(coeff, ratio)``,
    ``phi_tail`` or ``phi_sq_tail``.  The sums the bounds read are derived
    from the stored values plus the tails in closed form, so nothing is
    stored twice.
    """

    phi: np.ndarray
    phi_sq: np.ndarray
    fourth_moment_sup: float
    phi_tail: tuple[float, float] = (0.0, 0.0)
    phi_sq_tail: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).copy()
        phi_sq = np.asarray(self.phi_sq, dtype=float).copy()
        if phi.ndim != 1 or phi_sq.shape != phi.shape:
            raise ValueError("phi and phi_sq must be 1-D arrays of one length")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(phi_sq))):
            raise ValueError("profile entries must be finite")
        if np.any(phi < 0) or np.any(phi_sq < 0):
            raise ValueError("profile entries must be non-negative")
        for coeff, ratio in (self.phi_tail, self.phi_sq_tail):
            if not (0.0 <= ratio < 1.0 and 0.0 <= coeff < math.inf):
                raise ValueError("a tail must be geometric: coeff >= 0, ratio in [0, 1)")
        coeff, ratio = self.phi_tail
        if np.any(np.diff(np.append(phi, coeff * ratio ** (phi.size + 1))) > 1e-12):
            raise ValueError("phi must be non-increasing")
        if self.fourth_moment_sup < 1.0:
            raise ValueError("sup E X^4 >= (E X^2)^2 = 1 for unit variance")
        phi.setflags(write=False)
        phi_sq.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_sq", phi_sq)

    def phi_at(self, lag: int) -> float:
        """phi at a 1-based lag: the stored value, or the tail past them."""
        return _envelope_at(self.phi, self.phi_tail, lag)

    def phi_sq_at(self, lag: int) -> float:
        """phi_sq at a 1-based lag: the stored value, or the tail past them."""
        return _envelope_at(self.phi_sq, self.phi_sq_tail, lag)

    @property
    def phi_lag_weighted_sum(self) -> float:
        """sum_k k phi_k over every lag; past L = len(phi) the tail adds
        sum_{k > L} k c r^k = c r^(L+1) (L + 1 - L r) / (1 - r)^2."""
        L = self.phi.size
        c, r = self.phi_tail
        head = float(np.arange(1, L + 1, dtype=float) @ self.phi)
        return head + c * r ** (L + 1) * ((L + 1) - L * r) / (1.0 - r) ** 2

    @property
    def phi_sq_sum(self) -> float:
        """sum_k phi_sq_k over every lag; past L the tail adds c s^(L+1) / (1 - s)."""
        L = self.phi_sq.size
        c, s = self.phi_sq_tail
        return float(self.phi_sq.sum()) + c * s ** (L + 1) / (1.0 - s)

    @property
    def hollow_coefficient_sum(self) -> float:
        """sup E X^4 + sum_k k*phi_k: the factor for zero-diagonal bounds."""
        return self.fourth_moment_sup + self.phi_lag_weighted_sum

    @property
    def general_coefficient_sum(self) -> float:
        """Adds the squared-variable covariance mass needed once diagonals enter."""
        return self.hollow_coefficient_sum + self.phi_sq_sum


def _envelope_at(head: np.ndarray, tail: tuple[float, float], lag: int) -> float:
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag <= head.size:
        return float(head[lag - 1])
    coeff, ratio = tail
    return coeff * ratio**lag


def dependence_profile(model: CovarianceModel) -> DependenceProfile:
    """Exact dependence profile of a model, valid at every lag, from its
    ``_acf`` table and ``excess_kurtosis``.

    No covariance the profile bounds puts all four indices at one position,
    so the fourth cumulant drops out and each is a sum of at most three
    Isserlis pairings.  Each pairing has one covariance factor bridging the
    split, and |C| <= 1 bounds the rest: phi_k = 3 psi_k with
    psi_k = max_{h >= k} |C(h)| the monotone envelope, and
    cov(X_i^2, X_j^2) = 2 C(j - i)^2 gives phi_sq.  Past the head both are
    geometric tails of the autocovariance's own tail, which
    ``DependenceProfile`` refuses if it would rise above the head's psi.
    """
    head, (coeff, ratio) = _acf(model)
    acf = head[1:]
    psi = np.flip(np.maximum.accumulate(np.flip(np.abs(acf))))
    return DependenceProfile(
        phi=3.0 * psi,
        phi_sq=2.0 * acf**2,
        fourth_moment_sup=3.0 + excess_kurtosis(model),
        phi_tail=(3.0 * abs(coeff), abs(ratio)),
        phi_sq_tail=(2.0 * coeff**2, ratio**2),
    )

"""Kernel long-run variance estimation and its bias/variance diagnostics.

The estimator is the kernel-weighted double sum

    sigma2_hat = (1/n) sum_{s,t} K(|s - t| / m) X_s X_t,

computed here in its equivalent lag form.  A kernel enters through three
quantities: its sup-envelope square integral (driving the variance bound),
the local curvature pair (q, k_q) with K(x) = 1 + k_q x^q + o(x^q) (driving
the leading squared bias 4 (k_q Gamma_q)^2 / m^{2q}), and its support
(driving the cost of the lag form).  ``exact_bias`` evaluates the finite-n
expectation exactly instead of through the asymptotic expansion, so the
expansion's O(1/n) remainder is itself testable.

All bound reports keep the unquantified universal constant factored out;
comparisons against Monte Carlo are ratio checks, not absolute inequalities.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import (
    CovarianceModel, DependenceProfile, _acf, _path_chunks, autocovariance, dependence_profile
)

__all__ = [
    "Kernel",
    "KernelAssumptions",
    "BiasDecomposition",
    "MSEReport",
    "kernel_eval",
    "kernel_envelope",
    "kernel_kq",
    "check_assumptions",
    "estimate_lrv",
    "mc_mse",
    "lrv_true",
    "gamma_q",
    "exact_bias",
    "variance_bound_c_free",
    "mse_bound",
]

# The named kernels' constants (Andrews, Econometrica 59, 1991): support
# radius, the curvature pair (q, k_q) and the integral of the squared
# sup-envelope, in closed form where the kernel is its own envelope.
_NAMED = {
    "bartlett": (1.0, (1.0, -1.0), 1.0 / 3.0),
    "parzen": (1.0, (2.0, -6.0), 151.0 / 560.0),
    "truncated": (1.0, (math.inf, 0.0), 1.0),
    "quadratic_spectral": (math.inf, (2.0, -18.0 * math.pi**2 / 125.0), None),
}

# Named kernels with finite support are non-negative and non-increasing, so
# each is its own sup-envelope.
_MONOTONE = frozenset(name for name, consts in _NAMED.items() if math.isfinite(consts[0]))

# Sup-envelope grids for kernels without a monotone closed form.
_ENVELOPE_STEP = 1e-4
_ENVELOPE_EXTENT = 200.0


@dataclass(frozen=True)
class Kernel:
    """One HAC kernel, carrying its derived constants as cached attributes.

    ``Kernel(name)`` builds a named kernel; ``variant`` is its name.
    Tabulated kernels (``Kernel.tabulated``, ``Kernel.from_csv``) interpolate
    linearly on their grid and are zero beyond it.
    """

    variant: str
    grid: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.variant not in _NAMED and self.variant != "tabulated":
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "tabulated":
            if self.grid is None or self.values is None:
                raise ValueError("tabulated kernels need grid and values")
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.shape != v.shape or g.size < 2:
                raise ValueError("grid and values must be 1-D, equal length >= 2")
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
                raise ValueError("grid and values must be finite")
            if g[0] != 0.0 or np.any(np.diff(g) <= 0.0):
                raise ValueError("grid must start at 0 and increase strictly")
            if abs(v[0] - 1.0) > 1e-12:
                raise ValueError(f"K(0) must be 1, got {v[0]!r}")
            object.__setattr__(self, "grid", tuple(float(x) for x in g))
            object.__setattr__(self, "values", tuple(float(x) for x in v))
        elif self.grid is not None or self.values is not None:
            raise ValueError("only tabulated kernels take grid/values")

    @classmethod
    def tabulated(cls, grid, values) -> "Kernel":
        return cls("tabulated", grid=tuple(grid), values=tuple(values))

    @classmethod
    def from_csv(cls, path) -> "Kernel":
        """Tabulated kernel from a two-column (x, K(x)) CSV file."""
        grid = []
        values = []
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip().startswith("#"):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}: expected two columns, got {row!r}")
                try:
                    grid.append(float(row[0]))
                    values.append(float(row[1]))
                except ValueError:
                    if grid:
                        raise ValueError(f"{path}: non-numeric row {row!r}")
                    continue  # header line
        if not grid:
            raise ValueError(f"{path}: no data rows")
        return cls.tabulated(grid, values)

    @property
    def support_radius(self) -> float:
        """Smallest r with K(x) = 0 for all x > r (inf when none exists)."""
        if self.variant == "tabulated":
            return self.grid[-1]
        return _NAMED[self.variant][0]

    @cached_property
    def _envelope_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(breakpoints, suffix maxima of |K|) for non-monotone kernels.

        The envelope is the step function x -> table[floor(x / step)]; being
        a suffix maximum over everything from the covering breakpoint on
        (plus the analytic tail bound), it upper-bounds sup_{y >= x} |K(y)|
        and is non-increasing by construction.

        For the quadratic spectral kernel, entry i bounds |K| on the whole
        interval [x_i, x_{i+1}]: the larger end value plus the linear
        interpolation error h^2 / 8 sup|K''|, where sup|K''| = |K''(0)| =
        36 pi^2 / 125, since K(x) = (3/2) int_0^1 (1 - t^2) cos(a t) dt with
        a = 6 pi x / 5.
        """
        if self.variant == "quadratic_spectral":
            xs = np.arange(0.0, _ENVELOPE_EXTENT + _ENVELOPE_STEP, _ENVELOPE_STEP)
            vals = np.abs(kernel_eval(self, xs))
            vals[:-1] = np.maximum(vals[:-1], vals[1:]) + np.diff(xs) ** 2 * (
                9.0 * math.pi**2 / 250.0
            )
            vals[-1] = max(vals[-1], _qs_tail_bound(_ENVELOPE_EXTENT))
        else:  # tabulated: suffix maxima over its own nodes are exact
            xs = np.asarray(self.grid, dtype=float)
            vals = np.abs(np.asarray(self.values, dtype=float))
        return xs, np.maximum.accumulate(vals[::-1])[::-1]

    @cached_property
    def sup_abs(self) -> float:
        """sup_x |K(x)|."""
        return float(kernel_envelope(self, 0.0))

    @cached_property
    def envelope_sq_integral(self) -> float:
        """Integral of the squared sup-envelope over [0, inf)."""
        if self.variant in _MONOTONE:
            return _NAMED[self.variant][2]
        xs, table = self._envelope_table
        total = float(np.sum(table[:-1] ** 2 * np.diff(xs)))
        if self.variant == "quadratic_spectral":
            # Remaining mass under the |K(x)| <= beta(x)/x^2 majorant.
            total += _qs_tail_bound(_ENVELOPE_EXTENT) ** 2 * _ENVELOPE_EXTENT / 3.0
        return total


def _qs_tail_bound(x: float) -> float:
    """Decreasing majorant of |K(x)| for the quadratic spectral kernel:
    |sin(a)/a - cos(a)| <= 1/a + 1 with a = 6 pi x / 5."""
    return 25.0 / (12.0 * math.pi**2 * x * x) * (1.0 + 5.0 / (6.0 * math.pi * x))


def _validate_nonnegative(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be >= 0")
    return arr


def kernel_eval(kernel: Kernel, x):
    """K(x) for x >= 0 (scalar or array, shape preserved)."""
    arr = _validate_nonnegative(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if kernel.variant == "bartlett":
        out = np.maximum(1.0 - arr, 0.0)
    elif kernel.variant == "parzen":
        out = np.where(
            arr <= 0.5,
            1.0 - 6.0 * arr**2 + 6.0 * arr**3,
            2.0 * np.maximum(1.0 - arr, 0.0) ** 3,
        )
    elif kernel.variant == "truncated":
        out = np.where(arr <= 1.0, 1.0, 0.0)
    elif kernel.variant == "quadratic_spectral":
        a = 1.2 * math.pi * arr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            direct = 25.0 / (12.0 * math.pi**2 * arr**2) * (np.sin(a) / a - np.cos(a))
        # Near zero the direct form cancels; the series in a = 6 pi x / 5 does not.
        a2 = a * a
        series = 1.0 - a2 / 10.0 + a2 * a2 / 280.0 - a2 * a2 * a2 / 15120.0
        out = np.where(a < 0.05, series, direct)
    else:
        out = np.interp(arr, kernel.grid, kernel.values, right=0.0)
    return float(out[0]) if scalar else out


def kernel_envelope(kernel: Kernel, x):
    """Sup-envelope sup_{y >= x} |K(y)|, non-increasing in x.

    Equals K itself for the monotone non-negative kernels; for the
    oscillating and tabulated ones it is the cached step-function suffix
    maximum (an upper bound tight to the grid resolution).
    """
    arr = _validate_nonnegative(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if kernel.variant in _MONOTONE:
        out = kernel_eval(kernel, arr)
    else:
        xs, table = kernel._envelope_table
        idx = np.minimum(np.searchsorted(xs, arr, side="right") - 1, table.size - 1)
        out = table[np.maximum(idx, 0)]
        if kernel.variant == "quadratic_spectral":
            far = arr > _ENVELOPE_EXTENT
            if far.any():
                out = np.where(far, _qs_tail_bound(np.maximum(arr, 1.0)), out)
        else:
            out = np.where(arr > xs[-1], 0.0, out)
    return float(out[0]) if scalar else out


def kernel_kq(kernel: Kernel) -> tuple[float, float]:
    """The curvature pair (q, k_q) with K(x) - 1 ~ k_q x^q as x -> 0+.

    Closed forms for the named kernels; for tabulated kernels the limit is
    taken along x = 2^-j with a stabilisation certificate on both the fitted
    exponent and the coefficient.  A kernel that is exactly 1 near zero is
    degenerate: reported as (inf, 0.0).
    """
    if kernel.variant in _NAMED:
        return _NAMED[kernel.variant][1]
    if len(kernel.values) > 1 and kernel.values[0] == 1.0 and kernel.values[1] == 1.0:
        # the interpolant is exactly 1 on the whole first grid segment
        return (math.inf, 0.0)
    xs = np.array([2.0**-j for j in range(0, 45)])
    xs = xs[xs <= kernel.grid[-1]]
    diffs = kernel_eval(kernel, xs) - 1.0
    if np.all(np.abs(diffs) <= 1e-12):
        return (math.inf, 0.0)
    usable = np.abs(diffs) > 1e-15
    xs, diffs = xs[usable], diffs[usable]
    if xs.size < 4:
        raise ValueError("tabulated kernel: too few usable points near 0 for k_q")
    with np.errstate(divide="ignore", invalid="ignore"):
        q_fits = np.log2(diffs[:-1] / diffs[1:])
    if not np.isfinite(q_fits[-2:]).all() or abs(q_fits[-1] - q_fits[-2]) > 1e-2:
        raise ValueError(
            "tabulated kernel: x^-q (K(x) - 1) does not stabilise (assumption (c))"
        )
    q = float(q_fits[-1])
    coeffs = diffs / xs**q
    if abs(coeffs[-1] - coeffs[-2]) > 1e-2 * max(1e-9, abs(coeffs[-1])):
        raise ValueError(
            "tabulated kernel: k_q estimates do not stabilise (assumption (c))"
        )
    return (q, float(coeffs[-1]))


@dataclass(frozen=True)
class KernelAssumptions:
    """Witnessed pass/fail report for the three kernel conditions."""

    bounded: bool
    square_integrable: bool
    curvature_limit: bool
    sup_abs: float
    envelope_sq_integral: float
    q: float
    k_q: float
    degenerate_limit: bool

    @property
    def all_pass(self) -> bool:
        return self.bounded and self.square_integrable and self.curvature_limit


def check_assumptions(kernel: Kernel) -> KernelAssumptions:
    """Check K(0) = 1 with continuity, a finite squared-envelope integral,
    and an existing curvature limit; failures are report entries."""
    near = np.linspace(0.0, 1e-3, 101)
    bounded = (
        abs(kernel_eval(kernel, 0.0) - 1.0) <= 1e-12
        and float(np.max(np.abs(kernel_eval(kernel, near) - 1.0))) <= 0.01
        and math.isfinite(kernel.sup_abs)
    )
    integral = kernel.envelope_sq_integral
    square_integrable = math.isfinite(integral)
    try:
        q, k_q = kernel_kq(kernel)
        curvature_limit = True
    except ValueError:
        q, k_q = math.nan, math.nan
        curvature_limit = False
    return KernelAssumptions(
        bounded=bounded,
        square_integrable=square_integrable,
        curvature_limit=curvature_limit,
        sup_abs=kernel.sup_abs,
        envelope_sq_integral=integral,
        q=q,
        k_q=k_q,
        degenerate_limit=curvature_limit and math.isinf(q),
    )


def _lag_count(kernel: Kernel, m: float, n: int) -> int:
    """The lags J an estimate from a length-n path reads: n - 1, cut at the
    kernel's support radius times m."""
    if not (m > 0.0):
        raise ValueError(f"bandwidth m must be positive, got {m}")
    if math.isfinite(kernel.support_radius):
        return min(n - 1, int(math.floor(kernel.support_radius * m)))
    return n - 1


def _lag_weights(kernel: Kernel, m: float, n: int) -> np.ndarray:
    """K(j/m) at the lags j = 1..``_lag_count(kernel, m, n)``."""
    return kernel_eval(kernel, np.arange(1, _lag_count(kernel, m, n) + 1) / m)


def _fft_size(n: int, lags: int) -> int:
    """2^ceil(log2(n + lags)): the shortest power-of-two transform whose
    circular lags 0..lags of a length-n row do not wrap around."""
    return 1 << (n + lags - 1).bit_length()


def _fft_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum and the inverse of one row of a size-point transform."""
    return np.empty(size // 2 + 1, dtype=complex), np.empty(size)


def _lag_sums(
    rows: np.ndarray, lags: int, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """sum_t X_t X_{t+j} for j = 0..lags, one row of sums per row of a
    (count, n) block, from one rfft and irfft of |F|^2 per row.

    The rows are transformed one at a time into ``buffers`` (new ones from
    ``_fft_buffers`` if None), which a caller that transforms many blocks
    of one FFT size passes each time, so that no array of the transform's
    size is allocated per block.  numpy's FFT transforms each row alone and
    calls no BLAS, so a row's sums have the same bits whatever block it sits
    in and at any thread count.
    """
    size = _fft_size(rows.shape[1], lags)
    spectrum, inverse = _fft_buffers(size) if buffers is None else buffers
    sums = np.empty((rows.shape[0], lags + 1))
    re, im = spectrum.real, spectrum.imag
    for row, out in zip(rows, sums):
        np.fft.rfft(row, size, out=spectrum)
        # |F|^2 in place, so the inverse reads a complex array with no cast copy
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        np.add(re, im, out=re)
        im[...] = 0.0
        np.fft.irfft(spectrum, size, out=inverse)
        out[...] = inverse[: lags + 1]
    return sums


def _estimates(sums: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """(gamma_0 + 2 sum_j w_j gamma_j) / n for each row of lag sums gamma,
    with j = 1..weights.size; the lag sum is a ufunc reduction."""
    return (sums[:, 0] + 2.0 * (sums[:, 1 : weights.size + 1] * weights).sum(axis=1)) / n


def estimate_lrv(path, kernel: Kernel, m: float) -> float:
    """sigma2_hat = (1/n) sum_{s,t} K(|s - t|/m) X_s X_t via the lag form,
    for one path X_1..X_n given as a non-empty 1-D array.

    The double sum collapses to n^-1 (gamma_0 + 2 sum_j K(j/m) gamma_j) with
    gamma_j = sum_t X_t X_{t+j}, and every gamma_j comes from one FFT of
    the zero-padded path: O(N log N) with N < 2 (n + lags), for any kernel.
    """
    x = np.asarray(path, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("path must be a non-empty 1-D array")
    weights = _lag_weights(kernel, m, x.size)
    return float(_estimates(_lag_sums(x[None], weights.size), weights, x.size)[0])


def mc_mse(
    model: CovarianceModel,
    kernel: Kernel,
    sweep: Sequence[tuple[int, float]],
    replicates: int,
    seed: int,
) -> list[float]:
    """Monte Carlo MSE of ``estimate_lrv`` against ``lrv_true(model)`` at each
    (n, m) of ``sweep``, over rows (seed, 0..replicates - 1).  Each chunk of
    rows is drawn once, at the longest n, and each point reads its prefix;
    the points of one n and FFT size share one transform."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    weights = {(n, m): _lag_weights(kernel, m, n) for n, m in sweep}
    groups: dict[tuple[int, int], list[float]] = {}
    for (n, m), w in weights.items():
        groups.setdefault((n, _fft_size(n, w.size)), []).append(m)
    longest = max(n for n, _ in groups)
    values = {key: np.empty(replicates) for key in weights}
    buffers = {size: _fft_buffers(size) for _, size in groups}
    for part, chunk in _path_chunks(model, longest, seed, replicates, max(buffers)):
        for (n, size), ms in groups.items():
            lags = max(weights[n, m].size for m in ms)
            sums = _lag_sums(chunk[:, :n], lags, buffers[size])
            for m in ms:
                values[n, m][part.start : part.stop] = _estimates(sums, weights[n, m], n)
    sigma2 = lrv_true(model)
    return [float(np.mean((values[point] - sigma2) ** 2)) for point in sweep]


def _autocov_tail_sum(model: CovarianceModel, start: int) -> float:
    """sum_{j >= start} C(j), exact for every model (start >= 1): the head
    of its ``_acf`` table from ``start`` on plus the geometric tail past it."""
    head, (coeff, ratio) = _acf(model)
    tail = coeff * ratio ** max(start, head.size) / (1.0 - ratio)
    return float(np.sum(head[start:])) + tail


def lrv_true(model: CovarianceModel) -> float:
    """sigma^2 = sum_j C(j) over all integers j, C(0) + 2 sum_{j >= 1} C(j),
    exact for every model: a finite sum over its ``_acf`` head plus the
    geometric series of its tail."""
    return float(autocovariance(model, 0)) + 2.0 * _autocov_tail_sum(model, 1)


# Certified bound on the truncation error of Gamma_q's geometric tail.
_GAMMA_TAIL_TOL = 1e-12


def gamma_q(model: CovarianceModel, q: float) -> float:
    """Gamma_q = sum_{j >= 1} j^q C(j) with a certified truncation error.

    The lags of the model's ``_acf`` head are summed in full.  Its
    geometric tail c r^j is summed on until the ratio bound certifies the
    remainder below ``_GAMMA_TAIL_TOL``; a zero tail adds nothing.
    """
    if not (math.isfinite(q) and q >= 0.0):
        raise ValueError(f"q must be a finite real >= 0, got {q}")
    head, (coeff, ratio) = _acf(model)
    js = np.arange(1, head.size)
    total = float(np.sum(js**q * head[1:]))
    r = abs(ratio)
    if coeff == 0.0 or r == 0.0:
        return total
    j = head.size
    while True:
        total += j**q * (coeff * ratio**j)
        step = r * ((j + 1) / j) ** q
        if step < 1.0:
            remainder = abs(coeff) * (j + 1) ** q * r ** (j + 1) / (1.0 - step)
            if remainder <= _GAMMA_TAIL_TOL:
                return total
        j += 1
        if j > 10**7:
            raise ValueError(
                f"Gamma_q tail not certified below {_GAMMA_TAIL_TOL} within 1e7 terms"
            )


@dataclass(frozen=True)
class BiasDecomposition:
    """Finite-n expectation error of the estimator and its first-order part.

    ``exact`` is E sigma2_hat - sigma^2 summed in full; ``leading`` is the
    m-driven term 2 sum_{j >= 1} (K(j/m) - 1) C(j), whose gap from ``exact``
    shrinks like 1/n.
    """

    exact: float
    leading: float


def _bias_sum(model: CovarianceModel, weights: np.ndarray, cov: np.ndarray) -> float:
    """2 sum_{j=1}^{J} (weights_j - 1) C(j) - 2 sum_{j > J} C(j), J = cov.size."""
    head = 2.0 * float(np.sum((weights - 1.0) * cov))
    return head - 2.0 * _autocov_tail_sum(model, cov.size + 1)


def _acf_support(model: CovarianceModel) -> int:
    """L, the lags every bias sum reads: the model's ``_acf`` head, extended
    to the lag past which its geometric tail sums below double precision."""
    head, (coeff, ratio) = _acf(model)
    support = head.size - 1
    r = abs(ratio)
    if coeff != 0.0 and r != 0.0:
        lag = math.log(1e-18 * (1.0 - r) / abs(coeff)) / math.log(r)
        support = max(support, int(math.ceil(lag)))
    return support


def exact_bias(
    model: CovarianceModel, kernel: Kernel, m: float, n: int
) -> BiasDecomposition:
    """E sigma2_hat - sigma^2, exactly, plus the first-order bias term.

    The expectation of the lag form is a finite weighted sum of
    autocovariances; subtracting sigma^2 leaves
    2 sum_{j=1}^{n-1} ((1 - j/n) K(j/m) - 1) C(j) - 2 sum_{j >= n} C(j).
    Both terms read C(1..L), L the model's ``_acf_support``, and add its
    exact tail past their last lag, so they drop only 2 sum_{j > L} K C,
    which is below double precision: no array is sized by n or m.
    """
    cov = autocovariance(model, np.arange(1, _acf_support(model) + 1))
    return _exact_bias(model, kernel, m, n, cov)


def _check_point(m: float, n: int) -> None:
    if not (m > 0.0):
        raise ValueError(f"bandwidth m must be positive, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _exact_bias(
    model: CovarianceModel, kernel: Kernel, m: float, n: int, cov: np.ndarray
) -> BiasDecomposition:
    """``exact_bias`` from the model's C(1..L), L = ``_acf_support(model)``."""
    _check_point(m, n)
    js = np.arange(1, cov.size + 1)
    weights = kernel_eval(kernel, js / m)
    head = min(n - 1, cov.size)
    triangular = weights[:head] * (1.0 - js[:head] / n)
    return BiasDecomposition(
        exact=_bias_sum(model, triangular, cov[:head]),
        leading=_bias_sum(model, weights, cov),
    )


def variance_bound_c_free(
    profile: DependenceProfile, kernel: Kernel, m: float, n: int
) -> float:
    """(Phi0 + Phi1 + Phi2) (1/n + 2 (m/n) int K-bar^2), the variance bound
    with the universal constant factored out."""
    _check_point(m, n)
    integral = kernel.envelope_sq_integral
    if not math.isfinite(integral):
        raise ValueError("kernel envelope is not square integrable")
    return profile.general_coefficient_sum * (1.0 / n + 2.0 * (m / n) * integral)


@dataclass(frozen=True)
class MSEReport:
    """Constant-free pieces of the mean-square-error bound at one (m, n)."""

    bias: BiasDecomposition
    variance_bound_c_free: float
    squared_bias_leading: float

    def __post_init__(self):
        if self.variance_bound_c_free < 0.0 or self.squared_bias_leading < 0.0:
            raise ValueError("bound terms must be non-negative")


def mse_bound(
    model: CovarianceModel, kernel: Kernel, points: Sequence[tuple[int, float]]
) -> list[MSEReport]:
    """The C-free variance bound, the squared-bias coefficient
    4 (k_q Gamma_q)^2 / m^{2q} (zero for a degenerate kernel) and the exact
    bias at each (n, m) of ``points``.  Every point reads one dependence
    profile and one autocovariance vector, so each has the bits of a batch of one."""
    report = check_assumptions(kernel)
    if not report.all_pass:
        raise ValueError(f"kernel fails its assumptions: {report}")
    profile = dependence_profile(model)
    cov = autocovariance(model, np.arange(1, _acf_support(model) + 1))
    gq = None if report.degenerate_limit or report.k_q == 0.0 else gamma_q(model, report.q)
    return [
        MSEReport(
            bias=_exact_bias(model, kernel, m, n, cov),
            variance_bound_c_free=variance_bound_c_free(profile, kernel, m, n),
            squared_bias_leading=(
                0.0 if gq is None else 4.0 * (report.k_q * gq) ** 2 / m ** (2.0 * report.q)
            ),
        )
        for n, m in points
    ]

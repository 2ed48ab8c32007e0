"""Quadratic forms X'AX of dependent sequences: exact variances, Monte Carlo
estimates, and the profile-driven variance bounds.

The bounds come in three strengths, all with the universal constant factored
out so that reported values are the trace/coefficient product only:

* zero-diagonal matrices need ``sup E X^4 + sum_k k phi_k`` times tr(AA'),
* arbitrary matrices add the squared-variable covariance mass ``sum phi_sq``,
* linear processes y = G x trade tr(AA') for tr(S A S A') with S = GG'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    CovarianceModel,
    DependenceProfile,
    enumerate_sign_paths,
    generate_paths,
    path_rng,
)

__all__ = [
    "symmetrize",
    "gaussian_exact_variance",
    "VarianceEstimate",
    "mc_variance",
    "mc_fourth_moment",
    "brute_force_variance",
    "brute_force_fourth_moment",
    "BoundReport",
    "fourth_moment_bound",
    "hollow_variance_bound",
    "general_variance_bound",
    "linear_process_variance_bound",
    "gaussian_test_matrix",
]

_BRUTE_FORCE_MAX_P = 20
_CHUNK = 1 << 14
# Rows per block in brute_force_fourth_moment: at p = 12 (sign products), 8 192
# or 16 384 rows raised a Monte Carlo pass's peak RSS by 1.1 MiB, 1 024 did not.
_FOURTH_CHUNK = 1 << 10
_SYMMETRY_REL = 1e-12  # largest max|S - S'| / max|S| accepted as symmetric


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _as_vector(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"expected a non-empty vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def symmetrize(A) -> np.ndarray:
    """(A + A')/2; leaves x'Ax unchanged for every x."""
    A = _as_square(A)
    return (A + A.T) / 2.0


def _check_symmetric(S: np.ndarray, what: str) -> np.ndarray:
    """S, if max|S - S'| <= _SYMMETRY_REL max|S|; a test on the largest
    entries, which cannot overflow and means the same at every scale of S."""
    defect = float(np.abs(S - S.T).max(initial=0.0))
    if defect > _SYMMETRY_REL * float(np.abs(S).max(initial=0.0)):
        raise ValueError(f"{what} must be symmetric (defect {defect:.3e})")
    return S


def gaussian_exact_variance(Sigma, A) -> float:
    """var(y'Ay) for y ~ N(0, Sigma): equals 2 tr((Sigma B)^2), B = (A+A')/2.

    This is the closed-form oracle every Monte Carlo and bound check in the
    Gaussian lane is measured against.
    """
    Sigma = _check_symmetric(_as_square(Sigma), "Sigma")
    B = symmetrize(A)
    if B.shape != Sigma.shape:
        raise ValueError("Sigma and A must have equal shapes")
    M = Sigma @ B
    return 2.0 * float(np.sum(M * M.T))


@dataclass(frozen=True)
class VarianceEstimate:
    """Monte Carlo variance of a quadratic form with its own uncertainty."""

    variance: float
    std_error: float
    mean: float
    replicates: int


def _quad_values(model: CovarianceModel, A: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    paths = generate_paths(model, A.shape[0], seed, replicates)
    return np.einsum("ri,ri->r", paths @ A, paths)


def mc_variance(model: CovarianceModel, A, replicates: int, seed: int) -> VarianceEstimate:
    """Sample variance of x'Ax over independent paths.

    Replicate r uses stream (seed, r), so the estimate is reproducible and
    independent of evaluation order.  The sums over replicates are ufunc
    reductions, not BLAS dot products, so their order does not depend on the
    BLAS thread count either.  The standard error plugs the sample
    moments into the exact variance of the sample variance,
    (m4 - s^4)/n + 2 s^4 / (n (n-1)); the second term keeps the estimate
    positive when the values are two-point distributed, where the leading
    term vanishes identically.
    """
    A = _as_square(A)
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    q = _quad_values(model, A, replicates, seed)
    mean = float(q.mean())
    centred = q - mean
    s2 = float(np.sum(centred * centred)) / (replicates - 1)
    m4 = float(np.mean(centred**4))
    var_s2 = max(m4 - s2 * s2, 0.0) / replicates
    var_s2 += 2.0 * s2 * s2 / (replicates * (replicates - 1.0))
    se = math.sqrt(var_s2)
    return VarianceEstimate(variance=s2, std_error=se, mean=mean, replicates=replicates)


def mc_fourth_moment(model: CovarianceModel, a, replicates: int, seed: int) -> tuple[float, float]:
    """Monte Carlo E (x'a)^4 with its standard error."""
    a = _as_vector(a)
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    v = (generate_paths(model, a.size, seed, replicates) @ a) ** 4
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(replicates))


def brute_force_variance(model: CovarianceModel, A) -> float:
    """Exact var(x'Ax) for sign-driven models by enumerating all driving signs.

    Equal-weight enumeration over 2^p (independent signs) or 2^(p+1)
    (products of consecutive signs) configurations; exact because every
    intermediate sum is a small integer.  Other models raise TypeError.
    """
    A = _as_square(A)
    p = A.shape[0]
    if p > _BRUTE_FORCE_MAX_P:
        raise ValueError(f"enumeration capped at p = {_BRUTE_FORCE_MAX_P}, got {p}")
    total = 0
    acc1 = 0.0
    acc2 = 0.0
    while (x := enumerate_sign_paths(model, p, total, total + _CHUNK)).shape[0]:
        q = np.einsum("ri,ri->r", x @ A, x)
        acc1 += float(q.sum())
        acc2 += float((q * q).sum())
        total += x.shape[0]
    mean = acc1 / total
    return acc2 / total - mean * mean


def brute_force_fourth_moment(model: CovarianceModel, a) -> float:
    """Exact E (a'x)^4 for sign-driven models, enumerated as in
    ``brute_force_variance`` but summed by ufuncs only, with no BLAS call."""
    a = _as_vector(a)
    if a.size > _BRUTE_FORCE_MAX_P:
        raise ValueError(f"enumeration capped at p = {_BRUTE_FORCE_MAX_P}, got {a.size}")
    total = 0
    acc = 0.0
    while (x := enumerate_sign_paths(model, a.size, total, total + _FOURTH_CHUNK)).shape[0]:
        acc += float(((x * a).sum(axis=1) ** 4).sum())
        total += x.shape[0]
    return acc / total


@dataclass(frozen=True)
class BoundReport:
    """A variance bound split into its trace factor and coefficient factor,
    with the universal constant left out."""

    bound_value: float
    trace_term: float
    coefficient_sum: float
    bound_kind: str


def fourth_moment_bound(profile: DependenceProfile, a) -> BoundReport:
    """Envelope for E (x'a)^4: coefficient sum times (a'a)^2."""
    a = _as_vector(a)
    trace_term = float(a @ a) ** 2
    coeff = profile.hollow_coefficient_sum
    return BoundReport(coeff * trace_term, trace_term, coeff, "fourth_moment")


def hollow_variance_bound(profile: DependenceProfile, A) -> BoundReport:
    """Envelope for var(x'Ax) when diag(A) = 0: coefficient sum times tr(AA')."""
    A = _as_square(A)
    if np.any(np.diag(A) != 0.0):
        raise ValueError("hollow bound requires an exactly zero diagonal")
    trace_term = float(np.sum(A * A))
    coeff = profile.hollow_coefficient_sum
    return BoundReport(coeff * trace_term, trace_term, coeff, "hollow_variance")


def general_variance_bound(profile: DependenceProfile, A) -> BoundReport:
    """Envelope for var(x'Ax) with arbitrary diagonal: adds the phi_sq mass."""
    A = _as_square(A)
    trace_term = float(np.sum(A * A))
    coeff = profile.general_coefficient_sum
    return BoundReport(coeff * trace_term, trace_term, coeff, "general_variance")


def linear_process_variance_bound(profile: DependenceProfile, Sigma, A) -> BoundReport:
    """Envelope for var(y'Ay), y = G x with GG' = Sigma and orthonormal x:
    coefficient sum times tr(S A S A')."""
    Sigma = _check_symmetric(_as_square(Sigma), "Sigma")
    A = _as_square(A)
    if Sigma.shape != A.shape:
        raise ValueError("Sigma and A must have equal shapes")
    M = Sigma @ A
    N = Sigma @ A.T
    trace_term = float(np.sum(M * N.T))
    coeff = profile.general_coefficient_sum
    return BoundReport(coeff * trace_term, trace_term, coeff, "linear_process_variance")


def gaussian_test_matrix(p: int, seed: int, hollow: bool = False) -> np.ndarray:
    """Reproducible dense test matrix with standard normal entries; ``hollow``
    zeroes the diagonal."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    A = path_rng(seed, 0).standard_normal((p, p))
    if hollow:
        np.fill_diagonal(A, 0.0)
    return A

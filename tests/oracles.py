"""Independent reference routes the tests check the package against.

None of these runs on an emitted path: each is the slow, obvious way to
compute something the package computes another way.
"""

import math

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Cholesky met a non-positive pivot; ``pivot_index`` says where."""

    def __init__(self, pivot_index: int, pivot: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(f"pivot {pivot:.3e} at index {pivot_index} is not positive")


def cholesky(Sigma) -> np.ndarray:
    """Lower-triangular G with G G' = Sigma, rejecting non-positive pivots.

    ``population_sigma`` is diagonal, so ``scaled_paths`` takes its square
    root entry by entry; this factorisation is the oracle for that route.
    """
    S = np.asarray(Sigma, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix entries must be finite")
    if np.linalg.norm(S - S.T) > 1e-12 * max(1.0, float(np.linalg.norm(S))):
        raise ValueError("Cholesky needs a symmetric matrix")
    p = S.shape[0]
    L = np.zeros_like(S)
    for j in range(p):
        pivot = S[j, j] - float(L[j, :j] @ L[j, :j])
        if pivot <= 1e-12:
            raise NotPositiveDefiniteError(j, pivot)
        L[j, j] = math.sqrt(pivot)
        if j + 1 < p:
            L[j + 1 :, j] = (S[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def parity_moment(sign_indices) -> float:
    """E of a product of independent signs: 1 if every sign occurs an even
    number of times, else 0, by counting occurrences."""
    counts: dict[int, int] = {}
    for s in sign_indices:
        counts[s] = counts.get(s, 0) + 1
    return 1.0 if all(c % 2 == 0 for c in counts.values()) else 0.0

"""Sample-covariance spectra of dependent-column data and their limit laws.

The pipeline draws a p x n matrix whose columns are independent copies of
G x (x a dependent path, G G' the target population covariance), forms
S = Y Y' / n, and compares its eigenvalue distribution against the solution
of the limit law's Stieltjes fixed-point equation

    m(z) = sum_k w_k / (lambda_k (1 - c - c z m(z)) - z),    Im z > 0,

where the (lambda_k, w_k) atoms describe the limiting population spectrum
and c is the dimension-to-sample ratio.  Eigenvalues on the sample side come
from an in-house cyclic Jacobi solver so the empirical route shares no code
with the oracle route.

When the driving path itself is serially dependent, E[(Gx)(Gx)'] is no longer
G G'; ``effective_spectral_model`` converts a (model, target) pair into the
atom law of the covariance actually realised, which is the input the limit
equation needs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    CovarianceModel,
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    autocovariance,
    covariance_matrix,
    generate_paths,
)

__all__ = [
    "ConvergenceError",
    "NotPositiveDefiniteError",
    "SpectralModel",
    "StieltjesValue",
    "population_sigma",
    "cholesky",
    "scaled_paths",
    "sample_covariance_matrix",
    "jacobi_eigenvalues",
    "empirical_stieltjes",
    "limit_stieltjes",
    "mp_stieltjes",
    "density_from_stieltjes",
    "density_grid",
    "limit_cdf",
    "kolmogorov_distance",
    "effective_spectral_model",
]


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of its iteration budget or left its branch."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky met a non-positive pivot; ``pivot_index`` says where."""

    def __init__(self, pivot_index: int, pivot: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        super().__init__(f"pivot {pivot:.3e} at index {pivot_index} is not positive")


@dataclass(frozen=True)
class SpectralModel:
    """Finite-atom limiting population spectrum plus the ratio c = p/n."""

    atoms: tuple[tuple[float, float], ...]
    c: float

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("at least one atom is required")
        atoms = tuple(sorted((float(l), float(w)) for l, w in self.atoms))
        lam = np.array([a[0] for a in atoms])
        w = np.array([a[1] for a in atoms])
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        if np.any(lam < 0.0):
            raise ValueError("atom locations must be >= 0")
        if np.any(w <= 0.0):
            raise ValueError("atom weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {w.sum()!r}")
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be a positive real, got {self.c}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms])


def population_sigma(law: SpectralModel, p: int) -> np.ndarray:
    """Diagonal p x p covariance realising the atom weights as multiplicities.

    Multiplicities are floor(w*p) topped up by largest remainder; remainder
    ties go to the smaller eigenvalue.  The result's spectral distribution
    converges weakly to the atom law as p grows.
    """
    n_atoms = len(law.atoms)
    if p < n_atoms:
        raise ValueError(f"p = {p} cannot host {n_atoms} atoms")
    lam = law.lambdas
    w = law.weights
    base = np.floor(w * p).astype(int)
    remainder = w * p - base
    leftover = p - int(base.sum())
    order = sorted(range(n_atoms), key=lambda i: (-remainder[i], lam[i]))
    for i in order[:leftover]:
        base[i] += 1
    diag = np.repeat(lam, base)
    return np.diag(diag)


def cholesky(Sigma) -> np.ndarray:
    """Lower-triangular G with G G' = Sigma, rejecting non-positive pivots.

    No emitted route factors a matrix: ``population_sigma`` is diagonal, so
    ``scaled_paths`` takes its square root entry by entry.  The factorisation
    is kept as an independent oracle for that route and reports the failing
    pivot index.
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


def scaled_paths(
    model: CovarianceModel, law: SpectralModel, p: int, n: int, seed: int
) -> np.ndarray:
    """Y with Y[:, j] = G x_j, G G' = population_sigma(law, p), x_j from stream (seed, j).

    G is diagonal, so every entry of Y is one exact product.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scale = np.sqrt(np.diag(population_sigma(law, p)))
    return np.multiply(scale[:, None], generate_paths(model, p, seed, n).T, order="C")


def sample_covariance_matrix(
    model: CovarianceModel, law: SpectralModel, p: int, n: int, seed: int
) -> np.ndarray:
    """S = Y Y'/n with Y = scaled_paths(model, law, p, n, seed).

    Row i is the ufunc reduction of Y[i] * Y over the samples rather than a
    BLAS product, so every entry is summed in one fixed order whatever the
    BLAS thread count, and S is exactly symmetric.
    """
    Y = scaled_paths(model, law, p, n, seed)
    return np.array([(y * Y).sum(axis=1) for y in Y]) / n


def jacobi_eigenvalues(
    S, tol: float = 1e-10, max_sweeps: int = 100, return_vectors: bool = False
):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row, annihilating each off-diagonal entry, until the
    off-diagonal Frobenius norm falls below tol (relative to the input norm,
    with a unit floor).  Returns eigenvalues ascending; with
    ``return_vectors`` also the orthogonal V such that S = V diag(vals) V'.
    """
    A = np.array(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    norm = float(np.linalg.norm(A))
    if np.linalg.norm(A - A.T) > 1e-10 * max(1.0, norm):
        raise ValueError("Jacobi needs a symmetric matrix")
    p = A.shape[0]
    V = np.eye(p) if return_vectors else None
    threshold = tol * max(1.0, norm)
    skip = threshold / max(10.0 * p, 10.0)
    converged = False
    for _ in range(max_sweeps):
        off = A - np.diag(np.diag(A))
        if float(np.linalg.norm(off)) <= threshold:
            converged = True
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                aij = A[i, j]
                if abs(aij) <= skip:
                    continue
                app, aqq = A[i, i], A[j, j]
                tau = (aqq - app) / (2.0 * aij)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_i = A[i, :].copy()
                row_j = A[j, :].copy()
                A[i, :] = c * row_i - s * row_j
                A[j, :] = s * row_i + c * row_j
                col_i = A[:, i].copy()
                col_j = A[:, j].copy()
                A[:, i] = c * col_i - s * col_j
                A[:, j] = s * col_i + c * col_j
                A[i, i] = app - t * aij
                A[j, j] = aqq + t * aij
                A[i, j] = 0.0
                A[j, i] = 0.0
                if V is not None:
                    v_i = V[:, i].copy()
                    v_j = V[:, j].copy()
                    V[:, i] = c * v_i - s * v_j
                    V[:, j] = s * v_i + c * v_j
    else:
        converged = False
    if not converged:
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off > threshold:
            raise ConvergenceError(
                f"Jacobi failed to converge in {max_sweeps} sweeps (off-norm {off:.3e})"
            )
    vals = np.diag(A).copy()
    order = np.argsort(vals, kind="stable")
    if V is not None:
        return vals[order], V[:, order]
    return vals[order]


def _require_upper_half(z: complex) -> complex:
    z = complex(z)
    if not (z.imag > 0.0):
        raise ValueError(f"z must lie in the upper half-plane, got {z}")
    return z


def empirical_stieltjes(esd, z: complex) -> complex:
    """mean(1/(lambda_i - z)) of an eigenvalue sample, Im z > 0."""
    z = _require_upper_half(z)
    lam = np.asarray(esd, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("esd must be a non-empty 1-D array")
    return complex(np.mean(1.0 / (lam - z)))


@dataclass(frozen=True)
class StieltjesValue:
    """One solved point of the limit equation, with its convergence evidence."""

    z: complex
    m: complex
    residual: float
    iterations: int


_DAMPED_BUDGET = 1000
_GAMMA_FLOOR = 1e-6


def _defining_residual(lam, w, c, zs, m):
    """|m - F(m)| for the limit equation, vectorised over the z axis."""
    denom = lam[:, None] * (1.0 - c - c * zs * m)[None, :] - zs[None, :]
    return np.abs(m - np.sum(w[:, None] / denom, axis=0))


def _damped_phase(lam, w, c, zs, tol, budget):
    """Damped iteration m <- (1-gamma) m + gamma F(m) from -1/z, gamma = 1/2.

    A step that raises the residual |m - F(m)| halves gamma (recovering back
    towards 1/2 on later decreases); steps that leave the finite domain are
    discarded like a residual increase.  Each grid point runs independently.
    """

    def fmap(m):
        denom = lam[:, None] * (1.0 - c - c * zs * m)[None, :] - zs[None, :]
        return np.sum(w[:, None] / denom, axis=0)

    m = -1.0 / zs
    f_m = fmap(m)
    residual = np.abs(m - f_m)
    gamma = np.full(zs.shape, 0.5)
    iterations = np.zeros(zs.shape, dtype=int)
    for _ in range(budget):
        active = residual > tol
        if not active.any():
            break
        candidate = np.where(active, (1.0 - gamma) * m + gamma * f_m, m)
        f_candidate = fmap(candidate)
        cand_residual = np.abs(candidate - f_candidate)
        cand_residual = np.where(np.isfinite(cand_residual), cand_residual, np.inf)
        worse = active & (cand_residual > residual)
        gamma = np.where(worse, np.maximum(gamma / 2.0, _GAMMA_FLOOR), gamma)
        gamma = np.where(active & ~worse, np.minimum(2.0 * gamma, 0.5), gamma)
        take = active & np.isfinite(cand_residual)
        m = np.where(take, candidate, m)
        f_m = np.where(take, f_candidate, f_m)
        residual = np.where(take, cand_residual, residual)
        iterations += active
    return m, residual, iterations


def _unfinished(m, residual, tol):
    """Points still needing work: large residual, or a fixed point off the
    Stieltjes branch (the defining equation has spurious solutions with
    Im m <= 0 that the damped form can land on)."""
    return (residual > tol) | (m.imag <= 0.0)


def _companion_phase(lam, w, c, zs, m, residual, tol, budget, check_every=20):
    """Finish unconverged points through the companion transform.

    v = -(1-c)/z + c m obeys v <- -1/(z - c sum_k w_k lambda_k / (1 + lambda_k v)),
    a map sending the upper half-plane into itself, so plain iteration cannot
    cycle, and its fixed point is the Stieltjes branch, unlike the damped form,
    which can hug the real axis or settle on a spurious root.  Progress is
    still measured by the defining residual |m - F(m)|.
    """
    v = -(1.0 - c) / zs + c * m
    bad = ~np.isfinite(v) | (v.imag <= 0.0)
    v = np.where(bad, -1.0 / zs, v)
    iterations = np.zeros(zs.shape, dtype=int)
    active = _unfinished(m, residual, tol)
    spent = 0
    while active.any() and spent < budget:
        chunk = min(check_every, budget - spent)
        for _ in range(chunk):
            tail = np.sum(
                w[:, None] * lam[:, None] / (1.0 + lam[:, None] * v[None, :]), axis=0
            )
            v = np.where(active, -1.0 / (zs - c * tail), v)
        iterations += active * chunk
        spent += chunk
        m_active = (v + (1.0 - c) / zs) / c
        m = np.where(active, m_active, m)
        residual = np.where(active, _defining_residual(lam, w, c, zs, m), residual)
        active = _unfinished(m, residual, tol)
    return m, residual, iterations


def _solve_points(lam, w, c, zs, tol, max_iter):
    """All-points solve of the limit equation: damped phase, then a companion
    finish for points that did not converge or converged off the branch."""
    zs = np.asarray(zs, dtype=complex)
    m, residual, iters1 = _damped_phase(lam, w, c, zs, tol, min(_DAMPED_BUDGET, max_iter))
    left = max_iter - int(iters1.max())
    if left > 0 and bool(_unfinished(m, residual, tol).any()):
        m, residual, iters2 = _companion_phase(lam, w, c, zs, m, residual, tol, left)
        iters1 = iters1 + iters2
    return m, residual, iters1


def limit_stieltjes(
    law: SpectralModel, z: complex, tol: float = 1e-12, max_iter: int = 10000
) -> StieltjesValue:
    """Solve the limit-law fixed point at one z.

    Runs the damped iteration from -1/z (damping 1/2, halved whenever a step
    raises the residual |m - F(m)|).  Near the real axis inside the bulk that
    recursion stalls, so leftover budget goes to the companion-transform form
    of the same equation, which iterates stably there.  Convergence requires
    the defining residual <= tol and Im m > 0 (the Stieltjes branch).
    """
    z = _require_upper_half(z)
    zs = np.array([z], dtype=complex)
    m_arr, res_arr, iter_arr = _solve_points(
        law.lambdas, law.weights, law.c, zs, tol, max_iter
    )
    m = complex(m_arr[0])
    residual = float(res_arr[0])
    iterations = int(iter_arr[0])
    if residual > tol:
        raise ConvergenceError(
            f"no fixed point within {max_iter} iterations at z = {z} "
            f"(residual {residual:.3e})"
        )
    if not (m.imag > 0.0):
        raise ConvergenceError(f"branch failure at z = {z}: Im m = {m.imag:.3e} <= 0")
    return StieltjesValue(z=z, m=m, residual=residual, iterations=iterations)


def mp_stieltjes(c: float, z: complex) -> complex:
    """Closed-form Stieltjes transform for a single unit atom: the upper-half
    root of c z m^2 + (z - (1 - c)) m + 1 = 0."""
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be a positive real, got {c}")
    z = _require_upper_half(z)
    a = c * z
    b = z - (1.0 - c)
    disc = cmath.sqrt(b * b - 4.0 * a)
    # Evaluate the numerically benign root first, recover the other from the
    # product m1*m2 = 1/a.
    if (b.conjugate() * disc).real >= 0.0:
        q = -(b + disc) / 2.0
    else:
        q = -(b - disc) / 2.0
    roots = (q / a, 1.0 / q)
    for r in roots:
        if r.imag > 0.0:
            return r
    raise ConvergenceError(f"no upper-half root at z = {z} (roots {roots})")


def density_from_stieltjes(
    law: SpectralModel,
    x: float,
    epsilon: float = 1e-3,
    tol: float = 1e-10,
    max_iter: int = 200000,
) -> float:
    """Smoothed spectral density Im m(x + i*epsilon) / pi.

    The fixed point contracts at rate 1 - O(epsilon) inside the bulk, hence
    the much larger default iteration budget than ``limit_stieltjes`` alone.
    """
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    value = limit_stieltjes(law, complex(x, epsilon), tol=tol, max_iter=max_iter)
    return value.m.imag / math.pi


def density_grid(
    law: SpectralModel,
    xs,
    epsilon: float = 1e-3,
    tol: float = 1e-9,
    max_iter: int = 200000,
) -> np.ndarray:
    """Smoothed density at every grid abscissa in one vectorised solve."""
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-D array")
    zs = xs + 1j * epsilon
    m, residual, _ = _solve_points(law.lambdas, law.weights, law.c, zs, tol, max_iter)
    if bool((residual > tol).any()):
        worst = int(np.argmax(residual))
        raise ConvergenceError(
            f"no fixed point within {max_iter} iterations at z = {zs[worst]} "
            f"(residual {float(residual[worst]):.3e})"
        )
    return m.imag / math.pi


def limit_cdf(
    law: SpectralModel,
    epsilon: float = 2e-3,
    points: int = 320,
    margin: float = 0.1,
):
    """Numeric CDF of the limit law, as a callable usable for distances.

    Solves the grid at heights 2*epsilon and epsilon (the coarse solution
    warm-starts the fine one) and extrapolates the smoothing away: the
    half-plane kernel is even in the height, so Im m carries an O(epsilon^2)
    error that (4 m_eps - m_2eps)/3 cancels.  The density is then integrated
    over a grid spanning the support (edges bounded by
    lambda*(1 -+ sqrt(c))^2, widened by ``margin``), the (1 - 1/c) point mass
    at zero is added when c > 1, and the total is rescaled to exactly one so
    the O(epsilon) mass smoothed past the edges does not bias comparisons.
    """
    lam = law.lambdas
    w = law.weights
    if float(lam.min()) <= 0.0:
        raise ValueError("limit_cdf needs strictly positive atoms")
    sqrt_c = math.sqrt(law.c)
    lower = max(0.0, float(lam.min()) * (1.0 - sqrt_c) ** 2 - margin)
    upper = float(lam.max()) * (1.0 + sqrt_c) ** 2 + margin
    xs = np.linspace(max(lower, 1e-9), upper, points)
    tol = 1e-8
    budget = 200000
    m_coarse, res_c, _ = _solve_points(lam, w, law.c, xs + 2j * epsilon, tol, budget)
    m_fine, res_f, _ = _companion_phase(
        lam, w, law.c, xs + 1j * epsilon,
        m_coarse, np.full(xs.shape, np.inf), tol, budget,
    )
    worst = float(max(res_c.max(), res_f.max()))
    if worst > tol:
        raise ConvergenceError(f"limit_cdf grid solve stalled (residual {worst:.3e})")
    dens = np.clip((4.0 * m_fine.imag - m_coarse.imag) / (3.0 * math.pi), 0.0, None)
    steps = np.diff(xs) * (dens[1:] + dens[:-1]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    mass0 = max(0.0, 1.0 - 1.0 / law.c)
    total = mass0 + cum[-1]
    values = (mass0 + cum) / total

    def cdf(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, xs, values)
        out = np.where(t_arr < 0.0, 0.0, out)
        return float(out) if np.isscalar(t) else out

    return cdf


def kolmogorov_distance(esd, cdf) -> float:
    """sup_x |F_esd(x) - cdf(x)|, evaluated at the eigenvalue breakpoints
    from both sides."""
    lam = np.sort(np.asarray(esd, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("esd must be a non-empty 1-D array")
    p = lam.size
    try:
        ref = np.asarray(cdf(lam), dtype=float)
    except TypeError:
        ref = np.array([float(cdf(float(v))) for v in lam])
    if ref.shape != lam.shape:
        raise ValueError("cdf must return one value per query point")
    steps_hi = np.arange(1, p + 1) / p
    steps_lo = np.arange(0, p) / p
    return float(np.max(np.maximum(np.abs(steps_hi - ref), np.abs(steps_lo - ref))))


def _is_white_noise(model: CovarianceModel) -> bool:
    """Whether C(j) = 0 at every lag j != 0, decided from the model itself."""
    if isinstance(model, GaussianAR1):
        return model.rho == 0.0
    if isinstance(model, GaussianMA):
        return not np.any(autocovariance(model, np.arange(1, model.order + 1)))
    return isinstance(model, (RademacherIID, RademacherProductMDS))


def effective_spectral_model(
    model: CovarianceModel, law: SpectralModel, p_ref: int = 400
) -> SpectralModel:
    """Atom law of the column covariance actually realised by (model, law).

    Columns G x with a serially dependent x have covariance G T G' (T the
    model's Toeplitz autocovariance), not G G'.  For white-noise models the
    input law is returned unchanged; otherwise the spectrum of G T G' at a
    reference dimension supplies the atoms.  The reference eigenvalues come
    from LAPACK on purpose: the empirical side uses the in-house Jacobi
    solver and the two routes should not share code.  LAPACK's last bits can
    change with the BLAS thread count, so the atoms of a serially dependent
    model can too.
    """
    if _is_white_noise(model):
        return law
    T = covariance_matrix(model, p_ref)
    scale = np.sqrt(np.diag(population_sigma(law, p_ref)))
    true_cov = scale[:, None] * T * scale[None, :]
    vals = np.linalg.eigvalsh((true_cov + true_cov.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    weight = np.full(p_ref, 1.0 / p_ref)
    weight /= weight.sum()
    atoms = tuple((float(v), float(wt)) for v, wt in zip(vals, weight))
    return SpectralModel(atoms=atoms, c=law.c)

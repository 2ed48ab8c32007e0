"""Sample-covariance spectra of dependent-column data and their limit laws.

The pipeline draws a p x n matrix whose columns are independent copies of
G x (x a dependent path, G G' the target population covariance), forms
S = Y Y' / n, and compares its eigenvalue distribution against the solution
of the limit law's Stieltjes fixed-point equation

    m(z) = sum_k w_k / (lambda_k (1 - c - c z m(z)) - z),    Im z > 0,

where the (lambda_k, w_k) atoms describe the limiting population spectrum
and c is the dimension-to-sample ratio.  One solver serves every limit-law
route (``limit_stieltjes``, ``density_grid``, ``limit_cdf``): the companion
iteration v <- -1/(z - c sum_k w_k lambda_k / (1 + lambda_k v)) on
v = -(1-c)/z + c m, which keeps v in the upper half-plane, with a Newton step
tried first and kept only where it stays there and lowers |m - F(m)|.
Eigenvalues on the sample side come from an in-house cyclic Jacobi solver so
the empirical route shares no code with the oracle route.

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


def _defining_residual(lam, w, c, zs, m):
    """|m - F(m)| for the limit equation, vectorised over the z axis."""
    denom = lam[:, None] * (1.0 - c - c * zs * m)[None, :] - zs[None, :]
    return np.abs(m - np.sum(w[:, None] / denom, axis=0))


def _solve_points(lam, w, c, zs, tol, max_iter, m0=None):
    """Solve the limit equation at every z of ``zs`` independently.

    Works on the companion variable v = -(1-c)/z + c m, the root of
    h(v) = v (z - c t(v)) + 1 with t(v) = sum_k w_k lambda_k / (1 + lambda_k v).
    The companion map v <- -1/(z - c t(v)) sends the upper half-plane into
    itself, and its fixed point there is the Stieltjes branch (Silverstein &
    Choi 1995), but near the real axis it contracts only at rate
    1 - O(Im z).  So each step first tries Newton on h and keeps it only where
    it is finite, stays in the upper half-plane (Im v > 0, Im m > 0) and
    lowers the defining residual |m - F(m)|; elsewhere it takes the companion
    step.  v starts at -1/z, or at the warm start ``m0`` where that lies in
    the upper half-plane.  A point stops once its residual is <= tol with
    Im m > 0; its iteration count is the number of steps it took.

    The state kept is m, not v: with D_k = lambda_k (1 - c - c z m) - z,
    1 + lambda_k v = -D_k / z, so every step is formed from D, and m is never
    recovered from v, which would cancel (1-c)/z against c m when |z| is
    small.  The sums over atoms are ufunc reductions, not BLAS calls.
    """
    zs = np.asarray(zs, dtype=complex)
    m = -1.0 / zs
    if m0 is not None:
        m0 = np.asarray(m0, dtype=complex)
        v0 = c * m0 - (1.0 - c) / zs
        m = np.where(np.isfinite(v0) & (v0.imag > 0.0), m0, m)
    residual = _defining_residual(lam, w, c, zs, m)
    iterations = np.zeros(zs.shape, dtype=int)
    lam_col = lam[:, None]
    w_lam = (w * lam)[:, None]
    w_lam2 = (w * lam * lam)[:, None]
    for _ in range(max_iter):
        todo = np.flatnonzero((residual > tol) | (m.imag <= 0.0))
        if todo.size == 0:
            break
        z, mt = zs[todo], m[todo]
        a = 1.0 - c - c * z * mt  # = -z v
        inv = 1.0 / (lam_col * a[None, :] - z[None, :])  # = -1 / (z (1 + lambda v))
        s1 = np.sum(w_lam * inv, axis=0)  # t = -z s1
        s2 = np.sum(w_lam2 * inv * inv, axis=0)  # t' = -z^2 s2
        del inv  # the residuals below allocate blocks of the same atoms x points size
        g = 1.0 + c * s1  # z - c t = z g
        h = 1.0 - a * g  # h = v (z - c t) + 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = h / (c * z * (g - c * a * s2))  # h / (c h'), h' = z (g - c a s2)
            m_newton = mt - step
            v_newton = c * m_newton - (1.0 - c) / z
            res_newton = _defining_residual(lam, w, c, z, m_newton)
        newton = (
            (v_newton.imag > 0.0)
            & (m_newton.imag > 0.0)
            & np.isfinite(res_newton)
            & (res_newton < residual[todo])
        )
        # companion step v <- -1/(z g), mapped back to m without cancellation
        m_companion = -(1.0 - (1.0 - c) * s1) / (z * g)
        m[todo] = np.where(newton, m_newton, m_companion)
        residual[todo] = np.where(
            newton, res_newton, _defining_residual(lam, w, c, z, m_companion)
        )
        iterations[todo] += 1
    return m, residual, iterations


def limit_stieltjes(
    law: SpectralModel, z: complex, tol: float = 1e-12, max_iter: int = 10000
) -> StieltjesValue:
    """Solve the limit-law fixed point at one z.

    Starts at m = -1/z and runs the companion iteration on
    v = -(1-c)/z + c m, taking a Newton step instead wherever that step stays
    in the upper half-plane and lowers the defining residual |m - F(m)|.
    ``iterations`` counts those steps, Newton or companion.  Convergence
    requires the defining residual <= tol and Im m > 0 (the Stieltjes
    branch).  For c > 1 with |z| near 0.01 or below, |m| ~ (1 - 1/c)/|z| and
    the residual evaluated in double precision can exceed 1e-12 even at the
    correctly rounded root (c = 3, two atoms {1, 2}, z = 0.01i: 1.35e-12), so
    the default tol raises ConvergenceError there.
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
    """Smoothed spectral density Im m(x + i*epsilon) / pi, solved by
    ``limit_stieltjes``.

    The companion map alone contracts at rate 1 - O(epsilon) inside the bulk;
    the Newton steps take over there, and the budget is a ceiling.
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

    Solves the grid at heights 2*epsilon and epsilon with the same
    companion-plus-Newton solver as ``limit_stieltjes`` (the coarse solution
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
    m_fine, res_f, _ = _solve_points(
        lam, w, law.c, xs + 1j * epsilon, tol, budget, m0=m_coarse
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

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
Eigenvalues come from one in-house route, Householder tridiagonalisation
followed by Sturm-count bisection, built from ufunc reductions so that no
BLAS thread count can change their bits.  The sample side (``esd``) and the
reference atoms of ``effective_spectral_model`` share it; LAPACK is its
oracle in the tests, never on the emitted path.

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
    "symmetric_eigenvalues",
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


def _binary_exponent(a) -> int:
    """The exponent k with max |a| in [2**(k-1), 2**k); 0 for an all-zero a."""
    return math.frexp(float(np.abs(a).max()))[1]


def _tridiagonalise(S) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and subdiagonal e of a tridiagonal T similar to symmetric S.

    Householder reduction (Golub & Van Loan, Matrix Computations, 8.3.1):
    step k reflects the column below the diagonal of the trailing block B
    onto its first axis and updates B <- B - v q' - q v'.  The product B v
    and the inner products are ufunc reductions and the rank-2 update is
    elementwise, never BLAS, so the bits do not depend on the thread count;
    v q' + q v' is summed before it is subtracted, so B stays exactly
    symmetric.  A zero column needs no reflection and leaves e[k] = 0.  The
    reduction runs on S scaled by a power of two to a largest entry in
    [1/2, 1), so no sum of squares overflows or underflows.
    """
    B = np.asarray(S, dtype=float)
    shift = _binary_exponent(B)
    B = np.ldexp(B, -shift)
    p = B.shape[0]
    d = np.empty(p)
    e = np.zeros(p - 1)
    for k in range(p - 2):
        d[k] = B[0, 0]
        x = B[1:, 0]
        B = B[1:, 1:]
        sigma = math.sqrt(float((x * x).sum()))
        if sigma == 0.0:
            continue
        alpha = -math.copysign(sigma, x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 1.0 / (sigma * (sigma + abs(float(x[0]))))  # 2 / (v'v)
        w = beta * (B * v).sum(axis=1)
        q = w - (0.5 * beta * float((v * w).sum())) * v
        B = B - (np.multiply.outer(v, q) + np.multiply.outer(q, v))
        e[k] = alpha
    m = B.shape[0]  # the last min(p, 2) rows are tridiagonal already
    d[p - m :] = np.diag(B)
    e[p - m :] = B[1:, 0]
    return np.ldexp(d, shift), np.ldexp(e, shift)


def _sturm_eigenvalues(d, e) -> tuple[np.ndarray, int]:
    """Eigenvalues (ascending) of the tridiagonal (d, e), and the bisection steps.

    Bisection on Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967), vectorised over all p eigenvalues: interval j holds the j-th
    smallest one, and each step counts the eigenvalues at or below every
    midpoint with the LDL' pivot recurrence, a pivot within ``pivmin`` (the
    smallest normal number) of zero being pushed to -pivmin as in LAPACK
    dstebz.  Every interval starts
    at the widened Gershgorin bounds and stops at the absolute width
    eps * ||T||, so all take the same number of steps, about 53 whatever the
    spectrum; a zero eigenvalue of a rank-deficient matrix stops as soon as
    the rest.  Like the reduction it works on (d, e) scaled by a power of
    two, to a largest entry in [1/2, 1).
    """
    p = d.size
    shift = _binary_exponent(np.concatenate([d, e]))
    d, e = np.ldexp(d, -shift), np.ldexp(e, -shift)
    e2 = e * e
    radius = np.zeros(p)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lower, upper = float((d - radius).min()), float((d + radius).max())
    norm = max(abs(lower), abs(upper))
    eps = np.finfo(float).eps
    pivmin = np.finfo(float).tiny
    slack = 2.1 * (eps * norm * p + 2.0 * pivmin)
    lower, upper = lower - slack, upper + slack
    steps = math.ceil(math.log2((upper - lower) / max(eps * norm, pivmin)))
    lo, hi = np.full(p, lower), np.full(p, upper)
    index = np.arange(p)
    count = np.empty(p, dtype=np.intp)
    below = np.empty(p, dtype=bool)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        shifted = d[:, None] - mid[None, :]
        pivot = shifted[0].copy()
        np.less_equal(pivot, pivmin, out=below)
        np.minimum(pivot, -pivmin, out=pivot, where=below)
        count[:] = below
        for i in range(1, p):
            pivot = shifted[i] - e2[i - 1] / pivot
            np.less_equal(pivot, pivmin, out=below)
            np.minimum(pivot, -pivmin, out=pivot, where=below)
            count += below
        right = count > index
        hi = np.where(right, mid, hi)
        lo = np.where(right, lo, mid)
    return np.ldexp(np.sort(0.5 * (lo + hi)), shift), steps


def symmetric_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    Householder tridiagonalisation followed by Sturm-count bisection, with
    no BLAS or LAPACK call, so the result does not depend on the BLAS thread
    count.  Each eigenvalue is within a small multiple of p * eps * ||S||_F
    of the exact one; LAPACK ``eigvalsh`` is the test oracle.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    if float(np.abs(A - A.T).max()) > 1e-10 * float(np.abs(A).max()):
        raise ValueError("eigenvalues need a symmetric matrix")
    return _sturm_eigenvalues(*_tridiagonalise(A))[0]


# bench/tracer.py traces the eigen route under this name (its spectral.eigen
# layer); the alias goes away with the next change to the benchmark.
jacobi_eigenvalues = symmetric_eigenvalues


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
    reference dimension supplies the atoms.  They come from the same eigen
    route as the sample side, called through its private helpers so that a
    trace of ``symmetric_eigenvalues`` counts only sample matrices; like the
    rest of the emitted path they do not depend on the BLAS thread count.
    """
    if _is_white_noise(model):
        return law
    T = covariance_matrix(model, p_ref)
    scale = np.sqrt(np.diag(population_sigma(law, p_ref)))
    true_cov = scale[:, None] * T * scale[None, :]
    vals, _ = _sturm_eigenvalues(*_tridiagonalise((true_cov + true_cov.T) / 2.0))
    vals = np.clip(vals, 0.0, None)
    weight = np.full(p_ref, 1.0 / p_ref)
    weight /= weight.sum()
    atoms = tuple((float(v), float(wt)) for v, wt in zip(vals, weight))
    return SpectralModel(atoms=atoms, c=law.c)

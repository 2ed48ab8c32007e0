"""Sample-covariance spectra of dependent-column data and their limit laws.

The pipeline draws a p x n matrix whose columns are independent copies of
G x (x a dependent path, G G' the target population covariance), forms
S = Y Y' / n, and compares its eigenvalue distribution against the solution
of the limit law's Stieltjes fixed-point equation

    m(z) = sum_k w_k / (lambda_k (1 - c - c z m(z)) - z),    Im z > 0,

where the (lambda_k, w_k) atoms describe the limiting population spectrum
and c is the dimension-to-sample ratio.  One solver serves every limit-law
route: the companion iteration
v <- -1/(z - c sum_k w_k lambda_k / (1 + lambda_k v)) on v = -(1-c)/z + c m,
which keeps v in the upper half-plane, with a Newton step tried first and
kept only where it stays there and lowers |m - F(m)|.  ``solve_stieltjes``
is its one checked entry point, and every route calls it: the
``stieltjes_grid`` experiment, ``limit_stieltjes`` and ``limit_cdf``, whose
fine grid it warm-starts from the coarse one.
Eigenvalues come from one route: the in-house Householder
tridiagonalisation, built from ufunc reductions, hands a tridiagonal T to
LAPACK, which reduces it no further and runs implicit QL/QR on one thread,
so no BLAS thread count can change their bits; LAPACK on the full matrix
and Sturm-count bisection on T are its oracles in the tests.

When the driving path itself is serially dependent, E[(Gx)(Gx)'] is no longer
G G'; ``effective_spectral_model`` converts a (model, target) pair into the
atom law of the covariance actually realised, which is the input the limit
equation needs.  It takes that law from its Szegő limit, lambda_k f(theta)
with f the model's spectral density and theta uniform on [0, pi], and makes
no eigenvalue call.  For AR(1) the solver averages over theta in closed form,
so the law keeps its declared atoms and carries rho; other models take f on a
fixed midpoint grid in theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .models import CovarianceModel, GaussianAR1, _acf, generate_paths
from .quadform import _check_symmetric

__all__ = [
    "ConvergenceError",
    "SpectralModel",
    "StieltjesValue",
    "population_sigma",
    "scaled_paths",
    "sample_covariance_matrix",
    "symmetric_eigenvalues",
    "solve_stieltjes",
    "limit_stieltjes",
    "mp_stieltjes",
    "limit_cdf",
    "kolmogorov_distance",
    "effective_spectral_model",
]


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of its iteration budget or left its branch."""


@dataclass(frozen=True)
class SpectralModel:
    """Finite-atom limiting population spectrum plus the ratio c = p/n.

    With rho != 0 each atom lambda_k stands for the Szegő law of
    lambda_k f(theta), f = (1 - rho^2) / (1 - 2 rho cos theta + rho^2) the
    AR(1) spectral density and theta uniform on [0, pi]: the reference law of
    AR(1) columns, which the limit-law solver averages over theta in closed
    form.  Such a law is not a population (``population_sigma`` rejects it).
    """

    atoms: tuple[tuple[float, float], ...]
    c: float
    rho: float = 0.0

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
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
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
    converges weakly to the atom law as p grows.  A law with rho != 0 is a
    reference law, not a population, and raises ValueError.
    """
    if law.rho != 0.0:
        raise ValueError(f"a law with rho = {law.rho} is a reference law, not a population")
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


def symmetric_eigenvalues(S) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    The in-house Householder reduction gives a tridiagonal T, scaled by a
    power of two to a largest entry in [1/2, 1), and LAPACK ``eigvalsh``
    (dsyevd) finds its eigenvalues.  On a matrix that is already
    tridiagonal, dsytrd forms only identity reflectors (tau = 0), so its
    threaded BLAS calls add exact zeros, and dsterf then runs implicit QL/QR
    on one thread: the result does not depend on the BLAS thread count.  The
    scale keeps LAPACK from rescaling and every BLAS product from overflow.
    Each eigenvalue is within a small multiple of p * eps * ||S||_F of the
    exact one; LAPACK ``eigvalsh`` on S itself and Sturm-count bisection on
    T are the test oracles.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    _check_symmetric(A, "S")
    d, e = _tridiagonalise(A)
    shift = _binary_exponent(np.concatenate([d, e]))
    T = np.diag(np.ldexp(d, -shift))
    below = np.arange(d.size - 1)
    T[below + 1, below] = T[below, below + 1] = np.ldexp(e, -shift)
    return np.ldexp(np.linalg.eigvalsh(T), shift)


# bench/tracer.py traces the eigen route under this name (its spectral.eigen
# layer); the alias goes away with the next change to the benchmark.
jacobi_eigenvalues = symmetric_eigenvalues


def _require_upper_half(z: complex) -> complex:
    z = complex(z)
    if not (z.imag > 0.0):
        raise ValueError(f"z must lie in the upper half-plane, got {z}")
    return z


@dataclass(frozen=True)
class StieltjesValue:
    """One solved point of the limit equation, with its convergence evidence."""

    z: complex
    m: complex
    residual: float
    iterations: int


def _szego_sums(lam, w, rho, v):
    """t(v) = sum_k w_k E[lambda_k f / (1 + lambda_k f v)] and -t'(v), with E
    over theta uniform on [0, pi] and f the AR(1) spectral density.

    With u_k = lambda_k (1 - rho^2), alpha_k = 1 + rho^2 + u_k v and
    R_k = sqrt(alpha_k - 2 rho) sqrt(alpha_k + 2 rho), principal roots, the
    average is u_k / R_k, and its derivative -u_k^2 alpha_k / R_k^3.  For
    Im v > 0 both factors of R_k lie in the upper half-plane, so neither
    root crosses its branch cut.
    """
    u = (lam * (1.0 - rho * rho))[:, None]
    alpha = (1.0 + rho * rho) + u * v[None, :]
    inv_root = 1.0 / (np.sqrt(alpha - 2.0 * rho) * np.sqrt(alpha + 2.0 * rho))
    terms = (w[:, None] * u) * inv_root
    t = terms.sum(axis=0)
    terms *= u * alpha * inv_root * inv_root
    return t, terms.sum(axis=0)


def _fixed_point_gap(lam, w, c, zs, m, rho=0.0):
    """m - F(m) for the limit equation, vectorised over the z axis.

    For rho != 0, F(m) = -sum_k w_k E[1 / (1 + lambda_k f v)] / z with
    v = -(1 - c - c z m) / z, and the average is 1 - u_k v / R_k.
    """
    a = 1.0 - c - c * zs * m
    if rho == 0.0:
        denom = lam[:, None] * a[None, :] - zs[None, :]
        return m - (w[:, None] / denom).sum(axis=0)
    v = -a / zs
    t, _ = _szego_sums(lam, w, rho, v)
    return m + (w.sum() - v * t) / zs


def _defining_residual(lam, w, c, zs, m, rho=0.0):
    """|m - F(m)| for the limit equation, vectorised over the z axis."""
    return np.abs(_fixed_point_gap(lam, w, c, zs, m, rho))


def _atom_sums(lam, w, rho, z, a):
    """s1 = -t / z and s2 = -t' / z^2 at v = -a / z, over atoms x points blocks.

    For rho == 0, s1 = sum_k w_k lambda_k inv_k and s2 = the same with
    lambda_k^2 inv_k^2, inv_k = 1 / (lambda_k a - z) = -1 / (z (1 + lambda_k v)),
    the blocks formed in place to hold fewer at once.
    """
    if rho == 0.0:
        inv = lam[:, None] * a[None, :]
        inv -= z[None, :]
        np.divide(1.0, inv, out=inv)
        s1 = ((w * lam)[:, None] * inv).sum(axis=0)
        term = (w * lam * lam)[:, None] * inv
        term *= inv
        return s1, term.sum(axis=0)
    t, minus_dt = _szego_sums(lam, w, rho, -a / z)
    return -t / z, minus_dt / (z * z)


def _solve_points(lam, w, c, zs, tol, max_iter, m0=None, rho=0.0):
    """Solve the limit equation at every z of ``zs`` independently.

    Works with the companion variable v = -(1-c)/z + c m, the root of
    h(v) = v (z - c t(v)) + 1 with t(v) = sum_k w_k lambda_k / (1 + lambda_k v).
    The companion map v <- -1/(z - c t(v)) sends the upper half-plane into
    itself, and its fixed point there is the Stieltjes branch (Silverstein &
    Choi 1995), but near the real axis it contracts only at rate
    1 - O(Im z).  So each step first tries Newton on the gap m - F(m), whose
    modulus is the defining residual, and keeps it only where it is finite,
    stays in the upper half-plane (Im v > 0, Im m > 0) and lowers the
    residual; elsewhere it takes the companion step.  The gap equals
    h / (c z) when the weights sum to 1, but forming h = 1 - a g cancels to
    an absolute error ~1e-16 that dividing by c z magnifies: at c = 0.107,
    z = 1e-3 i a Newton step on h lands 1e-12 off the root and never lowers
    the residual to 1e-12.  v starts at -1/z, or at the warm start ``m0`` where that lies in
    the upper half-plane.  A point stops once its residual is <= tol with
    Im m > 0; its iteration count is the number of steps it took.

    The state kept is m, not v: with D_k = lambda_k (1 - c - c z m) - z,
    1 + lambda_k v = -D_k / z, so every step is formed from D, and m is never
    recovered from v, which would cancel (1-c)/z against c m when |z| is
    small.  The sums over atoms are ufunc reductions, not BLAS calls.  With
    rho != 0 each atom's term is its average over theta in closed form
    (``_szego_sums``); only those sums depend on rho.

    Nothing here checks convergence: ``solve_stieltjes``, the one checked
    entry point, is its only caller.

    Their bits depend on the shape of the block they run in: one point's
    column alone is a 1-D pairwise sum, while inside an atoms x points block
    with more than one point each column is summed in sequence; numpy's
    in-place complex product (``term *= inv``) can also round a one-element
    block differently from a longer one.  So ``limit_stieltjes(z)`` and a
    grid solve (``solve_stieltjes`` on many points) at the same z can differ
    in the last bits, and a change here must keep the shape of every
    operation; that is why the companion residual is formed on the whole
    unconverged set whenever any Newton step is rejected, not on the
    rejected points.
    """
    zs = np.asarray(zs, dtype=complex)
    cz = c * zs
    drift = (1.0 - c) / zs  # v = c m - drift
    m = -1.0 / zs
    if m0 is not None:
        m0 = np.asarray(m0, dtype=complex)
        v0 = c * m0 - drift
        m = np.where(np.isfinite(v0) & (v0.imag > 0.0), m0, m)
    gap = _fixed_point_gap(lam, w, c, zs, m, rho)
    residual = np.abs(gap)
    iterations = np.zeros(zs.shape, dtype=int)
    for _ in range(max_iter):
        todo = ((residual > tol) | (m.imag <= 0.0)).nonzero()[0]
        if todo.size == 0:
            break
        z, mt = zs[todo], m[todo]
        a = 1.0 - c - cz[todo] * mt  # = -z v
        s1, s2 = _atom_sums(lam, w, rho, z, a)  # t = -z s1, t' = -z^2 s2
        g = 1.0 + c * s1  # z - c t = z g
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m_newton = mt - gap[todo] / (g - c * a * s2)  # 1 - F'(m) = g - c a s2
            v_newton = c * m_newton - drift[todo]
            gap_newton = _fixed_point_gap(lam, w, c, z, m_newton, rho)
            res_newton = np.abs(gap_newton)
        # a NaN residual fails the comparison, so a kept step is finite
        newton = (v_newton.imag > 0.0) & (m_newton.imag > 0.0) & (res_newton < residual[todo])
        if newton.all():
            m[todo], gap[todo], residual[todo] = m_newton, gap_newton, res_newton
        else:
            # companion step v <- -1/(z g), mapped back to m without cancellation
            m_companion = -(1.0 - (1.0 - c) * s1) / (z * g)
            gap_companion = _fixed_point_gap(lam, w, c, z, m_companion, rho)
            m[todo] = np.where(newton, m_newton, m_companion)
            gap[todo] = np.where(newton, gap_newton, gap_companion)
            residual[todo] = np.where(newton, res_newton, np.abs(gap_companion))
        iterations[todo] += 1
    return m, residual, iterations


def solve_stieltjes(
    law: SpectralModel, zs, tol: float = 1e-12, max_iter: int = 10000, m0=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the limit-law fixed point at every z of ``zs`` in one block.

    Every z must lie in the upper half-plane.  ``m0``, one value per z,
    warm-starts the points where it lies on the branch (see
    ``_solve_points``); the others start cold.  Returns the arrays (m,
    residual, iterations), one entry per z: ``iterations`` counts the
    solver's steps, Newton or companion.  Convergence requires the defining
    residual <= tol and Im m > 0 (the Stieltjes branch) at every z; the
    first z in input order that misses either raises ConvergenceError.  For
    c > 1 with |z| near 0.01 or below, |m| ~ (1 - 1/c)/|z| and the residual
    evaluated in double precision can exceed 1e-12 even at the correctly
    rounded root (c = 3, two atoms {1, 2}, z = 0.01i: 1.35e-12), so the
    default tol raises ConvergenceError there.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim != 1:
        raise ValueError(f"zs must be a 1-D array, got shape {zs.shape}")
    below = np.flatnonzero(~(zs.imag > 0.0))
    if below.size:
        _require_upper_half(zs[below[0]])  # raises, naming the first such z
    m, residual, iterations = _solve_points(
        law.lambdas, law.weights, law.c, zs, tol, max_iter, m0=m0, rho=law.rho
    )
    failed = np.flatnonzero((residual > tol) | ~(m.imag > 0.0))
    if failed.size:
        i = failed[0]
        z = complex(zs[i])
        if residual[i] > tol:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations at z = {z} "
                f"(residual {float(residual[i]):.3e})"
            )
        raise ConvergenceError(f"branch failure at z = {z}: Im m = {m[i].imag:.3e} <= 0")
    return m, residual, iterations


def limit_stieltjes(
    law: SpectralModel, z: complex, tol: float = 1e-12, max_iter: int = 10000
) -> StieltjesValue:
    """Solve the limit-law fixed point at one z: ``solve_stieltjes`` on the
    one-point block [z], with its checks and its ConvergenceError.

    A one-point block sums over atoms in another order than a longer one
    (see ``_solve_points``), so m here and in a grid solve at the same z can
    differ in the last bits.
    """
    z = complex(z)
    m, residual, iterations = solve_stieltjes(law, [z], tol=tol, max_iter=max_iter)
    return StieltjesValue(
        z=z, m=complex(m[0]), residual=float(residual[0]), iterations=int(iterations[0])
    )


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


# Iteration budget of every solve at a smoothing height epsilon (limit_cdf's).
# The companion map alone contracts at rate 1 - O(epsilon) inside the bulk;
# the Newton steps take over there, and the budget is a ceiling.
_SMOOTHED_MAX_ITER = 200000


# The limit CDF's grid: smoothing height, abscissae, the margin past the
# support edges, and the tolerance of its two grid solves.
_CDF_EPSILON = 2e-3
_CDF_POINTS = 320
_CDF_MARGIN = 0.1
_CDF_TOL = 1e-8


def limit_cdf(law: SpectralModel):
    """Numeric CDF of the limit law, as a callable usable for distances.

    Solves a grid of ``_CDF_POINTS`` abscissae at heights 2*epsilon and
    epsilon (``_CDF_EPSILON``) by ``solve_stieltjes``, the coarse solution
    warm-starting the fine one, so a point that stalls or leaves the branch
    raises ConvergenceError, and extrapolates the smoothing away: the
    half-plane kernel is even in the height, so Im m carries an
    O(epsilon^2) error that (4 m_eps - m_2eps)/3 cancels.  The density is
    then integrated over a grid spanning the support (edges bounded by
    lambda*(1 -+ sqrt(c))^2, lambda running over the population support
    lambda_k [(1 - |rho|)/(1 + |rho|), (1 + |rho|)/(1 - |rho|)], widened by
    ``_CDF_MARGIN``), the (1 - 1/c) point mass at zero is added when c > 1,
    and the total is rescaled to exactly one so the O(epsilon) mass smoothed
    past the edges does not bias comparisons.
    """
    lam = law.lambdas
    if float(lam.min()) <= 0.0:
        raise ValueError("limit_cdf needs strictly positive atoms")
    sqrt_c = math.sqrt(law.c)
    spread = (1.0 + abs(law.rho)) / (1.0 - abs(law.rho))
    lower = max(0.0, float(lam.min()) / spread * (1.0 - sqrt_c) ** 2 - _CDF_MARGIN)
    upper = float(lam.max()) * spread * (1.0 + sqrt_c) ** 2 + _CDF_MARGIN
    xs = np.linspace(max(lower, 1e-9), upper, _CDF_POINTS)
    m_coarse, _, _ = solve_stieltjes(law, xs + 2j * _CDF_EPSILON, _CDF_TOL, _SMOOTHED_MAX_ITER)
    m_fine, _, _ = solve_stieltjes(
        law, xs + 1j * _CDF_EPSILON, _CDF_TOL, _SMOOTHED_MAX_ITER, m0=m_coarse
    )
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
    from both sides; ``cdf`` takes the sorted eigenvalues as one array, as
    ``limit_cdf``'s does."""
    lam = np.sort(np.asarray(esd, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("esd must be a non-empty 1-D array")
    p = lam.size
    ref = np.asarray(cdf(lam), dtype=float)
    if ref.shape != lam.shape:
        raise ValueError("cdf must return one value per query point")
    steps_hi = np.arange(1, p + 1) / p
    steps_lo = np.arange(0, p) / p
    return float(np.max(np.maximum(np.abs(steps_hi - ref), np.abs(steps_lo - ref))))


# Nodes of the midpoint rule for the Szegő limit law of models other than
# AR(1) (MA(q) has no closed-form average over theta): a power of two, so
# every weight w_k / N is exact.
_SZEGO_NODES = 128


def _spectral_density(model: CovarianceModel, theta: np.ndarray) -> np.ndarray:
    """f(theta) = C(0) + 2 sum_j C(j) cos(j theta), the spectral density
    normalised to mean 1 over [0, pi], over the lags of the model's ``_acf``
    head: exact for a model whose tail is zero, every one but a dependent
    AR(1)."""
    acf = _acf(model)[0]
    lags = np.arange(1, acf.size)
    waves = acf[1:, None] * np.cos(np.multiply.outer(lags, theta))
    return acf[0] + 2.0 * waves.sum(axis=0)


def effective_spectral_model(model: CovarianceModel, law: SpectralModel) -> SpectralModel:
    """Atom law of the column covariance actually realised by (model, law).

    Columns G x with a serially dependent x have covariance G T_p G' (T_p the
    model's Toeplitz autocovariance), not G G'.  With G from
    ``population_sigma`` its spectrum tends to the law of lambda_k f(theta),
    k drawn with weight w_k and theta uniform on [0, pi] (Tilli, Linear
    Algebra Appl. 278, 1998), f the model's spectral density.  An AR(1)
    model with rho != 0 keeps the declared atoms and sets ``rho``, and the
    limit-law solver averages over theta in closed form.  For the other
    models (MA) the midpoint rule theta_i = (i + 1/2) pi / N, N = 128, gives
    the atoms (lambda_k f(theta_i), w_k / N) with f from
    ``_spectral_density``; its sums are ufunc reductions, so the atoms do not
    depend on the BLAS thread count.  A white-noise model has f = 1 at every
    node, and the input law is returned unchanged.
    """
    if isinstance(model, GaussianAR1) and model.rho != 0.0:
        return SpectralModel(atoms=law.atoms, c=law.c, rho=model.rho)
    theta = (np.arange(_SZEGO_NODES) + 0.5) * (math.pi / _SZEGO_NODES)
    f = _spectral_density(model, theta)
    if np.all(f == 1.0):
        return law
    lam = np.multiply.outer(law.lambdas, f).ravel()
    weight = np.repeat(law.weights / _SZEGO_NODES, _SZEGO_NODES)
    return SpectralModel(atoms=tuple(zip(lam.tolist(), weight.tolist())), c=law.c)

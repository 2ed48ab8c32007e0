"""Independent reference routes the tests check the package against.

None of these runs on an emitted path: each is the slow, obvious way to
compute something the package computes another way.
"""

import math

import numpy as np

from quadvar.longrun import estimate_lrv
from quadvar.models import (
    autocovariance,
    enumerate_sign_paths,
    exact_product_moment,
    generate_paths,
)
from quadvar.spectral import SpectralModel, limit_stieltjes, mp_stieltjes


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


def sign_fourth_moment_reference(model, a) -> float:
    """E (a'x)^4 as the sum of a_i a_j a_k a_l E[X_i X_j X_k X_l] over all
    p^4 index tuples, each moment from ``exact_product_moment``."""
    coeffs = np.asarray(a, dtype=float).tolist()
    total = 0.0
    for i, ai in enumerate(coeffs, 1):
        for j, aj in enumerate(coeffs, 1):
            for k, ak in enumerate(coeffs, 1):
                for l, al in enumerate(coeffs, 1):
                    coeff = ai * aj * ak * al
                    if coeff != 0.0:
                        total += coeff * exact_product_moment(model, (i, j, k, l))
    return total


_FOURTH_CHUNK = 1 << 10  # sign configurations per enumeration block
_FOURTH_MAX_P = 20


def brute_force_fourth_moment(model, a) -> float:
    """Exact E (a'x)^4 for sign-driven models by enumerating all 2^p or
    2^(p+1) driving-sign configurations, summed by ufuncs only."""
    a = np.asarray(a, dtype=float)
    if a.size > _FOURTH_MAX_P:
        raise ValueError(f"enumeration capped at p = {_FOURTH_MAX_P}, got {a.size}")
    total = 0
    acc = 0.0
    while (x := enumerate_sign_paths(model, a.size, total, total + _FOURTH_CHUNK)).shape[0]:
        acc += float(((x * a).sum(axis=1) ** 4).sum())
        total += x.shape[0]
    return acc / total


def fourth_cumulant(model, j: int, k: int, l: int) -> float:
    """kappa(X_t, X_{t+j}, X_{t+k}, X_{t+l}) for centred stationary X,
    via the standard identity E[WXYZ] - E[WX]E[YZ] - E[WY]E[XZ] - E[WZ]E[XY].

    Built from ``exact_product_moment`` alone, it checks the diagonal
    cumulant that ``excess_kurtosis`` asserts."""
    if min(j, k, l) < 0:
        raise ValueError("lags must be >= 0")
    moment = exact_product_moment(model, (1, 1 + j, 1 + k, 1 + l))

    def c(lag: int) -> float:
        return float(autocovariance(model, abs(lag)))

    return moment - c(j) * c(l - k) - c(k) * c(l - j) - c(l) * c(k - j)


def cumulant_sum(model, lags: int) -> float:
    """Triple sum of |kappa(X_t, X_{t+j}, X_{t+k}, X_{t+l})| over
    1 <= j, k, l <= lags (the summability condition competing with the
    covariance-envelope route)."""
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    total = 0.0
    for j in range(1, lags + 1):
        for k in range(1, lags + 1):
            for l in range(1, lags + 1):
                total += abs(fourth_cumulant(model, j, k, l))
    return total


def _binary_exponent(a) -> int:
    """The exponent k with max |a| in [2**(k-1), 2**k); 0 for an all-zero a."""
    return math.frexp(float(np.abs(a).max()))[1]


def sturm_bisection(d, e) -> tuple[np.ndarray, int]:
    """Eigenvalues (ascending) of the tridiagonal (d, e) and the step count,
    by one bisection step per pass of the Sturm-count recurrence.

    Bisection on Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9,
    1967), independent of LAPACK: the number of pivots <= pivmin of
    T - x I = L D L' is the number of eigenvalues at or below x, a pivot
    within pivmin (the smallest normal number) of zero being pushed to
    -pivmin as in LAPACK dstebz.  Every interval starts at the widened
    Gershgorin bounds of (d, e), scaled by a power of two to a largest entry
    in [1/2, 1), and stops at the absolute width max(eps ||T||, pivmin).
    The tests hold the package's eigenvalues of T to it.
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


def _limit_residual(lam, w, c, zs, m):
    """|m - F(m)| for the limit equation, vectorised over the z axis."""
    denom = lam[:, None] * (1.0 - c - c * zs * m)[None, :] - zs[None, :]
    return np.abs(m - np.sum(w[:, None] / denom, axis=0))


def solve_points_reference(lam, w, c, zs, tol, max_iter, m0=None):
    """The limit-equation solver with every candidate formed at every step:
    Newton and companion steps on the whole unconverged set, the Newton step
    kept where it is finite, in the upper half-plane and lowers |m - F(m)|.

    The package's solver skips work this one does and must return the same
    m, residuals and iteration counts bit for bit.
    """
    zs = np.asarray(zs, dtype=complex)
    m = -1.0 / zs
    if m0 is not None:
        m0 = np.asarray(m0, dtype=complex)
        v0 = c * m0 - (1.0 - c) / zs
        m = np.where(np.isfinite(v0) & (v0.imag > 0.0), m0, m)
    residual = _limit_residual(lam, w, c, zs, m)
    iterations = np.zeros(zs.shape, dtype=int)
    lam_col = lam[:, None]
    w_lam = (w * lam)[:, None]
    w_lam2 = (w * lam * lam)[:, None]
    for _ in range(max_iter):
        todo = np.flatnonzero((residual > tol) | (m.imag <= 0.0))
        if todo.size == 0:
            break
        z, mt = zs[todo], m[todo]
        a = 1.0 - c - c * z * mt
        inv = lam_col * a[None, :]
        inv -= z[None, :]
        np.divide(1.0, inv, out=inv)
        s1 = np.sum(w_lam * inv, axis=0)
        term = w_lam2 * inv
        term *= inv
        s2 = term.sum(axis=0)
        g = 1.0 + c * s1
        h = 1.0 - a * g
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = h / (c * z * (g - c * a * s2))
            m_newton = mt - step
            v_newton = c * m_newton - (1.0 - c) / z
            res_newton = _limit_residual(lam, w, c, z, m_newton)
        newton = (
            (v_newton.imag > 0.0)
            & (m_newton.imag > 0.0)
            & np.isfinite(res_newton)
            & (res_newton < residual[todo])
        )
        m_companion = -(1.0 - (1.0 - c) * s1) / (z * g)
        m[todo] = np.where(newton, m_newton, m_companion)
        residual[todo] = np.where(
            newton, res_newton, _limit_residual(lam, w, c, z, m_companion)
        )
        iterations[todo] += 1
    return m, residual, iterations


def szego_midpoint_law(model, law, nodes) -> SpectralModel:
    """The Szegő limit law of AR(1) columns on a midpoint grid in theta:
    atoms (lambda_k f(theta_i), w_k / nodes), theta_i = (i + 1/2) pi / nodes,
    f = (1 - rho^2) / (1 - 2 rho cos theta + rho^2).

    The package averages over theta in closed form instead; with nodes a
    power of two every weight is exact.
    """
    rho = model.rho
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    f = (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(theta) + rho * rho)
    lam = np.multiply.outer(law.lambdas, f).ravel()
    weight = np.repeat(law.weights / nodes, nodes)
    return SpectralModel(atoms=tuple(zip(lam.tolist(), weight.tolist())), c=law.c)


def lrv_mc_mse_reference(cfg, n: int, m: float, sigma2: float) -> float:
    """Monte Carlo MSE of the long-run variance estimator at one ``lrv_mse``
    sweep point, from a (replicates, n) block drawn for that point alone,
    with nothing shared between points."""
    paths = generate_paths(cfg.model, n, cfg.seed, cfg.replicates)
    values = np.array([estimate_lrv(row, cfg.kernel, m) for row in paths])
    return float(np.mean((values - sigma2) ** 2))


def stieltjes_grid_reference(cfg) -> list[dict]:
    """The ``stieltjes_grid`` records with one ``limit_stieltjes`` call per
    grid point, each point solved alone as a one-point block."""
    law = cfg.spectral
    grid = cfg.grid
    tol = cfg.tolerances["tol"]
    max_iter = int(cfg.tolerances["max_iter"])
    atol = cfg.tolerances["closed_form_atol"]
    xs = np.linspace(grid["re_min"], grid["re_max"], grid["points"])
    single_unit_atom = law.atoms == ((1.0, 1.0),)
    rows = []
    for x in xs:
        z = complex(float(x), grid["im"])
        sv = limit_stieltjes(law, z, tol=tol, max_iter=max_iter)
        row = {
            "re_z": z.real,
            "im_z": z.imag,
            "m_re": sv.m.real,
            "m_im": sv.m.imag,
            "residual": sv.residual,
            "iterations": sv.iterations,
            "assert_residual": int(sv.residual <= tol),
            "assert_upper_half": int(sv.m.imag > 0.0),
        }
        if single_unit_atom:
            closed = mp_stieltjes(law.c, z)
            err = abs(sv.m - closed)
            row["closed_form_abs_err"] = err
            row["assert_closed_form"] = int(err <= atol)
        rows.append(row)
    return rows

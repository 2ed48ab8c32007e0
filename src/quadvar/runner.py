"""Config-driven experiments with deterministic, flat record output.

Each experiment turns a validated config into a list of flat metric records.
Assertions live inside the records as ``assert_*`` keys valued 0 or 1, so a
persisted file carries its own pass/fail evidence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .longrun import (
    check_assumptions,
    lrv_true,
    mc_mse,
    mse_bound,
)
from .models import (
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
    covariance_matrix,
    dependence_profile,
    generate_paths,
)
from .quadform import (
    brute_force_fourth_moment,
    brute_force_variance,
    fourth_moment_bound,
    gaussian_exact_variance,
    general_variance_bound,
    hollow_variance_bound,
    mc_fourth_moment,
    mc_variance,
)
from .spectral import (
    effective_spectral_model,
    kolmogorov_distance,
    limit_cdf,
    mp_stieltjes,
    sample_covariance_matrix,
    solve_stieltjes,
    symmetric_eigenvalues,
)

__all__ = ["ResultRecord", "run", "emit", "assertions_pass"]

_BRUTE_FORCE_P = 16
# Lags the dependence profile stores one by one. The bounds read only its
# aggregate sums, which include the analytic tails past the last stored lag,
# so no emitted number depends on this.
_PROFILE_LAGS = 64


@dataclass(frozen=True)
class ResultRecord:
    """One flat metrics row plus provenance."""

    experiment: str
    config_hash: str
    metrics: dict


def assertions_pass(records: list[ResultRecord]) -> bool:
    """True iff every assert_* metric in every record equals 1."""
    return all(
        value == 1
        for record in records
        for key, value in record.metrics.items()
        if key.startswith("assert_")
    )


def _checked(row: dict, cfg, estimate, std_error, exact_key, exact, bound) -> list[dict]:
    """[row] closed by a Monte Carlo estimate's checks: the exact value,
    z-score and agreement where an exact value exists, then the bound."""
    sigmas = cfg.tolerances["assert_sigmas"]
    if exact is not None:
        row[exact_key] = exact
        if std_error > 0.0:
            row["z_score"] = (estimate - exact) / std_error
        else:
            row["z_score"] = 0.0 if estimate == exact else math.inf
        row["assert_within_sigmas"] = int(abs(estimate - exact) <= sigmas * std_error)
    # the bound is constant-free: certify against factor * bound, plus MC noise
    factor = cfg.tolerances["certificate_factor"]
    row["assert_bound"] = int(estimate <= factor * bound.bound_value + sigmas * std_error)
    return [row]


def _run_quadform_var(cfg: ExperimentConfig) -> list[dict]:
    model, A = cfg.model, cfg.matrix
    p = A.shape[0]
    profile = dependence_profile(model, _PROFILE_LAGS)
    est = mc_variance(model, A, cfg.replicates, cfg.seed)
    if np.any(np.diag(A) != 0.0):
        bound = general_variance_bound(profile, A)
    else:
        bound = hollow_variance_bound(profile, A)

    exact = None
    if isinstance(model, (GaussianAR1, GaussianMA)):
        exact = gaussian_exact_variance(covariance_matrix(model, p), A)
    elif isinstance(model, (RademacherIID, RademacherProductMDS)) and p <= _BRUTE_FORCE_P:
        exact = brute_force_variance(model, A)

    row = {
        "p": p,
        "replicates": cfg.replicates,
        "mc_variance": est.variance,
        "mc_std_error": est.std_error,
        "bound_kind": bound.bound_kind,
        "bound_value": bound.bound_value,
        "trace_term": bound.trace_term,
        "coefficient_sum": bound.coefficient_sum,
    }
    return _checked(row, cfg, est.variance, est.std_error, "exact_variance", exact, bound)


def _run_fourth_moment(cfg: ExperimentConfig) -> list[dict]:
    model, a = cfg.model, cfg.vector
    p = a.size
    profile = dependence_profile(model, _PROFILE_LAGS)
    mean, std_error = mc_fourth_moment(model, a, cfg.replicates, cfg.seed)
    bound = fourth_moment_bound(profile, a)

    exact = None
    if isinstance(model, (GaussianAR1, GaussianMA)):
        exact = 3.0 * float(a @ covariance_matrix(model, p) @ a) ** 2
    elif isinstance(model, (RademacherIID, RademacherProductMDS)) and p <= _BRUTE_FORCE_P:
        exact = brute_force_fourth_moment(model, a)

    row = {
        "p": p,
        "replicates": cfg.replicates,
        "mc_fourth_moment": mean,
        "mc_std_error": std_error,
        "bound_value": bound.bound_value,
        "coefficient_sum": bound.coefficient_sum,
    }
    return _checked(row, cfg, mean, std_error, "exact_fourth_moment", exact, bound)


def _run_esd(cfg: ExperimentConfig) -> list[dict]:
    effective = effective_spectral_model(cfg.model, cfg.spectral)
    cdf = limit_cdf(effective)
    max_ks = cfg.tolerances["max_ks"]
    rows = []
    for p, n in cfg.sizes:
        S = sample_covariance_matrix(cfg.model, cfg.spectral, p, n, cfg.seed)
        esd = symmetric_eigenvalues(S)
        trace_error = abs(float(np.sum(esd)) - float(np.trace(S)))
        trace_error /= max(1.0, abs(float(np.trace(S))))
        ks = kolmogorov_distance(esd, cdf)
        rows.append(
            {
                "p": p,
                "n": n,
                "c_ratio": p / n,
                "ks_distance": ks,
                "trace_error": trace_error,
                "assert_ks": int(ks <= max_ks),
                "assert_trace": int(trace_error <= 1e-10),
            }
        )
    return rows


def _run_stieltjes_grid(cfg: ExperimentConfig) -> list[dict]:
    law = cfg.spectral
    grid = cfg.grid
    tol = cfg.tolerances["tol"]
    max_iter = int(cfg.tolerances["max_iter"])
    atol = cfg.tolerances["closed_form_atol"]
    zs = np.linspace(grid["re_min"], grid["re_max"], grid["points"]).astype(complex)
    zs.imag = grid["im"]
    m, residual, iterations = solve_stieltjes(law, zs, tol=tol, max_iter=max_iter)
    single_unit_atom = law.atoms == ((1.0, 1.0),)
    rows = []
    for z, mz, res, steps in zip(
        zs.tolist(), m.tolist(), residual.tolist(), iterations.tolist()
    ):
        row = {
            "re_z": z.real,
            "im_z": z.imag,
            "m_re": mz.real,
            "m_im": mz.imag,
            "residual": res,
            "iterations": steps,
            "assert_residual": int(res <= tol),
            "assert_upper_half": int(mz.imag > 0.0),
        }
        if single_unit_atom:
            err = abs(mz - mp_stieltjes(law.c, z))
            row["closed_form_abs_err"] = err
            row["assert_closed_form"] = int(err <= atol)
        rows.append(row)
    return rows


def _lrv_mc_mses(cfg: ExperimentConfig, n: int, bandwidths, sigma2: float) -> dict:
    """Monte Carlo MSE of the estimator at each bandwidth of one n, keyed (n, m).

    Every bandwidth reads the one (replicates, n) block drawn here: row r is
    stream (seed, r) whatever m is. The block is local, so it is freed before
    the next n draws its own and a sweep holds one block at a time.
    """
    paths = generate_paths(cfg.model, n, cfg.seed, cfg.replicates)
    return {(n, m): mc_mse(paths, cfg.kernel, m, sigma2) for m in bandwidths}


def _run_lrv_mse(cfg: ExperimentConfig) -> list[dict]:
    model, kernel = cfg.model, cfg.kernel
    profile = dependence_profile(model, _PROFILE_LAGS)
    sigma2 = lrv_true(model)
    cap = cfg.tolerances["ratio_cap"]
    slack = cfg.tolerances["slack_over_n"]
    bandwidths: dict[int, dict[float, None]] = {}  # the distinct m of each n, in config order
    for n, m in cfg.sweep:
        bandwidths.setdefault(n, {})[m] = None
    mc_mses = {}
    for n, ms in bandwidths.items():
        mc_mses.update(_lrv_mc_mses(cfg, n, ms, sigma2))
    rows = []
    for n, m in cfg.sweep:
        mse = mc_mses[n, m]
        report = mse_bound(profile, model, kernel, m, n)
        budget = report.variance_bound_c_free + report.squared_bias_leading
        rows.append(
            {
                "n": n,
                "m": m,
                "kernel": kernel.variant,
                "replicates": cfg.replicates,
                "sigma2_true": sigma2,
                "mc_mse": mse,
                "exact_bias": report.bias.exact,
                "leading_bias": report.bias.leading,
                "variance_bound_c_free": report.variance_bound_c_free,
                "squared_bias_leading": report.squared_bias_leading,
                "assert_mse_ratio": int(mse <= cap * budget + slack / n),
            }
        )
    return rows


def _run_kernel_check(cfg: ExperimentConfig) -> list[dict]:
    kernel = cfg.kernel
    report = check_assumptions(kernel)
    return [
        {
            "kernel": kernel.variant,
            "sup_abs": report.sup_abs,
            "envelope_sq_integral": report.envelope_sq_integral,
            "q": report.q,
            "k_q": report.k_q,
            "degenerate_limit": int(report.degenerate_limit),
            "assert_bounded": int(report.bounded),
            "assert_square_integrable": int(report.square_integrable),
            "assert_curvature_limit": int(report.curvature_limit),
        }
    ]


_DISPATCH = {
    "quadform_var": _run_quadform_var,
    "fourth_moment": _run_fourth_moment,
    "esd": _run_esd,
    "stieltjes_grid": _run_stieltjes_grid,
    "lrv_mse": _run_lrv_mse,
    "kernel_check": _run_kernel_check,
}


def run(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Execute one experiment; if the config names an output path, write it."""
    if cfg.experiment not in _DISPATCH:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    rows = _DISPATCH[cfg.experiment](cfg)
    config_hash = cfg.config_hash
    records = [
        ResultRecord(experiment=cfg.experiment, config_hash=config_hash, metrics=row)
        for row in rows
    ]
    if cfg.out is not None:
        emit(records, cfg.fmt, cfg.out)
    return records


def _serialize(value) -> str:
    """17-significant-digit text for floats; inf and nan become words."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize metric of type {type(value).__name__}")


def _json_cell(value) -> str:
    text = _serialize(value)
    if isinstance(value, str) or text in ("inf", "-inf", "nan"):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return text


def emit(records: list[ResultRecord], fmt: str, path) -> None:
    """Persist records as CSV (RFC-4180) or JSON (flat array of objects).

    Every float is written with 17 significant digits so parsing the file
    recovers the exact doubles; non-finite floats are written as the words
    inf/-inf/nan (quoted in JSON, which has no literal for them).
    """
    if not records:
        raise ValueError("records must be non-empty")
    keys = ["experiment", "config_hash", *records[0].metrics.keys()]
    for record in records:
        got = ["experiment", "config_hash", *record.metrics.keys()]
        if got != keys:
            raise ValueError("records must share one set of metric keys")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(keys)
            for record in records:
                writer.writerow(
                    [record.experiment, record.config_hash]
                    + [_serialize(v) for v in record.metrics.values()]
                )
    elif fmt == "json":
        lines = []
        for record in records:
            cells = [
                f'"experiment":{_json_cell(record.experiment)}',
                f'"config_hash":{_json_cell(record.config_hash)}',
            ]
            for key, value in record.metrics.items():
                cells.append(f'"{key}":{_json_cell(value)}')
            lines.append("  {" + ",".join(cells) + "}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[\n" + ",\n".join(lines) + "\n]\n")
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")

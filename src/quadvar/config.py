"""Experiment configs: strict JSON parsing, defaults, and a canonical hash.

A config is a single JSON object.  Validation is deliberately unforgiving:
unknown keys are rejected with their full path, parse errors carry line and
column, and every experiment declares exactly which sections it reads.  The
canonical hash covers the experiment-defining content (seed included, output
destination excluded, a kernel table read from a file by its contents) so
that re-running the same config, or the same config with its keys reordered,
always lands on the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .longrun import Kernel
from .models import (
    CovarianceModel,
    GaussianAR1,
    GaussianMA,
    RademacherIID,
    RademacherProductMDS,
)
from .quadform import gaussian_test_matrix
from .spectral import SpectralModel

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EXPERIMENTS",
    "canonical_hash",
    "validate",
    "load_config",
]

_MAX_SEED = (1 << 64) - 1


class ConfigError(ValueError):
    """A config failed validation; the message names the offending field."""


# Sections each experiment reads, beyond the always-allowed top-level keys.
EXPERIMENTS: dict[str, dict[str, frozenset[str]]] = {
    "quadform_var": {
        "required": frozenset({"model", "matrix"}),
        "optional": frozenset({"replicates", "max_lag"}),
    },
    "fourth_moment": {
        "required": frozenset({"model", "vector"}),
        "optional": frozenset({"replicates", "max_lag"}),
    },
    "esd": {
        "required": frozenset({"model", "spectral", "sizes"}),
        "optional": frozenset({"p_ref"}),
    },
    "stieltjes_grid": {
        "required": frozenset({"spectral", "grid"}),
        "optional": frozenset(),
    },
    "lrv_mse": {
        "required": frozenset({"model", "kernel", "sweep"}),
        "optional": frozenset({"replicates", "max_lag"}),
    },
    "kernel_check": {
        "required": frozenset({"kernel"}),
        "optional": frozenset(),
    },
}

_COMMON_KEYS = frozenset({"experiment", "seed", "tolerances", "out", "format"})

_TOLERANCE_DEFAULTS: dict[str, dict[str, float]] = {
    "quadform_var": {"assert_sigmas": 4.0, "certificate_factor": 3.0},
    "fourth_moment": {"assert_sigmas": 4.0, "certificate_factor": 3.0},
    "esd": {"max_ks": 0.10},
    "stieltjes_grid": {"tol": 1e-12, "max_iter": 10000, "closed_form_atol": 1e-10},
    "lrv_mse": {"ratio_cap": 3.0, "slack_over_n": 10.0},
    "kernel_check": {},
}


def _expect(obj: Any, kind: type, where: str) -> Any:
    if kind is float and isinstance(obj, int) and not isinstance(obj, bool):
        return float(obj)
    if not isinstance(obj, kind) or isinstance(obj, bool) and kind is not bool:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(obj).__name__}")
    if kind is float and not math.isfinite(obj):
        raise ConfigError(f"{where}: must be finite")
    return obj


def _expect_int(obj: Any, where: str, minimum: int | None = None) -> int:
    value = _expect(obj, int, where)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _check_keys(section: dict, allowed: frozenset[str], required: frozenset[str], where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in sorted(required):
        if key not in section:
            raise ConfigError(f"{where}.{key}: required key missing")


def _build_model(section: Any, where: str) -> CovarianceModel:
    section = _expect(section, dict, where)
    _check_keys(section, frozenset({"name", "rho", "coeffs"}), frozenset({"name"}), where)
    name = _expect(section["name"], str, f"{where}.name")
    if name == "gaussian_ar1":
        if "rho" not in section:
            raise ConfigError(f"{where}.rho: required for gaussian_ar1")
        rho = _expect(section["rho"], float, f"{where}.rho")
        try:
            return GaussianAR1(rho=rho)
        except ValueError as exc:
            raise ConfigError(f"{where}.rho: {exc}") from exc
    if name == "gaussian_ma":
        if "coeffs" not in section:
            raise ConfigError(f"{where}.coeffs: required for gaussian_ma")
        coeffs = _expect(section["coeffs"], list, f"{where}.coeffs")
        try:
            return GaussianMA(coeffs=tuple(float(c) for c in coeffs))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.coeffs: {exc}") from exc
    if name == "rademacher_iid":
        return RademacherIID()
    if name == "rademacher_product_mds":
        return RademacherProductMDS()
    raise ConfigError(f"{where}.name: unknown model {name!r}")


def _build_matrix(section: Any, where: str) -> np.ndarray:
    section = _expect(section, dict, where)
    _check_keys(
        section,
        frozenset({"kind", "p", "seed", "hollow", "entries"}),
        frozenset({"kind"}),
        where,
    )
    kind = _expect(section["kind"], str, f"{where}.kind")
    if kind == "explicit":
        if "entries" not in section:
            raise ConfigError(f"{where}.entries: required for explicit matrices")
        entries = _expect(section["entries"], list, f"{where}.entries")
        try:
            A = np.array(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.entries: {exc}") from exc
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ConfigError(f"{where}.entries: expected a non-empty square matrix")
        if not np.isfinite(A).all():
            raise ConfigError(f"{where}.entries: must be finite")
        return A
    if "p" not in section:
        raise ConfigError(f"{where}.p: required for {kind} matrices")
    p = _expect_int(section["p"], f"{where}.p", minimum=1)
    if kind == "hollow_ones":
        A = np.ones((p, p))
        np.fill_diagonal(A, 0.0)
        return A
    if kind == "identity":
        return np.eye(p)
    if kind == "gaussian":
        if "seed" not in section:
            raise ConfigError(f"{where}.seed: required for gaussian matrices")
        seed = _expect_int(section["seed"], f"{where}.seed", minimum=0)
        hollow = section.get("hollow", False)
        if not isinstance(hollow, bool):
            raise ConfigError(f"{where}.hollow: expected bool")
        return gaussian_test_matrix(p, seed, hollow=hollow)
    raise ConfigError(f"{where}.kind: unknown matrix kind {kind!r}")


def _build_vector(section: Any, where: str) -> np.ndarray:
    section = _expect(section, dict, where)
    _check_keys(section, frozenset({"kind", "p", "entries"}), frozenset({"kind"}), where)
    kind = _expect(section["kind"], str, f"{where}.kind")
    if kind == "explicit":
        if "entries" not in section:
            raise ConfigError(f"{where}.entries: required for explicit vectors")
        entries = _expect(section["entries"], list, f"{where}.entries")
        try:
            a = np.array(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.entries: {exc}") from exc
        if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
            raise ConfigError(f"{where}.entries: expected a non-empty finite 1-D array")
        return a
    if kind == "ones":
        if "p" not in section:
            raise ConfigError(f"{where}.p: required for ones vectors")
        p = _expect_int(section["p"], f"{where}.p", minimum=1)
        return np.ones(p)
    raise ConfigError(f"{where}.kind: unknown vector kind {kind!r}")


def _build_kernel(section: Any, where: str, config_dir: Path | None) -> Kernel:
    section = _expect(section, dict, where)
    _check_keys(
        section,
        frozenset({"name", "csv", "grid", "values"}),
        frozenset({"name"}),
        where,
    )
    name = _expect(section["name"], str, f"{where}.name")
    if name == "tabulated":
        if "csv" in section:
            rel = _expect(section["csv"], str, f"{where}.csv")
            path = Path(rel)
            if not path.is_absolute() and config_dir is not None:
                path = config_dir / path
            try:
                return Kernel.from_csv(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{where}.csv: {exc}") from exc
        if "grid" not in section or "values" not in section:
            raise ConfigError(f"{where}: tabulated kernels need csv or grid+values")
        grid = _expect(section["grid"], list, f"{where}.grid")
        values = _expect(section["values"], list, f"{where}.values")
        try:
            return Kernel.tabulated(grid, values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return Kernel(name)
    except ValueError:
        raise ConfigError(f"{where}.name: unknown kernel {name!r}") from None


def _build_spectral(section: Any, where: str) -> SpectralModel:
    section = _expect(section, dict, where)
    _check_keys(section, frozenset({"atoms", "c"}), frozenset({"atoms", "c"}), where)
    atoms_raw = _expect(section["atoms"], list, f"{where}.atoms")
    atoms = []
    for i, pair in enumerate(atoms_raw):
        pair = _expect(pair, list, f"{where}.atoms[{i}]")
        if len(pair) != 2:
            raise ConfigError(f"{where}.atoms[{i}]: expected [lambda, weight]")
        lam = _expect(pair[0], float, f"{where}.atoms[{i}][0]")
        wt = _expect(pair[1], float, f"{where}.atoms[{i}][1]")
        atoms.append((lam, wt))
    c = _expect(section["c"], float, f"{where}.c")
    try:
        return SpectralModel(atoms=tuple(atoms), c=c)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_sizes(section: Any, where: str) -> tuple[tuple[int, int], ...]:
    section = _expect(section, list, where)
    if not section:
        raise ConfigError(f"{where}: must not be empty")
    sizes = []
    for i, pair in enumerate(section):
        pair = _expect(pair, list, f"{where}[{i}]")
        if len(pair) != 2:
            raise ConfigError(f"{where}[{i}]: expected [p, n]")
        p = _expect_int(pair[0], f"{where}[{i}][0]", minimum=1)
        n = _expect_int(pair[1], f"{where}[{i}][1]", minimum=1)
        sizes.append((p, n))
    return tuple(sizes)


def _build_grid(section: Any, where: str) -> dict[str, float]:
    section = _expect(section, dict, where)
    _check_keys(
        section,
        frozenset({"re_min", "re_max", "points", "im"}),
        frozenset({"re_min", "re_max", "points", "im"}),
        where,
    )
    re_min = _expect(section["re_min"], float, f"{where}.re_min")
    re_max = _expect(section["re_max"], float, f"{where}.re_max")
    if re_max < re_min:
        raise ConfigError(f"{where}.re_max: must be >= re_min")
    points = _expect_int(section["points"], f"{where}.points", minimum=1)
    im = _expect(section["im"], float, f"{where}.im")
    if im <= 0.0:
        raise ConfigError(f"{where}.im: must be > 0")
    return {"re_min": re_min, "re_max": re_max, "points": points, "im": im}


def _build_sweep(section: Any, where: str) -> tuple[tuple[int, float], ...]:
    section = _expect(section, list, where)
    if not section:
        raise ConfigError(f"{where}: must not be empty")
    sweep = []
    for i, pair in enumerate(section):
        pair = _expect(pair, list, f"{where}[{i}]")
        if len(pair) != 2:
            raise ConfigError(f"{where}[{i}]: expected [n, m]")
        n = _expect_int(pair[0], f"{where}[{i}][0]", minimum=2)
        m = _expect(pair[1], float, f"{where}[{i}][1]")
        if not m > 0.0:
            raise ConfigError(f"{where}[{i}][1]: bandwidth must be > 0")
        sweep.append((n, m))
    return tuple(sweep)


def _check_esd(atoms: list, sizes: tuple[tuple[int, int], ...]) -> None:
    """Conditions the esd run needs that the sections do not check alone."""
    for i, (lam, _) in enumerate(atoms):
        if not lam > 0.0:
            raise ConfigError(f"spectral.atoms[{i}][0]: esd needs lambda > 0, got {lam}")
    for i, (p, _) in enumerate(sizes):
        if p < len(atoms):
            raise ConfigError(f"sizes[{i}][0]: p = {p} cannot host {len(atoms)} atoms")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated config with defaults applied.

    ``canonical`` is the defaults-filled plain-JSON image of the config, with
    a tabulated kernel's grid and values in place of its csv path, and is
    what the hash digests; ``out`` and ``fmt`` route output but do not
    participate in it.
    """

    experiment: str
    seed: int
    canonical: dict
    replicates: int = 100000
    max_lag: int = 64
    model: CovarianceModel | None = None
    matrix: np.ndarray | None = None
    vector: np.ndarray | None = None
    kernel: Kernel | None = None
    spectral: SpectralModel | None = None
    sizes: tuple[tuple[int, int], ...] | None = None
    grid: dict | None = None
    sweep: tuple[tuple[int, float], ...] | None = None
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"

    @property
    def config_hash(self) -> str:
        return canonical_hash(self.canonical)


def _canonical_json(obj: Any) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise TypeError("config numbers must be finite")
        if obj == int(obj) and abs(obj) < 1e16:
            return repr(int(obj))
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            parts.append(json.dumps(key) + ":" + _canonical_json(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def canonical_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON image (sorted keys, normalised numbers)."""
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


def validate(
    text: str,
    overrides: dict[str, Any] | None = None,
    config_dir: Path | None = None,
) -> ExperimentConfig:
    """Parse and validate a JSON config, applying CLI overrides if given.

    Overrides may set ``seed`` (participates in the hash), ``out`` and
    ``format`` (do not).  Raises ConfigError with line/column for parse
    failures and with a field path for anything structural.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")

    if "experiment" not in raw:
        raise ConfigError("experiment: required key missing")
    experiment = _expect(raw["experiment"], str, "experiment")
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"experiment: unknown experiment {experiment!r} (known: {known})")

    sections = EXPERIMENTS[experiment]
    allowed = _COMMON_KEYS | sections["required"] | sections["optional"]
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for experiment {experiment!r}")
    for key in sorted(sections["required"]):
        if key not in raw:
            raise ConfigError(f"{key}: required key missing for experiment {experiment!r}")

    overrides = dict(overrides or {})
    for key in overrides:
        if key not in {"seed", "out", "format"}:
            raise ConfigError(f"override {key}: not overridable")

    if "seed" in overrides and overrides["seed"] is not None:
        seed = _expect_int(overrides["seed"], "override seed", minimum=0)
    elif "seed" in raw:
        seed = _expect_int(raw["seed"], "seed", minimum=0)
    else:
        raise ConfigError("seed: required key missing (seeds are mandatory)")
    if seed > _MAX_SEED:
        raise ConfigError(f"seed: must fit in 64 bits, got {seed}")

    tolerances = dict(_TOLERANCE_DEFAULTS[experiment])
    if "tolerances" in raw:
        tol_raw = _expect(raw["tolerances"], dict, "tolerances")
        for key, value in tol_raw.items():
            if key not in tolerances:
                raise ConfigError(f"tolerances.{key}: unknown key for {experiment!r}")
            if key == "max_iter":
                tolerances[key] = _expect_int(value, f"tolerances.{key}", minimum=1)
            else:
                value = _expect(value, float, f"tolerances.{key}")
                if not value > 0.0:
                    raise ConfigError(f"tolerances.{key}: must be > 0, got {value}")
                tolerances[key] = value

    kwargs: dict[str, Any] = {}
    if "replicates" in raw:
        # A sample variance or standard error needs two replicates.
        minimum = 2 if experiment in ("quadform_var", "fourth_moment") else 1
        kwargs["replicates"] = _expect_int(raw["replicates"], "replicates", minimum=minimum)
    if "max_lag" in raw:
        kwargs["max_lag"] = _expect_int(raw["max_lag"], "max_lag", minimum=1)
    if "p_ref" in raw:
        # Accepted for older esd configs and otherwise ignored: the limit law
        # no longer depends on a reference dimension.
        _expect_int(raw["p_ref"], "p_ref", minimum=2)
    if "model" in raw:
        kwargs["model"] = _build_model(raw["model"], "model")
    if "matrix" in raw:
        kwargs["matrix"] = _build_matrix(raw["matrix"], "matrix")
    if "vector" in raw:
        kwargs["vector"] = _build_vector(raw["vector"], "vector")
    if "kernel" in raw:
        kwargs["kernel"] = _build_kernel(raw["kernel"], "kernel", config_dir)
    if "spectral" in raw:
        kwargs["spectral"] = _build_spectral(raw["spectral"], "spectral")
    if "sizes" in raw:
        kwargs["sizes"] = _build_sizes(raw["sizes"], "sizes")
    if "grid" in raw:
        kwargs["grid"] = _build_grid(raw["grid"], "grid")
    if "sweep" in raw:
        kwargs["sweep"] = _build_sweep(raw["sweep"], "sweep")
    if experiment == "esd":
        _check_esd(raw["spectral"]["atoms"], kwargs["sizes"])

    out = raw.get("out")
    if out is not None:
        out = _expect(out, str, "out")
    if "out" in overrides and overrides["out"] is not None:
        out = str(overrides["out"])
    fmt = raw.get("format", "csv")
    fmt = _expect(fmt, str, "format")
    if "format" in overrides and overrides["format"] is not None:
        fmt = str(overrides["format"])
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {fmt!r}")

    canonical: dict[str, Any] = {
        "experiment": experiment,
        "seed": seed,
        "tolerances": tolerances,
    }
    for key in sections["required"] | sections["optional"]:
        if key in ("replicates", "max_lag", "p_ref"):
            continue
        if key in raw:
            canonical[key] = raw[key]
    if "kernel" in kwargs and kwargs["kernel"].variant == "tabulated":
        # Hash the table, not the path of the file it came from.
        kernel = kwargs["kernel"]
        canonical["kernel"] = {
            "name": "tabulated",
            "grid": list(kernel.grid),
            "values": list(kernel.values),
        }
    for key in ("replicates", "max_lag"):
        if key in allowed:
            # the field defaults of ExperimentConfig are the only copy
            canonical[key] = kwargs.get(key, getattr(ExperimentConfig, key))

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        canonical=canonical,
        tolerances=tolerances,
        out=out,
        fmt=fmt,
        **kwargs,
    )


def load_config(path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Read and validate a config file; relative csv paths resolve beside it."""
    path = Path(path)
    return validate(path.read_text(), overrides=overrides, config_dir=path.parent)

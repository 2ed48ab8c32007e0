"""Experiment configs: strict JSON parsing, defaults, and a canonical hash.

A config is a single JSON object.  Validation is deliberately unforgiving:
unknown and repeated keys are rejected with their path, parse errors carry
line and column, every number must be a JSON number that fits a double, and
every experiment declares exactly which sections it reads.  The canonical
hash covers the experiment-defining content (seed and fixed thresholds
included, a kernel table read from a file by its contents) so that
re-running the same config, or the same config with its keys reordered,
always lands on the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .longrun import Kernel, _acf_support, _fft_size, _lag_count, check_assumptions
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
# Doubles one array built from a config size may hold: p * p (a matrix, the
# covariance of a fourth_moment vector, or an esd covariance), p * n (an esd
# sample), atoms * points (a grid), the per-row values of a Monte Carlo run
# (replicates, or replicates * distinct sweep points for lrv_mse), one row
# of an lrv_mse chunk (the sweep's largest FFT size), the autocovariance
# support of an lrv_mse model (the lags every bias sum reads), and the kernel
# weights of an lrv_mse run, summed over its distinct points.  A Monte Carlo
# run never holds its whole replicates x width block: it draws a chunk of
# rows at a time.
# 2**24 doubles is 128 MiB; a larger size is refused before anything is
# allocated, rather than failing in numpy.
_MAX_DOUBLES = 1 << 24


class ConfigError(ValueError):
    """A config failed validation; the message names the offending field."""


class _Experiment(NamedTuple):
    """What one experiment reads beyond the always-allowed top-level keys."""

    required: tuple[str, ...]  # sections, each built by its entry in _BUILDERS
    optional: dict[str, int]  # integer keys and their minimums
    tolerances: dict[str, float]  # the fixed thresholds its assertions use


_MC_TOLERANCES = {"assert_sigmas": 4.0, "certificate_factor": 3.0}

EXPERIMENTS: dict[str, _Experiment] = {
    # A sample variance or standard error needs two replicates.
    "quadform_var": _Experiment(("model", "matrix"), {"replicates": 2}, _MC_TOLERANCES),
    "fourth_moment": _Experiment(("model", "vector"), {"replicates": 2}, _MC_TOLERANCES),
    # p_ref is accepted for older esd configs and otherwise ignored (and not
    # hashed): the limit law no longer depends on a reference dimension.
    "esd": _Experiment(("model", "spectral", "sizes"), {"p_ref": 2}, {"max_ks": 0.10}),
    "stieltjes_grid": _Experiment(
        ("spectral", "grid"), {}, {"tol": 1e-12, "max_iter": 10000, "closed_form_atol": 1e-10}
    ),
    "lrv_mse": _Experiment(
        ("model", "kernel", "sweep"), {"replicates": 1}, {"ratio_cap": 3.0, "slack_over_n": 10.0}
    ),
    "kernel_check": _Experiment(("kernel",), {}, {}),
}

_COMMON_KEYS = frozenset({"experiment", "seed"})


def _expect(obj: Any, kind: type, where: str) -> Any:
    if kind is float and isinstance(obj, int) and not isinstance(obj, bool):
        try:
            return float(obj)
        except OverflowError:
            raise ConfigError(f"{where}: integer too large for a double") from None
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


def _expect_seed(obj: Any, where: str) -> int:
    seed = _expect_int(obj, where, minimum=0)
    if seed > _MAX_SEED:
        raise ConfigError(f"{where}: must fit in 64 bits, got {seed}")
    return seed


def _check_doubles(count: int, where: str, what: str) -> None:
    if count > _MAX_DOUBLES:
        raise ConfigError(f"{where}: {what} = {count} exceeds the cap of {_MAX_DOUBLES} doubles")


def _real(obj: Any, where: str) -> float:
    return _expect(obj, float, where)


def _floats(obj: Any, where: str) -> tuple[float, ...]:
    items = _expect(obj, list, where)
    return tuple(_real(item, f"{where}[{i}]") for i, item in enumerate(items))


def _pairs(obj: Any, where: str, shape: str, first, second) -> tuple:
    """A non-empty list of two-item lists ``shape``, read by ``first`` and ``second``."""
    items = _expect(obj, list, where)
    if not items:
        raise ConfigError(f"{where}: must not be empty")
    pairs = []
    for i, pair in enumerate(items):
        at = f"{where}[{i}]"
        pair = _expect(pair, list, at)
        if len(pair) != 2:
            raise ConfigError(f"{at}: expected {shape}")
        pairs.append((first(pair[0], f"{at}[0]"), second(pair[1], f"{at}[1]")))
    return tuple(pairs)


def _section(obj: Any, where: str, allowed: set[str], required: set[str]) -> dict:
    section = _expect(obj, dict, where)
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    for key in sorted(required):
        if key not in section:
            raise ConfigError(f"{where}.{key}: required key missing")
    return section


def _required(section: dict, key: str, where: str, what: str) -> Any:
    """``section[key]``, which the section's kind ``what`` needs."""
    if key not in section:
        raise ConfigError(f"{where}.{key}: required for {what}")
    return section[key]


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key}: repeated key")
        obj[key] = value
    return obj


# The keys each model name and each matrix or vector kind reads, besides
# the key that names it. A section may hold no other key: one its kind never
# reads would be ignored, yet hashed.
_MODEL_KEYS = {
    "gaussian_ar1": ("rho",),
    "gaussian_ma": ("coeffs",),
    "rademacher_iid": (),
    "rademacher_product_mds": (),
}
_MATRIX_KEYS = {
    "explicit": ("entries",),
    "hollow_ones": ("p",),
    "identity": ("p",),
    "gaussian": ("p", "seed", "hollow"),
}
_VECTOR_KEYS = {"explicit": ("entries",), "ones": ("p",)}


def _reads_only(section: dict, where: str, kind: str, keys) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown key for {kind}")


def _kind_section(obj: Any, where: str, tag: str, kinds: dict, what: str) -> tuple[dict, str]:
    """A section whose ``tag`` names one of ``kinds``, and that name; every
    other key must be one that ``kinds`` lists for it."""
    section = _section(obj, where, {tag}.union(*kinds.values()), {tag})
    kind = _expect(section[tag], str, f"{where}.{tag}")
    if kind not in kinds:
        raise ConfigError(f"{where}.{tag}: unknown {what} {kind!r}")
    _reads_only(section, where, kind, (tag, *kinds[kind]))
    return section, kind


def _build_model(section: Any, where: str) -> CovarianceModel:
    section, name = _kind_section(section, where, "name", _MODEL_KEYS, "model")
    if name == "gaussian_ar1":
        rho = _real(_required(section, "rho", where, name), f"{where}.rho")
        try:
            return GaussianAR1(rho=rho)
        except ValueError as exc:
            raise ConfigError(f"{where}.rho: {exc}") from exc
    if name == "gaussian_ma":
        coeffs = _floats(_required(section, "coeffs", where, name), f"{where}.coeffs")
        try:
            return GaussianMA(coeffs=coeffs)
        except ValueError as exc:
            raise ConfigError(f"{where}.coeffs: {exc}") from exc
    if name == "rademacher_iid":
        return RademacherIID()
    return RademacherProductMDS()


def _build_matrix(section: Any, where: str) -> np.ndarray:
    section, kind = _kind_section(section, where, "kind", _MATRIX_KEYS, "matrix kind")
    if kind == "explicit":
        rows = _required(section, "entries", where, "explicit matrices")
        rows = _expect(rows, list, f"{where}.entries")
        if not rows or any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
            raise ConfigError(f"{where}.entries: expected a non-empty square matrix")
        return np.array([_floats(row, f"{where}.entries[{i}]") for i, row in enumerate(rows)])
    p = _expect_int(_required(section, "p", where, f"{kind} matrices"), f"{where}.p", minimum=1)
    _check_doubles(p * p, f"{where}.p", "p^2")
    if kind == "hollow_ones":
        A = np.ones((p, p))
        np.fill_diagonal(A, 0.0)
        return A
    if kind == "identity":
        return np.eye(p)
    seed = _required(section, "seed", where, "gaussian matrices")
    seed = _expect_seed(seed, f"{where}.seed")
    hollow = section.get("hollow", False)
    if not isinstance(hollow, bool):
        raise ConfigError(f"{where}.hollow: expected bool")
    return gaussian_test_matrix(p, seed, hollow=hollow)


def _build_vector(section: Any, where: str) -> np.ndarray:
    section, kind = _kind_section(section, where, "kind", _VECTOR_KEYS, "vector kind")
    if kind == "explicit":
        entries = _required(section, "entries", where, "explicit vectors")
        a = np.array(_floats(entries, f"{where}.entries"))
        if a.size == 0:
            raise ConfigError(f"{where}.entries: expected a non-empty finite 1-D array")
        _check_doubles(a.size * a.size, f"{where}.entries", "p^2")
        return a
    p = _expect_int(_required(section, "p", where, "ones vectors"), f"{where}.p", minimum=1)
    _check_doubles(p * p, f"{where}.p", "p^2")
    return np.ones(p)


def _build_kernel(section: Any, where: str, config_dir: Path | None) -> Kernel:
    section = _section(section, where, {"name", "csv", "grid", "values"}, {"name"})
    name = _expect(section["name"], str, f"{where}.name")
    if name == "tabulated":
        if "csv" in section:
            # an absolute path replaces config_dir
            path = Path(config_dir or "", _expect(section["csv"], str, f"{where}.csv"))
            try:
                return Kernel.from_csv(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{where}.csv: {exc}") from exc
        if "grid" not in section or "values" not in section:
            raise ConfigError(f"{where}: tabulated kernels need csv or grid+values")
        grid = _floats(section["grid"], f"{where}.grid")
        values = _floats(section["values"], f"{where}.values")
        try:
            return Kernel.tabulated(grid, values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        kernel = Kernel(name)
    except ValueError:
        raise ConfigError(f"{where}.name: unknown kernel {name!r}") from None
    _reads_only(section, where, name, ("name",))  # the table keys are tabulated's
    return kernel


def _build_spectral(section: Any, where: str) -> SpectralModel:
    section = _section(section, where, {"atoms", "c"}, {"atoms", "c"})
    atoms = _pairs(section["atoms"], f"{where}.atoms", "[lambda, weight]", _real, _real)
    c = _real(section["c"], f"{where}.c")
    try:
        return SpectralModel(atoms=atoms, c=c)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_sizes(section: Any, where: str) -> tuple[tuple[int, int], ...]:
    count = partial(_expect_int, minimum=1)
    return _pairs(section, where, "[p, n]", count, count)


def _build_grid(section: Any, where: str) -> dict[str, float]:
    keys = {"re_min", "re_max", "points", "im"}
    section = _section(section, where, keys, keys)
    re_min = _real(section["re_min"], f"{where}.re_min")
    re_max = _real(section["re_max"], f"{where}.re_max")
    if re_max < re_min:
        raise ConfigError(f"{where}.re_max: must be >= re_min")
    points = _expect_int(section["points"], f"{where}.points", minimum=1)
    im = _real(section["im"], f"{where}.im")
    if im <= 0.0:
        raise ConfigError(f"{where}.im: must be > 0")
    return {"re_min": re_min, "re_max": re_max, "points": points, "im": im}


def _bandwidth(obj: Any, where: str) -> float:
    m = _real(obj, where)
    if not m > 0.0:
        raise ConfigError(f"{where}: bandwidth must be > 0")
    return m


def _build_sweep(section: Any, where: str) -> tuple[tuple[int, float], ...]:
    return _pairs(section, where, "[n, m]", partial(_expect_int, minimum=2), _bandwidth)


# One builder per section, called as build(raw_section, section_name).
_BUILDERS = {
    "model": _build_model,
    "matrix": _build_matrix,
    "vector": _build_vector,
    "kernel": _build_kernel,
    "spectral": _build_spectral,
    "sizes": _build_sizes,
    "grid": _build_grid,
    "sweep": _build_sweep,
}


def _check_esd(atoms: list, sizes: tuple[tuple[int, int], ...]) -> None:
    """Conditions the esd run needs that the sections do not check alone."""
    for i, (lam, _) in enumerate(atoms):
        if not lam > 0.0:
            raise ConfigError(f"spectral.atoms[{i}][0]: esd needs lambda > 0, got {lam}")
    for i, (p, n) in enumerate(sizes):
        if p < len(atoms):
            raise ConfigError(f"sizes[{i}][0]: p = {p} cannot host {len(atoms)} atoms")
        _check_doubles(p * p, f"sizes[{i}]", "p^2")
        _check_doubles(p * n, f"sizes[{i}]", "p x n")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated config with defaults applied.

    ``canonical`` is the defaults-filled plain-JSON image of the config, with
    a tabulated kernel's grid and values in place of its csv path, and is
    what the hash digests; ``out`` and ``fmt``, set by overrides alone, route
    output but do not participate in it.
    """

    experiment: str
    seed: int
    canonical: dict
    replicates: int = 100000
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

    The text holds only the experiment; its thresholds are the fixed ones in
    ``EXPERIMENTS``.  Overrides may set ``seed`` (participates in the hash),
    ``out`` and ``format`` (do not; nothing else routes output).  Raises
    ConfigError with line/column for parse failures and with a field path
    for anything structural or that the run would refuse.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ConfigError:
        raise
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")

    if "experiment" not in raw:
        raise ConfigError("experiment: required key missing")
    experiment = _expect(raw["experiment"], str, "experiment")
    if experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"experiment: unknown experiment {experiment!r} (known: {known})")

    spec = EXPERIMENTS[experiment]
    allowed = _COMMON_KEYS | set(spec.required) | spec.optional.keys()
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for experiment {experiment!r}")
    for key in sorted(spec.required):
        if key not in raw:
            raise ConfigError(f"{key}: required key missing for experiment {experiment!r}")

    overrides = dict(overrides or {})
    for key in overrides:
        if key not in {"seed", "out", "format"}:
            raise ConfigError(f"override {key}: not overridable")

    if overrides.get("seed") is not None:
        seed = _expect_seed(overrides["seed"], "override seed")
    elif "seed" in raw:
        seed = _expect_seed(raw["seed"], "seed")
    else:
        raise ConfigError("seed: required key missing (seeds are mandatory)")

    kwargs: dict[str, Any] = {
        key: _expect_int(raw[key], key, minimum=minimum)
        for key, minimum in spec.optional.items()
        if key in raw
    }
    kwargs.pop("p_ref", None)  # checked, then ignored: see EXPERIMENTS["esd"]
    builders = {**_BUILDERS, "kernel": partial(_build_kernel, config_dir=config_dir)}
    for key in spec.required:
        kwargs[key] = builders[key](raw[key], key)
    if experiment == "esd":
        _check_esd(raw["spectral"]["atoms"], kwargs["sizes"])
    if experiment == "stieltjes_grid":
        block = len(kwargs["spectral"].atoms) * kwargs["grid"]["points"]
        _check_doubles(block, "grid.points", "atoms x points")
    # the field default of ExperimentConfig is the only copy
    replicates = kwargs.get("replicates", ExperimentConfig.replicates)
    if experiment == "lrv_mse":
        report = check_assumptions(kwargs["kernel"])
        if not report.all_pass:
            raise ConfigError(f"kernel: fails its assumptions: {report}")
        _check_doubles(_acf_support(kwargs["model"]), "model", "autocovariance support lags")
        points = set(kwargs["sweep"])
        _check_doubles(replicates * len(points), "replicates", "replicates x sweep points")
        for i, (n, m) in enumerate(kwargs["sweep"]):
            size = _fft_size(n, _lag_count(kwargs["kernel"], m, n))
            _check_doubles(size, f"sweep[{i}]", "FFT size")
        weights = sum(_lag_count(kwargs["kernel"], m, n) for n, m in points)
        _check_doubles(weights, "sweep", "kernel weights")
    elif "replicates" in spec.optional:
        # a row's p is capped above, by the p x p matrix or covariance
        _check_doubles(replicates, "replicates", "replicates")

    out = overrides.get("out")
    out = None if out is None else str(out)
    fmt = overrides.get("format")
    fmt = "csv" if fmt is None else str(fmt)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {fmt!r}")

    canonical: dict[str, Any] = {
        "experiment": experiment,
        "seed": seed,
        "tolerances": dict(spec.tolerances),
    }
    for key in spec.required:
        canonical[key] = raw[key]
    if "kernel" in kwargs and kwargs["kernel"].variant == "tabulated":
        # Hash the table, not the path of the file it came from.
        kernel = kwargs["kernel"]
        canonical["kernel"] = {
            "name": "tabulated",
            "grid": list(kernel.grid),
            "values": list(kernel.values),
        }
    if "replicates" in spec.optional:
        canonical["replicates"] = replicates

    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        canonical=canonical,
        tolerances=canonical["tolerances"],
        out=out,
        fmt=fmt,
        **kwargs,
    )


def load_config(path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Read and validate a config file; relative csv paths resolve beside it."""
    path = Path(path)
    return validate(path.read_text(), overrides=overrides, config_dir=path.parent)

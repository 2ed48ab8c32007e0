"""Per-layer spans and counts for one traced benchmark sample.

The tracer wraps public functions of quadvar's layers from outside the
package. It rebinds each function's name in every quadvar module that holds
it: calls between modules (``quadvar.runner.jacobi_eigenvalues``,
``quadvar.quadform.generate_paths``) and calls inside a module both pass
through the wrapper, and nothing under ``src/`` changes. Spans stay in memory
until the sample ends; then each layer's self time (its spans' durations minus
the time their child spans cover) and the counts are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import defaultdict
from time import perf_counter

MODULES = (
    "quadvar",
    "quadvar.config",
    "quadvar.models",
    "quadvar.quadform",
    "quadvar.spectral",
    "quadvar.longrun",
    "quadvar.runner",
)

# (home module, function, layer). A layer's time metric is "<layer>_s".
TRACED = (
    ("config", "load_config", "config.load"),
    ("models", "generate_paths", "models.generate_paths"),
    ("models", "dependence_profile", "models.dependence_profile"),
    ("models", "exact_product_moment", "models.product_moment"),
    ("quadform", "mc_variance", "quadform.mc_variance"),
    ("quadform", "mc_fourth_moment", "quadform.mc_fourth_moment"),
    ("quadform", "brute_force_variance", "quadform.brute_force"),
    ("quadform", "gaussian_exact_variance", "quadform.bounds"),
    ("quadform", "hollow_variance_bound", "quadform.bounds"),
    ("quadform", "general_variance_bound", "quadform.bounds"),
    ("quadform", "linear_process_variance_bound", "quadform.bounds"),
    ("quadform", "fourth_moment_bound", "quadform.bounds"),
    ("spectral", "sample_covariance_matrix", "spectral.sample_cov"),
    ("spectral", "jacobi_eigenvalues", "spectral.eigen"),
    ("spectral", "effective_spectral_model", "spectral.effective_law"),
    ("spectral", "limit_cdf", "spectral.limit_cdf"),
    ("spectral", "limit_stieltjes", "spectral.stieltjes"),
    ("spectral", "kolmogorov_distance", "spectral.ks"),
    ("longrun", "estimate_lrv", "longrun.estimate"),
    ("longrun", "exact_bias", "longrun.budget"),
    ("longrun", "mse_bound", "longrun.budget"),
    ("longrun", "lrv_true", "longrun.budget"),
    ("runner", "run", "runner.self"),
    ("runner", "emit", "runner.emit"),
)

# Experiments the workloads run; each gets an inclusive runner.run_s.<name>.
EXPERIMENTS = ("quadform_var", "fourth_moment", "esd", "stieltjes_grid", "lrv_mse")

# Counts that must repeat exactly between two traced samples of one input.
COUNTS = (
    "models.streams",
    "models.path_values",
    "models.path_mb",
    "models.path_block_reuse",
    "models.product_moment_calls",
    "quadform.sign_configs",
    "spectral.eigen_dim",
    "spectral.stieltjes_points",
    "spectral.stieltjes_iterations",
    "longrun.lag_products",
    "runner.records",
    "runner.emit_bytes",
)

# Every per-layer metric a traced run reports: name -> (unit, better).
# What each should move, and where (wall_s unless named):
#   config.load_s -> setup_s, every workload (small)
#   models.generate_paths_s, models.streams, models.path_values
#       -> monte_carlo; about 0 on spectral_esd
#   models.path_mb (8 B x path_values, computed) -> peak_rss_mb, monte_carlo
#   models.path_block_reuse (distinct (model, p, seed, count) blocks over
#       generate_paths calls) -> monte_carlo, where it is 2/3
#   models.product_moment_*, quadform.* -> monte_carlo
#   spectral.* -> spectral_esd
#   longrun.* (lag_products: sum of min(n - 1, floor(support * m)), computed)
#       -> monte_carlo
#   runner.self_s (includes the per-row SamplePath copies in lrv_mse)
#       -> monte_carlo; runner.run_s.<experiment> is inclusive
PER_LAYER = {
    **{
        f"{layer}_s": ("s", "lower")
        for layer in dict.fromkeys(layer for _, _, layer in TRACED)
    },
    **{f"runner.run_s.{name}": ("s", "lower") for name in EXPERIMENTS},
    "models.streams": ("count", "lower"),
    "models.path_values": ("count", "lower"),
    "models.path_mb": ("MiB", "lower"),
    "models.path_block_reuse": ("ratio", "higher"),
    "models.product_moment_calls": ("count", "lower"),
    "quadform.sign_configs": ("count", "lower"),
    "spectral.eigen_dim": ("count", "lower"),
    "spectral.stieltjes_points": ("count", "lower"),
    "spectral.stieltjes_iterations": ("count", "lower"),
    "spectral.stieltjes_residual_max": ("abs", "lower"),
    "spectral.convergence_errors": ("count", "lower"),
    "longrun.estimate_calls": ("count", "lower"),
    "longrun.lag_products": ("count", "lower"),
    "runner.records": ("count", "higher"),
    "runner.emit_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unaccounted_frac": ("ratio", "lower"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_generate_paths(tracer, args, kwargs, result, seconds):
    count = _arg(args, kwargs, 3, "count")
    tracer.metrics["models.streams"] += count
    tracer.metrics["models.path_values"] += result.size
    tracer.blocks.append(
        (
            _arg(args, kwargs, 0, "model"),
            _arg(args, kwargs, 1, "p"),
            _arg(args, kwargs, 2, "seed"),
            count,
        )
    )


def _on_product_moment(tracer, args, kwargs, result, seconds):
    tracer.metrics["models.product_moment_calls"] += 1


def _on_brute_force(tracer, args, kwargs, result, seconds):
    from quadvar.models import RademacherProductMDS

    model = _arg(args, kwargs, 0, "model")
    n_signs = len(_arg(args, kwargs, 1, "A"))
    if isinstance(model, RademacherProductMDS):
        n_signs += 1
    tracer.metrics["quadform.sign_configs"] += 2**n_signs


def _on_eigen(tracer, args, kwargs, result, seconds):
    tracer.metrics["spectral.eigen_dim"] += len(_arg(args, kwargs, 0, "S"))


def _on_stieltjes(tracer, args, kwargs, result, seconds):
    m = tracer.metrics
    m["spectral.stieltjes_points"] += 1
    m["spectral.stieltjes_iterations"] += result.iterations
    m["spectral.stieltjes_residual_max"] = max(
        m["spectral.stieltjes_residual_max"], result.residual
    )


def _on_estimate(tracer, args, kwargs, result, seconds):
    kernel = _arg(args, kwargs, 1, "kernel")
    n = len(_arg(args, kwargs, 0, "path"))
    lags = n - 1
    if math.isfinite(kernel.support_radius):
        lags = min(lags, math.floor(kernel.support_radius * _arg(args, kwargs, 2, "m")))
    tracer.metrics["longrun.estimate_calls"] += 1
    tracer.metrics["longrun.lag_products"] += max(lags, 0)


def _on_run(tracer, args, kwargs, result, seconds):
    cfg = _arg(args, kwargs, 0, "cfg")
    tracer.metrics[f"runner.run_s.{cfg.experiment}"] += seconds
    tracer.metrics["runner.records"] += len(result)


def _on_emit(tracer, args, kwargs, result, seconds):
    tracer.metrics["runner.emit_bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))


HOOKS = {
    "generate_paths": _on_generate_paths,
    "exact_product_moment": _on_product_moment,
    "brute_force_variance": _on_brute_force,
    "jacobi_eigenvalues": _on_eigen,
    "limit_stieltjes": _on_stieltjes,
    "estimate_lrv": _on_estimate,
    "run": _on_run,
    "emit": _on_emit,
}


class Tracer:
    """Spans and counts of one sample process, from ``install`` on."""

    def __init__(self):
        self.spans: list = []  # (layer, parent index or -1, start, end)
        self.stack: list[int] = []
        self.metrics = defaultdict(int)
        self.blocks: list[tuple] = []
        self._seen_errors: set[int] = set()

    def install(self) -> None:
        from quadvar.spectral import ConvergenceError

        modules = [importlib.import_module(name) for name in MODULES]
        for home, name, layer in TRACED:
            original = getattr(importlib.import_module(f"quadvar.{home}"), name)
            wrapper = self._wrap(layer, original, HOOKS.get(name), ConvergenceError)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, layer, fn, hook, error_type):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.metrics["spectral.convergence_errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, parent, start, end)
            if hook is not None:
                hook(self, args, kwargs, result, end - start)
            return result

        return traced

    def report(self, pass_start: float, pass_end: float) -> dict:
        """Every per-layer metric except trace.overhead_frac, which needs an
        untraced sample. Self times cover the whole process (config.load_s is
        paid before the pass); trace.unaccounted_frac is the share of the
        pass that no span's self time covers. As nested self times add up to
        their root span, that share is only the time between root spans;
        untraced code inside a span counts in its caller's self time."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(PER_LAYER, 0)
        covered = 0.0
        for index, (layer, parent, start, end) in enumerate(self.spans):
            own = end - start - child[index]
            out[f"{layer}_s"] += own
            if pass_start <= start and end <= pass_end:
                covered += own
        out.update(self.metrics)
        out["models.path_mb"] = 8.0 * out["models.path_values"] / 2**20
        if self.blocks:
            out["models.path_block_reuse"] = len(set(self.blocks)) / len(self.blocks)
        out["trace.unaccounted_frac"] = (pass_end - pass_start - covered) / (
            pass_end - pass_start
        )
        del out["trace.overhead_frac"]
        return out

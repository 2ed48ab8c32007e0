"""The benchmark's workloads: fixed sets of configs under ``bench/configs``.

Each workload is the directory ``bench/configs/<name>``. Its configs are
loaded with ``quadvar.config.load_config``; the benchmark's seed reaches them
only as the ``seed`` override, so one seed gives one set of inputs. The
configs are those of the acceptance tests, cut so that one pass takes about
three seconds: a run then holds many passes, and their median rides out the
short swings in speed of a shared host. The cuts keep each workload's hot
spots where the full sizes have them.
"""

from __future__ import annotations

from pathlib import Path

CONFIG_ROOT = Path(__file__).resolve().parent / "configs"

# One sentence per workload: why it was chosen and which layer it bypasses.
WORKLOADS = {
    # quadform_var (AR(1) p=50, MDS p=16 at the sign-enumeration cap) and
    # fourth_moment (MDS p=12, the O(p^4) exact_product_moment loop), each
    # with 20 000 replicates; lrv_mse on AR(1) with the Bartlett kernel, 100
    # replicates, sweep [[2000,12.6],[8000,20],[32000,{2,8,32,128}]].
    "monte_carlo": (
        "models.generate_paths dominates both ways it is used, 60 000 "
        "single-use Philox streams of 13 to 50 draws and 600 long AR(1) "
        "streams whose 100x32000 block sets peak memory and is drawn once "
        "per bandwidth (3 of 9 blocks repeat), so batched streams and block "
        "reuse show here, next to quadform and longrun.estimate_lrv, while "
        "spectral is bypassed."
    ),
    # esd on AR(1) columns with atoms [[1,0.5],[3,0.5]], c=0.5, sizes
    # [[50,100],[100,200]], p_ref=100; stieltjes_grid on the same law, 50
    # points at im=0.01.
    "spectral_esd": (
        "The Jacobi eigen route, the limit-law solve in limit_cdf and 50 "
        "per-point Stieltjes solves dominate, so eigen and solver changes "
        "show here, while only 300 path streams are drawn and the RNG layer, "
        "quadform and longrun are bypassed."
    ),
}


def config_paths(workload: str) -> list[Path]:
    """The workload's config files, in a fixed order."""
    return sorted((CONFIG_ROOT / workload).glob("*.json"))

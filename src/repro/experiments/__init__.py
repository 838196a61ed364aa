"""Per-figure/table experiment runners (see DESIGN.md's experiment index).

Each module exposes ``run(scale) -> dict`` and ``report(result) -> str``
(printing the same rows/series the paper reports).  ``Runs`` caches training
runs so the many figures sharing a baseline do not retrain it.
"""

from . import (ablations, fig2, fig4, fig6_fig7, fig8, fig9_tab4, fig10,
               fig11, fig12, tab1, tab2, tab3)
from .configs import (DATASETS, MODELS, PAPER, QUICK, SCALES, SMOKE, Scale,
                      epochs_for, interval_for, lambda_scale_for, make_dataset,
                      make_model)
from .runner import Runs, get_runs

__all__ = [
    "Scale", "SMOKE", "QUICK", "PAPER", "SCALES",
    "make_model", "make_dataset", "MODELS", "DATASETS",
    "epochs_for", "interval_for", "lambda_scale_for",
    "Runs", "get_runs",
    "fig2", "fig4", "fig6_fig7", "fig8", "fig9_tab4", "fig10", "fig11",
    "fig12", "tab1", "tab2", "tab3", "ablations",
]

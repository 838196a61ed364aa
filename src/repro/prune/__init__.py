"""PruneTrain's core mechanisms: group lasso, sparsity analysis, dynamic
reconfiguration, channel union/gating, and channel trajectory tracking."""

from .gating import (ConvPlan, GatedPathRunner, PathPlan, UnionPathRunner,
                     all_path_plans, path_plan)
from .group_lasso import GroupLasso, GroupNorms
from .reconfigure import (PruneReport, prune_and_reconfigure,
                          remove_dead_paths, zero_sparsified_groups)
from .sparsity import (DEFAULT_THRESHOLD, ConvSparsity, DensityReport,
                       all_conv_sparsity, conv_sparsity, density_report,
                       model_channel_sparsity, space_keep_masks)
from .tracker import ChannelTracker, RevivalStats
from .union import JunctionInfo, junctions, union_redundancy

__all__ = [
    "GroupLasso", "GroupNorms",
    "DEFAULT_THRESHOLD", "ConvSparsity", "conv_sparsity", "all_conv_sparsity",
    "space_keep_masks", "density_report", "DensityReport",
    "model_channel_sparsity",
    "PruneReport", "prune_and_reconfigure", "remove_dead_paths",
    "zero_sparsified_groups",
    "PathPlan", "ConvPlan", "path_plan", "all_path_plans",
    "GatedPathRunner", "UnionPathRunner",
    "ChannelTracker", "RevivalStats",
    "JunctionInfo", "junctions", "union_redundancy",
]

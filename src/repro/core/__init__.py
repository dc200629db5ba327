"""The paper's primary contribution: the GPU-GBDT training algorithm."""

from .booster import BACKENDS, GradientBoostedTrees, as_csr
from .booster_model import GBDTModel, models_equal, validate_fit
from .params import GBDTParams
from .partition import PartitionPlan, partition_segments, plan_partition
from .predictor import charge_prediction_kernels
from .rle_split import split_runs_direct, split_runs_with_decompression
from .sampling import TreeSample, sample_tree
from .setkey import SetKeyPlan, plan_segment_grid
from .smartgd import GradientComputer
from .split import (
    NodeBestSplits,
    SegmentLayout,
    eq2_gain,
    find_best_splits_rle,
    find_best_splits_sparse,
)
from .trainer import GPUGBDTTrainer, TrainReport
from .tree import DecisionTree, trees_equal

__all__ = [
    "BACKENDS",
    "GradientBoostedTrees",
    "as_csr",
    "GBDTModel",
    "models_equal",
    "validate_fit",
    "GBDTParams",
    "PartitionPlan",
    "partition_segments",
    "plan_partition",
    "charge_prediction_kernels",
    "split_runs_direct",
    "split_runs_with_decompression",
    "TreeSample",
    "sample_tree",
    "SetKeyPlan",
    "plan_segment_grid",
    "GradientComputer",
    "NodeBestSplits",
    "SegmentLayout",
    "eq2_gain",
    "find_best_splits_rle",
    "find_best_splits_sparse",
    "GPUGBDTTrainer",
    "TrainReport",
    "DecisionTree",
    "trees_equal",
]

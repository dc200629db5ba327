"""repro -- reproduction of "Efficient Gradient Boosted Decision Tree
Training on GPUs" (Wen, He, Ramamohanarao, Lu, Shi; IPDPS 2018).

Quickstart::

    from repro import GradientBoostedTrees, GBDTParams, make_dataset

    ds = make_dataset("covtype")
    model = GradientBoostedTrees(GBDTParams(n_trees=10)).fit(ds.X, ds.y)
    yhat = model.predict(ds.X_test)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .approx import HistogramGBDTTrainer
from .core import (
    BACKENDS,
    DecisionTree,
    GBDTModel,
    GBDTParams,
    GPUGBDTTrainer,
    GradientBoostedTrees,
    as_csr,
    models_equal,
    trees_equal,
)
from .data import (
    TABLE2_NAMES,
    CSCMatrix,
    CSRMatrix,
    Dataset,
    DenseMatrix,
    load_libsvm,
    make_dataset,
    table1_example,
)
from .dist import DistributedHistTrainer, FaultPlan, LinkSpec
from .dist.checkpoint import CheckpointStore
from .gpusim import (
    TESLA_K20,
    TESLA_P100,
    TITAN_X_PASCAL,
    XEON_E5_2640V4_X2,
    DeviceOutOfMemory,
    GpuDevice,
)
from .losses import CustomLoss, HuberLoss, LogisticLoss, Loss, PoissonLoss, SquaredErrorLoss, get_loss
from .metrics import accuracy, error_rate, mse, rmse
from .obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    span,
    traced,
    use_registry,
    use_tracer,
)
from .serve import (
    BatchPolicy,
    FlatEnsemble,
    MicroBatcher,
    ModelRegistry,
    ServingStats,
)

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "DecisionTree",
    "GBDTModel",
    "GBDTParams",
    "GPUGBDTTrainer",
    "GradientBoostedTrees",
    "as_csr",
    "models_equal",
    "trees_equal",
    "TABLE2_NAMES",
    "CSCMatrix",
    "CSRMatrix",
    "Dataset",
    "DenseMatrix",
    "load_libsvm",
    "make_dataset",
    "table1_example",
    "DistributedHistTrainer",
    "FaultPlan",
    "LinkSpec",
    "TESLA_K20",
    "TESLA_P100",
    "TITAN_X_PASCAL",
    "XEON_E5_2640V4_X2",
    "DeviceOutOfMemory",
    "GpuDevice",
    "CustomLoss",
    "HuberLoss",
    "PoissonLoss",
    "HistogramGBDTTrainer",
    "LogisticLoss",
    "Loss",
    "SquaredErrorLoss",
    "get_loss",
    "accuracy",
    "error_rate",
    "mse",
    "rmse",
    "BatchPolicy",
    "FlatEnsemble",
    "MicroBatcher",
    "ModelRegistry",
    "ServingStats",
    "CheckpointStore",
    "MetricsRegistry",
    "Tracer",
    "get_registry",
    "get_tracer",
    "span",
    "traced",
    "use_registry",
    "use_tracer",
    "__version__",
]

"""Wasserstein discriminant analysis.

Supervised linear dimensionality reduction that maximizes the ratio of
entropic-transport dispersion between classes over dispersion within
classes, optimized by projected gradient ascent over matrices with
orthonormal rows. Gradients flow through the transport plans by one
reverse-mode pass through a fixed number of recorded Sinkhorn scaling
iterations.
"""

__version__ = "0.1.0"

from .baselines import FdaModel, fda_fit, uniform_coupling_covariances
from .datasets import (
    LabeledDataset,
    append_noise,
    gen_toy,
    load_csv,
    save_csv,
    split_dataset,
)
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalRangeError,
    ParseError,
    WdaError,
)
from .evaluation import (
    CsvDataSpec,
    ExperimentResult,
    ToyDataSpec,
    error_rate,
    experiment_to_csv,
    knn_predict,
    run_protocol,
)
from .objective import (
    ObjectiveState,
    WdaConfig,
    adaptive_lambdas,
    evaluate,
    gradient,
)
from .otcore import cost_matrix
from .stiefel import (
    FitReport,
    pca_init,
    project_stiefel,
    wda_fit,
)

__all__ = [
    "CsvDataSpec",
    "DegenerateInputError",
    "ExperimentResult",
    "FdaModel",
    "FitReport",
    "InvalidInputError",
    "LabeledDataset",
    "NumericalRangeError",
    "ObjectiveState",
    "ParseError",
    "ToyDataSpec",
    "WdaConfig",
    "WdaError",
    "adaptive_lambdas",
    "append_noise",
    "cost_matrix",
    "error_rate",
    "evaluate",
    "experiment_to_csv",
    "fda_fit",
    "gen_toy",
    "gradient",
    "knn_predict",
    "load_csv",
    "pca_init",
    "project_stiefel",
    "run_protocol",
    "save_csv",
    "split_dataset",
    "uniform_coupling_covariances",
    "wda_fit",
]

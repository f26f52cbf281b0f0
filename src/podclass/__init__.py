"""Per-class truncated-SVD image preprocessing with two classifiers.

The pipeline: flatten each class's training frames into a snapshot
matrix, mean-center it, keep the leading left singular vectors, and use
the resulting affine subspaces either directly (nearest-subspace
classification by reconstruction residual) or as a denoising projection
in front of a small convolutional network.
"""

from .basis import (
    BasisLibrary,
    ClassBasis,
    ClassFit,
    build_library,
    fit_classes,
    library_from_fits,
    load_factors,
    load_library,
    project_pairs,
    save_factors,
    save_library,
)
from .convnet import (
    Architecture,
    Params,
    TrainConfig,
    initialize,
    load_checkpoint,
    rmsprop_step,
    save_checkpoint,
    train,
)
from .dataset import (
    ClassLabel,
    DatasetSplit,
    Sample,
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    split_dataset,
    split_from_manifest,
    write_manifest,
    write_samples,
)
from .errors import (
    ConfigError,
    DataError,
    DataFormatError,
    NumericError,
    PodClassError,
)
from .experiment import ExperimentConfig, run_experiment, save_report
from .metrics import accuracy, aggregate, confusion_matrix
from .subspace import classify, classify_pairs, residual_matrix
from .svd import (
    ThinSVD,
    TruncationRule,
    gavish_donoho_omega,
    rank_for_energy,
    thin_svd,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "BasisLibrary",
    "ClassBasis",
    "ClassFit",
    "ClassLabel",
    "ConfigError",
    "DataError",
    "DataFormatError",
    "DatasetSplit",
    "ExperimentConfig",
    "NumericError",
    "Params",
    "PodClassError",
    "Sample",
    "SplitPolicy",
    "SyntheticSpec",
    "ThinSVD",
    "TrainConfig",
    "TruncationRule",
    "accuracy",
    "aggregate",
    "build_library",
    "classify",
    "classify_pairs",
    "confusion_matrix",
    "fit_classes",
    "gavish_donoho_omega",
    "generate_synthetic",
    "initialize",
    "library_from_fits",
    "load_checkpoint",
    "load_dataset",
    "load_factors",
    "load_library",
    "project_pairs",
    "rank_for_energy",
    "residual_matrix",
    "rmsprop_step",
    "run_experiment",
    "save_checkpoint",
    "save_factors",
    "save_library",
    "save_report",
    "split_dataset",
    "split_from_manifest",
    "thin_svd",
    "train",
    "write_manifest",
    "write_samples",
]

"""Boosting with tree and kernel base learners raced against each other.

Each iteration fits a depth-limited regression tree and a penalized
Gaussian-kernel expansion to the current gradients (optionally Hessians),
admits whichever lowers the training risk more, and damps the update by a
shrinkage factor. Restricting to one learner type recovers plain tree or
kernel boosting from the same engine.
"""

from .bench import (
    ComparisonTable,
    GridSearchResult,
    GridSpec,
    SimFunction,
    build_comparison,
    comparison_sign_tests,
    emit_traces,
    friedman_chi_square,
    friedman_iman_davenport,
    grid_search,
    holm_bonferroni,
    metric,
    rank_methods,
    run_simulation_study,
    run_split_benchmark,
    sign_test_holm,
    sign_test_p,
    simulate,
)
from .boost import (
    BoostConfig,
    Ensemble,
    FitReport,
    IterationLearners,
    dumps,
    empirical_risk,
    fit,
    load,
    loads,
    predict,
    predict_labels,
    predict_proba,
    save,
    truncate,
)
from .data import (
    Dataset,
    SplitSpec,
    Standardizer,
    fit_standardizer,
    identity_standardizer,
    load_csv,
    load_features,
    split,
    write_csv,
)
from .errors import DataError, ModelFormatError, NumericalError
from .kernels import (
    KernelConfig,
    KernelSolver,
    build_gradient_cache,
    build_nystrom,
    fit_kernel_gradient,
    fit_kernel_newton,
    kernel_matrix,
    nystrom_indices,
    select_rho,
)
from .losses import (
    GradHess,
    LossFunction,
    for_task,
    gradient_hessian,
    loss_values,
    optimal_constant,
)
from .trees import (
    SortedFeatures,
    Tree,
    fit_tree,
    predict_tree_batch,
    presort_features,
    split_backend_name,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

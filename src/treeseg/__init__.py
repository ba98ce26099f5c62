"""Segmented regression for large tabular datasets.

A variance-minimizing regression tree partitions the data into segments of
at least `leaf_size` rows; an independent regressor (constant, linear, or
an exact Gaussian process with a composite linear+RBF kernel) is fit to
each segment; prediction routes each record to its segment's model. An
isolation forest can drop outliers from the training set first.
"""

from .cart import (CartError, RegressionTree, SplitRule, assign_leaf_batch,
                   best_split, build_tree, predict_mean_batch, segment_profile,
                   tree_from_dict, tree_to_dict)
from .data import (ColumnSpec, DataError, Dataset, IngestionReport, Scaler,
                   SplitPair, ingest, load_csv, train_test_split)
from .evaluation import (SweepReport, model_generalization_sweep, rmse,
                         tree_generalization_sweep)
from .leaf_models import (ConstantModel, GPModel, KernelParams, LeafFitError,
                          LinearModel, fit_constant, fit_gp, fit_ols,
                          kernel_matrix, log_marginal_likelihood)
from .outliers import IsolationForest, anomaly_score_batch, fit_forest
from .persistence import PersistenceError, load_model, save_model
from .pipeline import (FitConfig, LeafFitStatus, OutlierConfig, PipelineError,
                       SegmentedModel, fit_segmented, predict, predict_batch)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""rareclass: rare-class tabular classification for semiconductor yield
prediction — ingestion, imputation, scaling, vote-based feature selection,
resampling, six from-scratch classifiers, and imbalance-aware evaluation."""

from .data import (ColumnStats, Dataset, FeatureMatrix, column_stats,
                   correlation_matrix, load_delimited, load_secom)
from .preprocess import (DropLog, ScalerParams, SplitPlan, apply_scaler,
                         drop_constant, drop_correlated, drop_high_missing,
                         fit_scaler, stratified_kfold, stratified_split)
from .impute import (KnnImputeParams, MiceParams, SimpleImputePlan,
                     assign_simple_strategies, fit_simple_plan, knn_impute,
                     mice_impute, simple_impute)
from .resample import (ResamplePlan, SmoteParams, combined_resample,
                       random_undersample, smote)
from .featsel import (FeatureVoteLedger, SelectorDecision, run_default_roster,
                      select_boruta, select_f_score, select_lasso,
                      select_mutual_info, select_rfe, select_sfs, vote)
from .metrics import (ConfusionMatrix, MetricSet, RocCurve, confusion,
                      metric_set, roc_curve)
from .models import (ModelSpec, TrainedModel, model_from_json, model_to_json,
                     predict_scores, train)
from .config import PipelineConfig, load_config
from .pipeline import EvalReport, emit_report, reproduce, run_pipeline

__version__ = "0.1.0"

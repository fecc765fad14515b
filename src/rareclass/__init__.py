"""rareclass: rare-class tabular classification for semiconductor yield
prediction — ingestion, imputation, scaling, vote-based feature selection,
resampling, six from-scratch classifiers, and imbalance-aware evaluation.
Names are imported from their modules, e.g. `rareclass.data.load_secom`."""

from . import config, data, featsel, impute, metrics, models, pipeline, preprocess, resample

__version__ = "0.1.0"

import os
from pathlib import Path

import numpy as np
import pytest

from rareclass.data import Dataset, FeatureMatrix
from rareclass.synth import make_imbalanced


def secom_paths():
    """Locate the canonical SECOM files, or None if not available.

    Checked locations: $SECOM_DATA_DIR, then ./data relative to the repo
    root.  Files expected: secom.data and secom_labels.data (UCI ML
    repository, dataset id 179).
    """
    candidates = []
    if os.environ.get("SECOM_DATA_DIR"):
        candidates.append(Path(os.environ["SECOM_DATA_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        data, labels = root / "secom.data", root / "secom_labels.data"
        if data.exists() and labels.exists():
            return data, labels
    return None


def src_env(**env) -> dict:
    """os.environ with env, and the package's src directory first on
    PYTHONPATH: a subprocess finds the package on a checkout that is not
    installed, where pyproject's pythonpath reaches only pytest itself."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, **env,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


SECOM_MISSING_REASON = (
    "canonical SECOM files not found; download secom.data and "
    "secom_labels.data from the UCI repository (dataset 179) into ./data "
    "or set SECOM_DATA_DIR"
)


def require_secom():
    paths = secom_paths()
    if paths is None:
        pytest.skip(SECOM_MISSING_REASON)
    return paths


@pytest.fixture
def toy_dataset():
    values = np.array([
        [1.0, 5.0, 0.0],
        [2.0, 5.0, 1.0],
        [3.0, 5.0, np.nan],
        [4.0, 5.0, 3.0],
    ])
    return Dataset(FeatureMatrix(values, np.arange(3)), np.array([0, 0, 1, 1]))


@pytest.fixture
def clean_imbalanced():
    return make_imbalanced(n_rows=300, n_informative=4, n_noise=8,
                           missing_fraction=0.0, seed=42)


@pytest.fixture
def messy_imbalanced():
    return make_imbalanced(n_rows=300, n_informative=4, n_noise=10,
                           missing_fraction=0.05, n_constant=2, n_duplicate=2,
                           n_high_missing=2, seed=42)

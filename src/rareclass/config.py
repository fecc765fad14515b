"""Pipeline configuration: a flat key=value file grouped by bracketed
sections (configparser syntax). Unknown sections or keys are errors."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, asdict

from . import featsel, impute, resample
from .models import FAMILIES, ModelSpec


class ConfigError(ValueError):
    pass


SCENARIOS = ("none", "smote", "combined")
IMPUTE_METHODS = ("simple", "knn", "mice")


@dataclass
class PipelineConfig:
    # [data]
    loader: str = "secom"                 # secom | delimited
    data_path: str = ""
    labels_path: str = ""
    label_column: str = ""
    delimiter: str = ","
    # [preprocess]
    missing_drop_threshold: float = 0.5
    correlation_threshold: float = 0.7
    # [split]
    split_mode: str = "split"             # split | kfold
    test_fraction: float = 0.3
    k_folds: int = 5
    # [impute]
    impute_method: str = "knn"
    knn_k: int = 5
    mice_iterations: int = 5
    mice_initial_fill: str = "mean"
    mice_noise_mode: str = "deterministic_prediction"
    skew_threshold: float = 1.0
    impute_overrides: dict = field(default_factory=dict)   # column_id -> strategy
    # [featsel]
    roster: str = "default"
    vote_threshold: int = 3
    featsel_n_keep: int | None = None
    # [resample]
    scenario: str = "none"
    over_ratio: float = 0.7
    under_ratio: float = 0.8
    smote_k_neighbors: int = 5
    # [models]
    model_families: tuple = FAMILIES
    model_overrides: dict = field(default_factory=dict)    # family -> hyperparam dict
    # [run]
    seed: int = 0
    out_dir: str = "out"

    def validate(self) -> None:
        if self.loader not in ("secom", "delimited"):
            raise ConfigError(f"unknown loader {self.loader!r}")
        if not 0 < self.missing_drop_threshold <= 1:
            raise ConfigError("missing_drop_threshold must be in (0, 1]")
        if not 0 < self.correlation_threshold < 1:
            raise ConfigError("correlation_threshold must be in (0, 1)")
        if self.split_mode not in ("split", "kfold"):
            raise ConfigError(f"unknown split mode {self.split_mode!r}")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.k_folds < 2:
            raise ConfigError(f"[split] k: must be >= 2, got {self.k_folds}")
        if self.impute_method not in IMPUTE_METHODS:
            raise ConfigError(f"unknown imputation method {self.impute_method!r}")
        if self.roster not in featsel.ROSTERS:
            raise ConfigError(f"unknown selector roster {self.roster!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for r in (self.over_ratio, self.under_ratio):
            if not 0 < r <= 1:
                raise ConfigError("resampling ratios must be in (0, 1]")
        if self.vote_threshold < 1:
            raise ConfigError("vote_threshold must be >= 1")
        if self.featsel_n_keep is not None and self.featsel_n_keep < 1:
            raise ConfigError(f"[featsel] n_keep: must be >= 1, got {self.featsel_n_keep}")
        for fam in self.model_families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown model family {fam!r}")
        for fam, hp in self.model_overrides.items():
            if fam not in FAMILIES:
                raise ConfigError(f"unknown model family {fam!r} in section [model.{fam}]")
            _check(f"[model.{fam}]", ModelSpec, fam, hp)
        _check("[impute]", impute.KnnImputeParams, k=self.knn_k)
        _check("[impute]", impute.MiceParams, n_iterations=self.mice_iterations,
               initial_fill=self.mice_initial_fill, noise_mode=self.mice_noise_mode)
        for cid, strategy in self.impute_overrides.items():     # checks SIMPLE_STRATEGIES
            _check("[impute] overrides", impute.SimpleImputePlan({}).override, cid, strategy)
        _check("[resample]", resample.SmoteParams, self.over_ratio, self.smote_k_neighbors)

    def digest(self) -> str:
        # out_dir is where results land, not part of what was computed
        fields = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        payload = repr(sorted(fields.items())).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _check(where: str, build, *args, **kwargs):
    """Build a stage's parameter object, or parse one INI value, now, so
    that a bad value fails at load time as a ConfigError saying where it
    is, not in a later stage."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_overrides(value: str) -> dict:
    """`3:median, 9:forward` -> {3: "median", 9: "forward"}."""
    pairs = (pair.split(":") for pair in value.split(",")) if value.strip() else ()
    return {int(cid): strat.strip() for cid, strat in pairs}


def _parse_families(value: str) -> tuple:
    return tuple(f.strip() for f in value.split(",") if f.strip())


# section -> INI key -> (PipelineConfig field, parser); the only keys and
# sections load_config accepts, apart from the [model.<family>] sections
CONFIG_KEYS = {
    "data": {"loader": ("loader", str), "data_path": ("data_path", str),
             "labels_path": ("labels_path", str),
             "label_column": ("label_column", str), "delimiter": ("delimiter", str)},
    "preprocess": {"missing_drop_threshold": ("missing_drop_threshold", float),
                   "correlation_threshold": ("correlation_threshold", float)},
    "split": {"mode": ("split_mode", str), "test_fraction": ("test_fraction", float),
              "k": ("k_folds", int)},
    "impute": {"method": ("impute_method", str), "k": ("knn_k", int),
               "iterations": ("mice_iterations", int),
               "initial_fill": ("mice_initial_fill", str),
               "noise_mode": ("mice_noise_mode", str),
               "skew_threshold": ("skew_threshold", float),
               "overrides": ("impute_overrides", _parse_overrides)},
    "featsel": {"roster": ("roster", str), "vote_threshold": ("vote_threshold", int),
                "n_keep": ("featsel_n_keep", int)},
    "resample": {"scenario": ("scenario", str), "over_ratio": ("over_ratio", float),
                 "under_ratio": ("under_ratio", float),
                 "k_neighbors": ("smote_k_neighbors", int)},
    "models": {"families": ("model_families", _parse_families)},
    "run": {"seed": ("seed", int), "out_dir": ("out_dir", str)},
}


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = PipelineConfig()
    for section in parser.sections():
        if section.startswith("model."):
            family = section.split(".", 1)[1]
            cfg.model_overrides[family] = {
                k: _check(f"[{section}] {k}", float if "." in v or "e" in v.lower() else int, v)
                for k, v in parser.items(section)}
            continue
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        keys = CONFIG_KEYS[section]
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = keys[key]
            setattr(cfg, name, _check(f"[{section}] {key}", parse, value))
    cfg.validate()
    return cfg

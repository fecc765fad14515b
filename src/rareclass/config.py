"""Pipeline configuration: a flat key=value file grouped by bracketed
sections (configparser syntax). Unknown sections or keys are errors.
Each key is declared once, by `ini` on its `PipelineConfig` field."""

from __future__ import annotations

import configparser
import hashlib
import numbers
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, NamedTuple

from . import featsel, impute, resample
from .models import FAMILIES, ModelSpec


class ConfigError(ValueError):
    pass


# rules: (value -> whether it is allowed, what the error says it must be)
def one_of(*choices: str) -> tuple:
    return (lambda v: v in choices), "one of " + ", ".join(choices)


def at_least(lo: int) -> tuple:
    return (lambda v: v >= lo), f">= {lo}"


def distinct_of(*choices: str) -> tuple:
    return ((lambda v: 0 < len(v) == len(set(v)) and set(v) <= set(choices)),
            "a non-empty list of distinct names from " + ", ".join(choices))


UNIT = (lambda v: 0 < v <= 1), "in (0, 1]"
OPEN_UNIT = (lambda v: 0 < v < 1), "in (0, 1)"
NON_EMPTY = (lambda v: v != ""), r"non-empty (\t is a tab)"


class IniKey(NamedTuple):
    section: str
    key: str
    parse: Callable             # the INI text -> the field's value
    kind: type                  # the type of the parsed value
    holds: Callable | None      # the rule validate checks, unless the value is None
    must: str | None


# parsed type -> the values a field set in code may hold in its place
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, tuple: (tuple, list)}


def ini(section: str, key: str, default, parse=None, rule=(None, None)):
    """Declare a `PipelineConfig` field as `[section] key`; its text is read
    by parse, or by the default's type if parse is not given."""
    kind = parse if default is None else type(default)
    meta = {"ini": IniKey(section, key, parse or type(default), kind, *rule)}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def _parse_overrides(value: str) -> dict:
    """`3:median, 9:forward` -> {3: "median", 9: "forward"}."""
    pairs = (pair.split(":") for pair in value.split(",")) if value.strip() else ()
    return {int(cid): strat.strip() for cid, strat in pairs}


def _parse_delimiter(value: str) -> str:
    r"""`\t` is a tab, which configparser would strip if written as one."""
    return "\t" if value == r"\t" else value


def _parse_families(value: str) -> tuple:
    return tuple(f.strip() for f in value.split(",") if f.strip())


@dataclass
class PipelineConfig:
    loader: str = ini("data", "loader", "secom", rule=one_of("secom", "delimited"))
    data_path: str = ini("data", "data_path", "")
    labels_path: str = ini("data", "labels_path", "")
    label_column: str = ini("data", "label_column", "")
    delimiter: str = ini("data", "delimiter", ",", _parse_delimiter, NON_EMPTY)
    missing_drop_threshold: float = ini("preprocess", "missing_drop_threshold", 0.5, rule=UNIT)
    correlation_threshold: float = ini("preprocess", "correlation_threshold", 0.7, rule=OPEN_UNIT)
    test_fraction: float = ini("split", "test_fraction", 0.3, rule=OPEN_UNIT)
    impute_method: str = ini("impute", "method", "knn", rule=one_of("simple", "knn", "mice"))
    knn_k: int = ini("impute", "k", 5)
    mice_iterations: int = ini("impute", "iterations", 5)
    mice_initial_fill: str = ini("impute", "initial_fill", "mean")
    mice_noise_mode: str = ini("impute", "noise_mode", "deterministic_prediction")
    skew_threshold: float = ini("impute", "skew_threshold", 1.0, rule=at_least(0))
    impute_overrides: dict = ini("impute", "overrides", {}, _parse_overrides)  # column_id -> strategy
    roster: str = ini("featsel", "roster", "default", rule=one_of(*featsel.ROSTERS))
    vote_threshold: int = ini("featsel", "vote_threshold", 3, rule=at_least(1))
    featsel_n_keep: int | None = ini("featsel", "n_keep", None, int, at_least(1))
    scenario: str = ini("resample", "scenario", "none", rule=one_of("none", "smote", "combined"))
    over_ratio: float = ini("resample", "over_ratio", 0.7, rule=UNIT)
    under_ratio: float = ini("resample", "under_ratio", 0.8, rule=UNIT)
    smote_k_neighbors: int = ini("resample", "k_neighbors", 5)
    model_families: tuple = ini("models", "families", FAMILIES, _parse_families,
                                distinct_of(*FAMILIES))
    model_overrides: dict = field(default_factory=dict)    # family -> its [model.<family>]
    seed: int = ini("run", "seed", 0, rule=at_least(0))
    out_dir: str = ini("run", "out_dir", "out")

    def validate(self) -> None:
        for name, k in INI_KEYS.items():
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, _ACCEPTS.get(k.kind, k.kind))):
                raise ConfigError(f"[{k.section}] {k.key}: must be {k.kind.__name__}, "
                                  f"got {value!r}")
            if k.holds is not None and value is not None and not k.holds(value):
                if isinstance(value, tuple):                    # a list, as its INI text
                    value = ", ".join(map(str, value))
                raise ConfigError(f"[{k.section}] {k.key}: must be {k.must}, got {value!r}")
        voters = len(featsel.ROSTERS[self.roster])
        if voters and self.vote_threshold > voters:         # roster none holds no vote
            raise ConfigError(f"[featsel] vote_threshold: must be <= {voters} (the voters of "
                              f"roster {self.roster}), got {self.vote_threshold}")
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
        kept = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        # dicts by key, so INI files that differ only in order digest alike; a
        # model value is a float, as load_config reads it, so 1 and 1.0 do too
        kept["impute_overrides"] = dict(sorted(self.impute_overrides.items()))
        kept["model_overrides"] = {fam: {k: float(v) for k, v in sorted(hp.items())}
                                   for fam, hp in sorted(self.model_overrides.items())}
        kept["model_families"] = tuple(self.model_families)     # as load_config reads it
        payload = repr(sorted(kept.items())).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# PipelineConfig field -> its declaration, and section -> INI key -> field:
# the only keys and sections load_config accepts, apart from [model.<family>]
INI_KEYS = {f.name: f.metadata["ini"] for f in fields(PipelineConfig) if "ini" in f.metadata}
CONFIG_KEYS = {s: {k.key: name for name, k in INI_KEYS.items() if k.section == s}
               for s in dict.fromkeys(k.section for k in INI_KEYS.values())}


def _check(where: str, build, *args, **kwargs):
    """Build a stage's parameter object, or parse one INI value, now, so
    that a bad value fails at load time as a ConfigError saying where it
    is, not in a later stage."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        # interpolation raises for a bare % here, not in read
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    cfg = PipelineConfig()
    for section, items in sections.items():
        if section.startswith("model."):
            family = section.split(".", 1)[1]
            cfg.model_overrides[family] = {
                k: _check(f"[{section}] {k}", float, v) for k, v in items}
            continue
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        keys = CONFIG_KEYS[section]
        for key, value in items:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(cfg, keys[key], _check(f"[{section}] {key}", INI_KEYS[keys[key]].parse, value))
    cfg.validate()
    return cfg

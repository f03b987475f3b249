"""Experiment configuration: a flat INI-style sectioned key-value file.

Unknown sections or keys are errors so that typos fail fast. Example:

    [graph]
    kind = erdos_renyi
    n = 50
    q = 0.1
    seed = 7

    [mixing]
    lazify = false

    [combiner]
    variants = ed, nids:c=0.5

    [problem]
    type = logistic
    data = data/ijcnn1
    ridge = 0.01
    prox = l1
    prox_weight = 0.01

    [run]
    alpha = 1/L
    p_list = 1, 0.5, 0.2
    iterations = 400
    seeds = 1

    [outputs]
    csv = out/run.csv
    svg = out/run.svg
    checks = false
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path


class ConfigError(Exception):
    pass


@dataclass(eq=False)
class GraphConfig:
    kind: str = "ring"
    n: int = 10
    q: float = 0.1
    seed: int = 0


@dataclass(eq=False)
class MixingConfig:
    lazify: bool = False


@dataclass(eq=False)
class ProblemConfig:
    type: str = "quadratic"
    # quadratic knobs
    d: int = 5
    target_seed: int = 0
    curvature_min: float = 1.0
    curvature_max: float = 1.0
    target_scale: float = 1.0
    target_offset_scale: float = 0.0
    # logistic knobs
    data: str = ""
    ridge: float = 0.0
    max_samples: int = 0
    partition_seed: int = 0
    # shared prox term
    prox: str = "none"
    prox_weight: float = 0.0


@dataclass(eq=False)
class RunConfig:
    alpha: str = "1/L"
    p_list: tuple[float, ...] = (1.0,)
    iterations: int = 100
    seeds: tuple[int, ...] = (1,)
    target_rel_err: float = 1e-6
    init: str = "zeros"
    init_seed: int = 0
    init_scale: float = 1.0
    record_kkt: bool = True


@dataclass(eq=False)
class OutputConfig:
    csv: str = "run.csv"
    svg: str = "run.svg"
    checks: bool = False


@dataclass(eq=False)
class ExperimentConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    mixing: MixingConfig = field(default_factory=MixingConfig)
    variants: tuple[str, ...] = ("ed",)
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    run: RunConfig = field(default_factory=RunConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)

    def resolve_alpha(self, big_l: float) -> float:
        """The stepsize run.alpha names, checked against (0, 2/L)."""
        raw = self.run.alpha.strip()
        if raw.lower() in ("1/l", "1/ l"):
            alpha = 1.0 / big_l
        else:
            try:
                alpha = float(raw)
            except ValueError as exc:
                raise ConfigError(f"alpha must be a number or '1/L', got {raw!r}") from exc
        if not (0.0 < alpha < 2.0 / big_l):
            raise ConfigError(f"alpha={alpha:g} outside (0, 2/L) with L={big_l:g}")
        return alpha


def _parse_bool(raw: str, key: str) -> bool:
    val = raw.strip().lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _parse_list(raw: str, key: str, conv) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{key}: list must not be empty")
    return tuple(conv(s, key) for s in items)


# Each key is parsed by the type of its dataclass field, and a missing key
# keeps the field's default.
_CONVERTERS = {
    "str": lambda raw, key: raw.strip(),
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[float, ...]": lambda raw, key: _parse_list(raw, key, _parse_float),
    "tuple[int, ...]": lambda raw, key: _parse_list(raw, key, _parse_int),
}
_SECTIONS = {"graph": GraphConfig, "mixing": MixingConfig, "problem": ProblemConfig,
             "run": RunConfig, "outputs": OutputConfig}


def check_seed(seed: int, key: str) -> None:
    if seed < 0:
        raise ConfigError(f"{key} must be >= 0, got {seed}")


def check_unique(values, key: str) -> None:
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} lists a value twice: {', '.join(map(str, values))}")


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    keys = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
    keys["combiner"] = {"variants"}
    for section in parser.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - keys[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

    cfg = ExperimentConfig()
    for section, cls in _SECTIONS.items():
        if parser.has_section(section):
            values = parser[section]
            setattr(cfg, section, cls(**{
                f.name: _CONVERTERS[f.type](values[f.name], f"{section}.{f.name}")
                for f in fields(cls) if f.name in values
            }))
    if parser.has_section("combiner"):
        raw = parser["combiner"].get("variants", "")
        cfg.variants = _parse_list(raw, "combiner.variants", lambda s, _k: s)
    if cfg.graph.kind not in ("ring", "complete", "erdos_renyi"):
        raise ConfigError(f"graph.kind must be ring|complete|erdos_renyi, got {cfg.graph.kind!r}")
    if cfg.problem.type not in ("quadratic", "logistic"):
        raise ConfigError(f"problem.type must be quadratic|logistic, got {cfg.problem.type!r}")
    if cfg.problem.type == "logistic" and not cfg.problem.data:
        raise ConfigError("logistic problems need problem.data (path to a LIBSVM file)")
    if cfg.problem.prox not in ("none", "l1"):
        raise ConfigError(f"problem.prox must be none|l1, got {cfg.problem.prox!r}")
    if cfg.problem.d < 1:
        raise ConfigError(f"problem.d must be >= 1, got {cfg.problem.d}")
    if cfg.problem.max_samples < 0:
        raise ConfigError(f"problem.max_samples must be >= 0, got {cfg.problem.max_samples}")
    for key, seed in (("graph.seed", cfg.graph.seed), ("run.init_seed", cfg.run.init_seed),
                      ("problem.target_seed", cfg.problem.target_seed),
                      ("problem.partition_seed", cfg.problem.partition_seed),
                      ("run.seeds", min(cfg.run.seeds))):
        check_seed(seed, key)
    # run ids print p with 6 significant digits
    check_unique([f"{p:g}" for p in cfg.run.p_list], "run.p_list (to 6 significant digits)")
    check_unique(cfg.run.seeds, "run.seeds")
    # the certificates divide by p^2, which is a normal float from 2^-511 on
    if any(not (2.0**-511 <= p <= 1.0) for p in cfg.run.p_list):
        raise ConfigError(f"run.p_list values must lie in [2^-511, 1]: {cfg.run.p_list}")
    if cfg.run.iterations < 1:
        raise ConfigError("run.iterations must be >= 1")
    if cfg.run.init not in ("zeros", "random"):
        raise ConfigError(f"run.init must be zeros|random, got {cfg.run.init!r}")
    if not math.isfinite(cfg.run.init_scale):
        raise ConfigError(f"run.init_scale must be finite, got {cfg.run.init_scale}")
    target = cfg.run.target_rel_err
    if not (0.0 < target < math.inf):
        raise ConfigError(f"run.target_rel_err must be finite and > 0, got {target}")
    if os.path.normpath(cfg.outputs.csv) == os.path.normpath(cfg.outputs.svg):
        raise ConfigError(f"outputs.csv and outputs.svg name the same file {cfg.outputs.csv!r}")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

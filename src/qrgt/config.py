"""Run configuration: flat key=value files, presets, and CLI overrides.

A run's settings come from four routes, lowest to highest precedence:
defaults, preset, config file, CLI flags. Every knob is a flat
``key = value`` line; ``#`` starts a comment. ``RunConfig`` names, types and
defaults each key; a preset holds only its departures. A file line, a flag
and a sweep value are text, read here alone by the key's declared type; a
typed override must have that type. The type that reads a value owns its
rule: a config is checked by building ``AlgoConfig`` and ``SyntheticSpec``
from it, and their refusal is raised as ``ConfigError`` with its text,
which names the key.

The user-facing step size ``alpha_hat`` is normalized by the data volume:
``effective_alpha`` is n * alpha_hat / total_rows for synthetic data and
alpha_hat / total_rows for MNIST-style datasets.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .engine import ALGO_QRGT, AlgoConfig
from .network import Topology, _check_agent_count, _check_edge_probability, _read_utf8
from .problems import ProblemInstance, SyntheticSpec, generate_synthetic, idx_image_size, load_mnist
from .stiefel import ManifoldDims
from .streams import STREAM_TOPOLOGY, stream_rng

__all__ = [
    "ConfigError",
    "RunConfig",
    "PRESETS",
    "TOPOLOGIES",
    "PROBLEMS",
    "parse_config",
    "build_problem",
    "build_topology",
    "effective_alpha",
    "algo_config",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one run."""

    problem: str = "synthetic"  # a key of PROBLEMS
    n: int = 16
    m: int = 1000
    d: int = 10
    r: int = 5
    eigengap: float = 0.8
    leading_sv: float = 1.0
    mnist_path: str = ""
    topology: str = "ring"  # a key of TOPOLOGIES
    topology_p: float = 0.3
    edge_file: str = ""
    algorithm: str = ALGO_QRGT
    alpha_hat: float = 0.01
    bits: int = 8
    t: int = 1
    max_epochs: int = 1000
    ds_tol: float = 1e-8
    seed: int = 0
    timing: bool = False
    out: str = "trace.csv"
    preset: str = ""


# Desk-scale reproductions of the two reference experiments, each holding
# only its departures from RunConfig's defaults. The synthetic preset pins
# the leading singular value at 300: the early-stop threshold of 1e-8 is
# only reachable inside the 10000-epoch cap when the spectrum is large
# enough relative to alpha_hat = 0.01.
PRESETS: dict[str, dict] = {
    "synthetic": dict(leading_sv=300.0, max_epochs=10000),
    "mnist": dict(problem="mnist", max_epochs=2000),
}

# Each topology kind and the builder of its graph; an Erdos-Renyi draw is
# seeded from the run's topology stream.
TOPOLOGIES: dict[str, Callable[[RunConfig], Topology]] = {
    "ring": lambda cfg: Topology.ring(cfg.n),
    "er": lambda cfg: Topology.erdos_renyi(
        cfg.n, cfg.topology_p, seed=int(stream_rng(cfg.seed, STREAM_TOPOLOGY).integers(0, 2**31))),
    "complete": lambda cfg: Topology.complete(cfg.n),
    "edges": lambda cfg: Topology.from_edge_file(cfg.edge_file, n=cfg.n),
}


@contextmanager
def _owned_rules(prefix: str = "", suffix: str = ""):
    """Raise a library type's ``ValueError`` as ``ConfigError``, its text between the affixes."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}{suffix}") from None


def _shared(kind: type, cfg: RunConfig) -> dict:
    """cfg's values of the fields of ``kind`` that RunConfig declares too."""
    return {f.name: getattr(cfg, f.name) for f in fields(kind) if f.name in _KEY_TYPES}


def _synthetic_instance(cfg: RunConfig) -> ProblemInstance:
    return generate_synthetic(SyntheticSpec(**_shared(SyntheticSpec, cfg)))


def _mnist_instance(cfg: RunConfig) -> ProblemInstance:
    path = cfg.mnist_path
    if not path:
        raise ConfigError("mnist_path: required when problem = mnist")
    size = idx_image_size(path)
    with _owned_rules(suffix=f" (d is the image size {size} of {path})"):
        ManifoldDims(size, cfg.r)
    return load_mnist(path, n=cfg.n, r=cfg.r, seed=cfg.seed)


# Each problem kind and the builder of its instance.
PROBLEMS: dict[str, Callable[[RunConfig], ProblemInstance]] = {
    "synthetic": _synthetic_instance,
    "mnist": _mnist_instance,
}

# Each key's type, read from its declaration in RunConfig.
_KEY_TYPES: dict[str, type] = get_type_hints(RunConfig)

_BOOL_TEXT = {"true": True, "1": True, "yes": True, "on": True,
              "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, value):
    """``value`` as a setting of ``key``: text is read by the key's declared
    type (stripped for a str key); a typed value must have that type, an int
    serving for a float and a bool for no number. ``None`` stays unset."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    kind = _KEY_TYPES[key]
    if value is None:
        return None
    try:
        if isinstance(value, str):
            if kind is bool:
                return _BOOL_TEXT[value.strip().lower()]
            return value.strip() if kind is str else kind(value)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
            return kind(value)
    except (KeyError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.problem not in PROBLEMS:
        raise ConfigError(f"problem: unknown kind {cfg.problem!r}, available: {', '.join(PROBLEMS)}")
    if cfg.topology not in TOPOLOGIES:
        raise ConfigError(f"topology: unknown kind {cfg.topology!r}, available: {', '.join(TOPOLOGIES)}")
    if cfg.topology == "edges" and not cfg.edge_file:
        raise ConfigError("edge_file: required when topology = edges")
    if not (math.isfinite(cfg.alpha_hat) and cfg.alpha_hat > 0):
        raise ConfigError(f"alpha_hat: must be positive and finite, got {cfg.alpha_hat}")
    with _owned_rules("topology_p: "):
        _check_edge_probability(cfg.topology_p)
    with _owned_rules():
        _check_agent_count(cfg.n)
        alpha = cfg.alpha_hat  # stands in for an MNIST step, known once the file is read
        if cfg.problem == "synthetic":  # the row count is known before any data
            SyntheticSpec(**_shared(SyntheticSpec, cfg))
            alpha = effective_alpha(cfg, cfg.n * cfg.m)
        AlgoConfig(alpha=alpha, **_shared(AlgoConfig, cfg))
    return cfg


def effective_alpha(cfg: RunConfig, total_rows: int) -> float:
    """The data-volume-normalized step over ``total_rows`` rows; an
    ``alpha_hat`` whose step overflows to inf or underflows to 0 is a
    configuration error."""
    alpha = (cfg.n * cfg.alpha_hat if cfg.problem == "synthetic" else cfg.alpha_hat) / total_rows
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"alpha_hat: effective step {alpha} over {total_rows} rows is not positive and finite")
    return alpha


def _read_file_keys(path: str | Path) -> dict:
    values: dict = {}
    for lineno, line in enumerate(_read_utf8(path, ConfigError).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def parse_config(
    file: str | Path | None = None,
    overrides: dict | None = None,
    preset: str | None = None,
) -> RunConfig:
    """Resolve defaults, preset, file, and overrides into one RunConfig."""
    file_keys = _read_file_keys(file) if file else {}
    flag_keys = {key: _coerce(key, value) for key, value in (overrides or {}).items()}
    preset_name = preset or flag_keys.get("preset") or file_keys.get("preset", "")
    merged: dict = {}
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {preset_name!r}, available: {sorted(PRESETS)}"
            )
        merged.update(PRESETS[preset_name])
        merged["preset"] = preset_name
    merged.update(file_keys)
    merged.update((key, value) for key, value in flag_keys.items() if value is not None)
    return _validate(RunConfig(**merged))


def build_problem(cfg: RunConfig) -> ProblemInstance:
    return PROBLEMS[cfg.problem](cfg)


def build_topology(cfg: RunConfig) -> Topology:
    return TOPOLOGIES[cfg.topology](cfg)


def algo_config(cfg: RunConfig, inst: ProblemInstance) -> AlgoConfig:
    return AlgoConfig(alpha=effective_alpha(cfg, inst.total_rows), **_shared(AlgoConfig, cfg))


def with_value(cfg: RunConfig, key: str, value) -> RunConfig:
    """Copy of cfg with one key replaced (sweep support)."""
    return _validate(replace(cfg, **{key: _coerce(key, value)}))

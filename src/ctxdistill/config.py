"""Run configuration: JSON file plus ``--set key=value`` overrides.

Unknown keys are rejected so typos fail fast.  A field's JSON type is
its annotation, and a value of another type is an error, as is a
number, in the file or an override, that is NaN or infinite.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .compressor import CompressionBudget, WindowConfig
from .ga_search import GAConfig
from .oracle import OracleConfig
from .priority import PriorityWeights, json_field, json_value, read_json


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CompressionConfig(WindowConfig):
    """``WindowConfig``'s scoring window plus the target rate."""

    rate: float = 5.0

    def __post_init__(self) -> None:
        try:
            CompressionBudget.from_rate(0, self.rate)  # from_rate owns the rate rule
        except ValueError as exc:
            raise ConfigError(f"compression.rate: {exc}") from None
        super().__post_init__()


@dataclass(frozen=True)
class PathsConfig:
    traces: str = "traces"


@dataclass(frozen=True)
class RunConfig:
    weights: PriorityWeights = field(default_factory=PriorityWeights)
    ga: GAConfig = field(default_factory=GAConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    parallelism: int = 1
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")


# each section's name and class: the dataclass-typed fields, in field order
_SECTION_TYPES = {name: cls for name, cls in get_type_hints(RunConfig).items() if dataclasses.is_dataclass(cls)}


_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _coerce(key: str, raw: str, kind: type):
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {kind.__name__} for {key} from {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, not {raw!r}")
    return value


def load_run_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> RunConfig:
    data = {} if path is None else read_json(path, "config file", ConfigError)
    sections = {}
    try:
        for name, cls in _SECTION_TYPES.items():
            raw, kinds = json_field(data, name, dict, {}), get_type_hints(cls)
            unknown = set(raw) - set(kinds)
            if unknown:
                raise ValueError(f"unknown keys in {name}: {', '.join(sorted(unknown))}")
            sections[name] = {key: json_value(v, kinds[key], f"{name}.{key}") for key, v in raw.items()}
        parallelism = json_field(data, "parallelism", int, 1)
        unknown = set(data) - set(_SECTION_TYPES) - {"parallelism"}
        if unknown:
            raise ValueError(f"unknown top-level config keys: {', '.join(sorted(unknown))}")
    except ValueError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None

    # overrides apply before construction so dataclass validation still runs
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        dotted, raw_value = item.split("=", 1)
        parts = dotted.split(".")
        if parts == ["parallelism"]:
            parallelism = _coerce(dotted, raw_value, int)
            continue
        if len(parts) != 2 or parts[0] not in _SECTION_TYPES:
            raise ConfigError(f"unknown override target: {dotted}")
        section, key = parts
        kinds = get_type_hints(_SECTION_TYPES[section])
        if key not in kinds:
            raise ConfigError(f"unknown override key: {dotted}")
        sections[section][key] = _coerce(dotted, raw_value, kinds[key])

    if seed is not None:
        sections["ga"]["rng_seed"] = seed

    built = {}
    for name, cls in _SECTION_TYPES.items():
        try:
            built[name] = cls(**sections[name])
        except ValueError as exc:
            raise ConfigError(f"invalid value in {name}: {exc}") from exc
    return RunConfig(parallelism=parallelism, **built)

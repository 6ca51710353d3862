"""Run configuration: JSON file plus ``--set key=value`` overrides.

Unknown keys are rejected so typos fail fast.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .compressor import WindowConfig
from .ga_search import GAConfig
from .oracle import OracleConfig
from .priority import PriorityWeights


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CompressionConfig:
    rate: float = 5.0
    window_tokens: int = 512
    stride_tokens: int = 256

    def __post_init__(self) -> None:
        if self.rate <= 1:
            raise ConfigError("compression rate must be > 1")
        self.window_config()  # WindowConfig owns the window rule

    def window_config(self) -> WindowConfig:
        return WindowConfig(self.window_tokens, self.stride_tokens)


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


_SECTION_TYPES = {
    "weights": PriorityWeights,
    "ga": GAConfig,
    "oracle": OracleConfig,
    "compression": CompressionConfig,
    "paths": PathsConfig,
}


def _build_section(cls, data: dict, section: str):
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(sorted(unknown))}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {section}: {exc}") from exc


_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _coerce(key: str, raw: str, annotation: type):
    try:
        return _BOOLS[raw.lower()] if annotation is bool else annotation(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {annotation.__name__} for {key} from {raw!r}") from None


def load_run_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> RunConfig:
    data: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")

    unknown = set(data) - set(_SECTION_TYPES) - {"parallelism"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {', '.join(sorted(unknown))}")

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        raw = data.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"config section {name} must be an object")
        sections[name] = dict(raw)
    parallelism = data.get("parallelism", 1)

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
        cls = _SECTION_TYPES[section]
        fields = {f.name: f for f in dataclasses.fields(cls)}
        if key not in fields:
            raise ConfigError(f"unknown override key: {dotted}")
        annotation = fields[key].type
        resolved = {"int": int, "float": float, "bool": bool, "str": str}.get(
            annotation if isinstance(annotation, str) else annotation.__name__, str
        )
        sections[section][key] = _coerce(dotted, raw_value, resolved)

    if seed is not None:
        sections["ga"]["rng_seed"] = seed

    built = {
        name: _build_section(cls, sections[name], name) for name, cls in _SECTION_TYPES.items()
    }
    try:
        parallelism = int(parallelism)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parallelism must be an integer: {parallelism!r}") from exc
    return RunConfig(parallelism=parallelism, **built)

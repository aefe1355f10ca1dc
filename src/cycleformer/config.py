"""key=value run configuration: parsing, validation, canonical serialization.

One flat file drives a whole run. `RunConfig` is the only declaration of its
keys: each field's declared type picks how its value is read and written
(`int`, `float`, `bool` as true/false/1/0, `str`; None is spelled "auto" for
`bool | None`, "none" for `float | None`, and an unset `str | None` is left
out). Unknown keys are hard errors so a typo cannot silently fall back to a
default. `use_gate`/`use_zero_token` "auto" resolves by variant; every key
except `corpus_path` has a default. `exit_threshold` (a number >= 0 or
"none") travels inside every checkpoint and is the exit policy `eval` and
`generate` use when `--threshold` is omitted.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from .adaptive import ExitPolicy
from .errors import ConfigError
from .model import ModelConfig


@dataclass
class RunConfig:
    variant: str = "ZTT"
    all_layers: int = 4
    loop_count: int = 3
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    vocab: int = 259
    t_max: int = 64
    use_gate: bool | None = None
    use_zero_token: bool | None = None
    early_exit_heads: bool = False
    tie_embeddings: bool = True
    share_middle: bool = False
    steps: int = 2000
    lr: float = 1e-3
    warmup_frac: float = 0.01
    weight_decay: float = 0.01
    batch: int = 8
    grad_accum: int = 1
    seed: int = 0
    exit_threshold: float | None = None
    corpus_path: str | None = None


def _read_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise ValueError(raw)


def _or_none(spelling: str, read):
    return lambda raw: None if raw.lower() == spelling else read(raw)


# Declared field type -> (reader, what it expects, how None is written; None: key omitted).
_CODECS = {
    int: (int, "an integer", None),
    float: (float, "a number", None),
    bool: (_read_bool, "true/false", None),
    str: (str, None, None),
    bool | None: (_or_none("auto", _read_bool), "true/false", "auto"),
    float | None: (_or_none("none", float), "a number or 'none'", "none"),
    str | None: (str, None, None),
}
_TYPES = get_type_hints(RunConfig)


def parse_value(key: str, raw: str, label: str | None = None):
    """`raw` read as RunConfig field `key`'s declared type; errors name
    `label`, by default the key."""
    read, expected, _ = _CODECS[_TYPES[key]]
    try:
        return read(raw)
    except ValueError:
        raise ConfigError(f"{label or f'key {key!r}'}: expected {expected}, got {raw!r}") from None


def parse_run_config(text: str) -> RunConfig:
    rc = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(rc, key, parse_value(key, raw.strip()))
    ExitPolicy(threshold=rc.exit_threshold)  # the rule eval and generate apply to it
    return rc


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def serialize_run_config(rc: RunConfig) -> str:
    """Canonical text form: every key, declaration order, one per line."""
    lines = []
    for key, kind in _TYPES.items():
        value = getattr(rc, key)
        if value is None:
            value = _CODECS[kind][2]
            if value is None:
                continue
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def model_config(rc: RunConfig) -> ModelConfig:
    """Each ModelConfig field from the RunConfig field of the same name."""
    return ModelConfig(**{f.name: getattr(rc, f.name) for f in fields(ModelConfig)})

"""key=value run configuration: parsing, validation, canonical serialization.

One flat file drives a whole run. Unknown keys are hard errors so a typo
cannot silently fall back to a default. `use_gate`/`use_zero_token` accept
"auto" (resolve by variant); every key except `corpus_path` has a default.
`exit_threshold` (a number or "none") travels inside every checkpoint and is
the exit policy `eval` and `generate` use when `--threshold` is omitted.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

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


_INT_KEYS = {
    "all_layers", "loop_count", "d_model", "n_heads", "d_ff", "vocab", "t_max",
    "steps", "batch", "grad_accum", "seed",
}
_FLOAT_KEYS = {"lr", "warmup_frac", "weight_decay"}
_BOOL_KEYS = {"early_exit_heads", "tie_embeddings", "share_middle"}
_TRISTATE_KEYS = {"use_gate", "use_zero_token"}
_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if key in _BOOL_KEYS:
        return _parse_bool(key, raw)
    if key in _TRISTATE_KEYS:
        if raw.lower() == "auto":
            return None
        return _parse_bool(key, raw)
    if key == "exit_threshold":
        if raw.lower() == "none":
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number or 'none', got {raw!r}") from None
    return raw  # variant, corpus_path


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
        raw = raw.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(rc, key, _parse_value(key, raw))
    return rc


def load_run_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def serialize_run_config(rc: RunConfig) -> str:
    """Canonical text form: every key, declaration order, one per line."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(rc, f.name)
        if f.name in _TRISTATE_KEYS and value is None:
            lines.append(f"{f.name}=auto")
        elif f.name == "corpus_path" and value is None:
            continue
        else:
            lines.append(f"{f.name}={_format_value(value)}")
    return "\n".join(lines) + "\n"


def model_config(rc: RunConfig) -> ModelConfig:
    return ModelConfig(
        variant=rc.variant,
        all_layers=rc.all_layers,
        loop_count=rc.loop_count,
        d_model=rc.d_model,
        n_heads=rc.n_heads,
        d_ff=rc.d_ff,
        vocab=rc.vocab,
        t_max=rc.t_max,
        use_gate=rc.use_gate,
        use_zero_token=rc.use_zero_token,
        early_exit_heads=rc.early_exit_heads,
        tie_embeddings=rc.tie_embeddings,
        share_middle=rc.share_middle,
    )

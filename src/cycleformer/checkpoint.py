"""Single-file checkpoint container.

Layout, all integers little-endian:

    magic   4 bytes  b"ZTTC"
    version u32      currently 1
    clen    u32      length of the UTF-8 run-config text
    config  clen bytes
    count   u32      number of tensors
    then per tensor, in sorted name order:
        nlen  u32    name length
        name  nlen bytes, UTF-8
        dtype u8     0 = float32, 1 = float64
        ndim  u8
        dims  ndim * u64
        data  raw C-order little-endian values

Sorted names and a fixed encoding make the bytes a pure function of the
content: save(load(save(x))) is byte-identical to save(x). Writes go through
a temp file and os.replace so a crash cannot leave a half-written checkpoint
at the destination path; a write that fails removes its temp file.
"""
from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, model_config, parse_run_config, serialize_run_config
from .errors import CheckpointError, CheckpointMagicError, CheckpointVersionError, ConfigError
from .model import ModelConfig, ModelParameters, init_parameters
from .optim import AdamW

MAGIC = b"ZTTC"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path: str, config_text: str, tensors: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    ctext = config_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(ctext)))
    chunks.append(ctext)
    chunks.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        # asarray, not ascontiguousarray: the latter promotes 0-dim to (1,)
        arr = np.asarray(tensors[name])
        code = _DTYPE_CODES.get(arr.dtype.newbyteorder("<"))
        if code is None:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        nbytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nbytes)))
        chunks.append(nbytes)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise CheckpointError(
                f"{self.path}: truncated at byte {self.off} "
                f"({n} bytes wanted, {len(self.buf) - self.off} left)"
            )
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self) -> str:
        at = self.off
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.path}: invalid UTF-8 text at byte {at}") from None


def load_checkpoint(path: str) -> tuple[str, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            r = _Reader(fh.read(), path)
    except FileNotFoundError:
        raise  # a missing file is a usage error, not a bad checkpoint
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read: {e.strerror}") from None
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: version {version}, this build reads {VERSION}")
    config_text = r.text()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        code, ndim = r.u8(), r.u8()
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}Q", r.take(8 * ndim))
        dt = _CODE_DTYPES[code]
        raw = r.take(math.prod(dims) * dt.itemsize)  # Python ints: no overflow
        try:
            data = np.frombuffer(raw, dtype=dt).reshape(dims)
        except ValueError as e:
            raise CheckpointError(f"{path}: tensor {name!r} has unusable dims {dims}: {e}") from None
        tensors[name] = data.copy()  # writable, C-order, shape preserved
    if r.off != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.off} trailing bytes")
    return config_text, tensors


OPTIM_PREFIX = "optim."


def save_model(
    path: str,
    rc: RunConfig,
    params: ModelParameters,
    optimizer: AdamW | None = None,
) -> None:
    tensors: dict[str, np.ndarray] = {k: t.data for k, t in params.named().items()}
    if optimizer is not None:
        tensors.update(optimizer.state_tensors())
    save_checkpoint(path, serialize_run_config(rc), tensors)


@dataclass
class LoadedModel:
    rc: RunConfig
    config: ModelConfig
    params: ModelParameters
    optim_state: dict[str, np.ndarray]

    @property
    def step(self) -> int:
        t = self.optim_state.get("optim.t")
        return int(t) if t is not None else 0

    def make_optimizer(self) -> AdamW:
        opt = AdamW(self.params.named(), weight_decay=self.rc.weight_decay)
        if self.optim_state:
            opt.load_state_tensors(self.optim_state)
        return opt


def load_model(path: str) -> LoadedModel:
    config_text, tensors = load_checkpoint(path)
    try:
        rc = parse_run_config(config_text)
        cfg = model_config(rc)
    except ConfigError as e:
        raise CheckpointError(f"{path}: embedded config is invalid: {e}") from None
    optim_state = {k: v for k, v in tensors.items() if k.startswith(OPTIM_PREFIX)}
    weights = {k: v for k, v in tensors.items() if not k.startswith(OPTIM_PREFIX)}
    if "tok_emb" not in weights:
        raise CheckpointError(f"{path}: no tok_emb tensor; not a model checkpoint")
    params = init_parameters(cfg, seed=0, dtype=weights["tok_emb"].dtype)
    named = params.named()
    _check_names(path, "tensor", named.keys(), weights.keys())
    for name, t in named.items():
        arr = weights[name]
        if arr.shape != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arr.shape}, config implies {t.data.shape}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} is not finite")
        t.data[...] = arr
    if optim_state:  # weights-only checkpoints (retrofit output) carry none
        _check_optim_state(path, named, optim_state)
    return LoadedModel(rc, cfg, params, optim_state)


def _check_names(path: str, what: str, expected, got) -> None:
    missing, extra = sorted(expected - got), sorted(got - expected)
    if missing or extra:
        raise CheckpointError(
            f"{path}: {what} names do not match the config"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )


def _check_optim_state(path: str, named: dict, state: dict[str, np.ndarray]) -> None:
    """A step counter that is a non-negative integer, and finite m and v of
    each parameter's shape; anything else would resume from garbage."""
    moments = {f"{OPTIM_PREFIX}{k}.{name}": p.data.shape for name, p in named.items() for k in "mv"}
    _check_names(path, "optimizer state", moments.keys() | {"optim.t"}, state.keys())
    t = state["optim.t"]
    if t.shape != () or not np.isfinite(t) or t < 0 or t != np.floor(t):
        raise CheckpointError(
            f"{path}: optimizer step counter 'optim.t' must be a non-negative integer scalar, "
            f"got {t.tolist()!r} of shape {t.shape}"
        )
    for key, shape in moments.items():
        if state[key].shape != shape:
            raise CheckpointError(
                f"{path}: optimizer moment {key!r} has shape {state[key].shape}, parameter has {shape}"
            )
        if not np.isfinite(state[key]).all():
            raise CheckpointError(f"{path}: optimizer moment {key!r} is not finite")

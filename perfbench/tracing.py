"""Spans around the package's public functions, recorded from outside it.

Each traced name is replaced where its caller looks it up (for example
`cycleformer.train.forward` and `cycleformer.autodiff.gelu`), so nothing
under src/ changes. Spans stay in memory as [name, start, end, parent,
request] rows and are written out once, when the run ends. The caller must
put src/ on sys.path before importing this module.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import cycleformer.adaptive as adaptive
import cycleformer.autodiff as autodiff
import cycleformer.checkpoint as checkpoint
import cycleformer.data as data
import cycleformer.evaluate as evaluate
import cycleformer.model as model
import cycleformer.optim as optim
import cycleformer.train as train

from metrics import AUTODIFF_OPS

# Every other tape primitive the model or the loss calls; their time is
# reported together as autodiff.other.
OTHER_OPS = (
    "add", "add_const", "add_bias", "mul", "scale", "scale_rows", "transpose",
    "reshape", "narrow", "sigmoid", "constant", "sum_all",
)

TARGETS = (
    (data, "make_synthetic_corpus", "data.make_synthetic_corpus"),
    (train, "next_batch", "data.next_batch"),
    *((autodiff, op, f"autodiff.{op}") for op in AUTODIFF_OPS + OTHER_OPS),
    (train, "forward", "model.forward"),
    (evaluate, "forward", "model.forward"),
    (model, "attention_with_zero_token", "model.attention"),
    (model, "gated_ffn", "model.ffn"),
    (model, "init_parameters", "model.init_parameters"),
    (train, "multi_exit_loss", "train.multi_exit_loss"),
    (optim.AdamW, "step", "optim.step"),
    (optim.AdamW, "zero_grad", "optim.zero_grad"),
    (evaluate, "evaluate", "evaluate.evaluate"),
    (adaptive, "generate", "adaptive.generate"),
    (checkpoint, "load_model", "checkpoint.load_model"),
)

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1  # -1 during set-up, else the traced request index
        self.active = False
        self.tape_records: dict[int, int] = {}
        self._stack: list[int] = []
        self._patches: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(idx)

        self._patches.append((owner, attr, inner))
        setattr(owner, attr, traced)

    def install(self) -> None:
        self.active = True
        for owner, attr, name in TARGETS:
            self._wrap(owner, attr, name)
        inner_backward = train.backward

        def backward(tape, loss):
            self.tape_records[self.request] = self.tape_records.get(self.request, 0) + len(tape)
            return inner_backward(tape, loss)

        self._patches.append((train, "backward", inner_backward))
        train.backward = backward
        self._wrap(train, "backward", "autodiff.backward")

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, inner = self._patches.pop()
            setattr(owner, attr, inner)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, fh)


def duration_ms(span) -> float:
    return (span[END] - span[START]) * 1e3


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover, in ms."""
    own = [duration_ms(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= duration_ms(s)
    return own


def per_request(spans, n_requests: int) -> tuple[dict[str, list[float]], dict[str, list[int]]]:
    """name -> inclusive ms, and name -> calls, in each traced request (0
    where it never ran)."""
    ms: dict[str, list[float]] = defaultdict(lambda: [0.0] * n_requests)
    calls: dict[str, list[int]] = defaultdict(lambda: [0] * n_requests)
    for s in spans:
        if 0 <= s[REQUEST] < n_requests:
            ms[s[NAME]][s[REQUEST]] += duration_ms(s)
            calls[s[NAME]][s[REQUEST]] += 1
    return ms, calls


def layer_table(spans) -> str:
    """Self time per layer (the name before the first dot) over traced requests."""
    by_layer: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        if s[REQUEST] >= 0:
            by_layer[s[NAME].split(".")[0]] += own
    total = sum(by_layer.values()) or 1.0
    rows = [f"{'layer':<12}{'self ms':>12}{'share':>9}"]
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        rows.append(f"{layer:<12}{ms:>12.1f}{100 * ms / total:>8.1f}%")
    return "\n".join(rows)

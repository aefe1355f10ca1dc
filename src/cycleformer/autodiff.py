"""Reverse-mode autodiff over numpy arrays with an explicit recording tape.

Forward ops run eagerly on the arrays inside `Tensor`s. While a `Tape` is
active (as a context manager), every primitive that touches a grad-needing
input records a gradient slot for its output, one slot per input (None for an
input that needs no gradient) and a rule: a function from the output's
gradient to one gradient per input, in input order. Rules only compute;
`backward(tape, loss)` consumes the records in exact reverse order and is the
one place that accumulates, adding each returned gradient into the slots of
the inputs that need one, so parameters used at several schedule positions
receive the sum of their per-use gradients. Without an active tape the same
ops are plain inference code. Only float32/float64 are supported; float32 is
the training dtype, float64 the verification dtype for finite-difference
checks.

`model.py`'s attention and FFN blocks each record one entry through
`_finish` in place of a chain of primitives. Their rules call the same array
kernels as the primitives (`layer_norm_grad`, `gelu_grad`, `matmul_grad`,
...) in the order the chain's records ran, so gradients are bitwise those of
the chain. An input used twice is listed twice, once per term, because the
sweep adds each term on its own and addition order moves the bits.

A record holds no `Tensor`. Each rule binds, when its op runs, exactly the
arrays its formula reads (both operands of a matmul, `xhat` and `inv` of a
layer norm, a softmax's output, ...) and otherwise only shapes, dtypes and
indices. So the tape keeps alive what backward reads and nothing else: an op
output that no rule reads dies with the forward's last reference to its
`Tensor`, and a non-leaf's data dies with its last reader.

The sweep frees memory as it goes: it pops each record (dropping the rule and
the arrays it holds) and takes the gradient out of the output's slot, so
every non-leaf `grad` is None afterwards and the tape is empty; a tape is
swept once. A first gradient is adopted as the rule returned it, without a
copy, so a `grad` may be a view into a buffer a consumer's rule produced.
That is safe under one aliasing rule: a rule returns distinct,
non-overlapping arrays. `concat` returns disjoint slices of its output
gradient, `reshape` and `transpose` return views of an output gradient nobody
reads after their rule, `add` returns it and a copy, the block rules return
it for their residual input, and every other gradient is a fresh array.
"""
from __future__ import annotations

import contextvars
import math
import threading

import numpy as np

from .errors import ShapeError, UsageError

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "cycleformer_tape", default=None
)


class _Slot:
    """Gradient cell of one tensor that needs a gradient; tape records hold
    these in place of the tensors."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Tensor:
    """Dense array plus grad bookkeeping.

    `data` is an ndarray, but not always an owned one: `reshape` and
    `transpose` outputs may be views of their input's data. A tensor that
    needs a gradient owns a `_Slot`, and `grad` reads and writes it; the tape
    records the slot, not the tensor, so a non-leaf's `data` lives only as
    long as the forward's references and the rules that read it. After
    `backward`, a leaf's `grad` may be a view into an array a consumer's rule
    returned (see the module docstring's aliasing rule).
    """

    __slots__ = ("data", "slot")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in _ALLOWED_DTYPES:
            raise ShapeError(f"unsupported dtype {data.dtype}; use float32 or float64")
        self.data = data
        self.slot = _Slot() if requires_grad else None

    @property
    def grad_needed(self) -> bool:
        return self.slot is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.slot is None:
            raise UsageError(f"{self!r} needs no gradient")
        self.slot.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def tensor(data, dtype=None, requires_grad: bool = False) -> Tensor:
    """Wrap `data` as a Tensor, defaulting non-float inputs to float32."""
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in _ALLOWED_DTYPES:
        arr = arr.astype(np.float32)
    return Tensor(np.array(arr, copy=True), requires_grad=requires_grad)


def parameter(data, dtype=None) -> Tensor:
    return tensor(data, dtype=dtype, requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    return tensor(data, dtype=dtype, requires_grad=False)


class Tape:
    """Ordered (output slot, input slots, rule) records of one forward pass.

    `backward` pops the records as it goes, so a swept tape is empty and a
    second `backward` on it raises `UsageError`.
    """

    def __init__(self):
        self._records: list = []
        self._token = None
        self._pair = None  # (shared per record, turn semaphores, stop event, side)

    def pair(self, second: "Tape") -> None:
        """Sweep this tape and `second` (the same record sequence over the same
        parameters) at the same time on two threads: see `backward`."""
        if [len(r[1]) for r in self._records] != [len(r[1]) for r in second._records]:
            raise UsageError("paired tapes must hold the same record sequence")
        shared = [any(s is t and s is not None for s, t in zip(x[1], y[1]))
                  for x, y in zip(self._records, second._records)]
        turns, stopped = (threading.Semaphore(1), threading.Semaphore(0)), threading.Event()
        self._pair, second._pair = (shared, turns, stopped, 0), (shared, turns, stopped, 1)

    def stop_pair(self) -> None:
        """Stop a paired sweep and free the partner, waiting or not: it
        returns instead of waiting for this side's turn. No-op unpaired."""
        if self._pair is not None:
            _, turns, stopped, side = self._pair
            stopped.set()
            turns[1 - side].release()

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Consume `tape` in reverse, accumulating grads into every reachable leaf.

    A record's saved arrays and its output gradient die as soon as its rule
    has run. The module docstring states the aliasing rule that lets a first
    gradient be adopted without a copy.

    A tape paired by `Tape.pair` is swept while its partner is swept on
    another thread. The rules run at the same time, but the adds of a record
    that holds a parameter take turns: the first tape's for record i, then
    the second's, then record i-1's, so the bits do not depend on
    scheduling. (The other records touch slots of one tape alone.) A first
    gradient adopted by one side may be added into by the other: by the
    aliasing rule, nothing else reads it. A sweep that raises stops the
    pair: the other returns instead of waiting.
    """
    shared, turns, stopped, side = tape._pair or (None, None, None, 0)
    records = tape._records
    try:
        if not any(out is loss.slot for out, _, _ in records):
            raise UsageError("backward target was not produced under this tape")
        if loss.data.shape != ():
            raise ShapeError(f"backward target must be scalar, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        while records:
            out, inputs, rule = records.pop()
            g_out, out.grad = out.grad, None
            terms = () if g_out is None else zip(inputs, rule(g_out), strict=True)
            turn = shared is not None and shared[len(records)]
            if turn:
                turns[side].acquire()  # released by the partner's turn before this one
                if stopped.is_set():
                    return
            for slot, g in terms:
                if slot is None:
                    continue
                if slot.grad is None:
                    slot.grad = np.asarray(g)
                else:
                    slot.grad += g
            if turn:
                turns[1 - side].release()
    except BaseException:
        tape.stop_pair()
        raise


def recording(*inputs: Tensor) -> bool:
    """Whether an op on `inputs` records: a tape is active and some input
    needs a gradient."""
    return _ACTIVE_TAPE.get() is not None and any(i.slot is not None for i in inputs)


def _finish(out: Tensor, rule, *inputs: Tensor) -> Tensor:
    """Record a freshly computed output's slot with its inputs' slots and its
    gradient rule, which must bind arrays, never the tensors themselves."""
    if recording(*inputs):
        out.slot = _Slot()
        _ACTIVE_TAPE.get()._records.append((out.slot, tuple(i.slot for i in inputs), rule))
    return out


def _same_dtype(*ts: Tensor) -> np.dtype:
    dt = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"dtype mismatch: {dt} vs {t.data.dtype}")
    return dt


# ---------------------------------------------------------------------------
# array kernels shared by the primitives below and the fused block records in
# model.py, so each forward and backward formula exists once. The reductions
# call the ufunc's `reduce` directly: the bits of `np.max`, `np.sum` and
# `mean`, without their Python wrappers, which dominate on decode's one-row
# arrays.


def softmax_np(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Shift-invariant softmax along `axis`, built in `out` (a fresh array if
    None; `x` itself may be passed to overwrite it).

    exp(x - max) / sum, in one buffer: the shift, exp and divide run in
    place, with the bits of the three-buffer `e = exp(x - m); e / sum(e)`.
    """
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = np.subtract(x, m, out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh term tanh(C * (x + A * x^3)) of the GELU at `x`, built in
    place in one fresh buffer. The cube is two multiplies: float32 `x ** 3`
    goes through a generic power routine about 100x slower than `x * x * x`.
    """
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU of `x`, 0.5 * x * (1 + t), and the tanh term
    `t` its derivative needs, each in a fresh buffer."""
    t = _gelu_tanh(x)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, t


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, finite for large |x|: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def layer_norm_parts(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the trailing axis: (output, xhat, inv), where xhat is
    the normalized input and inv the per-row 1/sqrt(var + eps).

    Works in two fresh full-size buffers, in place (fewer allocations, fewer
    page faults); the operations and their order are those of the plain
    formulas, so results are bitwise the same.
    """
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xhat = x - mu
    y = xhat * xhat
    var = np.add.reduce(y, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat *= inv
    return layer_norm_affine(xhat, gamma, beta, out=y), xhat, inv


def layer_norm_affine(
    xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """xhat * gamma + beta: the layer norm output, rebuilt bitwise from xhat."""
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def layer_norm_grad(
    g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of `layer_norm_parts` w.r.t. (x, gamma, beta) given the
    output's gradient `g`."""
    d = xhat.shape[-1]
    lead = tuple(range(g.ndim - 1))
    dxhat = g * gamma
    s1 = np.sum(dxhat, axis=-1, keepdims=True)
    tmp = dxhat * xhat
    s2 = np.sum(tmp, axis=-1, keepdims=True)
    np.multiply(g, xhat, out=tmp)
    g_gamma = np.sum(tmp, axis=lead)
    np.multiply(xhat, s2, out=tmp)
    # gx = (inv / d) * (d * dxhat - s1 - xhat * s2), built in dxhat.
    dxhat *= d
    dxhat -= s1
    dxhat -= tmp
    dxhat *= inv / d
    return dxhat, g_gamma, np.sum(g, axis=lead)


def gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of GELU at `x` given its output's gradient `g` and the tanh
    term `t` of `_gelu_tanh(x)`, written into `out` (which may be `g`) or a
    fresh array. Leaves `t` holding 1 + t, from which the GELU output is
    x * (1 + t) * 0.5.

    d/dx = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * C * (1 + 3A x^2), with
    1 - t^2 taken as (1 - t) * (1 + t), reusing the 1 + t of the first term.
    """
    d = x * x
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_C
    d *= x
    s = 1.0 - t
    d *= s
    del s
    t += 1.0
    d *= t
    d += t
    d *= 0.5
    return np.multiply(d, g, out=d if out is None else out)


def softmax_grad(s: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of a softmax with output `s` given that output's gradient,
    built in place in one fresh buffer: (g - sum(g * s)) * s."""
    out = g * s
    inner = np.sum(out, axis=axis, keepdims=True)
    np.subtract(g, inner, out=out)
    out *= s
    return out


def sigmoid_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a sigmoid with output `s` given that output's gradient."""
    return g * s * (1.0 - s)


def matmul_grad(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a @ b w.r.t. a and b given the product's gradient."""
    return np.matmul(g, np.swapaxes(b, -1, -2)), np.matmul(np.swapaxes(a, -1, -2), g)


def bias_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of a trailing-axis bias: `g` summed over every leading axis."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def rule(g):
        return g, g.copy()

    return _finish(out, rule, a, b)


def add_const(a: Tensor, c) -> Tensor:
    """a + broadcastable constant array; no gradient flows into the constant."""
    carr = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.data.shape, carr.shape) != a.data.shape:
        raise ShapeError(f"constant of shape {carr.shape} does not broadcast into {a.data.shape}")
    out = Tensor(a.data + carr)

    def rule(g):
        return (g,)

    return _finish(out, rule, a)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x (..., d) + b (d,), broadcasting over leading axes."""
    _same_dtype(x, b)
    if b.data.shape != (x.data.shape[-1],):
        raise ShapeError(f"bias shape {b.data.shape} does not match trailing dim of {x.data.shape}")
    out = Tensor(x.data + b.data)

    def rule(g):
        return g, bias_grad(g)

    return _finish(out, rule, x, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    av, bv = a.data, b.data
    out = Tensor(av * bv)

    def rule(g):
        return g * bv, g * av

    return _finish(out, rule, a, b)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * a.data.dtype.type(s))

    def rule(g):
        return (g * s,)

    return _finish(out, rule, a)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """x (..., d) scaled per row by s (..., 1); used for the FFN gate."""
    _same_dtype(x, s)
    if s.data.shape != x.data.shape[:-1] + (1,):
        raise ShapeError(f"row-scale shape {s.data.shape} does not match {x.data.shape}")
    xd, sd = x.data, s.data
    out = Tensor(xd * sd)

    def rule(g):
        return g * sd, np.sum(g * xd, axis=-1, keepdims=True)

    return _finish(out, rule, x, s)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked inputs must agree exactly on leading dims."""
    _same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    if len(ash) < 2 or len(bsh) < 2 or ash[-1] != bsh[-2] or ash[:-2] != bsh[:-2]:
        raise ShapeError(f"matmul shape mismatch: {ash} @ {bsh}")
    av, bv = a.data, b.data
    out = Tensor(np.matmul(av, bv))

    def rule(g):
        return matmul_grad(av, bv, g)

    return _finish(out, rule, a, b)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"axes {axes} are not a permutation for ndim {a.data.ndim}")
    out = Tensor(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def rule(g):
        return (np.transpose(g, inv),)

    return _finish(out, rule, a)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.data.shape
    out = Tensor(np.reshape(a.data, shape))

    def rule(g):
        return (np.reshape(g, in_shape),)

    return _finish(out, rule, a)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    _same_dtype(*parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]

    def rule(g):
        grads = []
        offset = 0
        for n in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + n)
            grads.append(g[tuple(idx)])
            offset += n
        return grads

    return _finish(out, rule, *parts)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    in_shape, dtype = a.data.shape, a.data.dtype
    if not (0 <= start and start + length <= in_shape[axis]):
        raise ShapeError(
            f"narrow [{start}:{start + length}) out of range for axis {axis} of {in_shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx].copy())

    def rule(g):
        full = np.zeros(in_shape, dtype=dtype)
        full[idx] = g
        return (full,)

    return _finish(out, rule, a)


def expand(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast `a` up to `shape` (numpy rules); backward sums the broadcast axes."""
    in_shape = a.data.shape
    if np.broadcast_shapes(in_shape, shape) != tuple(shape):
        raise ShapeError(f"cannot expand {in_shape} to {shape}")
    out = Tensor(np.ascontiguousarray(np.broadcast_to(a.data, shape)))
    extra = len(shape) - len(in_shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, d in enumerate(in_shape) if d == 1 and shape[i + extra] != 1
    )

    def rule(g):
        return (np.sum(g, axis=axes, keepdims=True).reshape(in_shape),)

    return _finish(out, rule, a)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = weight[ids[...], :]; backward scatter-adds."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding ids must be integers, got {ids.dtype}")
    table_shape, dtype = weight.data.shape, weight.data.dtype
    if ids.size and (ids.min() < 0 or ids.max() >= table_shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise IndexError(f"token id {bad} outside embedding table of {table_shape[0]} rows")
    out = Tensor(weight.data[ids])

    def rule(g):
        gw = np.zeros(table_shape, dtype=dtype)
        np.add.at(gw, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return (gw,)

    return _finish(out, rule, weight)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    _same_dtype(x, gamma, beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} != ({d},)")
    gd = gamma.data
    y, xhat, inv = layer_norm_parts(x.data, gd, beta.data, eps)
    out = Tensor(y)

    def rule(g):
        return layer_norm_grad(g, xhat, inv, gd)

    return _finish(out, rule, x, gamma, beta)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rows sum to 1."""
    if x.data.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.data.shape}")
    s = softmax_np(x.data, axis=axis)
    out = Tensor(s)

    def rule(g):
        return (softmax_grad(s, g, axis),)

    return _finish(out, rule, x)


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    y, t = _gelu_parts(xd)
    out = Tensor(y)

    def rule(g):
        return (gelu_grad(xd, t, g),)

    return _finish(out, rule, x)


def sigmoid(x: Tensor) -> Tensor:
    s = sigmoid_np(x.data)
    out = Tensor(s)

    def rule(g):
        return (sigmoid_grad(s, g),)

    return _finish(out, rule, x)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token NLL. logits (N, V), integer targets (N,); returns a scalar."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ShapeError(
            f"cross_entropy expects (N, V) logits and (N,) targets, got {logits.data.shape} and {targets.shape}"
        )
    n, v = logits.data.shape
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        bad = int(targets.min()) if targets.min() < 0 else int(targets.max())
        raise IndexError(f"target id {bad} outside vocabulary of size {v}")
    # z - lse with z = logits - max, built in the buffer that becomes logp:
    # the same values, with one (N, V) temporary (the exp) instead of two.
    logp = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(logp), axis=1, keepdims=True))
    logp -= lse
    nll = -logp[np.arange(n), targets]
    out = Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype))

    def rule(g):
        p = np.exp(logp)
        p[np.arange(n), targets] -= 1.0
        p *= g / n
        return (p,)

    return _finish(out, rule, logits)


def sum_all(a: Tensor) -> Tensor:
    in_shape, dtype = a.data.shape, a.data.dtype
    out = Tensor(np.asarray(a.data.sum(), dtype=dtype))

    def rule(g):
        return (np.full(in_shape, g, dtype=dtype),)

    return _finish(out, rule, a)

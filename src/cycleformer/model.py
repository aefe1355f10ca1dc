"""Parameter-cycling transformer family over a shared block implementation.

Four variants of the same pre-norm GPT-style stack:

  V    vanilla: each of the L layers runs once.
  BC   whole-stack cycling: the full stack of L distinct layers repeats N times.
  HTC  head-tail decoupled cycling: layer 1 and layer L run once; the middle
       block {2..L-1} repeats N times in between.
  ZTT  HTC plus, per cycled application, a trainable key-only "zero token"
       prepended to attention (its value row is all zeros, it is never masked,
       and it emits no query) and a per-layer logistic gate on the FFN branch.

Effective depth is always L - C + C*N for C cycled layers, so variants can be
compared at a matched application budget. Middle layers keep distinct weights
per position by default; `share_middle` aliases them to one record, which is
the shape the vanilla-to-cycled retrofit produces.
"""
from __future__ import annotations

import contextvars
import queue
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_ids_fit
from .errors import ConfigError, ShapeError, UsageError

VARIANTS = ("V", "BC", "HTC", "ZTT")

MASK_NEG = -1e9


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    all_layers: int
    loop_count: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab: int = 259
    t_max: int = 64
    use_gate: bool | None = None
    use_zero_token: bool | None = None
    early_exit_heads: bool = False
    tie_embeddings: bool = True
    share_middle: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.all_layers < 1:
            raise ConfigError(f"all_layers must be >= 1, got {self.all_layers}")
        if self.loop_count < 1:
            raise ConfigError(f"loop_count must be >= 1, got {self.loop_count}")
        if self.variant == "V" and self.loop_count != 1:
            raise ConfigError("variant V has no cycled layers; loop_count must be 1")
        if self.variant in ("HTC", "ZTT") and self.all_layers < 3:
            raise ConfigError(
                f"variant {self.variant} needs all_layers >= 3 (head + middle + tail), got {self.all_layers}"
            )
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be a positive multiple of n_heads {self.n_heads}"
            )
        if self.d_ff < 1 or self.vocab < 1 or self.t_max < 1:
            raise ConfigError("d_ff, vocab and t_max must all be positive")
        # Auto toggles: on for ZTT, off elsewhere, unless set explicitly.
        if self.use_gate is None:
            object.__setattr__(self, "use_gate", self.variant == "ZTT")
        if self.use_zero_token is None:
            object.__setattr__(self, "use_zero_token", self.variant == "ZTT")
        if self.use_zero_token and not self.cycled_layers:
            raise ConfigError(f"variant {self.variant} has no cycled layers to attach zero tokens to")
        if self.share_middle and self.variant not in ("HTC", "ZTT"):
            raise ConfigError("share_middle only applies to head-tail cycled variants")

    @property
    def cycled_layers(self) -> tuple[int, ...]:
        if self.variant == "V":
            return ()
        if self.variant == "BC":
            return tuple(range(1, self.all_layers + 1))
        return tuple(range(2, self.all_layers))

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_exits(self) -> int:
        return 1 if self.variant == "V" else self.loop_count

    @property
    def supports_adaptive_exit(self) -> bool:
        """A zero token yields the halting signal, and a shared tail can
        finish the stream after any cycle."""
        return self.variant in ("HTC", "ZTT") and self.use_zero_token

    def check_exit_threshold(self, threshold: float | None) -> None:
        """ConfigError for a threshold this model cannot apply: the one check
        behind every exit threshold, from a config, a flag or a call."""
        if threshold is not None and not self.supports_adaptive_exit:
            raise ConfigError(
                f"adaptive exit (threshold {threshold:g}) needs zero-token attention on a head-tail "
                f"cycled variant, but this {self.variant} model has none; use exit_threshold=none "
                "(--threshold none)"
            )


@dataclass(frozen=True)
class CycleSchedule:
    """Application order as head, cycles, tail.

    `applications` lists every (layer, cycle) pair in the order it runs.
    `pre` indexes the applications that run once before the first cycle,
    `by_cycle[n]` those of cycle n in order, and `post` those that run once
    after the last cycle: the head and tail of head-tail variants. Cycle n's
    last application is its exit point; an exit after it runs `post` and the
    LM head. V has no cycles: every application is in `pre`.
    """

    applications: tuple[tuple[int, int], ...]
    by_cycle: dict[int, tuple[int, ...]]
    pre: tuple[int, ...]
    post: tuple[int, ...]


def build_schedule(config: ModelConfig) -> CycleSchedule:
    """Head: the layers before the first cycled layer, once. Then the cycled
    layers, in order, loop_count times. Tail: the layers after the last
    cycled layer, once. V has no cycled layers and runs each layer once."""
    l, n, block = config.all_layers, config.loop_count, config.cycled_layers
    if not block:
        return CycleSchedule(tuple((i, 1) for i in range(1, l + 1)), {}, tuple(range(l)), ())
    head = tuple((i, 1) for i in range(1, block[0]))
    body = tuple((i, c) for c in range(1, n + 1) for i in block)
    tail = tuple((i, 1) for i in range(block[-1] + 1, l + 1))
    h, k = len(head), len(block)
    by_cycle = {c: tuple(range(h + (c - 1) * k, h + c * k)) for c in range(1, n + 1)}
    apps = head + body + tail
    return CycleSchedule(apps, by_cycle, tuple(range(h)), tuple(range(h + n * k, len(apps))))


def aggregate(values):
    """A cycle's value from its applications' values: their mean."""
    return sum(values) / len(values)


def halts(signals, threshold: float):
    """The exit rule: a cycle's aggregated zero-attention reaches `threshold`."""
    return aggregate(signals) >= threshold


# ---------------------------------------------------------------------------
# parameters


@dataclass
class LayerParameters:
    """One transformer block's weights. Attention projections carry no biases
    so a fully saturated zero slot leaves the residual stream exactly intact."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    gate_w: Tensor | None = None
    gate_b: Tensor | None = None

    def tensors(self) -> dict[str, Tensor]:
        out = {
            "attn.wq": self.wq, "attn.wk": self.wk, "attn.wv": self.wv, "attn.wo": self.wo,
            "ln1.g": self.ln1_g, "ln1.b": self.ln1_b,
            "ffn.w1": self.w1, "ffn.b1": self.b1, "ffn.w2": self.w2, "ffn.b2": self.b2,
            "ln2.g": self.ln2_g, "ln2.b": self.ln2_b,
        }
        if self.gate_w is not None:
            out["gate.w"] = self.gate_w
            out["gate.b"] = self.gate_b
        return out


@dataclass(eq=False, repr=False)
class ModelParameters:
    """Registry of every trainable tensor, with layer positions resolved to
    (possibly shared) records and zero-token keys indexed by (layer, cycle)."""

    config: ModelConfig
    tok_emb: Tensor
    pos_emb: Tensor
    lm_head: Tensor | None
    final_g: Tensor
    final_b: Tensor
    records: dict[str, LayerParameters]
    pool: dict[tuple[int, int], Tensor]

    def record(self, layer: int) -> LayerParameters:
        return self.records[record_key(self.config, layer)]

    def head_weight(self) -> Tensor:
        return self.tok_emb if self.lm_head is None else self.lm_head

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        if self.lm_head is not None:
            out["lm_head"] = self.lm_head
        out["final_norm.g"] = self.final_g
        out["final_norm.b"] = self.final_b
        for key in sorted(self.records):
            for sub, t in self.records[key].tensors().items():
                out[f"{key}.{sub}"] = t
        for (layer, cycle) in sorted(self.pool):
            out[f"zero_key.l{layer}.c{cycle}"] = self.pool[(layer, cycle)]
        return out

    def dtype(self) -> np.dtype:
        return self.tok_emb.data.dtype


def record_key(config: ModelConfig, layer: int) -> str:
    """The weight record layer `layer` reads: with share_middle every cycled
    layer reads the one `layer_mid` record, otherwise each has its own."""
    if config.share_middle and layer in config.cycled_layers:
        return "layer_mid"
    return f"layer{layer}"


def init_parameters(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParameters:
    """Gaussian(0, 0.02) weights, unit norms, zero biases, in a fixed draw order."""
    rng = np.random.default_rng(seed)
    d, dff, v, tm = config.d_model, config.d_ff, config.vocab, config.t_max

    def w(*shape):
        return ad.parameter(rng.normal(0.0, 0.02, size=shape), dtype=dtype)

    def zeros(*shape):
        return ad.parameter(np.zeros(shape), dtype=dtype)

    def ones(*shape):
        return ad.parameter(np.ones(shape), dtype=dtype)

    tok_emb = w(v, d)
    pos_emb = w(tm, d)
    lm_head = None if config.tie_embeddings else w(v, d)
    records: dict[str, LayerParameters] = {}
    for key in dict.fromkeys(record_key(config, i) for i in range(1, config.all_layers + 1)):
        rec = LayerParameters(
            wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
            ln1_g=ones(d), ln1_b=zeros(d),
            w1=w(d, dff), b1=zeros(dff), w2=w(dff, d), b2=zeros(d),
            ln2_g=ones(d), ln2_b=zeros(d),
        )
        if config.use_gate:
            rec.gate_w = w(d, 1)
            rec.gate_b = zeros(1)
        records[key] = rec
    pool: dict[tuple[int, int], Tensor] = {}
    if config.use_zero_token:
        for layer in config.cycled_layers:
            for cycle in range(1, config.loop_count + 1):
                pool[(layer, cycle)] = w(d)
    final_g = ones(d)
    final_b = zeros(d)
    return ModelParameters(config, tok_emb, pos_emb, lm_head, final_g, final_b, records, pool)


def param_count(config: ModelConfig) -> dict:
    """Sizes of the arrays `init_parameters` builds: the total and, by group,
    embeddings, blocks, gates, zero_token_pool and final_norm."""
    by_group = dict.fromkeys(("embeddings", "blocks", "gates", "zero_token_pool", "final_norm"), 0)
    groups = {"tok_emb": "embeddings", "pos_emb": "embeddings", "lm_head": "embeddings",
              "zero_key": "zero_token_pool", "final_norm": "final_norm"}
    for name, t in init_parameters(config).named().items():
        key, _, sub = name.partition(".")
        by_group[groups.get(key) or ("gates" if sub.startswith("gate.") else "blocks")] += t.data.size
    return {"total": sum(by_group.values()), "by_group": by_group}


# ---------------------------------------------------------------------------
# forward


def build_causal_mask(t: int, zero_slot: bool, dtype=np.float32, start: int = 0) -> np.ndarray:
    """(T, z + start + T) additive mask for queries at positions start.., where
    z is 1 when a zero slot is key column 0, else 0.

    Slot 0 is exempt from causality: every query may attend to it. Key column
    j >= z maps to sequence position j-z and is visible iff j-z <= query.
    """
    z = 1 if zero_slot else 0
    return np.triu(np.full((t, z + start + t), MASK_NEG, dtype=dtype), k=z + start + 1)


def _split_heads(m: np.ndarray, b: int, t: int, n_heads: int) -> np.ndarray:
    """(B*T, d) or (B, T, d) -> (B, heads, T, head_dim), a view. Array methods,
    as in the forwards: numpy's function wrappers outcost decode's one row."""
    return m.reshape(b, t, n_heads, -1).transpose(0, 2, 1, 3)


def _merge_heads(m: np.ndarray) -> np.ndarray:
    """(B, heads, T, head_dim) -> a fresh (B*T, d)."""
    b, n_heads, t, hd = m.shape
    return m.transpose(0, 2, 1, 3).reshape(b * t, n_heads * hd)


def attention_with_zero_token(
    h: Tensor,
    rec: LayerParameters,
    zkey: Tensor | None,
    n_heads: int,
    cache: tuple[np.ndarray, np.ndarray] | None = None,
    start: int = 0,
) -> tuple[Tensor, np.ndarray | None]:
    """Pre-norm causal multi-head attention with an optional zero token.

    Keys and values sit in a (keys, values) pair of (B, rows, d) buffers.
    With a zero token, row 0 holds `zkey` as the key (split per head, visible
    to every query) and zeros as the value, and sequence position p is row
    p+1; the zero token emits no query of its own. Without one, position p
    is row p. Returns (H_in + attention output, slot-0 weight per (batch,
    head, query) or None); the softmax buffer dies with the call.

    Without `cache` the block allocates buffers of exactly the rows this call
    reads, and `start` must be 0. `cache` passes in buffers with at least
    that many rows: the queries at positions start..start+T-1 write their
    rows there, and each attends over every row up to its own. A cached call
    does not record: under a tape, with an input that needs a gradient, it
    raises `UsageError` (incremental decode runs without a tape).

    One tape record covers the block. It saves only the layer norm's xhat
    and inv. Backward rebuilds the layer norm output, the queries and the
    key and value buffers (with the forward's GEMMs and its zero-slot row
    0), from them the attention weights (the forward's `attend`: scores,
    scale, mask and an in-place softmax), and the head-merged mix, all
    bitwise the forward's. It builds the layer norm output twice, for the
    projections and for their weight gradients, so that (B*T, d) array is
    not alive through the softmax gradient, where the rule's memory peaks.
    """
    b, t, d = h.shape
    if d % n_heads != 0:
        raise ShapeError(f"d_model {d} not divisible by n_heads {n_heads}")
    hd = d // n_heads
    inputs = [h, h, rec.ln1_g, rec.ln1_b, rec.wq, rec.wk, rec.wv, rec.wo]
    if zkey is not None:
        if zkey.shape != (d,):
            raise ShapeError(f"zero-token key shape {zkey.shape} != ({d},)")
        inputs.append(zkey)
    if cache is None and start:
        raise UsageError(f"start {start} needs a cache holding the rows before it")
    if cache is not None and ad.recording(*inputs):
        raise UsageError("a cached attention call cannot record: its backward rule assumes no cache")
    dtype = ad._same_dtype(*inputs)
    zero_slot = zkey is not None
    z = 1 if zero_slot else 0
    keys = z + start + t  # buffer rows the queries read
    gamma, beta = rec.ln1_g.data, rec.ln1_b.data
    wq, wk, wv, wo = rec.wq.data, rec.wk.data, rec.wv.data, rec.wo.data
    zkey_data = zkey.data if zero_slot else None

    def project(flat, k_rows, v_rows):
        """Queries, and the key and value buffers' first `keys` rows, each
        (B, heads, rows, hd); writes this call's rows and the zero slot."""
        q = _split_heads(np.matmul(flat, wq), b, t, n_heads)
        if zero_slot:
            k_rows[:, 0], v_rows[:, 0] = zkey_data, 0
        k_rows[:, z + start : keys] = np.matmul(flat, wk).reshape(b, t, d)
        v_rows[:, z + start : keys] = np.matmul(flat, wv).reshape(b, t, d)
        return (q, _split_heads(k_rows[:, :keys], b, keys, n_heads),
                _split_heads(v_rows[:, :keys], b, keys, n_heads))

    def buffers():
        return np.empty((b, keys, d), dtype), np.empty((b, keys, d), dtype)

    scale = float(1.0 / np.sqrt(hd))

    def attend(q, k):
        """Attention weights (B, heads, T, keys) of queries `q` over keys `k`:
        scores, scale, causal mask and softmax, all in one fresh buffer."""
        w = np.matmul(q, k.transpose(0, 1, 3, 2))
        w *= dtype.type(scale)  # in place: the bits of the out-of-place form
        if t > 1:  # one query sees every row it reads: no mask
            w += build_causal_mask(t, zero_slot, dtype, start)
        return ad.softmax_np(w, axis=-1, out=w)

    y, xhat, inv = ad.layer_norm_parts(h.data, gamma, beta)
    q, k, v = project(y.reshape(b * t, d), *(cache or buffers()))
    del y
    weights = attend(q, k)
    del q, k
    out = np.matmul(_merge_heads(np.matmul(weights, v)), wo).reshape(b, t, d)
    del v
    out += h.data  # the residual add in place: h + out, bitwise
    h_att = Tensor(out)

    def rule(g):
        go = np.reshape(g, (b * t, d))

        def ln_out():
            return np.reshape(ad.layer_norm_affine(xhat, gamma, beta), (b * t, d))

        q, k, v = project(ln_out(), *buffers())
        weights = attend(q, k)
        g_mix, g_wo = ad.matmul_grad(_merge_heads(np.matmul(weights, v)), wo, go)
        g_w, g_v = ad.matmul_grad(weights, v, _split_heads(g_mix, b, t, n_heads))
        del g_mix, v
        g_scores = ad.softmax_grad(weights, g_w)
        del g_w, weights
        g_scores *= scale
        g_q, g_kt = ad.matmul_grad(q, np.transpose(k, (0, 1, 3, 2)), g_scores)
        del g_scores, q, k
        g_k = np.transpose(g_kt, (0, 1, 3, 2))
        grads = []
        if zero_slot:
            # The zero slot's key is broadcast over the batch; its value is a
            # constant, so the value gradient's slot 0 is dropped.
            g_z = np.sum(g_k[:, :, 0:1, :], axis=(0,) if b != 1 else (), keepdims=True)
            grads.append(np.reshape(g_z, (d,)))
            g_k, g_v = g_k[:, :, 1:, :], g_v[:, :, 1:, :]
        # Accumulate in the order the per-op tape did: v, then k, then q.
        flat = ln_out()
        g_flat, g_wv = ad.matmul_grad(flat, wv, _merge_heads(g_v))
        g_part, g_wk = ad.matmul_grad(flat, wk, _merge_heads(g_k))
        g_flat += g_part
        g_part, g_wq = ad.matmul_grad(flat, wq, _merge_heads(g_q))
        g_flat += g_part
        del flat, g_part
        g_x, g_gamma, g_beta = ad.layer_norm_grad(np.reshape(g_flat, (b, t, d)), xhat, inv, gamma)
        # h appears twice: its residual term, then its layer-norm term.
        return (g, g_x, g_gamma, g_beta, g_wq, g_wk, g_wv, g_wo, *grads)

    ad._finish(h_att, rule, *inputs)
    zero_attn = weights[..., 0].copy() if zero_slot else None
    return h_att, zero_attn


# Rows per chunk of the FFN backward's elementwise (B*T, d_ff) work, so a
# chunk's tanh term and `gelu_grad`'s two temporaries live in cache. The forward
# takes its GELU in one pass: two threads' per-chunk calls contend for the GIL.
# The GEMMs stay whole: OpenBLAS takes other kernels for a few rows (under 16
# at d_ff=512), so a row-chunked product is not bitwise the whole one. At 64
# rows the chunk temporaries set the backward's memory peak for small batches.
FFN_CHUNK_ROWS = 32


def gated_ffn(h: Tensor, rec: LayerParameters) -> tuple[Tensor, np.ndarray | None]:
    """Pre-norm FFN with an optional per-token logistic gate on its output.

    A record with a gate affine (`init_parameters` builds one iff
    `use_gate`) updates by FFN(LN(h)) * sigmoid(LN(h) @ gw + gb); one
    without skips the multiply entirely, so an ungated layer is exact.
    Returns (h + update, the gate per (batch, position) or None).

    One tape record covers the block. It saves the layer norm's xhat and inv
    and, with the gate, the gate. The forward finishes the GELU output in
    place over its input from the tanh term, in one pass, in one (B*T, d_ff)
    buffer that dies with the forward. Backward rebuilds the layer norm
    output and, from it, that buffer with the forward's GEMM and bias add,
    turning the upstream gradient into the GELU input's FFN_CHUNK_ROWS rows
    at a time on the way. The GELU and its gradient are elementwise, so the
    chunks' bits are those of one full-array pass. With the gate, backward
    also rebuilds the ungated output from that buffer with the forward's
    GEMM and bias add, for the gate's gradient.
    """
    b, t, d = h.shape
    n = b * t
    inputs = [h, h, rec.ln2_g, rec.ln2_b, rec.w1, rec.b1, rec.w2, rec.b2]
    gated = rec.gate_w is not None
    if gated:
        inputs += [rec.gate_w, rec.gate_b]
    ad._same_dtype(*inputs)
    gamma, beta = rec.ln2_g.data, rec.ln2_b.data
    w1, b1, w2, b2 = rec.w1.data, rec.b1.data, rec.w2.data, rec.b2.data
    gate_w = rec.gate_w.data if gated else None
    chunks = [slice(r, r + FFN_CHUNK_ROWS) for r in range(0, n, FFN_CHUNK_ROWS)]

    def gelu(flat, g_pre=None):
        """GELU(flat @ w1 + b1) written over its input in one fresh (n, d_ff)
        buffer, in one pass; with `g_pre`, chunk by chunk, each chunk of
        `g_pre` first turned in place into the GELU input's gradient."""
        act = np.matmul(flat, w1)
        del flat  # the rule's rebuilt layer norm output dies before the loop
        act += b1  # the bias in place, as in the attention's scores
        for c in (slice(None),) if g_pre is None else chunks:
            x = act[c]
            tanh_term = ad._gelu_tanh(x)
            if g_pre is None:
                tanh_term += 1.0
            else:  # also turns the tanh term t into 1 + t
                ad.gelu_grad(x, tanh_term, g_pre[c], out=g_pre[c])
            x *= tanh_term  # (1 + t) * x * 0.5, `_gelu_parts`' op order
            x *= 0.5
        return act

    y, xhat, inv = ad.layer_norm_parts(h.data, gamma, beta)
    flat = y.reshape(n, d)
    act = gelu(flat)
    out = np.matmul(act, w2)
    del act
    out += b2
    gate = gate_np = None
    if gated:
        gate = ad.sigmoid_np(np.matmul(flat, gate_w) + rec.gate_b.data)
        gate_np = gate.reshape(b, t).copy()
        out *= gate
    del y, flat
    out += h.data.reshape(n, d)  # the residual add in place: h + update, bitwise
    h_f = Tensor(out.reshape(b, t, d))

    def rule(g):
        g_h = np.reshape(g, (n, d))

        def ln_out():
            return np.reshape(ad.layer_norm_affine(xhat, gamma, beta), (n, d))

        def grad_o():  # the ungated output's gradient
            return g_h if gate is None else g_h * gate

        # matmul_grad(act, w2, g_o) split in two around the GELU loop: the
        # upstream gradient first, turned into the GELU input's in place.
        # Only the two (n, d_ff) buffers and the loop's chunk temporaries
        # live through the loop: the layer norm output, g_o and the gate's
        # terms are built before or after it.
        g_o = grad_o()
        g_b2 = ad.bias_grad(g_o)
        g_pre = np.matmul(g_o, w2.T)
        del g_o
        act = gelu(ln_out(), g_pre)
        g_w2 = np.matmul(act.T, grad_o())
        if gate is not None:
            o = np.matmul(act, w2)  # the ungated output, as the forward built it
            o += b2
            o *= g_h  # g_h * o, in place
            g_z = ad.sigmoid_grad(gate, np.sum(o, axis=-1, keepdims=True))
            del o
        del act
        flat = ln_out()
        g_flat, g_w1 = ad.matmul_grad(flat, w1, g_pre)
        grads = []
        if gate is not None:
            g_part, g_gate_w = ad.matmul_grad(flat, gate_w, g_z)
            g_flat += g_part  # two terms: the same bits in either order
            grads = [g_gate_w, ad.bias_grad(g_z)]
            del g_part
        del flat
        g_x, g_gamma, g_beta = ad.layer_norm_grad(np.reshape(g_flat, (b, t, d)), xhat, inv, gamma)
        # h appears twice: its residual term, then its layer-norm term.
        return (g, g_x, g_gamma, g_beta, g_w1, ad.bias_grad(g_pre), g_w2, g_b2, *grads)

    ad._finish(h_f, rule, *inputs)
    return h_f, gate_np


@dataclass
class ForwardResult:
    """exit_logits[-1] is always the full-depth output; earlier entries exist
    only when capture_exits was set and the variant has intermediate cycles.
    zero_attn and gate map each cycle to its cycled applications' means, in
    schedule order: of the slot-0 attention weight over batch, heads and
    queries, and of the FFN gate over batch and positions. Each is {} for a
    variant without zero tokens or gates. adaptive_logits and exit_cycle
    (1-based) exist only when forward was given an exit threshold."""

    exit_logits: list[Tensor]
    zero_attn: dict[int, list[float]]
    gate: dict[int, list[float]]
    adaptive_logits: Tensor | None = None
    exit_cycle: np.ndarray | None = None

    @property
    def logits(self) -> Tensor:
        return self.exit_logits[-1]


def token_ids(ids) -> np.ndarray:
    """`ids` as an array; ShapeError unless its dtype is an integer one."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"token ids must be integers, got {ids.dtype}")
    return ids


def embed(ids: np.ndarray, params: ModelParameters, start: int = 0) -> Tensor:
    """Token plus position embedding of (B, T) ids at positions start..: (B, T, d).

    One tape record covers both. Backward scatter-adds into the token table,
    as `ad.embedding` does, and writes the batch sum into the position rows.
    """
    ids = token_ids(ids)
    tok, pos = params.tok_emb, params.pos_emb
    check_ids_fit(ids, tok.shape[0], "input")
    dtype = ad._same_dtype(tok, pos)
    tok_shape, pos_shape = tok.shape, pos.shape
    b, t = ids.shape
    rows = slice(start, start + t)
    out = Tensor(tok.data[ids] + pos.data[rows])

    def rule(g):
        g_tok = np.zeros(tok_shape, dtype)
        np.add.at(g_tok, ids.reshape(-1), g.reshape(b * t, -1))
        g_pos = np.zeros(pos_shape, dtype)
        g_pos[rows] = g[0] if b == 1 else np.sum(g, axis=0)
        return g_tok, g_pos

    return ad._finish(out, rule, tok, pos)


def _lm_logits(h: Tensor, params: ModelParameters) -> Tensor:
    """Final layer norm, then the (tied or separate) LM head: (B, T, vocab).

    One tape record covers both. It saves the layer norm's xhat and inv;
    backward rebuilds the norm output, and returns the head weight's
    gradient as the transposed view the op chain produced, so the sweep
    accumulates the same bits.
    """
    b, t, d = h.shape
    head = params.head_weight()
    inputs = (h, params.final_g, params.final_b, head)
    ad._same_dtype(*inputs)
    gamma, beta = params.final_g.data, params.final_b.data
    w = head.data.T
    y, xhat, inv = ad.layer_norm_parts(h.data, gamma, beta)
    logits = Tensor(np.matmul(y.reshape(b * t, d), w).reshape(b, t, -1))
    del y

    def rule(g):
        flat = ad.layer_norm_affine(xhat, gamma, beta).reshape(b * t, d)
        g_flat, g_w = ad.matmul_grad(flat, w, g.reshape(b * t, -1))
        del flat
        g_x, g_gamma, g_beta = ad.layer_norm_grad(g_flat.reshape(b, t, d), xhat, inv, gamma)
        return g_x, g_gamma, g_beta, g_w.T

    return ad._finish(logits, rule, *inputs)


# The task queue of the one daemon thread that runs the second half of a
# batch (`run_halves`); the thread starts on first use.
_helper_tasks: queue.SimpleQueue | None = None
_helper_lock = threading.Lock()


def _serve(tasks: queue.SimpleQueue) -> None:
    """The helper's loop: run each (fn, args, reply) task in arrival order and
    put (result, None) or (None, the exception) on its reply queue."""
    while True:
        fn, args, reply = tasks.get()
        try:
            reply.put((fn(*args), None))
        except BaseException as exc:  # re-raised by the caller
            reply.put((None, exc))


def run_halves(fn, first, second) -> tuple:
    """(fn(first), fn(second)) at the same time: the second on the helper
    thread, in a copy of the caller's context (numpy's error state with it).
    Returns, or raises the first half's exception, else the second's, once
    both have finished. `fn` must not hand work to the helper (a deadlock)."""
    global _helper_tasks
    reply = queue.SimpleQueue()
    with _helper_lock:
        if _helper_tasks is None:
            _helper_tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_helper_tasks,), name="cycleformer-walk", daemon=True).start()
        _helper_tasks.put((contextvars.copy_context().run, (fn, second), reply))
    try:
        mine = fn(first)
    finally:
        theirs, exc = reply.get()  # before anything propagates
    if exc is not None:
        raise exc
    return mine, theirs


class _Slot:
    __slots__ = ("k", "v", "filled")

    def __init__(self, rows: int, d: int, dtype):
        self.k = np.zeros((rows, d), dtype=dtype)
        self.v = np.zeros((rows, d), dtype=dtype)
        self.filled = 0


class DecodeCache:
    """Incremental decode's state: per-application K/V buffers, positionally
    indexed (after row 0, the zero token's, where the application has one),
    plus what `_walk` needs to deepen an early-exited position later:
    `h_mid[p]` is position p's hidden state after its last finished cycle
    and `depth[p]` counts its finished cycles (always 0 for V, which has
    none). `n_pos` positions are done; `cycles_used` lists their exits."""

    def __init__(self, params: ModelParameters, config: ModelConfig):
        self.params = params
        self.config = config
        self.schedule = build_schedule(config)
        dtype = params.dtype()
        d, tm = config.d_model, config.t_max
        apps = self.schedule.applications
        self.slots = [_Slot(tm + (app in params.pool), d, dtype) for app in apps]
        self.h_mid = np.zeros((tm, d), dtype=dtype)
        self.depth = np.zeros(tm, dtype=np.int64)
        self.n_pos = 0
        self.cycles_used: list[int] = []

    def rows(self, idx: int, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Application `idx`'s (keys, values) buffers, (1, rows, d), for a
        query at position `start`, whose row is then filled. UsageError
        unless every earlier position's row is."""
        slot = self.slots[idx]
        if slot.filled < start:
            raise UsageError(f"cache prefix incomplete at slot {idx}: {slot.filled} < {start}")
        slot.filled = max(slot.filled, start + 1)
        return slot.k[None], slot.v[None]


def _walk(ids: np.ndarray, params: ModelParameters, config: ModelConfig,
          capture_exits: bool, exit_threshold: float | None, cache: DecodeCache | None = None) -> tuple:
    """The one walk of the schedule, on one thread: `forward`'s over (B, T)
    ids, and with a `cache`, `decode_step`'s over one (1, 1) token at
    position `cache.n_pos`. Returns (each exit's logits, full depth last;
    the gathered logits and exit_at, or None; per cycle, its zero-attention
    and gate arrays).

    With a cache, each application reads and writes its K/V slot at the
    position (`DecodeCache.rows`). Before cycle n the earlier positions are
    deepened to n finished cycles, in position order, by the same
    applications, so every attention read sees a complete prefix; after it
    the position's state and depth are kept. Once the position exits the
    walk stops, and the tail and LM head run once, on the exited state:
    the last logits, with no gathered ones. So a tail slot row is written
    once, at the position's exit, and never revised by later deepening.
    """
    schedule = build_schedule(config) if cache is None else cache.schedule
    pos = 0 if cache is None else cache.n_pos

    def apply(h: Tensor, idx: int, start: int = pos) -> tuple[Tensor, np.ndarray | None, np.ndarray | None]:
        layer, cycle = schedule.applications[idx]
        rec = params.record(layer)
        kv = None if cache is None else cache.rows(idx, start)
        h, zattn = attention_with_zero_token(h, rec, params.pool.get((layer, cycle)), config.n_heads, kv, start)
        h, gate_np = gated_ffn(h, rec)
        return h, zattn, gate_np

    def finish(h: Tensor) -> Tensor:
        for idx in schedule.post:
            h = apply(h, idx)[0]
        return _lm_logits(h, params)

    h = embed(ids, params, start=pos)
    for idx in schedule.pre:
        h = apply(h, idx)[0]
    zero_attn, gate, exits = {}, {}, []
    last = len(schedule.by_cycle)
    h_exit = None
    exit_at = None if exit_threshold is None else np.zeros(ids.shape, dtype=np.int64)  # 0: not exited
    for n, cycle_apps in schedule.by_cycle.items():
        for p in range(pos):  # only with a cache: every earlier position has n-1 cycles or more
            if cache.depth[p] < n:
                h_p = Tensor(cache.h_mid[p][None, None])
                for idx in cycle_apps:
                    h_p = apply(h_p, idx, p)[0]
                cache.h_mid[p], cache.depth[p] = h_p.data[0, 0], n
        for idx in cycle_apps:
            h, zattn, gate_np = apply(h, idx)
            if zattn is not None:
                zero_attn.setdefault(n, []).append(zattn)
            if gate_np is not None:
                gate.setdefault(n, []).append(gate_np)
        if cache is not None:
            cache.h_mid[pos], cache.depth[pos] = h.data[0, 0], n
        if capture_exits and n < last:
            exits.append(finish(h))
        if exit_at is not None:
            exiting = exit_at == 0
            if n < last:
                exiting &= halts([z.mean(axis=1) for z in zero_attn[n]], exit_threshold)
            exit_at[exiting] = n
            if cache is None:
                h_exit = h.data if h_exit is None else np.where(exiting[..., None], h.data, h_exit)
            elif exiting.all():  # the tail runs once, below, on the exited state
                break
    adaptive = None if h_exit is None else finish(Tensor(h_exit))  # before the final tail
    return [*exits, finish(h)], adaptive, exit_at, zero_attn, gate


def forward(
    ids: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    capture_exits: bool = False,
    exit_threshold: float | None = None,
) -> ForwardResult:
    """Run the cycled stack on token ids of shape (T,) or (B, T).

    Walks the schedule's head, then each cycle, then its tail (`_walk`,
    the one walk, which `adaptive.decode_step` runs over its K/V cache),
    keeping the zero-attention and gate means of every application of a
    cycle. With capture_exits, each cycle but the last also feeds a branch
    copy of the stream through the shared tail and the shared final norm +
    LM head; the main stream continues through every remaining cycle
    either way.

    With exit_threshold, a position exits after the first cycle whose
    halting signal (the slot-0 attention weight, averaged over heads, then
    over the cycle's applications) reaches it, else after the last cycle.
    Each position's state at its exit then runs through the tail and LM
    head once more, together: `adaptive_logits` is what incremental decode
    emits for that position, and `exit_cycle` its exit. The gather is not
    recorded, so no gradient reaches the stream through `adaptive_logits`.
    It needs a model whose `supports_adaptive_exit` holds.

    No attention, exit decision or per-cycle mean mixes windows, so an
    untaped forward (`evaluate`, CLI `eval`) of B >= 2 windows hands windows
    B//2.. to one daemon helper thread, started on first use, as one whole
    walk, and takes the per-cycle means from the joined arrays. It returns
    or raises (a helper exception too) only once that half has finished.
    One window and a recording forward (`train` splits its own) walk here.
    Outputs are bitwise the halves' walks, joined: at T=64 also the whole
    batch's walk, but short windows can take other OpenBLAS kernels for the
    halves' fewer GEMM rows (6e-7 off at T=7).
    """
    config.check_exit_threshold(exit_threshold)
    ids = np.asarray(ids)
    squeeze = ids.ndim == 1
    if squeeze:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"expected (T,) or (B, T) token ids, got shape {ids.shape}")
    b, t = ids.shape
    if t < 1 or t > config.t_max:
        raise ShapeError(f"sequence length {t} outside [1, t_max={config.t_max}]")
    args = (params, config, capture_exits, exit_threshold)
    if b < 2 or ad._ACTIVE_TAPE.get() is not None:
        walks = [_walk(ids, *args)]
    else:
        walks = run_halves(lambda part: _walk(part, *args), ids[: b // 2], ids[b // 2 :])

    def join(parts):  # one walk's value as it is, else joined along the batch axis
        if len(parts) == 1 or parts[0] is None:
            return parts[0]
        return Tensor(join([p.data for p in parts])) if isinstance(parts[0], Tensor) else np.concatenate(parts)

    exit_lists, adaptives, exit_ats, zattns, gates = zip(*walks)
    exits = [join(e) for e in zip(*exit_lists)]
    adaptive, exit_at = join(adaptives), join(exit_ats)
    zero_attn, gate = ({n: [float(join(a).mean()) for a in zip(*(m[n] for m in ms))] for n in ms[0]}
                       for ms in (zattns, gates))
    if squeeze:
        exits = [ad.reshape(e, (t, config.vocab)) for e in exits]
        if adaptive is not None:
            adaptive, exit_at = ad.reshape(adaptive, (t, config.vocab)), exit_at[0]
    return ForwardResult(exits, zero_attn, gate, adaptive, exit_at)


# ---------------------------------------------------------------------------
# vanilla-to-cycled retrofit


def init_from_vanilla(
    vanilla: ModelParameters, target_config: ModelConfig, seed: int = 0
) -> ModelParameters:
    """Warm-start a head-tail cycled model from a trained vanilla stack.

    Every tensor name the two share copies verbatim, except the middle
    record, which is the elementwise mean of the vanilla middle layers;
    zero-token keys draw fresh; gates start near-unity (zero weights, +4
    bias) so the warm start behaves like the source stack. Requires an
    aliased middle, i.e. share_middle or L == 3.
    """
    src_cfg = vanilla.config
    if src_cfg.variant != "V":
        raise ConfigError(f"retrofit source must be variant V, got {src_cfg.variant}")
    if target_config.variant not in ("HTC", "ZTT"):
        raise ConfigError(f"retrofit target must be HTC or ZTT, got {target_config.variant}")
    if not (target_config.share_middle or target_config.all_layers == 3):
        raise ConfigError("retrofit needs a single middle record: set share_middle (or L == 3)")
    for f in ("all_layers", "d_model", "n_heads", "d_ff", "vocab", "t_max", "tie_embeddings"):
        if getattr(src_cfg, f) != getattr(target_config, f):
            raise ConfigError(
                f"retrofit mismatch on {f}: {getattr(src_cfg, f)} vs {getattr(target_config, f)}"
            )
    out = init_parameters(target_config, seed=seed, dtype=vanilla.dtype())
    src = vanilla.named()
    middle = target_config.cycled_layers
    mid_key = record_key(target_config, middle[0])
    for name, t in out.named().items():
        key, _, sub = name.partition(".")
        if key != mid_key:
            if name in src:
                t.data[...] = src[name].data
        elif f"layer{middle[0]}.{sub}" in src:
            t.data[...] = np.stack([src[f"layer{i}.{sub}"].data for i in middle]).mean(axis=0)
    if target_config.use_gate:
        for rec in out.records.values():
            rec.gate_w.data[...] = 0.0
            rec.gate_b.data[...] = 4.0
    return out

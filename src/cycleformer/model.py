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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .telemetry import CycleTelemetry

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


class ModelParameters:
    """Registry of every trainable tensor, with layer positions resolved to
    (possibly shared) records and zero-token keys indexed by (layer, cycle)."""

    def __init__(
        self,
        config: ModelConfig,
        tok_emb: Tensor,
        pos_emb: Tensor,
        lm_head: Tensor | None,
        final_g: Tensor,
        final_b: Tensor,
        records: dict[str, LayerParameters],
        pool: dict[tuple[int, int], Tensor],
    ):
        self.config = config
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.lm_head = lm_head
        self.final_g = final_g
        self.final_b = final_b
        self.records = records
        self.pool = pool

    def record_key(self, layer: int) -> str:
        cfg = self.config
        if cfg.share_middle and 2 <= layer <= cfg.all_layers - 1:
            return "layer_mid"
        return f"layer{layer}"

    def record(self, layer: int) -> LayerParameters:
        return self.records[self.record_key(layer)]

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


def _record_keys(config: ModelConfig) -> list[str]:
    if config.share_middle:
        return ["layer1", "layer_mid", f"layer{config.all_layers}"]
    return [f"layer{i}" for i in range(1, config.all_layers + 1)]


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
    for key in _record_keys(config):
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
    """Closed-form parameter budget; must equal the actual array sizes."""
    d, dff, v, tm = config.d_model, config.d_ff, config.vocab, config.t_max
    n_records = 3 if config.share_middle else config.all_layers
    attn = 4 * d * d
    ffn = d * dff + dff + dff * d + d
    norms = 4 * d
    by_group = {
        "embeddings": v * d + tm * d + (0 if config.tie_embeddings else v * d),
        "blocks": n_records * (attn + ffn + norms),
        "gates": n_records * (d + 1) if config.use_gate else 0,
        "zero_token_pool": len(config.cycled_layers) * config.loop_count * d
        if config.use_zero_token
        else 0,
        "final_norm": 2 * d,
    }
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
) -> tuple[Tensor, np.ndarray | None, Tensor]:
    """Pre-norm causal multi-head attention with an optional zero token.

    Keys and values sit in a (keys, values) pair of (B, rows, d) buffers.
    With a zero token, row 0 holds `zkey` as the key (split per head, visible
    to every query) and zeros as the value, and sequence position p is row
    p+1; the zero token emits no query of its own. Without one, position p
    is row p. Returns (H_in + attention output, slot-0 weight per (batch,
    head, query) or None, full attention weights).

    Without `cache` the block allocates buffers of exactly the rows this call
    reads. `cache` passes in buffers with at least that many rows: the
    queries at positions start..start+T-1 write their rows there, and each
    attends over every row up to its own. The backward rule assumes no cache:
    incremental decode runs without a tape.

    One tape record covers the block. It saves the layer norm's xhat and inv,
    the queries, the key and value buffers, and the attention weights;
    backward rebuilds the layer norm output and the head-merged mix.
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
    dtype = ad._same_dtype(*inputs)
    zero_slot = zkey is not None
    z = 1 if zero_slot else 0
    keys = z + start + t  # buffer rows the queries read
    gamma, beta = rec.ln1_g.data, rec.ln1_b.data
    wq, wk, wv, wo = rec.wq.data, rec.wk.data, rec.wv.data, rec.wo.data
    y, xhat, inv = ad.layer_norm_parts(h.data, gamma, beta)
    flat = y.reshape(b * t, d)
    q = _split_heads(np.matmul(flat, wq), b, t, n_heads)
    k_rows, v_rows = cache or (np.empty((b, keys, d), dtype), np.empty((b, keys, d), dtype))
    if zero_slot:
        k_rows[:, 0], v_rows[:, 0] = zkey.data, 0
    k_rows[:, z + start : keys] = np.matmul(flat, wk).reshape(b, t, d)
    v_rows[:, z + start : keys] = np.matmul(flat, wv).reshape(b, t, d)
    del y, flat
    k = _split_heads(k_rows[:, :keys], b, keys, n_heads)
    v = _split_heads(v_rows[:, :keys], b, keys, n_heads)
    scale = float(1.0 / np.sqrt(hd))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores *= dtype.type(scale)  # in place: the bits of the out-of-place form, one buffer fewer
    if t > 1:  # one query sees every row it reads: no mask
        scores += build_causal_mask(t, zero_slot, dtype, start)
    weights = ad.softmax_np(scores, axis=-1)
    del scores
    out = np.matmul(_merge_heads(np.matmul(weights, v)), wo)
    h_att = Tensor(h.data + out.reshape(b, t, d))
    del out

    def rule(g):
        go = np.reshape(g, (b * t, d))
        g_mix, g_wo = ad.matmul_grad(_merge_heads(np.matmul(weights, v)), wo, go)
        g_w, g_v = ad.matmul_grad(weights, v, _split_heads(g_mix, b, t, n_heads))
        del g_mix
        g_scores = ad.softmax_grad(weights, g_w) * scale
        del g_w
        g_q, g_kt = ad.matmul_grad(q, np.transpose(k, (0, 1, 3, 2)), g_scores)
        del g_scores
        g_k = np.transpose(g_kt, (0, 1, 3, 2))
        grads = []
        if zero_slot:
            # The zero slot's key is broadcast over the batch; its value is a
            # constant, so the value gradient's slot 0 is dropped.
            g_z = np.sum(g_k[:, :, 0:1, :], axis=(0,) if b != 1 else (), keepdims=True)
            grads.append(np.reshape(g_z, (d,)))
            g_k, g_v = g_k[:, :, 1:, :], g_v[:, :, 1:, :]
        flat = np.reshape(ad.layer_norm_affine(xhat, gamma, beta), (b * t, d))
        # Accumulate in the order the per-op tape did: v, then k, then q.
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
    return h_att, zero_attn, Tensor(weights)


def gated_ffn(h: Tensor, rec: LayerParameters, use_gate: bool) -> tuple[Tensor, np.ndarray | None]:
    """Pre-norm FFN with an optional per-token logistic gate on its output.

    With use_gate the update is FFN(LN(h)) * sigmoid(LN(h) @ gw + gb); with it
    off the multiply is skipped entirely, so disabling the gate is exact.

    One tape record covers the block. It saves the layer norm's xhat and inv,
    the GELU input and, with the gate, the ungated output and the gate;
    backward rebuilds the layer norm output and the GELU output and tanh term.
    """
    b, t, d = h.shape
    inputs = [h, h, rec.ln2_g, rec.ln2_b, rec.w1, rec.b1, rec.w2, rec.b2]
    if use_gate:
        if rec.gate_w is None:
            raise ShapeError("gating requested but this layer has no gate affine")
        inputs += [rec.gate_w, rec.gate_b]
    ad._same_dtype(*inputs)
    gamma, beta = rec.ln2_g.data, rec.ln2_b.data
    w1, w2 = rec.w1.data, rec.w2.data
    gate_w = rec.gate_w.data if use_gate else None
    y, xhat, inv = ad.layer_norm_parts(h.data, gamma, beta)
    flat = y.reshape(b * t, d)
    pre = np.matmul(flat, w1)  # bias added in place, as in the attention's scores
    pre += rec.b1.data
    o = np.matmul(ad._gelu_parts(pre)[0], w2)
    o += rec.b2.data
    gate = gate_np = None
    if use_gate:
        gate = ad.sigmoid_np(np.matmul(flat, gate_w) + rec.gate_b.data)
        gate_np = gate.reshape(b, t).copy()
    del y, flat
    h_f = Tensor(h.data + (o if gate is None else o * gate).reshape(b, t, d))
    if gate is None:
        o = None  # backward reads the ungated output only for the gate's gradient

    def rule(g):
        g_o = np.reshape(g, (b * t, d))
        flat = np.reshape(ad.layer_norm_affine(xhat, gamma, beta), (b * t, d))
        grads = []
        if gate is not None:
            g_o, g_gate = g_o * gate, np.sum(g_o * o, axis=-1, keepdims=True)
            g_z = ad.sigmoid_grad(gate, g_gate)
            g_flat, g_gate_w = ad.matmul_grad(flat, gate_w, g_z)
            grads = [g_gate_w, ad.bias_grad(g_z)]
        g_b2 = ad.bias_grad(g_o)
        act, tanh_term = ad._gelu_parts(pre)
        g_act, g_w2 = ad.matmul_grad(act, w2, g_o)
        del act, g_o
        g_pre = ad.gelu_grad(pre, tanh_term, g_act)
        del tanh_term, g_act
        g_part, g_w1 = ad.matmul_grad(flat, w1, g_pre)
        # With the gate, its term came first on the per-op tape.
        if gate is not None:
            g_flat += g_part
        else:
            g_flat = g_part
        del flat, g_part
        g_x, g_gamma, g_beta = ad.layer_norm_grad(np.reshape(g_flat, (b, t, d)), xhat, inv, gamma)
        # h appears twice: its residual term, then its layer-norm term.
        return (g, g_x, g_gamma, g_beta, g_w1, ad.bias_grad(g_pre), g_w2, g_b2, *grads)

    ad._finish(h_f, rule, *inputs)
    return h_f, gate_np


@dataclass
class ForwardResult:
    """exit_logits[-1] is always the full-depth output; earlier entries exist
    only when capture_exits was set and the variant has intermediate cycles."""

    exit_logits: list[Tensor]
    telemetry: CycleTelemetry

    @property
    def logits(self) -> Tensor:
        return self.exit_logits[-1]


def _lm_logits(h: Tensor, params: ModelParameters) -> Tensor:
    b, t, d = h.shape
    hn = ad.layer_norm(h, params.final_g, params.final_b)
    w = ad.transpose(params.head_weight(), (1, 0))
    return ad.reshape(ad.matmul(ad.reshape(hn, (b * t, d)), w), (b, t, params.config.vocab))


def forward(
    ids: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    capture_exits: bool = False,
) -> ForwardResult:
    """Run the cycled stack on token ids of shape (T,) or (B, T).

    Walks the schedule's head, then each cycle, then its tail, recording
    telemetry for every application of a cycle. With capture_exits, each
    cycle but the last also feeds a branch copy of the stream through the
    shared tail and the shared final norm + LM head; the main stream
    continues through every remaining cycle either way.
    """
    ids = np.asarray(ids)
    squeeze = ids.ndim == 1
    if squeeze:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"expected (T,) or (B, T) token ids, got shape {ids.shape}")
    b, t = ids.shape
    if t < 1 or t > config.t_max:
        raise ShapeError(f"sequence length {t} outside [1, t_max={config.t_max}]")
    schedule = build_schedule(config)

    tok = ad.embedding(params.tok_emb, ids)
    pos = ad.narrow(params.pos_emb, 0, 0, t)
    h = ad.add(tok, ad.expand(ad.reshape(pos, (1, t, config.d_model)), tok.shape))

    telemetry = CycleTelemetry()
    exits: list[Tensor] = []

    def apply(h: Tensor, idx: int, record: bool = False) -> Tensor:
        layer, cycle = schedule.applications[idx]
        rec = params.record(layer)
        zkey = params.pool.get((layer, cycle))
        h, zattn, _ = attention_with_zero_token(h, rec, zkey, config.n_heads)
        h, gate_np = gated_ffn(h, rec, config.use_gate)
        if record:
            telemetry.add(
                layer,
                cycle,
                float(zattn.mean()) if zattn is not None else None,
                float(gate_np.mean()) if gate_np is not None else None,
                zattn.mean(axis=1) if zattn is not None else None,
            )
        return h

    def finish(h: Tensor) -> Tensor:
        for idx in schedule.post:
            h = apply(h, idx)
        return _lm_logits(h, params)

    for idx in schedule.pre:
        h = apply(h, idx)
    for n, cycle_apps in schedule.by_cycle.items():
        for idx in cycle_apps:
            h = apply(h, idx, record=True)
        if capture_exits and n < len(schedule.by_cycle):
            exits.append(finish(h))
    exits.append(finish(h))
    if squeeze:
        exits = [ad.reshape(e, (t, config.vocab)) for e in exits]
    return ForwardResult(exits, telemetry)


# ---------------------------------------------------------------------------
# vanilla-to-cycled retrofit


def init_from_vanilla(
    vanilla: ModelParameters, target_config: ModelConfig, seed: int = 0
) -> ModelParameters:
    """Warm-start a head-tail cycled model from a trained vanilla stack.

    Head and tail copy verbatim; the shared middle record is the elementwise
    mean of the vanilla middle layers; zero-token keys draw fresh; gates start
    near-unity (zero weights, +4 bias) so the warm start behaves like the
    source stack. Requires an aliased middle, i.e. share_middle or L == 3.
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
    for name in ("tok_emb", "pos_emb", "final_g", "final_b"):
        getattr(out, name).data[...] = getattr(vanilla, name).data
    if vanilla.lm_head is not None:
        out.lm_head.data[...] = vanilla.lm_head.data
    l = target_config.all_layers
    copies = {"layer1": vanilla.records["layer1"], f"layer{l}": vanilla.records[f"layer{l}"]}
    for key, src in copies.items():
        dst = out.records[key]
        for sub, t in src.tensors().items():
            dst.tensors()[sub].data[...] = t.data
    mid_key = "layer_mid" if target_config.share_middle else "layer2"
    dst_mid = out.records[mid_key]
    src_mids = [vanilla.records[f"layer{i}"] for i in range(2, l)]
    for sub in src_mids[0].tensors():
        stacked = np.stack([rec.tensors()[sub].data for rec in src_mids])
        dst_mid.tensors()[sub].data[...] = stacked.mean(axis=0)
    if target_config.use_gate:
        for rec in out.records.values():
            rec.gate_w.data[...] = 0.0
            rec.gate_b.data[...] = 4.0
    return out

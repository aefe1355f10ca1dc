"""The embedding, the attention and FFN blocks and the LM head as chains of
the standalone tape ops.

`model.embed`, `model.attention_with_zero_token`, `model.gated_ffn` and
`model._lm_logits` each record one fused tape entry. These are the same
computations built op by op, one tape record per primitive, with the same
arguments and return values: the reference the fused records must match
bitwise, outputs and gradients alike.
"""
import numpy as np

import cycleformer.autodiff as ad
from cycleformer.model import build_causal_mask


def reference_embed(ids, params, start=0):
    t = np.shape(ids)[1]
    tok = ad.embedding(params.tok_emb, ids)
    pos = ad.narrow(params.pos_emb, 0, start, t)
    return ad.add(tok, ad.expand(ad.reshape(pos, (1, t, params.config.d_model)), tok.shape))


def reference_attention_weights(h, rec, zkey, n_heads):
    """`reference_attention`'s output with the attention weights it mixed
    by, (B, heads, T, keys) with key 0 the zero slot if any, as a Tensor."""
    b, t, d = h.shape
    hd = d // n_heads
    x = ad.layer_norm(h, rec.ln1_g, rec.ln1_b)
    flat = ad.reshape(x, (b * t, d))

    def heads(m):
        return ad.transpose(ad.reshape(m, (b, t, n_heads, hd)), (0, 2, 1, 3))

    q = heads(ad.matmul(flat, rec.wq))
    k = heads(ad.matmul(flat, rec.wk))
    v = heads(ad.matmul(flat, rec.wv))
    if zkey is not None:
        zk = ad.expand(ad.reshape(zkey, (1, n_heads, 1, hd)), (b, n_heads, 1, hd))
        k = ad.concat([zk, k], axis=2)
        zv = ad.constant(np.zeros((b, n_heads, 1, hd)), dtype=h.dtype)
        v = ad.concat([zv, v], axis=2)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    causal_mask = build_causal_mask(t, zkey is not None, dtype=h.dtype)
    weights = ad.softmax(ad.add_const(scores, causal_mask), axis=-1)
    mix = ad.matmul(weights, v)
    mix = ad.reshape(ad.transpose(mix, (0, 2, 1, 3)), (b * t, d))
    out = ad.reshape(ad.matmul(mix, rec.wo), (b, t, d))
    return ad.add(h, out), weights


def reference_attention(h, rec, zkey, n_heads, cache=None, start=0):
    assert cache is None and start == 0, "the reference has no decode cache path"
    h_att, weights = reference_attention_weights(h, rec, zkey, n_heads)
    zero_attn = weights.data[..., 0].copy() if zkey is not None else None
    return h_att, zero_attn


def reference_ffn(h, rec):
    b, t, d = h.shape
    x = ad.layer_norm(h, rec.ln2_g, rec.ln2_b)
    flat = ad.reshape(x, (b * t, d))
    a = ad.gelu(ad.add_bias(ad.matmul(flat, rec.w1), rec.b1))
    o = ad.add_bias(ad.matmul(a, rec.w2), rec.b2)
    gate_np = None
    if rec.gate_w is not None:
        g = ad.sigmoid(ad.add_bias(ad.matmul(flat, rec.gate_w), rec.gate_b))
        o = ad.scale_rows(o, g)
        gate_np = g.data.reshape(b, t).copy()
    h_f = ad.add(h, ad.reshape(o, (b, t, d)))
    return h_f, gate_np


def reference_lm_logits(h, params):
    b, t, d = h.shape
    hn = ad.layer_norm(h, params.final_g, params.final_b)
    w = ad.transpose(params.head_weight(), (1, 0))
    return ad.reshape(ad.matmul(ad.reshape(hn, (b * t, d)), w), (b, t, params.config.vocab))


def use_reference_blocks(monkeypatch):
    """Make `model.forward` run the op-by-op embedding, blocks and LM head for
    the rest of a test."""
    import cycleformer.model as model

    monkeypatch.setattr(model, "embed", reference_embed)
    monkeypatch.setattr(model, "attention_with_zero_token", reference_attention)
    monkeypatch.setattr(model, "gated_ffn", reference_ffn)
    monkeypatch.setattr(model, "_lm_logits", reference_lm_logits)

"""AdamW with decoupled weight decay and bias-corrected moments."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class AdamW:
    """Holds first/second moments per parameter name; one `t` for the whole group.

    Decay is decoupled: w <- w - lr * wd * w, applied before the moment update
    term, so a zero-gradient step still shrinks the weight by exactly lr*wd*w.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = dict(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        # Moments in float64 regardless of the parameter dtype: cheap at this
        # scale and keeps resumed trajectories bitwise equal to uninterrupted ones.
        self.m = {k: np.zeros(p.data.shape, dtype=np.float64) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.data.shape, dtype=np.float64) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        """Apply one update from the grads currently stored on the parameters."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            g = g.astype(np.float64, copy=False)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            mhat = m / bc1
            vhat = v / bc2
            w = p.data.astype(np.float64, copy=False)
            w = w - lr * self.weight_decay * w - lr * mhat / (np.sqrt(vhat) + self.eps)
            p.data = w.astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- resume support: moments travel inside checkpoints as named tensors --

    def state_tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"optim.t": np.asarray(float(self.t), dtype=np.float64)}
        for name in sorted(self.params):
            out[f"optim.m.{name}"] = self.m[name]
            out[f"optim.v.{name}"] = self.v[name]
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Adopt `state_tensors` output; `checkpoint.load_model` has checked it."""
        self.t = int(tensors["optim.t"])
        for name in self.params:
            self.m[name] = tensors[f"optim.m.{name}"].astype(np.float64)
            self.v[name] = tensors[f"optim.v.{name}"].astype(np.float64)

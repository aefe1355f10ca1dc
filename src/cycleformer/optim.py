"""AdamW with decoupled weight decay and bias-corrected moments."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class AdamW:
    """Holds first/second moments per parameter name; one `t` for the whole group.

    Decay is decoupled: w <- w - lr * wd * w, applied before the moment update
    term, so a zero-gradient step still shrinks the weight by exactly lr*wd*w.
    The moments have their parameter's dtype, and `step` updates the weights
    and moments in place.
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
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr: float) -> None:
        """Apply one update from the grads currently stored on the parameters.

        Each parameter's update is built in one fresh scratch array, made
        with `out=` because `g - m` of 0-d arrays is a scalar, not an array.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            w, m, v = p.data, self.m[name], self.v[name]
            g = p.grad
            if g is None:
                g = np.zeros_like(w)
            s = np.subtract(g, m, out=np.empty_like(w))
            s *= 1.0 - b1
            m += s
            np.multiply(g, g, out=s)
            s -= v
            s *= 1.0 - b2
            v += s
            # s <- lr * mhat / (sqrt(vhat) + eps)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= lr / bc1
            w *= 1.0 - lr * self.weight_decay
            w -= s

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
        """Adopt `state_tensors` output, cast to each parameter's dtype (older
        checkpoints carry float64 moments); `checkpoint.load_model` has
        checked it. The moments are copies: `step` updates them in place."""
        self.t = int(tensors["optim.t"])
        for name, p in self.params.items():
            self.m[name] = tensors[f"optim.m.{name}"].astype(p.data.dtype)
            self.v[name] = tensors[f"optim.v.{name}"].astype(p.data.dtype)

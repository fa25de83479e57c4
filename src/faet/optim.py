"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autograd import Value


class Adam:
    """Bias-corrected Adam over a named parameter dict.

    Defaults: beta1=0.9, beta2=0.999, epsilon=1e-8; the learning rate is the
    caller's (training uses 5e-4 unless configured otherwise).
    """

    def __init__(self, params: dict[str, Value], lr: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        """Apply one in-place update from the accumulated gradients."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad  # exact zeros where no gradient reached `p`
            if g.shape != p.data.shape:
                raise ValueError(
                    f"adam: gradient shape {g.shape} != parameter shape "
                    f"{p.data.shape} for {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            scratch = np.asarray(g * g)  # 0-d products decay to scalars
            scratch *= 1.0 - self.beta2
            v += scratch
            # bias-corrected update folded into the scratch buffer
            np.sqrt(v, out=scratch)
            scratch /= np.sqrt(bc2)
            scratch += self.epsilon
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bc1
            p.data -= scratch

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autograd import Value


# `Adam.step` updates each parameter this many elements at a time, so a
# block's parameter, moments, gradient and scratch values (5 x 256 KiB)
# stay in cache across the update's passes instead of streaming every
# full array through memory once per pass.
BLOCK = 2 ** 15
# moment decay rates and denominator offset (Kingma & Ba 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter dict at learning rate
    `lr`, with `BETA1`, `BETA2` and `EPSILON`."""

    def __init__(self, params: dict[str, Value], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}
        size = max((p.data.size for p in params.values()), default=0)
        self._scratch = np.empty(min(size, BLOCK))

    def step(self) -> None:
        """Apply one in-place update from the accumulated gradients.

        Each parameter is updated in blocks of `BLOCK` consecutive
        elements, every block with the same element-wise sequence, so the
        result is bitwise that of one whole-array pass."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad  # exact zeros where no gradient reached `p`
            if g.shape != p.data.shape:
                raise ValueError(
                    f"adam: gradient shape {g.shape} != parameter shape "
                    f"{p.data.shape} for {name!r}")
            if not p.data.flags.c_contiguous:  # the blocks are flat views
                p.data = np.ascontiguousarray(p.data)
            flat = p.data.reshape(-1)
            g = g.reshape(-1)
            m_flat = self.m[name].reshape(-1)
            v_flat = self.v[name].reshape(-1)
            for lo in range(0, flat.size, BLOCK):
                hi = min(lo + BLOCK, flat.size)
                m, v = m_flat[lo:hi], v_flat[lo:hi]
                scratch = self._scratch[:hi - lo]
                np.multiply(g[lo:hi], 1.0 - BETA1, out=scratch)
                m *= BETA1
                m += scratch
                v *= BETA2
                np.multiply(g[lo:hi], g[lo:hi], out=scratch)
                scratch *= 1.0 - BETA2
                v += scratch
                # bias-corrected update folded into the scratch buffer
                np.sqrt(v, out=scratch)
                scratch /= np.sqrt(bc2)
                scratch += EPSILON
                np.divide(m, scratch, out=scratch)
                scratch *= self.lr / bc1
                flat[lo:hi] -= scratch

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

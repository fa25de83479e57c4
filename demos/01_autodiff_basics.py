"""A tour of the autodiff core: graphs, gradients, and Adam.

Every layer in this package is built from the same small set of
differentiable array operations.  This script builds a few graphs by hand,
checks the analytic gradients against central finite differences, and lets
Adam walk a toy quadratic downhill.
"""

import numpy as np

from faet import Adam, autograd as ag

# --- a scalar graph: loss = tanh(x * y) + x * x --------------------------
x = ag.param(0.7)
y = ag.param(-1.3)
loss = ag.add(ag.tanh(ag.mul(x, y)), ag.mul(x, x))
loss.backward()
print("loss                :", float(loss.data))
print("d loss / d x        :", float(x.grad))
print("d loss / d y        :", float(y.grad))

# the same derivative, measured numerically
h = 1e-6
x.data += h
up = float(ag.tanh(ag.mul(x, y)).data) + float(ag.mul(x, x).data)
x.data -= 2 * h
down = float(ag.tanh(ag.mul(x, y)).data) + float(ag.mul(x, x).data)
x.data += h
print("central difference  :", (up - down) / (2 * h))

# --- the built-in checker samples every parameter group -----------------
w = ag.param(np.array([[0.2, -0.4], [0.1, 0.3]]))
b = ag.param(np.zeros(2))


def network_loss():
    out = ag.tanh(ag.add(ag.matmul(ag.constant([1.0, -2.0]), w), b))
    return ag.matmul(out, out)  # a vector's dot with itself: sum of squares


report = ag.finite_difference_check(network_loss, {"w": w, "b": b},
                                    samples_per_group=8)
print("\nfinite-difference report:", {k: f"{v:.2e}" for k, v in report.items()})

# --- Adam on f(p) = sum((p - 3)^2) ---------------------------------------
p = ag.param(np.zeros(4))
opt = Adam({"p": p}, lr=0.2)
for step in range(120):
    opt.zero_grad()
    diff = ag.add(p, ag.constant(np.full(4, -3.0)))
    ag.matmul(diff, diff).backward()
    opt.step()
print("\nAdam pulled p to    :", np.round(p.data, 4), "(target 3.0)")

"""A walk through the fake-quantization primitives.

Three stops. First the forward maps themselves: the k-bit weight quantizer
squashes through tanh, normalizes by the tensor-wide maximum, and snaps to
a uniform lattice in [-1, 1]; the 1-bit quantizer is a different animal
entirely (sign times the mean magnitude); activations clamp to [0, 1] and
snap. Second, the straight-through gradients that make the round usable
inside backprop. Third, how the pooled quantization error responds to bit
depth on a realistic weight population.

Run as: python demos/quantizer_tour.py
"""

import numpy as np

from bitcycle.quantize import (
    apply_quantizer,
    fq_activations,
    fq_weights,
    weight_spec,
)
from bitcycle.tensor import Tensor


def show_forward_maps():
    w = np.array([-1.8, -0.6, -0.05, 0.0, 0.3, 0.9, 2.5])
    print("weights in: ", np.array2string(w, precision=3))
    for k in (1, 2, 4):
        q = apply_quantizer(w, weight_spec(k))
        print(f"  k={k}:      ", np.array2string(q, precision=3))
    print("note the k=1 row: two values only, +-mean|w|, sign(0) counts as +\n")

    x = np.array([-0.4, 0.0, 0.24, 0.5, 0.76, 1.0, 1.7])
    print("activations in:", np.array2string(x, precision=3))
    for k in (1, 2, 3):
        t = Tensor(x)
        q = fq_activations(t, k).data
        print(f"  k={k}:        ", np.array2string(q, precision=3))
    print("everything outside [0, 1] saturates before snapping\n")


def show_ste():
    x = np.linspace(-2.0, 2.0, 9)
    t = Tensor(x, requires_grad=True)
    fq_weights(t, 1).backward(np.ones_like(x))
    print("sign-quantizer STE: upstream ones, x =", np.array2string(x, precision=2))
    print("  grad =", np.array2string(t.grad, precision=2))
    print("the gradient window is |x| <= 1, endpoints included\n")


def show_error_profile():
    rng = np.random.default_rng(42)
    w = rng.normal(0.0, 0.4, size=20_000)
    print("mean |w - q_k(w)| on 20k gaussian weights:")
    for k in (1, 2, 3, 4, 6, 8):
        wq = apply_quantizer(w, weight_spec(k))
        err = np.abs(w - wq)
        print(f"  k={k}: mean_abs={err.mean():.5f}  max_abs={err.max():.5f}"
              f"  levels={len(np.unique(wq))}")
    print("within the lattice family (k >= 2) more bits means less error;")
    print("the 1-bit quantizer lives on its own scale and is not comparable")


if __name__ == "__main__":
    show_forward_maps()
    show_ste()
    show_error_profile()

"""bitcycle: quantization-aware training for low-bit CNNs on a numpy autodiff core.

The package trains fake-quantized residual networks with straight-through
gradients and a cyclic bit-depth schedule: knowledge is first handed down
one bit at a time from a high-precision model, then alternated between the
target depth and one bit above it, and finally consolidated at the target
depth. Everything runs on CPU with numpy as the only dependency.
"""

__version__ = "0.1.0"

"""Plain gradient descent and ADAM, plus the per-phase poly learning-rate policy.

Each training phase owns a fresh optimizer: moments start at zero and the
learning rate restarts from its base value, decaying to zero across the
phase's epoch budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr_base: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be sgd or adam, got {self.kind!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.lr_base <= 0.0:
            raise ValueError("lr_base must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass
class LrSchedule:
    policy: str = "poly"
    total_epochs: int = 1

    def __post_init__(self):
        if self.policy not in ("poly", "constant"):
            raise ValueError(f"lr policy must be poly or constant, got {self.policy!r}")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")


def lr_at(schedule: LrSchedule, epoch: int, lr_base: float) -> float:
    """Learning rate for a given epoch of the phase; poly decays linearly to zero."""
    if not 0 <= epoch <= schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs}]")
    if schedule.policy == "constant":
        return lr_base
    return lr_base * (1.0 - epoch / schedule.total_epochs)


def _grad(name: str, p: Tensor, weight_decay: float) -> np.ndarray:
    if p.grad is None:
        raise ValueError(f"missing gradient for trainable parameter {name!r}")
    if weight_decay:
        return p.grad + weight_decay * p.data
    return p.grad


class Sgd:
    """w <- w - lr * grad, the baseline update."""

    def __init__(self, params: list[tuple[str, Tensor]], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.step_count = 0

    def step(self, lr: float) -> None:
        for name, p in self.params:
            p.data -= lr * _grad(name, p, self.cfg.weight_decay)
        self.step_count += 1

    def state_tensors(self) -> dict[str, np.ndarray]:
        return {}


class Adam:
    """Bias-corrected ADAM. Weight decay, when set, enters as an L2 gradient term."""

    def __init__(self, params: list[tuple[str, Tensor]], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        for name, p in self.params:
            g = _grad(name, p, cfg.weight_decay)
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * np.square(g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """The live moment arrays by checkpoint name; resume copies into them."""
        out = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out


def make_optimizer(params: list[tuple[str, Tensor]], cfg: OptimizerConfig):
    return Sgd(params, cfg) if cfg.kind == "sgd" else Adam(params, cfg)

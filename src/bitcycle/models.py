"""Quantized residual networks.

The topology is the classic 18-layer residual stack: a stem convolution,
four stages of two-conv basic blocks with identity shortcuts, 1x1 stride-2
downsampling at stage transitions, global average pooling, and a final
affine classifier. Fake quantization wraps block convolution weights and
the activations entering them; the stem convolution and the classifier
always stay real-valued, as does the input of the very first block
convolution.

Two block kinds exist and share one parameter layout: ``type1`` quantizes
the downsampling path at the model's bit depth, ``type2`` keeps the whole
downsampling path (weights and input activations) real-valued. Bit depth
32 disables quantization everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .quantize import fq_activations, fq_weights
from .tensor import Tensor

BLOCK_KINDS = ("type1", "type2")
STEMS = ("cifar", "imagenet")


@dataclass
class ModelConfig:
    block_kind: str = "type2"
    stage_channels: tuple[int, ...] = (64, 128, 256, 512)
    blocks_per_stage: tuple[int, ...] = (2, 2, 2, 2)
    num_classes: int = 10
    stem: str = "cifar"
    bit_depth: int = 32
    in_channels: int = 3

    def __post_init__(self):
        self.stage_channels = tuple(int(c) for c in self.stage_channels)
        self.blocks_per_stage = tuple(int(b) for b in self.blocks_per_stage)
        if self.block_kind not in BLOCK_KINDS:
            raise ValueError(f"block_kind must be one of {BLOCK_KINDS}, got {self.block_kind!r}")
        if self.stem not in STEMS:
            raise ValueError(f"stem must be one of {STEMS}, got {self.stem!r}")
        if len(self.stage_channels) != len(self.blocks_per_stage) or not self.stage_channels:
            raise ValueError(
                f"inconsistent stage lists: {len(self.stage_channels)} channel entries vs "
                f"{len(self.blocks_per_stage)} block counts"
            )
        if any(c < 1 for c in self.stage_channels) or any(b < 1 for b in self.blocks_per_stage):
            raise ValueError("stage channels and block counts must be positive")
        if not 1 <= self.bit_depth <= 32:
            raise ValueError(f"bit_depth must be in [1, 32], got {self.bit_depth}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")


def desk_config(bit_depth: int = 32, block_kind: str = "type2", num_classes: int = 10,
                in_channels: int = 3) -> ModelConfig:
    """Quarter-width model for desk-scale runs: stages (16, 32, 64, 128)."""
    return ModelConfig(
        block_kind=block_kind,
        stage_channels=(16, 32, 64, 128),
        blocks_per_stage=(2, 2, 2, 2),
        num_classes=num_classes,
        stem="cifar",
        bit_depth=bit_depth,
        in_channels=in_channels,
    )


class QuantResNet:
    """A parameterized forward function plus its named parameter map.

    Parameter names are a pure function of the architecture (never of the
    bit depth or block kind), which is what makes weight hand-off between
    models at different bit depths well-defined. BN running statistics
    live in the same map with ``requires_grad=False``.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self._quantized_weights: set[str] = set()
        self._blocks: list[tuple[str, int, bool]] = []  # (prefix, stride, has_down)
        self._build(rng if rng is not None else np.random.default_rng(0))

    # ------------------------------------------------------------------
    # construction

    def _add_param(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        self.params[name] = Tensor(value.astype(np.float32), requires_grad=trainable)

    def _add_conv(self, name: str, rng, out_ch: int, in_ch: int, kernel: int, quantized: bool) -> None:
        fan_in = in_ch * kernel * kernel
        std = np.sqrt(2.0 / fan_in)
        self._add_param(f"{name}.weight", rng.normal(0.0, std, size=(out_ch, in_ch, kernel, kernel)))
        if quantized:
            self._quantized_weights.add(f"{name}.weight")

    def _add_bn(self, name: str, channels: int) -> None:
        self._add_param(f"{name}.gamma", np.ones(channels))
        self._add_param(f"{name}.beta", np.zeros(channels))
        self._add_param(f"{name}.running_mean", np.zeros(channels), trainable=False)
        self._add_param(f"{name}.running_var", np.ones(channels), trainable=False)

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        stem_kernel = 3 if cfg.stem == "cifar" else 7
        self._add_conv("conv1", rng, cfg.stage_channels[0], cfg.in_channels, stem_kernel, quantized=False)
        self._add_bn("bn1", cfg.stage_channels[0])

        quantize_down = cfg.block_kind == "type1"
        in_ch = cfg.stage_channels[0]
        for s, (out_ch, nblocks) in enumerate(zip(cfg.stage_channels, cfg.blocks_per_stage)):
            for b in range(nblocks):
                prefix = f"stage{s}.block{b}"
                stride = 2 if (s > 0 and b == 0) else 1
                has_down = stride != 1 or in_ch != out_ch
                self._blocks.append((prefix, stride, has_down))
                self._add_conv(f"{prefix}.conv1", rng, out_ch, in_ch, 3, quantized=True)
                self._add_bn(f"{prefix}.bn1", out_ch)
                self._add_conv(f"{prefix}.conv2", rng, out_ch, out_ch, 3, quantized=True)
                self._add_bn(f"{prefix}.bn2", out_ch)
                if has_down:
                    self._add_conv(f"{prefix}.down.conv", rng, out_ch, in_ch, 1, quantized=quantize_down)
                    self._add_bn(f"{prefix}.down.bn", out_ch)
                in_ch = out_ch

        fc_in = cfg.stage_channels[-1]
        self._add_param("fc.weight", rng.normal(0.0, np.sqrt(2.0 / fc_in), size=(fc_in, cfg.num_classes)))
        self._add_param("fc.bias", np.zeros(cfg.num_classes))

    # ------------------------------------------------------------------
    # introspection

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.params.items() if p.requires_grad]

    def quantized_weight_names(self) -> set[str]:
        """Weight tensors that pass through a quantization node in forward."""
        if self.cfg.bit_depth == 32:
            return set()
        return set(self._quantized_weights)

    def zero_grad(self) -> None:
        for _, p in self.params.items():
            p.grad = None

    # ------------------------------------------------------------------
    # forward

    def _bn(self, x: Tensor, name: str, training: bool) -> Tensor:
        p = self.params
        return nn.batch_norm(
            x, p[f"{name}.gamma"], p[f"{name}.beta"],
            p[f"{name}.running_mean"], p[f"{name}.running_var"], training,
        )

    def _qw(self, name: str, k: int) -> Tensor:
        w = self.params[name]
        if k < 32 and name in self._quantized_weights:
            return fq_weights(w, k)
        return w

    def forward(self, x: Tensor, training: bool = False, quant: bool | None = None) -> Tensor:
        """Map an image batch to class logits.

        Quantization nodes are inserted exactly when the bit depth is below
        32; ``quant=False`` removes them outright (the reference graph for
        the k=32 identity contract).
        """
        cfg = self.cfg
        k = 32 if quant is False else cfg.bit_depth
        p = self.params
        if cfg.stem == "cifar":
            h = nn.conv2d(x, p["conv1.weight"], stride=1, padding=1)
            h = self._bn(h, "bn1", training)
        else:
            h = nn.conv2d(x, p["conv1.weight"], stride=2, padding=3)
            h = self._bn(h, "bn1", training)
            h = nn.max_pool2d(h, 3, stride=2, padding=1)

        for i, (prefix, stride, has_down) in enumerate(self._blocks):
            h = self._block(h, prefix, stride, has_down, training, k, quantize_input=i > 0)

        n, c, hh, ww = h.shape
        if hh != ww:
            raise ValueError(f"global pooling expects square feature maps, got {h.shape}")
        pooled = nn.avg_pool2d(h, hh)
        flat = pooled.reshape(n, c)
        return nn.linear(flat, p["fc.weight"], p["fc.bias"])

    def _block(self, x: Tensor, prefix: str, stride: int, has_down: bool, training: bool,
               k: int, quantize_input: bool) -> Tensor:
        def qa(t: Tensor) -> Tensor:
            return fq_activations(t, k) if k < 32 else t

        h_in = qa(x) if quantize_input else x
        h = nn.conv2d(h_in, self._qw(f"{prefix}.conv1.weight", k), stride=stride, padding=1)
        h = self._bn(h, f"{prefix}.bn1", training)
        h = nn.conv2d(qa(h), self._qw(f"{prefix}.conv2.weight", k), stride=1, padding=1)
        h = self._bn(h, f"{prefix}.bn2", training)
        if not has_down:
            return h + x
        # type1 quantizes the downsample weight and reads the block's
        # (quantized) input; type2 keeps both real
        down_in = h_in if self.cfg.block_kind == "type1" else x
        sc = nn.conv2d(down_in, self._qw(f"{prefix}.down.conv.weight", k), stride=stride)
        return h + self._bn(sc, f"{prefix}.down.bn", training)


def build_model(cfg: ModelConfig, rng: np.random.Generator | None = None) -> QuantResNet:
    return QuantResNet(cfg, rng)


def _array(v: Tensor | np.ndarray) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else v


def transfer_weights(source: dict[str, Tensor | np.ndarray],
                     target: dict[str, Tensor | np.ndarray]) -> None:
    """Copy every tensor from source into target, bit-exactly and in place.

    This is the one path that loads tensors: the hand-off between bit
    depths, resume (weights and optimizer state), warm start and
    checkpoint evaluation all go through it. Values on either side may be
    Tensors or bare arrays. Running statistics ride along with the
    weights. Name sets and shapes must agree; mismatches raise with the
    full symmetric difference.
    """
    src_names, dst_names = set(source), set(target)
    if src_names != dst_names:
        only_src = sorted(src_names - dst_names)
        only_dst = sorted(dst_names - src_names)
        raise ValueError(
            f"parameter name sets differ; only in source: {only_src}; only in target: {only_dst}"
        )
    pairs = {n: (_array(v), _array(target[n])) for n, v in source.items()}
    bad_shapes = [(n, src.shape, dst.shape) for n, (src, dst) in pairs.items() if src.shape != dst.shape]
    if bad_shapes:
        raise ValueError(f"parameter shapes differ (name, source, target): {bad_shapes}")
    for src, dst in pairs.values():
        np.copyto(dst, src, casting="same_kind")

"""Model zoo: topology, quantization placement, weight hand-off."""

import numpy as np
import pytest

import bitcycle.models as models
from bitcycle.models import ModelConfig, QuantResNet, build_model, desk_config, transfer_weights
from bitcycle.tensor import Tensor, no_grad


def tiny_config(bit_depth=32, block_kind="type2"):
    """Two stages, one block each: enough to exercise downsampling cheaply."""
    return ModelConfig(
        block_kind=block_kind,
        stage_channels=(8, 16),
        blocks_per_stage=(1, 1),
        num_classes=4,
        stem="cifar",
        bit_depth=bit_depth,
    )


def rand_images(n=2, c=3, hw=16, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n, c, hw, hw)).astype(np.float32))


class TestTopology:
    def test_default_imagenet_layout(self):
        cfg = ModelConfig(stem="imagenet", num_classes=1000)
        model = build_model(cfg)
        block_convs = [n for n in model.params if ".conv1.weight" in n and n.startswith("stage")]
        down_convs = [n for n in model.params if ".down.conv.weight" in n]
        assert len(block_convs) == 8
        assert len(down_convs) == 3
        with no_grad():
            logits = model.forward(rand_images(1, 3, 224), training=False)
        assert logits.shape == (1, 1000)

    def test_cifar_stem_logits_shape(self):
        model = build_model(desk_config(num_classes=10))
        with no_grad():
            logits = model.forward(rand_images(4, 3, 32), training=False)
        assert logits.shape == (4, 10)

    def test_inconsistent_stage_lists(self):
        with pytest.raises(ValueError, match="inconsistent stage lists"):
            ModelConfig(stage_channels=(8, 16), blocks_per_stage=(1, 1, 1))

    def test_bad_bit_depth(self):
        with pytest.raises(ValueError, match="bit_depth"):
            ModelConfig(bit_depth=0)

    def test_square_feature_maps_required(self):
        model = build_model(tiny_config())
        with pytest.raises(ValueError, match="square"):
            with no_grad():
                model.forward(Tensor(np.zeros((1, 3, 16, 12), dtype=np.float32)))


class TestParameterNames:
    def test_stable_across_bit_depths(self):
        names = {k: set(build_model(tiny_config(bit_depth=k)).params) for k in (1, 2, 3, 8, 32)}
        base = names[32]
        for k, s in names.items():
            assert s == base, f"name set changed at k={k}"

    def test_stable_across_block_kinds(self):
        n1 = set(build_model(tiny_config(block_kind="type1")).params)
        n2 = set(build_model(tiny_config(block_kind="type2")).params)
        assert n1 == n2

    def test_shapes_stable_across_bit_depths(self):
        a = build_model(tiny_config(bit_depth=1)).params
        b = build_model(tiny_config(bit_depth=8)).params
        assert {n: p.shape for n, p in a.items()} == {n: p.shape for n, p in b.items()}


class TestRealValuedPolicy:
    def test_stem_and_classifier_never_quantized(self):
        for kind in ("type1", "type2"):
            for k in (1, 2, 8):
                model = build_model(tiny_config(bit_depth=k, block_kind=kind))
                q = model.quantized_weight_names()
                assert "conv1.weight" not in q
                assert "fc.weight" not in q
                assert "fc.bias" not in q
                assert q, "block convolutions should be quantized below 32 bits"

    def test_k32_has_no_quantized_weights(self):
        assert build_model(tiny_config(bit_depth=32)).quantized_weight_names() == set()

    def test_type1_quantizes_downsample_type2_does_not(self):
        q1 = build_model(tiny_config(bit_depth=2, block_kind="type1")).quantized_weight_names()
        q2 = build_model(tiny_config(bit_depth=2, block_kind="type2")).quantized_weight_names()
        down = {n for n in q1 if ".down.conv" in n}
        assert down, "type1 should quantize the downsampling convolution"
        assert not any(".down.conv" in n for n in q2)
        assert q1 - down == q2 - {n for n in q2 if ".down.conv" in n}

    def test_k32_model_equals_quantization_free_graph(self):
        model = build_model(tiny_config(bit_depth=32))
        x = rand_images(3, 3, 16, seed=5)
        with no_grad():
            with_nodes = model.forward(x, training=False, quant=True)
            without = model.forward(x, training=False, quant=False)
        np.testing.assert_array_equal(with_nodes.data, without.data)

    def test_block_kinds_match_at_k32(self):
        m1 = build_model(tiny_config(bit_depth=32, block_kind="type1"), np.random.default_rng(3))
        m2 = build_model(tiny_config(bit_depth=32, block_kind="type2"), np.random.default_rng(3))
        x = rand_images(2, 3, 16, seed=6)
        with no_grad():
            y1 = m1.forward(x)
            y2 = m2.forward(x)
        np.testing.assert_array_equal(y1.data, y2.data)


class TestBlockBehaviour:
    def test_zeroed_convs_reduce_block_to_shortcut(self):
        model = build_model(tiny_config(bit_depth=32))
        prefix = "stage0.block0"
        model.params[f"{prefix}.conv1.weight"].data[...] = 0.0
        model.params[f"{prefix}.conv2.weight"].data[...] = 0.0
        x = rand_images(2, 8, 8, seed=7)
        with no_grad():
            out = model._block(x, prefix, stride=1, has_down=False, training=False,
                               k=32, quantize_input=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_type2_downsample_sees_raw_activations(self, monkeypatch):
        """At k=1 the main-path convs consume lattice inputs; the type2
        downsample consumes the raw real-valued tensor."""
        model = build_model(tiny_config(bit_depth=1, block_kind="type2"))
        seen = []
        real_conv = models.nn.conv2d

        def recorder(x, w, stride=1, padding=0):
            seen.append(x.data)
            return real_conv(x, w, stride=stride, padding=padding)

        monkeypatch.setattr(models.nn, "conv2d", recorder)
        x = rand_images(2, 8, 8, seed=8)
        with no_grad():
            model._block(x, "stage1.block0", stride=2, has_down=True, training=False,
                         k=1, quantize_input=True)
        main1, main2, down = seen
        assert set(np.unique(main1)) <= {0.0, 1.0}
        assert set(np.unique(main2)) <= {0.0, 1.0}
        assert len(np.unique(down)) > 2, "downsample input should not be on the 1-bit lattice"
        np.testing.assert_array_equal(down, x.data)

    def test_type1_downsample_sees_quantized_activations(self, monkeypatch):
        model = build_model(tiny_config(bit_depth=1, block_kind="type1"))
        seen = []
        real_conv = models.nn.conv2d

        def recorder(x, w, stride=1, padding=0):
            seen.append(x.data)
            return real_conv(x, w, stride=stride, padding=padding)

        monkeypatch.setattr(models.nn, "conv2d", recorder)
        x = rand_images(2, 8, 8, seed=9)
        with no_grad():
            model._block(x, "stage1.block0", stride=2, has_down=True, training=False,
                         k=1, quantize_input=True)
        down = seen[2]
        assert set(np.unique(down)) <= {0.0, 1.0}


class TestGradientFlow:
    @pytest.mark.parametrize("bit_depth", [1, 2, 32])
    def test_every_trainable_param_receives_gradient(self, bit_depth):
        from bitcycle.nn import softmax_cross_entropy

        dead = None
        for seed in range(3):
            model = build_model(tiny_config(bit_depth=bit_depth), np.random.default_rng(seed))
            x = rand_images(4, 3, 16, seed=seed + 20)
            labels = np.random.default_rng(seed).integers(0, 4, size=4)
            loss = softmax_cross_entropy(model.forward(x, training=True), labels)
            loss.backward()
            dead = [n for n, p in model.trainable() if p.grad is None or not np.any(p.grad)]
            if not dead:
                break
        assert not dead, f"dead parameters at k={bit_depth}: {dead}"


class TestTransfer:
    def test_roundtrip_bit_exact(self):
        src = build_model(tiny_config(bit_depth=3), np.random.default_rng(1))
        dst = build_model(tiny_config(bit_depth=2), np.random.default_rng(2))
        transfer_weights(src.params, dst.params)
        for n in src.params:
            np.testing.assert_array_equal(src.params[n].data, dst.params[n].data)

    def test_transfer_changes_only_quantization_behaviour(self):
        src = build_model(tiny_config(bit_depth=3), np.random.default_rng(4))
        dst = build_model(tiny_config(bit_depth=2), np.random.default_rng(5))
        transfer_weights(src.params, dst.params)
        x = rand_images(2, 3, 16, seed=10)
        with no_grad():
            y3 = src.forward(x)
            y2 = dst.forward(x)
        assert not np.array_equal(y3.data, y2.data), "different lattices should change outputs"

    def test_mismatched_width_lists_missing_names(self):
        src = build_model(tiny_config())
        wider = ModelConfig(stage_channels=(8, 16, 32), blocks_per_stage=(1, 1, 1),
                            num_classes=4, stem="cifar")
        dst = build_model(wider)
        with pytest.raises(ValueError, match="stage2"):
            transfer_weights(src.params, dst.params)

    def test_mismatched_shapes_reported(self):
        src = build_model(tiny_config())
        cfg = ModelConfig(stage_channels=(4, 8), blocks_per_stage=(1, 1), num_classes=4, stem="cifar")
        dst = build_model(cfg)
        with pytest.raises(ValueError, match="shapes differ"):
            transfer_weights(src.params, dst.params)

    def test_running_stats_travel_with_weights(self):
        src = build_model(tiny_config(), np.random.default_rng(6))
        src.params["bn1.running_mean"].data[...] = 3.25
        dst = build_model(tiny_config(), np.random.default_rng(7))
        transfer_weights(src.params, dst.params)
        np.testing.assert_array_equal(dst.params["bn1.running_mean"].data, np.full(8, 3.25))

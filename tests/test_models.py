"""Model zoo: topology, quantization placement, weight hand-off."""

import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import bitcycle.models as models
from bitcycle import nn
from bitcycle.models import ModelConfig, QuantResNet, build_model, desk_config, transfer_weights
from bitcycle.tensor import Tensor, _Node, no_grad


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

    @staticmethod
    def _topo_order(root):
        """Every graph entry above root, parents before children: the op
        nodes and the leaf Tensors, which are their own entries."""
        order, seen, stack = [], set(), [(root._graph, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                parents = node._parents if isinstance(node, _Node) else ()
                stack.extend((p, False) for p in parents if id(p) not in seen)
        return order

    @classmethod
    def _grads_without_release(cls, root):
        """Every entry's gradient by a walk that keeps them all, keyed by id."""
        order = cls._topo_order(root)
        grads = {id(root._graph): np.ones_like(root.data)}
        for node in reversed(order):
            if not isinstance(node, _Node) or id(node) not in grads:
                continue
            for parent, g in zip(node._parents, node._backward(grads[id(node)])):
                if g is None or not (isinstance(parent, _Node) or parent.requires_grad):
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += g
                else:
                    grads[id(parent)] = np.array(g, dtype=parent.dtype)
        return grads, order

    @staticmethod
    def _training_loss(cfg):
        from bitcycle.nn import softmax_cross_entropy

        model = build_model(cfg, np.random.default_rng(3))
        x = rand_images(4, 3, 16, seed=5)
        labels = np.random.default_rng(4).integers(0, 4, size=4)
        return model, x, labels, softmax_cross_entropy(model.forward(x, training=True), labels)

    @pytest.mark.parametrize("bit_depth", [1, 32])
    def test_backward_keeps_only_leaf_grads(self, bit_depth):
        model, _, _, loss = self._training_loss(tiny_config(bit_depth=bit_depth))
        kept, order = self._grads_without_release(loss)
        loss.backward()
        interior = [t for t in order if isinstance(t, _Node)]
        assert len(interior) > 10 and all(t.grad is None for t in interior)
        for name, p in model.trainable():
            assert p.grad is not None and np.array_equal(p.grad, kept[id(p)]), name

    @pytest.mark.parametrize("bit_depth", [1, 32])
    def test_backward_frees_the_graph_while_the_loss_is_held(self, bit_depth):
        model, x, labels, loss = self._training_loss(tiny_config(bit_depth=bit_depth))
        # every array a closure saved, except those the caller still holds:
        # the weights, the batch and the loss
        held = {id(a) for a in (x.data, labels, loss.data, *(p.data for p in model.params.values()))}
        nodes = [t for t in self._topo_order(loss) if isinstance(t, _Node)]
        arrays = [c.cell_contents for t in nodes for c in t._backward.__closure__ or ()
                  if isinstance(c.cell_contents, np.ndarray)]
        refs = [weakref.ref(a) for a in arrays if id(a) not in held]
        del nodes, arrays
        assert len(refs) > 20 and all(r() is not None for r in refs)
        loss.backward()
        assert [r for r in refs if r() is not None] == []

    @pytest.mark.parametrize("stem,block_kind", [("cifar", "type2"), ("imagenet", "type1")])
    def test_no_backward_closure_holds_a_tensor(self, stem, block_kind):
        def captured(fn):
            # what fn's closure cells hold, through nested functions and containers
            stack = [c.cell_contents for c in fn.__closure__ or ()]
            while stack:
                obj = stack.pop()
                yield obj
                if callable(obj) and getattr(obj, "__closure__", None):
                    stack.extend(c.cell_contents for c in obj.__closure__)
                elif isinstance(obj, (tuple, list)):
                    stack.extend(obj)

        cfg = dataclasses.replace(tiny_config(bit_depth=1, block_kind=block_kind), stem=stem)
        _, _, _, loss = self._training_loss(cfg)
        nodes = [t for t in self._topo_order(loss) if isinstance(t, _Node)]
        assert len(nodes) > 10 and any(callable(o) for t in nodes for o in captured(t._backward))
        held = [(t, type(o).__name__) for t in nodes for o in captured(t._backward)
                if isinstance(o, (Tensor, _Node))]
        assert held == []

    @staticmethod
    def _graph_bytes_from_shapes(cfg, n, size):
        """The bytes a cifar-stem training forward's closures hold, by layer.

        Each conv keeps its weight as a (taps, c, o) copy and its input: a
        float input whole, a quantized one as the quantizer's code array
        (shared, counted with the quantizer), and a strided 1x1 conv on a
        float input (type2's shortcut) only the phase it reads. Each BN
        keeps its input (the conv output), three per-channel vectors tiled
        n times and one untiled. The classifier keeps its pooled input and
        the loss its log-probabilities. Assumes the first block has no
        shortcut conv, as in every stage layout the models use.
        """
        f, code = 4, (1 if cfg.bit_depth <= 7 else 2)

        def conv(c, o, kernel):
            return kernel * kernel * c * o * f

        def bn(c, hw):
            return n * c * hw * hw * f + (3 * n + 1) * c * f

        c_in, hw = cfg.stage_channels[0], size
        total = conv(cfg.in_channels, c_in, 3) + bn(c_in, hw)
        for s, (c, blocks) in enumerate(zip(cfg.stage_channels, cfg.blocks_per_stage)):
            for b in range(blocks):
                stride = 2 if s > 0 and b == 0 else 1
                out_hw = hw // stride
                # conv1 reads the stem's BN output, later blocks a code array
                total += n * c_in * hw * hw * (f if s == b == 0 else code)
                total += conv(c_in, c, 3) + bn(c, out_hw)
                total += n * c * out_hw * out_hw * code + conv(c, c, 3) + bn(c, out_hw)
                if stride != 1 or c_in != c:
                    if cfg.block_kind == "type2":
                        total += n * c_in * out_hw * out_hw * f
                    total += conv(c_in, c, 1) + bn(c, out_hw)
                c_in, hw = c, out_hw
        return total + n * c_in * f + n * cfg.num_classes * f

    @pytest.mark.parametrize("block_kind", ["type2", "type1"])
    @pytest.mark.parametrize("bit_depth", [1, 2, 8])
    def test_graph_holds_exactly_what_backward_reads(self, bit_depth, block_kind):
        # a guard against the graph growing back: the arrays the closures
        # own, each counted once by the array owning its memory (weights,
        # batch and labels excluded), add up to the bytes the shapes imply
        cfg = tiny_config(bit_depth=bit_depth, block_kind=block_kind)
        model, x, labels, loss = self._training_loss(cfg)

        def owner(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        held = {id(owner(a)) for a in (x.data, labels, *(p.data for p in model.params.values()))}
        owners = {}
        for node in self._topo_order(loss):
            if isinstance(node, _Node):
                for cell in node._backward.__closure__ or ():
                    if isinstance(cell.cell_contents, np.ndarray):
                        a = owner(cell.cell_contents)
                        if id(a) not in held:
                            owners[id(a)] = a
        n, _, size, _ = x.shape
        assert sum(a.nbytes for a in owners.values()) == self._graph_bytes_from_shapes(cfg, n, size)
        # floats and one code dtype: no mask beside the codes
        assert {a.dtype.name for a in owners.values()} == {"float32", "uint8" if bit_depth <= 7 else "uint16"}

    @staticmethod
    def _eval_peak_from_shapes(cfg, n, size):
        """The most a cifar-stem eval forward holds at once, beyond its batch.

        A conv holds its padded grid, its output and one tap product, and an
        input handed to it as a call temporary goes once the grid exists.
        The block input stays to the end of its block, for the residual or
        type2's shortcut; so does type1's quantized block input below 32
        bits where a shortcut conv reads it again. The first block's conv1,
        and every conv1 at 32 bits, reads the block input itself. Batch norm,
        the quantizer, the shortcut and the residual add hold less than the
        conv before them.
        """
        f, quantized = 4, cfg.bit_depth < 32

        def conv(c, o, hw, stride):
            # (grid, output, tap product) bytes of a 3x3 conv with padding 1
            oh, hq = (hw - 1) // stride + 1, -(-(hw + 2) // stride)
            band, _ = nn._gemm_tiling(oh * n, c, o)
            return stride * stride * hq * hq * n * c * f, n * o * oh * oh * f, min(band, oh) * oh * n * o * f

        c_in, hw = cfg.stage_channels[0], size
        peaks = [sum(conv(cfg.in_channels, c_in, size, 1))]
        for s, (c, blocks) in enumerate(zip(cfg.stage_channels, cfg.blocks_per_stage)):
            for b in range(blocks):
                stride = 2 if s > 0 and b == 0 else 1
                x = n * c_in * hw * hw * f
                keeps_q = quantized and cfg.block_kind == "type1" and (stride != 1 or c_in != c)
                held = x + x * keeps_q
                grid, out, tap = conv(c_in, c, hw, stride)
                if s == b == 0 or not quantized or keeps_q:
                    peaks.append(held + grid + out + tap)
                else:
                    peaks.append(held + max(x + grid, grid + out + tap))
                grid, out2, tap = conv(c, c, hw // stride, 1)
                peaks.append(held + max(out + grid, grid + out2 + tap))
                c_in, hw = c, hw // stride
        return max(peaks)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="only CPython 3.11+ moves a call's arguments "
                        "into the callee's frame; before, the caller keeps each conv input to the end")
    @pytest.mark.parametrize("block_kind", ["type2", "type1"])
    @pytest.mark.parametrize("bit_depth", [1, 32])
    def test_eval_forward_peak_is_what_the_shapes_imply(self, bit_depth, block_kind):
        # a guard against an eval forward holding an activation past its
        # last reader. The slack covers weights, batch norm's tiled vectors
        # and Python objects, a few KiB against 256 KiB for one activation
        cfg = tiny_config(bit_depth=bit_depth, block_kind=block_kind)
        model = build_model(cfg, np.random.default_rng(3))
        x = rand_images(64, 3, 16, seed=5)
        with no_grad():
            model.forward(x)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                model.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 0 <= peak - before - self._eval_peak_from_shapes(cfg, 64, 16) < 32 << 10

    def test_residual_bn_outputs_die_before_backward(self, monkeypatch):
        # a BN output that feeds only a residual add is read by no backward,
        # so nothing keeps it, or the array its NCHW view is cut from
        from bitcycle import nn

        clean = nn.batch_norm
        outputs = []  # per call: gamma, and weakrefs to the output's arrays

        def recording(x, gamma, *args, **kw):
            out = clean(x, gamma, *args, **kw)
            outputs.append((gamma, [weakref.ref(a) for a in (out.data, out.data.base) if a is not None]))
            return out

        monkeypatch.setattr(nn, "batch_norm", recording)
        model, _, _, loss = self._training_loss(tiny_config(bit_depth=1))
        names = {id(p): n for n, p in model.params.items()}
        refs = [r for gamma, rs in outputs if names[id(gamma)].endswith((".bn2.gamma", ".down.bn.gamma"))
                for r in rs]
        assert len(refs) == 6 and [r for r in refs if r() is not None] == []
        loss.backward()

    def test_activation_quantizer_and_its_conv_share_one_code_byte(self, monkeypatch):
        # the fake-quant node saves one code array, a byte an element, and
        # the conv it feeds keeps that same array: no mask, no second copy
        from bitcycle import nn

        clean_fq, clean_conv = models.fq_activations, nn.conv2d
        quantized = []  # per fake-quant call: its output, and its closure's cells
        shared = []     # per conv fed one: that closure's array and the conv's input-shaped arrays

        def fq(x, k):
            out = clean_fq(x, k)
            cells = [c.cell_contents for c in out._backward.__closure__]
            assert len(cells) == 1 and cells[0].dtype == np.uint8 and cells[0].shape == x.shape
            quantized.append((out, cells[0]))
            return out

        def conv(x, weight, *args, **kw):
            out = clean_conv(x, weight, *args, **kw)
            for q, code in quantized:
                if x is q:
                    shared.append((code, [c.cell_contents for c in out._backward.__closure__
                                          if isinstance(c.cell_contents, np.ndarray)
                                          and c.cell_contents.shape == x.shape]))
            return out

        monkeypatch.setattr(models, "fq_activations", fq)
        monkeypatch.setattr(nn, "conv2d", conv)
        for bit_depth in (1, 7):
            quantized.clear()
            shared.clear()
            self._training_loss(tiny_config(bit_depth=bit_depth))[3].backward()
            assert len(shared) == 3
            for code, arrays in shared:
                assert len(arrays) == 1 and arrays[0] is code

    @pytest.mark.parametrize("block_kind", ["type2", "type1"])
    def test_interior_gradients_are_never_copied(self, block_kind):
        # a node takes the array its consumer's backward returned; a node
        # with two consumers adds them into a new array, and no returned
        # array is written after it was handed up. Two nodes have two: the
        # first block's input (conv1 and the residual add), and the second
        # block's input (type2: its quantizer and the shortcut) or its
        # quantized input (type1: conv1 and the shortcut)
        model, _, _, loss = self._training_loss(tiny_config(bit_depth=1, block_kind=block_kind))
        kept, order = self._grads_without_release(loss)
        received = {}  # id of node: the gradient its backward was called with
        handed = {}    # id of parent: (array, copy at hand-over) per contribution
        nodes = [t for t in order if isinstance(t, _Node)]
        for node in nodes:
            # the walk lets go of a node's parents before calling its backward
            def wrapped(g, node=node, fn=node._backward, parents=node._parents):
                received[id(node)] = g
                grads = fn(g)
                for parent, pg in zip(parents, grads):
                    if pg is not None and isinstance(parent, _Node):
                        handed.setdefault(id(parent), []).append((pg, pg.copy()))
                return grads
            node._backward = wrapped
        loss.backward()
        interior = [t for t in nodes if t is not loss._graph]
        assert {id(t) for t in interior} == set(received) - {id(loss._graph)} == set(handed)
        sums = 0
        for node in interior:
            g, pieces = received[id(node)], handed[id(node)]
            if len(pieces) == 1:
                assert g is pieces[0][0]
            else:
                sums += 1
                assert not any(np.shares_memory(g, a) for a, _ in pieces)
            for a, before in pieces:
                np.testing.assert_array_equal(a, before)
        assert sums == 2
        for name, p in model.trainable():
            assert p.grad is not None and np.array_equal(p.grad, kept[id(p)]), name

    @pytest.mark.parametrize("block_kind", ["type2", "type1"])
    @pytest.mark.parametrize("bit_depth", [1, 2])
    def test_quantized_convs_save_lattice_indices_not_floats(self, monkeypatch, bit_depth, block_kind):
        # a conv fed a quantizer's output keeps the 1-byte lattice indices of
        # its input, so the float output dies with the forward
        from bitcycle import nn

        clean_fq, clean_conv = models.fq_activations, nn.conv2d
        quantized = []  # weakrefs to each fake-quant output's arrays
        convs = []      # per conv fed one: its input's shape and its closure's arrays

        def fq(x, k):
            out = clean_fq(x, k)
            quantized.append([weakref.ref(a) for a in (out.data, out.data.base) if a is not None])
            return out

        def conv(x, weight, *args, **kw):
            out = clean_conv(x, weight, *args, **kw)
            if any(rs[0]() is x.data for rs in quantized):
                convs.append((x.shape, [c.cell_contents for c in out._backward.__closure__
                                        if isinstance(c.cell_contents, np.ndarray)]))
            return out

        monkeypatch.setattr(models, "fq_activations", fq)
        monkeypatch.setattr(nn, "conv2d", conv)
        _, _, _, loss = self._training_loss(tiny_config(bit_depth=bit_depth, block_kind=block_kind))
        assert len(quantized) == 3 and len(convs) == (4 if block_kind == "type1" else 3)
        for shape, arrays in convs:
            indices = [a for a in arrays if a.shape == shape]
            assert len(indices) == 1 and indices[0].dtype == np.uint8, [a.dtype for a in indices]
        assert [r for rs in quantized for r in rs if r() is not None] == []
        loss.backward()

    def test_last_conv_saves_are_freed_before_the_first_conv_backward(self, monkeypatch):
        from bitcycle import nn

        clean = nn.conv2d
        saved = []   # per conv call: weakrefs to the arrays its closure owns
        seen_by_first = []

        def recording(x, weight, *args, **kw):
            out = clean(x, weight, *args, **kw)
            cells = [c.cell_contents for c in out._backward.__closure__]
            saved.append([weakref.ref(a) for a in cells if isinstance(a, np.ndarray)
                          and a is not x.data and a is not weight.data])
            if len(saved) == 1:
                first = out._backward

                def first_backward(g):
                    seen_by_first.append([r() for r in saved[-1]])
                    return first(g)

                out._backward = first_backward
            return out

        monkeypatch.setattr(nn, "conv2d", recording)
        model = build_model(tiny_config(bit_depth=1), np.random.default_rng(3))
        loss = nn.softmax_cross_entropy(model.forward(rand_images(4, 3, 16, seed=5), training=True),
                                        np.random.default_rng(4).integers(0, 4, size=4))
        assert len(saved) > 3 and saved[-1] and all(r() is not None for r in saved[-1])
        loss.backward()
        assert seen_by_first == [[None] * len(saved[-1])]


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


class TestWholeNetworkSte:
    """QuantResNet's backward is the gradient its STE conventions define.

    The numeric side differentiates a float64 surrogate network. Each
    fake-quant node, replayed in call order, becomes its STE linearisation
    plus the offset that makes it agree with the real node at the base
    point: clip(x, 0, 1) for activations, clip(w, -1, 1) for 1-bit weights
    and tanh(w) / m for k >= 2 weights, with m = max|tanh(w)| frozen at the
    base point as _fake_quant documents. Central differences of that
    surrogate must match the analytic gradient of the real network.
    """

    STEP = 1e-6
    MARGIN = 10  # steps between every fake-quant input and every STE edge
    COORDS = 4   # checked coordinates per parameter tensor

    @staticmethod
    def _linear(kind, d, m):
        if kind == "activation":
            return np.clip(d, 0.0, 1.0)
        if kind == "weight_binary":
            return np.clip(d, -1.0, 1.0)
        return np.tanh(d) / m

    def _check(self, monkeypatch, cfg, hw, seed=0):
        from bitcycle.nn import softmax_cross_entropy
        from bitcycle.quantize import activation_spec, weight_spec

        rng = np.random.default_rng(seed)
        model = build_model(cfg, rng)
        for p in model.params.values():
            # conv weights spread past the binary STE window [-1, 1]; each conv feeds a BN
            p.data = p.data.astype(np.float64) * (4.0 if p.data.ndim == 4 else 1.0)
        x = Tensor(rng.standard_normal((4, cfg.in_channels, hw, hw)))
        labels = rng.integers(0, cfg.num_classes, size=4)
        real = {"fq_weights": (models.fq_weights, weight_spec),
                "fq_activations": (models.fq_activations, activation_spec)}
        nodes = []  # (kind, base input, offset, frozen m) per fake-quant call

        def recording(fq, spec_of):
            def wrapped(t, k):
                out = fq(t, k)
                if k != 32:
                    kind, d = spec_of(k).kind, t.data.copy()
                    m = np.max(np.abs(np.tanh(d)))
                    nodes.append((kind, d, out.data - self._linear(kind, d, m), m))
                return out
            return wrapped

        for attr, (fq, spec_of) in real.items():
            monkeypatch.setattr(models, attr, recording(fq, spec_of))
        softmax_cross_entropy(model.forward(x, training=True), labels).backward()

        queue = []

        def replaying(spec_of):
            def wrapped(t, k):
                if k == 32:
                    return t
                kind, d0, off, m = queue.pop(0)
                assert kind == spec_of(k).kind and t.shape == d0.shape
                lo, hi = (0.0, 1.0) if kind == "activation" else (-1.0, 1.0)
                if kind != "weight_multi_bit":
                    room = np.minimum(np.abs(d0 - lo), np.abs(d0 - hi))
                    need = self.MARGIN * np.maximum(np.abs(t.data - d0), self.STEP)
                    # too close to an edge is a failure, not a skip
                    assert np.all(room >= need), \
                        f"{kind} input within {room.min():.2e} of an STE edge"
                return Tensor(self._linear(kind, t.data, m) + off)
            return wrapped

        for attr, (_, spec_of) in real.items():
            monkeypatch.setattr(models, attr, replaying(spec_of))

        def loss():
            queue[:] = nodes
            with no_grad():
                value = softmax_cross_entropy(model.forward(x, training=True), labels).item()
            assert not queue
            return value

        base = loss()
        for name, p in model.trainable():
            flat = p.data.reshape(-1)
            for i in rng.choice(flat.size, size=min(self.COORDS, flat.size), replace=False):
                w = flat[i]
                flat[i] = w + self.STEP
                up = loss()
                flat[i] = w - self.STEP
                down = loss()
                flat[i] = w
                numeric = (up - down) / (2 * self.STEP)
                analytic = p.grad.reshape(-1)[i]
                assert abs(numeric - analytic) <= 1e-4 * abs(analytic) + 1e-8, \
                    (name, i, numeric, analytic)
        assert loss() == base

    @pytest.mark.parametrize("block_kind", ["type1", "type2"])
    @pytest.mark.parametrize("bit_depth", [32, 4, 2, 1])
    def test_cifar_stem(self, monkeypatch, bit_depth, block_kind):
        cfg = ModelConfig(block_kind=block_kind, stage_channels=(3, 4), blocks_per_stage=(1, 1),
                          num_classes=5, stem="cifar", bit_depth=bit_depth)
        self._check(monkeypatch, cfg, hw=8)

    def test_imagenet_stem_at_one_bit(self, monkeypatch):
        cfg = ModelConfig(block_kind="type1", stage_channels=(3, 4), blocks_per_stage=(1, 1),
                          num_classes=5, stem="imagenet", bit_depth=1)
        self._check(monkeypatch, cfg, hw=16)

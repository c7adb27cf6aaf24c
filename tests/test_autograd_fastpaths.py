"""Fast-path validation for the rewritten autograd hot path.

The strided-im2col conv2d, slice-fast-path getitem, reduceat embedding
scatter and the stash-free backward engine are checked here against
*independent* references: a convolution composed purely from separately
grad-checked primitives (pad/slice/matmul/concat), numpy ``np.add.at``
scatters, and central-difference numerical gradients.  The fused
:func:`repro.autograd.attention` op is held to the composed
matmul/softmax/dropout/matmul chain (outputs, gradients, dropout RNG
stream) and the vectorised ``_col2im`` adjoint to the seed's scatter loop.
The single-pass ``batch_norm`` / ``layer_norm`` statistics and ``attention``'s
halving row maximum are held, bit for bit, to the ``ndarray.mean`` / ``.var``
/ ``.max`` bodies they replaced, which live on here as references; so is
``conv2d``'s narrow-map gather to the strided pad / copy / ``_col2im`` body
it stands in for, signed zeros included.  ``TestOpCounters`` holds each
hot op's GEMM count exactly and its allocation peak within 1.2x.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import autograd as ag
from repro import nn
from repro.autograd import Tensor, check_gradients
from repro.autograd import functional as F
from repro.autograd.grad_check import compare_gradients
from repro.fl import LocalTrainConfig, train_local
from repro.models import build_model


def _t(shape, seed=0, scale=1.0):
    """Float64 test tensor: central differences need the extra precision."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def conv2d_reference(x, weight, bias, stride, padding, groups):
    """Convolution built only from primitive ops (pad/slice/matmul/concat).

    Slow but independently differentiable: every op it uses has its own
    numerical grad check, so its analytic gradients are a trustworthy
    reference for the fused strided-im2col implementation.
    """
    xp = ag.pad2d(x, padding)
    n, c, hp, wp = xp.shape
    oc, cg, kh, kw = weight.shape
    ocg = oc // groups
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    outs = []
    for g in range(groups):
        xg = xp[:, g * cg:(g + 1) * cg]
        wg = weight[g * ocg:(g + 1) * ocg]
        acc = None
        for i in range(kh):
            for j in range(kw):
                patch = xg[:, :, i:i + stride * oh:stride,
                           j:j + stride * ow:stride]
                wij = wg[:, :, i, j]                       # (ocg, cg)
                term = ag.matmul(patch.transpose((0, 2, 3, 1)),
                                 wij.transpose((1, 0)))    # (n, oh, ow, ocg)
                acc = term if acc is None else acc + term
        outs.append(acc.transpose((0, 3, 1, 2)))
    out = outs[0] if groups == 1 else ag.concat(outs, axis=1)
    if bias is not None:
        out = out + bias.reshape(1, oc, 1, 1)
    return out


CONV_CONFIGS = [
    # (x shape, w shape, stride, padding, groups, id)
    ((2, 3, 6, 6), (4, 3, 3, 3), 1, 1, 1),
    ((2, 4, 8, 8), (6, 4, 3, 3), 2, 1, 1),
    ((1, 4, 7, 7), (4, 2, 3, 3), 1, 0, 2),
    ((2, 4, 9, 9), (8, 2, 3, 3), 2, 2, 2),
    ((2, 4, 6, 6), (4, 1, 3, 3), 1, 1, 4),      # depthwise
    ((2, 4, 5, 5), (6, 4, 1, 1), 1, 0, 1),      # pointwise fast path
    ((2, 4, 5, 5), (6, 4, 1, 1), 1, 1, 1),      # pointwise + padding
    ((2, 6, 6, 6), (6, 3, 1, 1), 1, 0, 2),      # grouped pointwise
    ((1, 3, 8, 8), (5, 3, 5, 5), 1, 2, 1),      # large kernel
]


class TestConvStridedFastPath:
    @pytest.mark.parametrize("xs,ws,stride,padding,groups", CONV_CONFIGS)
    def test_matches_primitive_reference(self, xs, ws, stride, padding, groups):
        x, w = _t(xs, 1), _t(ws, 2, 0.3)
        b = _t((ws[0],), 3)
        compare_gradients(
            lambda: ag.conv2d(x, w, b, stride=stride, padding=padding,
                              groups=groups).sum(),
            lambda: conv2d_reference(x, w, b, stride=stride, padding=padding,
                                     groups=groups).sum(),
            [x, w, b], atol=1e-9, rtol=1e-7)

    @pytest.mark.parametrize("xs,ws,stride,padding,groups", [
        ((2, 4, 8, 8), (6, 4, 3, 3), 2, 1, 1),
        ((2, 4, 6, 6), (4, 1, 3, 3), 1, 1, 4),
        ((2, 4, 5, 5), (6, 4, 1, 1), 1, 0, 1),
    ])
    def test_numerical_gradients(self, xs, ws, stride, padding, groups):
        x, w = _t(xs, 4), _t(ws, 5, 0.3)
        check_gradients(
            lambda: ag.conv2d(x, w, stride=stride, padding=padding,
                              groups=groups).sum(), [x, w])

    def test_weighted_loss_gradients(self):
        """Non-uniform output gradient (catches transposed-layout bugs)."""
        x, w = _t((2, 3, 6, 6), 6), _t((4, 3, 3, 3), 7, 0.3)
        rng = np.random.default_rng(8)
        weights = Tensor(rng.standard_normal((2, 4, 6, 6)))
        compare_gradients(
            lambda: (ag.conv2d(x, w, stride=1, padding=1) * weights).sum(),
            lambda: (conv2d_reference(x, w, None, 1, 1, 1) * weights).sum(),
            [x, w], atol=1e-9, rtol=1e-7)


def batch_norm_reference(x, gamma, beta, running_mean, running_var, training,
                         momentum=0.1, eps=1e-5):
    """``batch_norm`` as it was before the statistics were spelled out:
    ``ndarray.mean`` / ``ndarray.var`` forward, four reductions backward."""
    axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.data.reshape(shape) * xhat + beta.data.reshape(shape)
    m = x.size // x.shape[1]

    def backward(grad):
        dgamma = (grad * xhat).sum(axis=axes) if gamma.requires_grad else None
        dbeta = grad.sum(axis=axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            if training:
                g_sum = grad.sum(axis=axes, keepdims=True)
                gx_sum = (grad * xhat).sum(axis=axes, keepdims=True)
                dx = (gamma.data.reshape(shape) * inv_std.reshape(shape) / m) * (
                    m * grad - g_sum - xhat * gx_sum)
            else:
                dx = grad * gamma.data.reshape(shape) * inv_std.reshape(shape)
        return dx, dgamma, dbeta

    return Tensor._make(out, (x, gamma, beta), backward)


class TestBatchNormSinglePass:
    """The single-pass statistics must be the old ones bit for bit."""

    SHAPES = [(16, 16, 8, 8), (16, 64, 4, 4), (3, 7, 5, 9),   # 4-D
              (32, 10), (6, 4),                               # 2-D
              (1, 8, 3, 3), (1, 5),                           # batch 1
              (4, 6, 1, 1), (1, 3, 1, 1)]                     # 1x1 spatial

    @staticmethod
    def _run(fn, arrays, training, affine_grad, x_grad=True):
        x, gamma, beta, mean, var, upstream = (a.copy() for a in arrays)
        xt = Tensor(x, requires_grad=x_grad)
        gt = Tensor(gamma, requires_grad=affine_grad)
        bt = Tensor(beta, requires_grad=affine_grad)
        out = fn(xt, gt, bt, mean, var, training)
        if x_grad or affine_grad:
            out.backward(upstream)
        return out.data, xt.grad, gt.grad, bt.grad, mean, var

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("affine_grad", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_mean_var_reference(self, shape, training,
                                                 affine_grad, dtype):
        rng = np.random.default_rng(len(shape) * 100 + shape[1])
        c = shape[1]
        arrays = [(rng.standard_normal(shape) * 3 + 1).astype(dtype),
                  rng.standard_normal(c).astype(dtype),
                  rng.standard_normal(c).astype(dtype),
                  rng.standard_normal(c).astype(dtype),
                  (rng.random(c) + 0.5).astype(dtype),
                  rng.standard_normal(shape).astype(dtype)]
        new = self._run(ag.batch_norm, arrays, training, affine_grad)
        old = self._run(batch_norm_reference, arrays, training, affine_grad)
        names = ["out", "dx", "dgamma", "dbeta", "running_mean", "running_var"]
        for name, a, b in zip(names, new, old):
            if b is None:
                assert a is None, name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_frozen_input_still_gets_affine_grads(self):
        """A BN directly on the data (x needs no grad) skips dx only."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal((8, 4, 3, 3)).astype(np.float32),
                  np.ones(4, np.float32), np.zeros(4, np.float32),
                  np.zeros(4, np.float32), np.ones(4, np.float32),
                  rng.standard_normal((8, 4, 3, 3)).astype(np.float32)]
        for training in (True, False):
            new = self._run(ag.batch_norm, arrays, training, True, x_grad=False)
            old = self._run(batch_norm_reference, arrays, training, True,
                            x_grad=False)
            assert new[1] is None and old[1] is None
            assert np.array_equal(new[2], old[2])
            assert np.array_equal(new[3], old[3])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 2, 2), (6, 4), (1, 3, 2, 2),
                                       (3, 2, 1, 1)])
    def test_float64_central_differences(self, shape, training):
        """Gradcheck under a non-uniform upstream gradient (a plain
        ``.sum()`` loss has a zero input gradient in training mode)."""
        if training and shape[0] * int(np.prod(shape[2:])) == 1:
            pytest.skip("one sample per channel: xhat is identically zero")
        c = shape[1]
        x, g, b = _t(shape, 40), _t((c,), 41), _t((c,), 42)
        weights = np.random.default_rng(43).standard_normal(shape)
        mean = np.random.default_rng(44).standard_normal(c)
        var = np.random.default_rng(45).random(c) + 0.5

        def loss():
            out = ag.batch_norm(x, g, b, mean.copy(), var.copy(),
                                training=training)
            return (out * Tensor(weights)).sum()

        check_gradients(loss, [x, g, b], atol=1e-6, rtol=1e-5, eps=1e-5)


def layer_norm_reference(x, gamma, beta, eps=1e-5):
    """``layer_norm`` as it was before the statistics were spelled out:
    the generic ``ndarray.mean`` / ``ndarray.var`` reductions."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = gamma.data * xhat + beta.data
    d = x.shape[-1]

    def backward(grad):
        reduce_axes = tuple(range(x.ndim - 1))
        dgamma = ((grad * xhat).sum(axis=reduce_axes)
                  if gamma.requires_grad else None)
        dbeta = grad.sum(axis=reduce_axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            gg = grad * gamma.data
            g_sum = gg.sum(axis=-1, keepdims=True)
            gx_sum = (gg * xhat).sum(axis=-1, keepdims=True)
            dx = (inv_std / d) * (d * gg - g_sum - xhat * gx_sum)
        return dx, dgamma, dbeta

    return Tensor._make(out, (x, gamma, beta), backward)


class TestLayerNormSinglePass:
    """The single-pass statistics must be the old ones bit for bit."""

    SHAPES = [(8, 32, 32), (100, 32, 32),      # the transformer cell's two
              (3, 7, 5), (2, 3, 4, 6),         # odd sizes, 4-D
              (6, 10), (16, 33),               # 2-D
              (1, 9), (1, 1, 16),              # batch 1
              (4, 1), (2, 3, 1)]               # last-axis length 1

    @staticmethod
    def _run(fn, arrays, affine_grad, x_grad=True):
        x, gamma, beta, upstream = (a.copy() for a in arrays)
        xt = Tensor(x, requires_grad=x_grad)
        gt = Tensor(gamma, requires_grad=affine_grad)
        bt = Tensor(beta, requires_grad=affine_grad)
        out = fn(xt, gt, bt)
        if x_grad or affine_grad:
            out.backward(upstream)
        return out.data, xt.grad, gt.grad, bt.grad

    @staticmethod
    def _arrays(shape, dtype):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        return [(rng.standard_normal(shape) * 3 + 1).astype(dtype),
                rng.standard_normal(shape[-1]).astype(dtype),
                rng.standard_normal(shape[-1]).astype(dtype),
                rng.standard_normal(shape).astype(dtype)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("affine_grad", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_mean_var_reference(self, shape, affine_grad,
                                                 dtype):
        arrays = self._arrays(shape, dtype)
        new = self._run(ag.layer_norm, arrays, affine_grad)
        old = self._run(layer_norm_reference, arrays, affine_grad)
        for name, a, b in zip(["out", "dx", "dgamma", "dbeta"], new, old):
            if b is None:
                assert a is None, name
                continue
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_frozen_input_still_gets_affine_grads(self):
        """A norm directly on the data (x needs no grad) skips dx only."""
        arrays = self._arrays((8, 32, 32), np.float32)
        new = self._run(ag.layer_norm, arrays, True, x_grad=False)
        old = self._run(layer_norm_reference, arrays, True, x_grad=False)
        assert new[1] is None and old[1] is None
        assert np.array_equal(new[2], old[2])
        assert np.array_equal(new[3], old[3])

    def test_input_is_not_written(self):
        """``xhat`` is scaled in place — it must be a fresh array."""
        x = np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32)
        kept = x.copy()
        ag.layer_norm(Tensor(x), Tensor(np.ones(6, np.float32)),
                      Tensor(np.zeros(6, np.float32)))
        assert np.array_equal(x, kept)

    @pytest.mark.parametrize("shape", [(3, 4, 5), (6, 4), (1, 7), (2, 2, 2, 3)])
    def test_float64_central_differences(self, shape):
        """Gradcheck under a non-uniform upstream gradient: the ``.sum()``
        loss of ``tests/test_autograd.py`` has ``dx`` identically ~ 0."""
        d = shape[-1]
        x, g, b = _t(shape, 50), _t((d,), 51), _t((d,), 52)
        weights = Tensor(np.random.default_rng(53).standard_normal(shape))
        check_gradients(lambda: (ag.layer_norm(x, g, b) * weights).sum(),
                        [x, g, b], atol=1e-6, rtol=1e-5, eps=1e-5)


class TestTapeIsAcyclic:
    """A finished step must be freed by refcount, not by the cycle GC."""

    def test_train_local_step_leaves_no_cyclic_garbage(self):
        from repro.data import load_dataset
        from repro.fl.client import LocalTrainConfig, train_local
        from repro.models import build_model
        ds = load_dataset("harbox", seed=0, num_users=4, samples_per_user=8,
                          test_size=8)
        model = build_model("har_cnn", num_classes=ds.num_classes, seed=0)
        x, y = ds.x_train[:8], ds.y_train[:8]
        config = LocalTrainConfig(batch_size=8, max_batches=1)
        train_local(model, x, y, config, np.random.default_rng(1))  # warm-up
        gc.collect()
        gc.disable()
        try:
            train_local(model, x, y, config, np.random.default_rng(1))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_activation_dies_with_the_loss(self):
        a = _t((4, 3), 50)
        hidden = ag.relu(a * 2.0)
        # (Tensor has __slots__ and takes no weakrefs; its array does, and
        # is owned by the tensor and the closures that read it.)
        alive = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        gc.disable()
        try:
            loss.backward()
            first = a.grad.copy()
            assert alive() is not None      # the tape still holds it
            a.zero_grad()
            loss.backward()                 # same root, same gradients
            assert np.array_equal(a.grad, first)
            del loss
            assert alive() is None          # no collector ran
        finally:
            gc.enable()


class TestRequiresGradIsTheTapeFlag:
    """Backward closures route a gradient to a tensor iff it
    ``requires_grad``: that only holds because an op output gets a closure
    (and parents) exactly when it requires grad, and a leaf never does."""

    @pytest.mark.parametrize("arch,dataset", [("har_cnn", "harbox"),
                                              ("transformer", "stackoverflow")])
    def test_training_step_tape(self, arch, dataset):
        from repro.data import load_dataset
        from repro.fl.client import LocalTrainConfig, train_local
        from repro.models import build_model
        ds = load_dataset(dataset, seed=0, num_users=4, samples_per_user=8,
                          test_size=8)
        model = build_model(arch, num_classes=ds.num_classes, seed=0)
        next(iter(model.parameters())).requires_grad = False  # frozen stem
        losses = []

        def loss_fn(m, xb, yb):
            losses.append(ag.cross_entropy(m(xb), yb))
            return losses[-1]

        train_local(model, ds.x_train[:8], ds.y_train[:8],
                    LocalTrainConfig(batch_size=8, max_batches=1),
                    np.random.default_rng(1), loss_fn=loss_fn)
        seen, stack, nodes, frozen = set(), [losses[0]], 0, 0
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if t._backward is None:
                assert t._parents == ()
                frozen += not t.requires_grad
            else:
                assert t.requires_grad and t._parents
                nodes += 1
            stack.extend(t._parents)
        assert nodes > 5 and frozen > 0


class TestGetitemFastPath:
    @pytest.mark.parametrize("index", [
        slice(1, 4),
        (slice(None), 2),
        (slice(None, None, 2), slice(1, None)),
        (1, slice(None)),
        (Ellipsis, 0),
        (slice(None), None, slice(2, None)),    # newaxis insert
    ])
    def test_slice_matches_numerical(self, index):
        a = _t((6, 4), 11)
        check_gradients(lambda: a[index].sum(), [a])

    def test_slice_matches_fancy_equivalent(self):
        """Basic-slice fast path == fancy-index scatter-add path."""
        a = _t((8, 5), 12)
        rows = np.arange(2, 7)                   # fancy: routes via np.add.at
        compare_gradients(lambda: (a[2:7] * a[2:7]).sum(),
                          lambda: (a[rows] * a[rows]).sum(),
                          [a], atol=1e-12, rtol=1e-12)

    def test_fancy_duplicates_still_accumulate(self):
        a = _t((5, 3), 13)
        idx = np.array([0, 2, 2, 4])
        out = a[idx].sum()
        out.backward()
        expected = np.zeros_like(a.data)
        np.add.at(expected, idx, np.ones((4, 3)))
        np.testing.assert_allclose(a.grad, expected)


class TestEmbeddingScatter:
    def test_duplicate_indices_match_add_at(self):
        w = _t((10, 4), 14)
        idx = np.array([[1, 3, 3], [3, 0, 9]])
        ag.embedding(w, idx).sum().backward()
        expected = np.zeros_like(w.data)
        np.add.at(expected, idx, np.ones(idx.shape + (4,)))
        np.testing.assert_allclose(w.grad, expected)

    def test_unique_indices_match_add_at(self):
        w = _t((12, 3), 15)
        idx = np.array([7, 2, 9, 0])
        rng = np.random.default_rng(16)
        weights = Tensor(rng.standard_normal((4, 3)))
        (ag.embedding(w, idx) * weights).sum().backward()
        expected = np.zeros_like(w.data)
        np.add.at(expected, idx, weights.data)
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)


class TestBackwardReentrancy:
    """The stash removal makes backward state purely local — verify it."""

    def test_backward_inside_backward(self):
        """An inner backward running mid-pass must not corrupt the outer."""
        a = _t((3,), 20)
        b = _t((3,), 21)
        outer = (a * 2.0).sum()

        inner_loss = (b * 3.0).sum()
        fired = []
        original = outer._backward

        def hijacked(grad):
            # Simulate a callback (metric hook / distillation) that runs a
            # full backward of an unrelated graph mid-traversal.
            inner_loss.backward()
            fired.append(True)
            return original(grad)

        outer._backward = hijacked
        outer.backward()
        assert fired
        np.testing.assert_allclose(a.grad, 2.0 * np.ones(3))
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(3))

    def test_repeated_backward_is_exact(self):
        a = _t((4,), 22)
        loss = (a * a).sum()
        loss.backward()
        first = a.grad.copy()
        loss.backward()          # re-walks the same tape
        np.testing.assert_allclose(a.grad, 2.0 * first)

    def test_shared_leaf_graphs_do_not_leak(self):
        a = _t((3,), 23)
        loss1 = (a * 2.0).sum()
        loss2 = (a * 5.0).sum()
        loss1.backward()
        np.testing.assert_allclose(a.grad, 2.0 * np.ones(3))
        loss2.backward()
        np.testing.assert_allclose(a.grad, 7.0 * np.ones(3))

    def test_leaf_grad_buffers_are_independent(self):
        """Identity-op fan-out must never alias two leaves' grad buffers."""
        a, b = _t((4,), 24), _t((4,), 25)
        (a + b).sum().backward()
        a.grad += 100.0
        np.testing.assert_allclose(b.grad, np.ones(4))

    def test_param_grad_not_aliased_to_user_array(self):
        a = _t((3,), 26)
        seed_grad = np.ones(3)
        (a * 1.0).sum().backward()
        before = a.grad.copy()
        a.grad += 5.0
        np.testing.assert_allclose(before, np.ones(3))
        assert a.grad is not seed_grad


class TestDropoutDeterminism:
    def test_training_requires_rng(self):
        x = _t((4, 4), 40)
        with pytest.raises(ValueError, match="Generator"):
            ag.dropout(x, 0.5, training=True)

    def test_layer_is_reproducible(self):
        x = np.ones((64, 64), np.float32)
        outs = []
        for _ in range(2):
            layer = nn.Dropout(0.5, seed=7)
            outs.append(layer(Tensor(x)).data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_rng_derived_layers_are_distinct(self):
        x = np.ones((64, 64), np.float32)
        rng = np.random.default_rng(3)
        first = nn.Dropout(0.5, rng=rng)
        second = nn.Dropout(0.5, rng=rng)
        assert not np.array_equal(first(Tensor(x)).data,
                                  second(Tensor(x)).data)

    def test_seed_and_rng_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            nn.Dropout(0.5, seed=1, rng=np.random.default_rng(0))


def composed_attention(q, k, v, scale, rng=None, p=0.0, training=False):
    """The pre-fusion five-node chain, as ``nn/attention.py`` used to
    build it (scale applied as a python float so both formulations run in
    the inputs' dtype)."""
    scores = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))) * float(scale)
    weights = ag.softmax(scores)
    if training and p > 0.0:
        weights = ag.dropout(weights, p, training=True, rng=rng)
    return ag.matmul(weights, v)


class TestFusedAttention:
    SHAPE = (2, 3, 5, 4)  # (B, H, S, Dh)

    def test_matches_composed_reference(self):
        q, k, v = _t(self.SHAPE, 1), _t(self.SHAPE, 2), _t(self.SHAPE, 3)
        scale = 1.0 / np.sqrt(self.SHAPE[-1])
        compare_gradients(
            lambda: (ag.attention(q, k, v, scale) ** 2).sum(),
            lambda: (composed_attention(q, k, v, scale) ** 2).sum(),
            [q, k, v], atol=1e-9, rtol=1e-9)

    def test_matches_composed_reference_with_dropout(self):
        q, k, v = _t(self.SHAPE, 4), _t(self.SHAPE, 5), _t(self.SHAPE, 6)
        scale = 1.0 / np.sqrt(self.SHAPE[-1])
        # Same seed => both formulations must draw the identical mask.
        compare_gradients(
            lambda: (ag.attention(q, k, v, scale,
                                  rng=np.random.default_rng(99), p=0.4,
                                  training=True) ** 2).sum(),
            lambda: (composed_attention(q, k, v, scale,
                                        rng=np.random.default_rng(99), p=0.4,
                                        training=True) ** 2).sum(),
            [q, k, v], atol=1e-9, rtol=1e-9)

    def test_dropout_rng_stream_parity(self):
        """The fused op consumes exactly the draws dropout() would, so a
        layer's mask stream is unchanged by fusion (reseed semantics)."""
        q, k, v = _t(self.SHAPE, 7), _t(self.SHAPE, 8), _t(self.SHAPE, 9)
        r_fused, r_composed = (np.random.default_rng(5),
                               np.random.default_rng(5))
        ag.attention(q, k, v, 0.5, rng=r_fused, p=0.3, training=True)
        composed_attention(q, k, v, 0.5, rng=r_composed, p=0.3, training=True)
        assert (r_fused.bit_generator.state
                == r_composed.bit_generator.state)

    def test_numerical_gradients(self):
        q, k, v = _t(self.SHAPE, 10), _t(self.SHAPE, 11), _t(self.SHAPE, 12)
        check_gradients(
            lambda: (ag.attention(q, k, v, 0.5) ** 2).sum(), [q, k, v])

    def test_eval_mode_ignores_dropout(self):
        q, k, v = _t(self.SHAPE, 13), _t(self.SHAPE, 14), _t(self.SHAPE, 15)
        rng = np.random.default_rng(0)
        a = ag.attention(q, k, v, 0.5, rng=rng, p=0.5, training=False)
        b = ag.attention(q, k, v, 0.5)
        assert np.array_equal(a.data, b.data)
        # and no draws were consumed
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_training_dropout_requires_rng(self):
        q, k, v = _t(self.SHAPE, 16), _t(self.SHAPE, 17), _t(self.SHAPE, 18)
        with pytest.raises(ValueError, match="Generator"):
            ag.attention(q, k, v, 0.5, p=0.5, training=True)

    def test_float32_stays_float32(self):
        """The composed chain silently promoted to float64 through the 0-d
        scale tensor (NEP 50); the fused op must not."""
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.standard_normal(self.SHAPE).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        out = ag.attention(q, k, v, 1.0 / np.sqrt(4))
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert q.grad.dtype == np.float32

    def test_single_tape_node(self):
        q, k, v = _t(self.SHAPE, 19), _t(self.SHAPE, 20), _t(self.SHAPE, 21)
        out = ag.attention(q, k, v, 0.5)
        assert out._parents == (q, k, v)
        assert len(out._topo_order()) == 4  # out + the three leaves


def attention_reference(q, k, v, scale, rng=None, p=0.0, training=False):
    """The fused op's body as it was while its row maximum was the
    ``ndarray.max`` reduce (profiler calls dropped)."""
    qd, kd, vd = q.data, k.data, v.data
    scale = float(scale)
    drop = training and p > 0.0
    weights = np.matmul(qd, np.swapaxes(kd, -1, -2))
    weights *= scale
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    if drop:
        mask = (rng.random(weights.shape) >= p).astype(weights.dtype)
        mask /= (1.0 - p)
        out = np.matmul(weights * mask, vd)
    else:
        mask = None
        out = np.matmul(weights, vd)

    def backward(grad):
        w_used = weights if mask is None else weights * mask
        dv = np.matmul(np.swapaxes(w_used, -1, -2), grad)
        dw = np.matmul(grad, np.swapaxes(vd, -1, -2))
        if mask is not None:
            dw *= mask
        dot = (dw * weights).sum(axis=-1, keepdims=True)
        dscores = weights * (dw - dot)
        dscores *= scale
        return (np.matmul(dscores, kd),
                np.matmul(np.swapaxes(dscores, -1, -2), qd), dv)

    return Tensor._make(out, (q, k, v), backward)


def _softmax_numerator(x, row_max):
    """What ``attention`` keeps of the row maximum: ``exp(x - max)``, where
    a ``-0.0`` and a ``+0.0`` maximum coincide."""
    with np.errstate(invalid="ignore"):  # inf - inf on rows holding +inf
        return np.exp(x - row_max)


class TestRowMax:
    """``_row_max`` is ``ndarray.max(axis=-1, keepdims=True)`` exactly."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_length_1_to_70(self, dtype):
        rng = np.random.default_rng(7)
        for n in range(1, 71):  # odd, prime and power-of-two lengths alike
            x = rng.standard_normal((3, 5, n)).astype(dtype)
            got = F._row_max(x)
            want = x.max(axis=-1, keepdims=True)
            assert got.shape == want.shape and got.dtype == want.dtype, n
            assert np.array_equal(got, want), n

    def test_nan_in_any_column_propagates(self):
        for n in range(1, 71):
            x = np.random.default_rng(n).standard_normal((n, n))
            x[np.arange(n), np.arange(n)] = np.nan  # row i: NaN in column i
            got = F._row_max(x)
            assert np.isnan(got).all(), n
            assert np.array_equal(
                _softmax_numerator(x, got),
                _softmax_numerator(x, x.max(axis=-1, keepdims=True)),
                equal_nan=True), n

    @given(n=st.integers(1, 70), rows=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float32, np.float64]),
           layout=st.sampled_from(["contiguous", "strided", "transposed"]),
           specials=st.lists(st.sampled_from(
               [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_special_values_ties_and_layouts(self, n, rows, seed, dtype,
                                             layout, specials):
        rng = np.random.default_rng(seed)
        # Few distinct values => ties in almost every row.
        x = rng.integers(-2, 3, size=(rows, 2, n)).astype(dtype)
        for value in specials:
            x[rng.random(x.shape) < 0.2] = value
        if layout == "strided":
            wide = np.zeros((rows, 2, 2 * n), dtype=dtype)
            wide[..., ::2] = x
            x = wide[..., ::2]
        elif layout == "transposed":
            x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
        if layout != "contiguous" and n > 1:
            assert not x.flags.c_contiguous
        got = F._row_max(x)
        want = x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)  # -0.0 == +0.0 here
        a, b = _softmax_numerator(x, got), _softmax_numerator(x, want)
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_is_private(self):
        """Not an op: the ledger's tracer wraps ``ag.__all__`` only."""
        assert "_row_max" not in ag.__all__
        assert "_row_max" not in F.__all__


class TestAttentionRowMax:
    """``attention`` with the halving maximum against its former body."""

    # (B, H, S, Dh): the transformer cell's training and evaluation
    # batches, then odd / prime / length-1 sequence lengths.
    SHAPES = [(8, 4, 32, 8), (100, 4, 32, 8), (2, 3, 7, 4), (1, 2, 13, 5),
              (3, 1, 1, 4)]

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_to_ndarray_max_body(self, shape, dtype, dropout):
        rng = np.random.default_rng(sum(shape))
        arrays = [(rng.standard_normal(shape) * 2).astype(dtype)
                  for _ in range(4)]
        scale = 1.0 / np.sqrt(shape[-1])
        results = []
        for fn in (ag.attention, attention_reference):
            q, k, v = (Tensor(a.copy(), requires_grad=True)
                       for a in arrays[:3])
            out = fn(q, k, v, scale, rng=np.random.default_rng(11),
                     p=dropout, training=True)
            out.backward(arrays[3])
            results.append((out.data, q.grad, k.grad, v.grad))
        for name, a, b in zip(["out", "dq", "dk", "dv"], *results):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_float64_central_differences(self):
        shape = (2, 2, 5, 3)
        q, k, v = _t(shape, 60), _t(shape, 61), _t(shape, 62)
        weights = Tensor(np.random.default_rng(63).standard_normal(shape))
        check_gradients(
            lambda: (ag.attention(q, k, v, 0.6) * weights).sum(),
            [q, k, v], atol=1e-6, rtol=1e-5, eps=1e-5)

    def test_float64_central_differences_with_dropout(self):
        """The generator is re-seeded inside the loss, so every evaluation
        draws the same mask and the function differentiated is fixed."""
        shape = (2, 2, 5, 3)
        q, k, v = _t(shape, 64), _t(shape, 65), _t(shape, 66)
        weights = Tensor(np.random.default_rng(67).standard_normal(shape))

        def loss():
            out = ag.attention(q, k, v, 0.6, rng=np.random.default_rng(5),
                               p=0.3, training=True)
            return (out * weights).sum()

        check_gradients(loss, [q, k, v], atol=1e-6, rtol=1e-5, eps=1e-5)


def col2im_reference(cols, x_shape, kh, kw, stride):
    """The seed engine's scatter loop, kept as an independent reference."""
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + stride * oh:stride,
              j:j + stride * ow:stride] += cols[:, :, i, j]
    return x


class TestCol2Im:
    GEOMETRIES = [
        # (h, w, kh, kw, stride) — overlapping, tiling, gapped, ragged
        (8, 8, 3, 3, 1),     # classic overlapping 3x3
        (9, 9, 3, 3, 2),     # overlapping with stride
        (8, 8, 2, 2, 2),     # exact tiling (pure assignment path)
        (10, 10, 3, 3, 3),   # stride == kernel, ragged tail
        (10, 10, 2, 2, 3),   # stride > kernel: gaps must stay zero
        (11, 7, 5, 3, 2),    # rectangular kernel, odd sizes
        (7, 9, 2, 3, 1),     # rectangular overlapping
        (6, 6, 1, 1, 2),     # 1x1 kernel with stride (gapped)
    ]

    @pytest.mark.parametrize("h,w,kh,kw,stride", GEOMETRIES)
    def test_matches_reference_loop(self, h, w, kh, kw, stride):
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        rng = np.random.default_rng(h * 100 + w * 10 + stride)
        cols = rng.standard_normal((2, 3, kh, kw, oh, ow)).astype(np.float32)
        fast = F._col2im(cols, (2, 3, h, w), kh, kw, stride)
        ref = col2im_reference(cols, (2, 3, h, w), kh, kw, stride)
        np.testing.assert_allclose(fast, ref, atol=1e-5, rtol=1e-5)
        # Disjoint-window geometries have one contribution per pixel, so
        # no summation is reordered: those must be bit-exact.
        if stride >= kh and stride >= kw:
            assert np.array_equal(fast, ref)

    def test_float64(self):
        cols = np.random.default_rng(0).standard_normal((1, 2, 3, 3, 6, 6))
        fast = F._col2im(cols, (1, 2, 8, 8), 3, 3, 1)
        ref = col2im_reference(cols, (1, 2, 8, 8), 3, 3, 1)
        np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=1e-12)


def conv2d_strided_reference(x, weight, bias, stride, padding, groups, grad):
    """``conv2d`` as it moved data before the narrow-map gather, on plain
    arrays: zero-fill pad -> ``as_strided`` copy -> GEMM -> ``_col2im``, at
    every width.  Returns ``(out, dx, dw, db)``; the GEMM expressions are
    the op's own, so the gathered path must reproduce every bit.
    """
    n, c, h, w = x.shape
    oc, cg, kh, kw = weight.shape
    xd = x
    if padding:
        xd = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xd[:, :, padding:-padding, padding:-padding] = x
    oh = (xd.shape[2] - kh) // stride + 1
    ow = (xd.shape[3] - kw) // stride + 1
    span, ocg, k = oh * ow, oc // groups, cg * kh * kw
    pointwise = kh == 1 and kw == 1 and stride == 1
    if pointwise:
        cols = xd.reshape(n, groups, k, span)
    else:
        buf = np.empty((n, c, kh, kw, oh, ow), dtype=xd.dtype)
        np.copyto(buf, F._im2col_view(xd, kh, kw, stride))
        cols = buf.reshape(n, groups, k, span)
    if groups == 1:
        wmat = weight.reshape(oc, k)
        out = wmat @ cols.reshape(n, k, span)
    else:
        wmat = weight.reshape(groups, ocg, k)
        out = wmat @ cols
    out = out.reshape(n, oc, oh, ow)
    if bias is not None:
        out += bias.reshape(1, oc, 1, 1)
    if groups == 1:
        g = grad.reshape(n, oc, span)
        dw = np.matmul(g, cols.reshape(n, k, span).transpose(0, 2, 1))
        dw = dw.sum(axis=0).reshape(weight.shape)
        dcols = wmat.T @ g
    else:
        g = grad.reshape(n, groups, ocg, span)
        dw = np.matmul(g, cols.transpose(0, 1, 3, 2)).sum(axis=0)
        dw = dw.reshape(weight.shape)
        if ocg == 1:
            dcols = (wmat.reshape(1, groups, k, 1)
                     * grad.reshape(n, groups, 1, span))
        else:
            dcols = np.matmul(wmat.transpose(0, 2, 1), g)
    if pointwise:
        dx = dcols.reshape(xd.shape)
        if padding:
            dx = dx[:, :, padding:-padding, padding:-padding]
    else:
        dx = F._col2im(dcols.reshape(n, c, kh, kw, oh, ow), (n, c, h, w),
                       kh, kw, stride, pad=padding)
    db = None if bias is None else grad.sum(axis=(0, 2, 3))
    return out, dx, dw, db


def _same_bits(a, b):
    """Equal values (NaN where NaN) and equal sign bits, zeros included.

    The sign of a NaN is the one bit not compared: when NaNs of both signs
    meet in one sum (``inf - inf`` is ``-nan`` on x86, ``np.nan`` is
    ``+nan``) the survivor is whichever operand the compiled inner loop
    happens to put first, and ``_col2im``'s strided loop and a contiguous
    one already disagree on that.  Nothing downstream reads it.
    """
    number = ~np.isnan(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a)[number], np.signbit(b)[number]))


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan]


class TestConvGatheredPath:
    """Narrow output maps (``ow <= 8``) gather through a memoised index
    plan; the result is the strided path's, bit for bit."""

    @given(n=st.sampled_from([1, 7, 8, 50]),
           hw=st.one_of(st.sampled_from([(8, 4), (2, 1), (1, 1), (4, 4)]),
                        st.tuples(st.integers(1, 12), st.integers(1, 12))),
           kernel=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3),
           padding=st.integers(0, 2),
           layout=st.sampled_from(["dense", "grouped", "depthwise"]),
           cg=st.integers(1, 3), ocg=st.integers(1, 3),
           with_bias=st.booleans(), seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float32, np.float64]),
           specials=st.lists(st.sampled_from(_SPECIALS), max_size=3))
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_strided_reference(
            self, n, hw, kernel, stride, padding, layout, cg, ocg, with_bias,
            seed, dtype, specials):
        h, w = hw
        assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
        groups = 1 if layout == "dense" else 3
        if layout == "depthwise":
            cg = ocg = 1
        self._check(n, cg * groups, h, w, ocg * groups, kernel, stride,
                    padding, groups, with_bias, seed, dtype, specials)

    @pytest.mark.parametrize("w,stride,ow", [(8, 1, 8), (9, 1, 9),
                                             (16, 2, 8), (18, 2, 9)])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_both_sides_of_the_threshold(self, w, stride, ow, groups):
        assert (w + 2 - 3) // stride + 1 == ow
        assert (ow <= F._GATHER_MAX_OW) == (ow == 8)
        self._check(7, 4, 5, w, 4, 3, stride, 1, groups, True, ow,
                    np.float32, _SPECIALS)

    @staticmethod
    def _check(n, c, h, w, oc, kernel, stride, padding, groups, with_bias,
               seed, dtype, specials):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        wt = rng.standard_normal((oc, c // groups, kernel, kernel)
                                 ).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype) if with_bias else None
        oh = (h + 2 * padding - kernel) // stride + 1
        ow = (w + 2 * padding - kernel) // stride + 1
        grad = rng.standard_normal((n, oc, oh, ow)).astype(dtype)
        for value in specials:
            # Signed zeros everywhere a sum can see them; inf / NaN in the
            # input and the upstream gradient.
            for array in (x, wt, grad):
                array[rng.random(array.shape) < 0.1] = value
        xt, wtt = Tensor(x.copy(), True), Tensor(wt.copy(), True)
        bt = Tensor(b.copy(), True) if with_bias else None
        with np.errstate(invalid="ignore"):  # inf * 0, inf - inf in GEMMs
            out = ag.conv2d(xt, wtt, bt, stride=stride, padding=padding,
                            groups=groups)
            out.backward(grad)
            want = conv2d_strided_reference(x, wt, b, stride, padding,
                                            groups, grad)
        got = (out.data, xt.grad, wtt.grad, bt.grad if with_bias else None)
        for name, a, ref in zip(("out", "dx", "dw", "db"), got, want):
            if ref is not None:
                assert _same_bits(a, ref), name
        assert xt.grad.flags.c_contiguous

    GEOMETRIES = [
        # (h, w, kh, kw, stride, padding)
        (4, 4, 3, 3, 1, 1), (8, 4, 3, 3, 1, 1), (2, 1, 3, 3, 1, 1),
        (1, 1, 3, 3, 1, 1), (8, 8, 3, 3, 2, 1), (7, 5, 5, 3, 2, 2),
        (6, 6, 2, 2, 1, 0), (5, 5, 3, 3, 3, 1), (4, 4, 1, 1, 2, 0),
        (6, 6, 2, 2, 2, 0), (7, 7, 2, 2, 3, 0), (1, 1, 1, 1, 3, 1),
    ]

    @pytest.mark.parametrize("h,w,kh,kw,stride,padding", GEOMETRIES)
    def test_plan_laws(self, h, w, kh, kw, stride, padding):
        fwd_index, bwd_index = F._gather_plan(h, w, kh, kw, stride, padding)
        # Forward: the positions an as_strided patch view reads from an
        # arange map, padding taps <-> the zero slot h*w.
        padded = np.full((1, 1, h + 2 * padding, w + 2 * padding), h * w)
        padded[0, 0, padding:padding + h, padding:padding + w] = \
            np.arange(h * w).reshape(h, w)
        view = F._im2col_view(padded, kh, kw, stride)
        assert np.array_equal(fwd_index, view.reshape(-1))
        assert fwd_index.dtype == np.intp and not fwd_index.flags.writeable
        if padding == 0 and stride >= kh and stride >= kw:
            assert bwd_index is None  # disjoint windows: _col2im assigns
            return
        # Backward: behind one zero slot, exactly the slots whose forward
        # index is the pixel, ascending; zero slots fill the remainder.
        zero_slot = fwd_index.size
        assert bwd_index.dtype == np.intp and not bwd_index.flags.writeable
        assert bwd_index.shape[1] == h * w
        assert (bwd_index[0] == zero_slot).all()
        deepest = 0
        for pixel in range(h * w):
            readers = np.flatnonzero(fwd_index == pixel)
            column = bwd_index[1:, pixel]
            assert np.array_equal(column[:readers.size], readers)
            assert (column[readers.size:] == zero_slot).all()
            deepest = max(deepest, readers.size)
        assert len(bwd_index) == 1 + max(1, deepest)

    def test_stride_compacts_the_backward_depth(self):
        assert len(F._gather_plan(8, 8, 3, 3, 1, 1)[1]) == 10
        assert len(F._gather_plan(8, 8, 3, 3, 2, 1)[1]) == 5

    def test_plan_is_memoised_by_geometry_alone(self):
        F._gather_plan.cache_clear()
        rng = np.random.default_rng(0)
        for n, c, oc, groups in [(2, 4, 4, 1), (5, 4, 8, 1), (2, 6, 6, 2),
                                 (3, 6, 6, 6)]:
            x = Tensor(rng.standard_normal((n, c, 6, 4)).astype(np.float32))
            wt = Tensor(rng.standard_normal(
                (oc, c // groups, 3, 3)).astype(np.float32))
            ag.conv2d(x, wt, padding=1, groups=groups)
        info = F._gather_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    def test_wide_and_pointwise_maps_build_no_plan(self):
        F._gather_plan.cache_clear()
        rng = np.random.default_rng(1)
        wide = Tensor(rng.standard_normal((2, 3, 4, 9)).astype(np.float32))
        ag.conv2d(wide, Tensor(np.ones((2, 3, 3, 3), np.float32)), padding=1)
        narrow = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        ag.conv2d(narrow, Tensor(np.ones((2, 3, 1, 1), np.float32)))
        assert F._gather_plan.cache_info().currsize == 0

    def test_helpers_are_private(self):
        """Not ops: the ledger's tracer wraps ``ag.__all__`` only."""
        for name in ("_gather_plan", "_zero_column", "_GATHER_MAX_OW"):
            assert name not in ag.__all__ and name not in F.__all__

    @pytest.mark.parametrize("xs,ws,stride,padding,groups", [
        # depthwise at stride > kernel: narrow (ow 3), wide (ow 9)
        ((2, 3, 3, 11), (3, 1, 3, 3), 4, 0, 3),
        ((1, 2, 3, 35), (2, 1, 3, 3), 4, 0, 2),
        ((2, 3, 4, 9), (3, 1, 2, 2), 3, 1, 3),      # ... padded: adds
        # 1x1 spatial input: narrow (ow 1), wide (ow 9, all-padding taps)
        ((2, 3, 1, 1), (4, 3, 3, 3), 1, 1, 1),
        ((2, 2, 1, 1), (3, 2, 3, 3), 1, 5, 1),
        ((3, 2, 1, 1), (2, 1, 3, 3), 1, 1, 2),      # ... depthwise
        # batch 1: narrow (ow 4), wide (ow 10)
        ((1, 3, 4, 4), (4, 3, 3, 3), 1, 1, 1),
        ((1, 2, 3, 10), (3, 2, 3, 3), 1, 1, 1),
        ((1, 4, 5, 3), (4, 1, 3, 3), 2, 1, 4),      # ... depthwise
    ])
    def test_float64_central_differences(self, xs, ws, stride, padding,
                                         groups):
        x, w, b = _t(xs, 60), _t(ws, 61, 0.5), _t((ws[0],), 62)
        oh = (xs[2] + 2 * padding - ws[2]) // stride + 1
        ow = (xs[3] + 2 * padding - ws[3]) // stride + 1
        weights = Tensor(np.random.default_rng(63).standard_normal(
            (xs[0], ws[0], oh, ow)))

        def loss():
            out = ag.conv2d(x, w, b, stride=stride, padding=padding,
                            groups=groups)
            return (out * weights).sum()

        check_gradients(loss, [x, w, b], atol=1e-6, rtol=1e-5, eps=1e-5)


def conv_bn_act_chain(x, w, b, norm, act, stride, padding, groups):
    """The three tape nodes ``conv2d(norm=, act=)`` stands in for, built
    from the public ops: ``conv2d``, ``batch_norm`` and ``relu`` /
    ``relu6``."""
    gamma, beta, mean, var, training, momentum, eps = norm
    out = ag.batch_norm(ag.conv2d(x, w, b, stride=stride, padding=padding,
                                  groups=groups),
                        gamma, beta, mean, var, training, momentum, eps)
    if act == "relu":
        return ag.relu(out)
    if act == "relu6":
        return ag.relu6(out)
    return out


class TestFusedConvBatchNormAct:
    """``conv2d(norm=..., act=...)`` is the conv2d -> batch_norm -> act
    chain bit for bit — output, every gradient, both running buffers —
    in one tape node."""

    @given(n=st.sampled_from([1, 3, 8]),
           # output widths on both sides of _GATHER_MAX_OW at stride 1 and 2
           hw=st.sampled_from([(4, 4), (8, 4), (2, 1), (1, 1), (5, 9),
                               (3, 18), (2, 20)]),
           layout=st.sampled_from(["dense", "grouped", "depthwise",
                                   "pointwise"]),
           stride=st.integers(1, 2), padding=st.integers(0, 1),
           act=st.sampled_from([None, "relu", "relu6"]),
           training=st.booleans(), no_grad=st.booleans(),
           # which leaves train: input (not for a stem), conv, norm (FeDepth
           # freezes whole stages: conv and norm together or separately)
           x_grad=st.booleans(), conv_grad=st.booleans(),
           norm_grad=st.booleans(), with_bias=st.booleans(),
           seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float32, np.float64]),
           specials=st.lists(st.sampled_from(_SPECIALS), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_three_op_chain(
            self, n, hw, layout, stride, padding, act, training, no_grad,
            x_grad, conv_grad, norm_grad, with_bias, seed, dtype, specials):
        h, w = hw
        kernel = 1 if layout == "pointwise" else 3
        assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
        groups = {"dense": 1, "pointwise": 1, "grouped": 2, "depthwise": 4}[
            layout]
        c, oc = (4, 4) if layout == "depthwise" else (4, 6)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        wt = rng.standard_normal((oc, c // groups, kernel, kernel)
                                 ).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype)
        # gamma up to ~4 so relu6's upper clip is exercised too
        gamma = (rng.standard_normal(oc) * 2.0).astype(dtype)
        beta = rng.standard_normal(oc).astype(dtype)
        mean = rng.standard_normal(oc).astype(dtype)
        var = (rng.random(oc) + 0.5).astype(dtype)
        oh = (h + 2 * padding - kernel) // stride + 1
        ow = (w + 2 * padding - kernel) // stride + 1
        grad = rng.standard_normal((n, oc, oh, ow)).astype(dtype)
        for value in specials:
            # signed zeros in gamma and beta make signed-zero norm outputs
            for array in (x, wt, grad, gamma, beta):
                array[rng.random(array.shape) < 0.1] = value

        def run(fused):
            leaves = [Tensor(x.copy(), x_grad), Tensor(wt.copy(), conv_grad),
                      Tensor(b.copy(), conv_grad) if with_bias else None,
                      Tensor(gamma.copy(), norm_grad),
                      Tensor(beta.copy(), norm_grad)]
            xt, wtt, bt, gt, btt = leaves
            norm = (gt, btt, mean.copy(), var.copy(), training, 0.1, 1e-5)
            conv = dict(stride=stride, padding=padding, groups=groups)
            if fused:
                out = ag.conv2d(xt, wtt, bt, **conv, norm=norm, act=act)
            else:
                out = conv_bn_act_chain(xt, wtt, bt, norm, act, **conv)
            if out._backward is not None:
                out.backward(grad)
            return out, [None if t is None else t.grad for t in leaves], norm

        with np.errstate(all="ignore"):  # inf * 0, inf - inf, NaN statistics
            if no_grad:
                with ag.no_grad():
                    (out, grads, norm), (ref, ref_grads, ref_norm) = \
                        run(True), run(False)
                assert out._backward is None
            else:
                (out, grads, norm), (ref, ref_grads, ref_norm) = \
                    run(True), run(False)
        assert (out._backward is None) == (ref._backward is None)
        assert _same_bits(out.data, ref.data)
        names = ("dx", "dw", "db", "dgamma", "dbeta")
        for name, got, want in zip(names, grads, ref_grads):
            if want is None:
                assert got is None, name
            else:
                assert _same_bits(got, want), name
        assert _same_bits(norm[2], ref_norm[2]), "running_mean"
        assert _same_bits(norm[3], ref_norm[3]), "running_var"
        if out._backward is not None:
            assert len(out._parents) == (5 if with_bias else 4)

    def test_one_tape_node_and_three_activations(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), True)
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32), True)
        norm = (Tensor(np.ones(5, np.float32), True),
                Tensor(np.zeros(5, np.float32), True),
                np.zeros(5, np.float32), np.ones(5, np.float32), True, 0.1,
                1e-5)
        for act, outputs in ((None, 2), ("relu", 3), ("relu6", 3)):
            with ag.profile() as report:
                out = ag.conv2d(x, w, padding=1, norm=norm, act=act)
            assert out._parents == (x, w, norm[0], norm[1])
            assert report.activation_bytes == outputs * out.data.nbytes
            assert report.op_counts == {"conv2d": 1}

    def test_act_needs_a_norm_and_a_known_name(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), np.float32))
        norm = (Tensor(np.ones(1, np.float32)), Tensor(np.zeros(1, np.float32)),
                np.zeros(1, np.float32), np.ones(1, np.float32), False, 0.1,
                1e-5)
        with pytest.raises(ValueError):
            ag.conv2d(x, w, act="relu")
        with pytest.raises(ValueError):
            ag.conv2d(x, w, norm=norm, act="gelu")

    @pytest.mark.parametrize("act", [None, "relu", "relu6"])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("xs,ws,stride,padding,groups", [
        ((3, 2, 4, 4), (3, 2, 3, 3), 1, 1, 1),      # gathered
        ((2, 2, 3, 10), (3, 2, 3, 3), 2, 1, 1),     # ... stride 2 (ow 5)
        ((2, 3, 2, 11), (3, 3, 3, 3), 1, 1, 1),     # strided (ow 11)
        ((2, 4, 4, 4), (4, 1, 3, 3), 2, 1, 4),      # depthwise
        ((3, 4, 3, 3), (5, 4, 1, 1), 1, 0, 1),      # pointwise
    ])
    def test_float64_central_differences(self, xs, ws, stride, padding,
                                         groups, training, act):
        oc = ws[0]
        x, w, b = _t(xs, 70), _t(ws, 71, 0.5), _t((oc,), 72)
        gamma, beta = _t((oc,), 73, 2.0), _t((oc,), 74)
        mean = np.random.default_rng(75).standard_normal(oc)
        var = np.random.default_rng(76).random(oc) + 0.5
        oh = (xs[2] + 2 * padding - ws[2]) // stride + 1
        ow = (xs[3] + 2 * padding - ws[3]) // stride + 1
        weights = Tensor(np.random.default_rng(77).standard_normal(
            (xs[0], oc, oh, ow)))

        def loss():
            norm = (gamma, beta, mean.copy(), var.copy(), training, 0.1, 1e-5)
            out = ag.conv2d(x, w, b, stride=stride, padding=padding,
                            groups=groups, norm=norm, act=act)
            return (out * weights).sum()

        check_gradients(loss, [x, w, b, gamma, beta], atol=1e-6, rtol=1e-5,
                        eps=1e-5)


class TestNoGradIsGradMode:
    """A forward without a tape (chunked conv patches, the fused norm
    written into the conv output, one-buffer ``layer_norm`` / ``gelu``)
    returns the taped forward's output bit for bit."""

    @given(n=st.integers(1, 40),
           # output widths on both sides of _GATHER_MAX_OW at stride 1 and 2
           hw=st.sampled_from([(4, 4), (3, 8), (5, 9), (3, 18), (6, 20)]),
           layout=st.sampled_from(["dense", "grouped", "depthwise",
                                   "pointwise"]),
           stride=st.integers(1, 2), padding=st.integers(0, 1),
           with_bias=st.booleans(), fused=st.booleans(),
           act=st.sampled_from([None, "relu", "relu6"]),
           training=st.booleans(), seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None)
    def test_conv2d(self, n, hw, layout, stride, padding, with_bias, fused,
                    act, training, seed, dtype):
        h, w = hw
        kernel = 1 if layout == "pointwise" else 3
        groups = {"dense": 1, "pointwise": 1, "grouped": 2, "depthwise": 4}[
            layout]
        c, oc = (4, 4) if layout == "depthwise" else (4, 6)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        wt = rng.standard_normal((oc, c // groups, kernel, kernel)
                                 ).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype) if with_bias else None
        gamma, beta, mean = (rng.standard_normal((3, oc)) * 2.0).astype(dtype)
        var = (rng.random(oc) + 0.5).astype(dtype)

        def run():
            leaves = [Tensor(a, True) for a in (x, wt, gamma, beta)]
            norm = (leaves[2], leaves[3], mean.copy(), var.copy(), training,
                    0.1, 1e-5) if fused else None
            out = ag.conv2d(leaves[0], leaves[1],
                            None if b is None else Tensor(b, True),
                            stride=stride, padding=padding, groups=groups,
                            norm=norm, act=act if fused else None)
            return out, norm

        with ag.no_grad():
            out, norm = run()
        ref, ref_norm = run()
        assert out._backward is None and ref._backward is not None
        assert _same_bits(out.data, ref.data)
        if fused:
            assert _same_bits(norm[2], ref_norm[2]), "running_mean"
            assert _same_bits(norm[3], ref_norm[3]), "running_var"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 32, 32), (3, 7, 5), (1, 9)])
    def test_layer_norm_and_gelu(self, shape, dtype):
        rng = np.random.default_rng(shape[-1])
        x, gamma, beta = ((rng.standard_normal(s) * 3).astype(dtype)
                          for s in (shape, shape[-1], shape[-1]))

        def run():
            leaves = [Tensor(a, True) for a in (x, gamma, beta)]
            return ag.layer_norm(*leaves), ag.gelu(leaves[0])

        with ag.no_grad():
            outs = run()
        for out, ref in zip(outs, run()):
            assert out._backward is None and ref._backward is not None
            assert _same_bits(out.data, ref.data)
        assert np.array_equal(outs[0].data, layer_norm_reference(
            *(Tensor(a) for a in (x, gamma, beta))).data)

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [None, "relu"])
    @pytest.mark.parametrize("xs,ws,groups", [
        ((5, 3, 4, 4), (4, 3, 3, 3), 1),        # gathered
        ((3, 2, 6, 11), (4, 2, 3, 3), 1),       # strided
        ((4, 4, 4, 4), (4, 1, 3, 3), 4),        # depthwise
    ])
    def test_fused_training_node_is_the_reference_norm(self, xs, ws, groups,
                                                       act, grad_dtype):
        """The fused node's training forward (centred in place, output in
        the ``xhat * xhat`` scratch) and backward against
        ``batch_norm_reference`` on a separate conv output, under float32
        and float64 upstream gradients."""
        rng = np.random.default_rng(xs[3])
        oc = ws[0]
        arrays = [rng.standard_normal(s).astype(np.float32)
                  for s in (xs, ws, (oc,), (oc,), (oc,))]

        def run(fused):
            x, wt, b, gamma, beta = (Tensor(a.copy(), True) for a in arrays)
            stats = _bn_stats(oc)
            if fused:
                out = ag.conv2d(x, wt, b, padding=1, groups=groups,
                                norm=(gamma, beta, *stats, True, 0.1, 1e-5),
                                act=act)
            else:
                out = batch_norm_reference(
                    ag.conv2d(x, wt, b, padding=1, groups=groups), gamma,
                    beta, *stats, True)
                if act == "relu":
                    out = ag.relu(out)
            grad = np.random.default_rng(9).standard_normal(out.shape)
            out.backward(grad.astype(grad_dtype))
            return [out.data, *stats] + [t.grad for t in (x, wt, b, gamma,
                                                          beta)]

        names = ("out", "running_mean", "running_var", "dx", "dw", "db",
                 "dgamma", "dbeta")
        for name, got, want in zip(names, run(True), run(False)):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def _leaves_case(seed, shapes, op):
    """fwd+bwd of ``op`` over float32 leaves drawn, in order, from ``seed``."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape).astype(np.float32)
              for shape in shapes]

    def step():
        op(*(Tensor(a, requires_grad=True) for a in arrays)).sum().backward()

    return step


def _attention_layer_case():
    rng = np.random.default_rng(3)
    layer = nn.TransformerEncoderLayer(64, 4, 128, rng)
    layer.eval()
    x = rng.standard_normal((4, 32, 64)).astype(np.float32)

    def step():
        layer.zero_grad()
        layer(Tensor(x, requires_grad=True)).sum().backward()

    return step


def _train_step_case(arch):
    """One ``fl/client.py::train_local`` step: 8 16x16 images, SGD."""
    model = build_model(arch, num_classes=10, seed=0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, size=8)
    opt = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)

    def step():
        model.train()
        opt.zero_grad()
        ag.cross_entropy(model(x), labels).backward()
        opt.step()

    return step


def _train_local_case(arch):
    """``train_local`` whole: 4 batches of 8 16x16 images, one client round."""
    model = build_model(arch, num_classes=10, seed=0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((32, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, size=32)
    config = LocalTrainConfig(batch_size=8)

    def step():
        train_local(model, x, labels, config, np.random.default_rng(0))

    return step


def _eval_step_case(arch):
    """A no-grad eval forward of 64 16x16 images, as ``predict`` runs it."""
    model = build_model(arch, num_classes=10, seed=0).eval()
    x = np.random.default_rng(4).standard_normal((64, 3, 16, 16)).astype(
        np.float32)

    def step():
        with ag.no_grad():
            model(x)

    return step


def _conv_bn_eval_case(x, w, groups=1):
    """A no-grad eval conv -> BN -> relu node (the fused block)."""
    rng = np.random.default_rng(10)
    xd, wd = (rng.standard_normal(s).astype(np.float32) for s in (x, w))
    oc = w[0]
    gamma, beta = (Tensor(rng.standard_normal(oc).astype(np.float32))
                   for _ in range(2))

    def step():
        with ag.no_grad():
            ag.conv2d(Tensor(xd), Tensor(wd), padding=1, groups=groups,
                      norm=(gamma, beta, *_bn_stats(oc), False, 0.1, 1e-5),
                      act="relu")

    return step


def _conv(seed, x, w, bias=True, **conv):
    shapes = (x, w, (w[0],)) if bias else (x, w)
    return lambda: _leaves_case(
        seed, shapes, lambda *leaves: ag.conv2d(*leaves, **conv))


def _bn_stats(c):
    return np.zeros(c, np.float32), np.ones(c, np.float32)


# case -> (builder, gemm_calls, peak_alloc_bytes base).  The 4x4 / HAR rows
# are the shapes the ledger cells run: narrow maps, conv2d's gathered side;
# the 16x16 / 32x32 rows are its strided side.
COUNTER_CASES = {
    "conv2d": (_conv(0, (8, 16, 16, 16), (32, 16, 3, 3), padding=1),
               24, 3_137_140),
    "conv2d_1x1": (_conv(0, (8, 32, 16, 16), (64, 32, 1, 1)),
                   24, 1_324_440),
    "conv2d_depthwise": (_conv(0, (8, 32, 16, 16), (32, 1, 3, 3), bias=False,
                               padding=1, groups=32), 512, 5_610_120),
    "conv2d_stride2": (_conv(0, (4, 16, 32, 32), (32, 16, 3, 3), stride=2,
                             padding=1), 12, 1_826_804),
    "conv2d_4x4": (_conv(0, (8, 32, 4, 4), (32, 32, 3, 3), padding=1),
                   24, 566_972),
    "conv2d_har": (_conv(0, (8, 9, 8, 4), (8, 9, 3, 3), padding=1),
                   24, 300_412),
    "conv2d_depthwise_4x4": (_conv(0, (8, 64, 4, 4), (64, 1, 3, 3),
                                   bias=False, stride=2, padding=1,
                                   groups=64), 1_024, 402_160),
    "conv_bn_relu_4x4": (lambda: _leaves_case(
        9, [(8, 32, 4, 4), (32, 32, 3, 3), (32,), (32,)],
        lambda x, w, g, b: ag.conv2d(
            x, w, padding=1, norm=(g, b, *_bn_stats(32), True, 0.1, 1e-5),
            act="relu")), 24, 618_248),
    "linear": (lambda: _leaves_case(1, [(64, 256), (256, 256), (256,)],
                                    ag.linear), 0, 725_812),
    "batch_norm": (lambda: _leaves_case(
        2, [(16, 32, 16, 16), (32,), (32,)],
        lambda x, g, b: ag.batch_norm(x, g, b, *_bn_stats(32), True)),
        0, 2_659_500),
    "layer_norm": (lambda: _leaves_case(8, [(8, 32, 32), (32,), (32,)],
                                        ag.layer_norm), 0, 238_212),
    "attention": (_attention_layer_case, 32, 1_098_088),
    "attention_core": (lambda: _leaves_case(
        5, [(4, 4, 64, 16)] * 3,
        lambda q, k, v: ag.attention(q, k, v, 0.25)), 32, 1_122_572),
    # stride 1, no padding: the overlapping windows of the _col2im adjoint
    "col2im": (_conv(7, (8, 16, 16, 16), (16, 16, 3, 3), bias=False),
               24, 2_250_008),
    "mobilenet_step": (lambda: _train_step_case("mobilenet_v2"),
                       4_528, 7_783_928),
    "resnet_step": (lambda: _train_step_case("resnet18"), 280, 4_613_548),
    # One tape at a time: each step's loss is dropped once it is read, not
    # kept through the next forward (7 472 904 B with the two overlapping)
    "resnet_train_local": (lambda: _train_local_case("resnet18"),
                           1_120, 5_580_324),
    # No tape: patches 8 samples at a time, the norm written into the conv
    # output (whole-batch patches and four full-size arrays per node: 27.3,
    # 1.74, 27.3, 11.8 and 7.90 MB)
    "conv_bn_relu_eval": (lambda: _conv_bn_eval_case(
        (64, 32, 16, 16), (32, 32, 3, 3)), 64, 7_151_768),
    "conv_bn_relu_eval_4x4": (lambda: _conv_bn_eval_case(
        (64, 32, 4, 4), (32, 32, 3, 3)), 64, 448_864),
    "depthwise_eval": (lambda: _conv_bn_eval_case(
        (64, 32, 16, 16), (32, 1, 3, 3), groups=32), 2_048, 7_151_672),
    "mobilenet_eval": (lambda: _eval_step_case("mobilenet_v2"),
                       17_728, 4_598_984),
    "resnet_eval": (lambda: _eval_step_case("resnet18"), 768, 2_840_448),
}


class TestOpCounters:
    """One fwd+bwd call per case, after two warm-up calls (gather plans,
    optimiser moments): the GEMMs ``ProfileReport.gemm_calls`` counts are
    exact, and the tracemalloc peak stays within 1.2x of its recorded level.
    Both are machine-independent — numpy registers array data with
    tracemalloc, BLAS scratch is invisible — so the bound is tight where a
    timing loop on a shared host could not be."""

    @pytest.mark.parametrize("case", list(COUNTER_CASES))
    def test_gemm_calls_and_peak_alloc(self, case):
        build, gemm_calls, peak_base = COUNTER_CASES[case]
        step = build()
        step()
        step()
        with ag.profile() as report:
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report.gemm_calls == gemm_calls
        assert peak <= 1.2 * peak_base, \
            f"peak {peak} B is x{peak / peak_base:.3f} of {peak_base} B"

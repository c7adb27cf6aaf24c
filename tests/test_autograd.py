"""Gradient checks and semantics tests for the autograd engine."""

import numpy as np
import pytest

from repro import autograd as ag
from repro.autograd import Tensor, check_gradients
from repro.autograd import functional as F


def _t(shape, seed=0, scale=1.0):
    """Float64 test tensor: central differences need the extra precision."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestElementwise:
    def test_add_broadcast(self):
        a, b = _t((3, 4), 1), _t((4,), 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_sub_mul_div(self):
        a, b = _t((2, 3), 1), _t((2, 3), 2)
        b.data += 3.0  # keep divisor away from zero
        check_gradients(lambda: ((a - b) * a / b).sum(), [a, b])

    def test_scalar_ops(self):
        a = _t((5,), 3)
        check_gradients(lambda: (2.0 * a + 1.0 - a / 2.0).sum(), [a])

    def test_pow_neg(self):
        a = _t((4,), 4)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: (a ** 3.0).sum() + (-a).sum(), [a])

    @pytest.mark.parametrize("fn", [ag.sigmoid, ag.relu, ag.relu6, ag.gelu,
                                    ag.hardswish])
    def test_unary_activations(self, fn):
        a = _t((3, 5), 5)
        a.data += 0.05  # avoid the exact kink of relu-like functions
        check_gradients(lambda: fn(a).sum(), [a])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = _t((3, 4, 2), 7)
        check_gradients(lambda: (a.sum(axis=1, keepdims=True) * 2.0).sum(), [a])

    def test_mean(self):
        a = _t((4, 6), 8)
        check_gradients(lambda: a.mean(axis=0).sum() + a.mean(), [a])

    def test_reshape_transpose(self):
        a = _t((2, 3, 4), 10)
        check_gradients(
            lambda: a.reshape(6, 4).transpose((1, 0)).sum(), [a])

    def test_getitem(self):
        a = _t((6, 4), 11)
        check_gradients(lambda: a[1:4].sum() + a[0].sum(), [a])

    def test_concat(self):
        a, b = _t((2, 3), 12), _t((2, 5), 13)
        check_gradients(lambda: ag.concat([a, b], axis=1).sum(), [a, b])

    def test_matmul_2d(self):
        a, b = _t((3, 4), 14), _t((4, 2), 15)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self):
        a, b = _t((2, 3, 4), 16), _t((2, 4, 5), 17)
        check_gradients(lambda: (a @ b).sum(), [a, b])


_TARGET = np.random.default_rng(0).dirichlet(np.ones(6), size=4)
_ATTENTION = [(2, 2, 5, 3)] * 3

# functional op -> case -> (builder over float64 leaves, the leaves' shapes).
# Checked against central differences under a weighted upstream gradient: a
# plain ``.sum()`` loss zeroes a norm's input gradient and hides transposed
# layouts.  Running statistics, indices and dropout generators are built
# inside the builder, so every evaluation differentiates the same function.
GRADCHECKS = {
    "conv2d": {
        "3x3_bias": (lambda x, w, b: ag.conv2d(x, w, b, padding=1),
                     [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
        "stride2": (lambda x, w: ag.conv2d(x, w, stride=2, padding=1),
                    [(1, 2, 8, 8), (3, 2, 3, 3)]),
        "depthwise": (lambda x, w: ag.conv2d(x, w, padding=1, groups=4),
                      [(2, 4, 6, 6), (4, 1, 3, 3)]),
        "1x1": (ag.conv2d, [(2, 4, 5, 5), (6, 4, 1, 1)]),
    },
    "global_avg_pool2d": {"5x5": (ag.global_avg_pool2d, [(2, 3, 5, 5)])},
    "batch_norm": {
        "4d_training": (lambda x, g, b: ag.batch_norm(
            x, g, b, np.zeros(3), np.ones(3), training=True),
            [(4, 3, 2, 2), (3,), (3,)]),
        "2d_training": (lambda x, g, b: ag.batch_norm(
            x, g, b, np.zeros(4), np.ones(4), training=True),
            [(6, 4), (4,), (4,)]),
        "4d_eval": (lambda x, g, b: ag.batch_norm(
            x, g, b, np.full(3, 0.5), np.full(3, 2.0), training=False),
            [(4, 3, 2, 2), (3,), (3,)]),
    },
    "layer_norm": {"3d": (ag.layer_norm, [(3, 4, 5), (5,), (5,)])},
    "embedding": {"duplicates": (
        lambda w: ag.embedding(w, np.array([[1, 2, 3], [3, 3, 9]])),
        [(10, 4)])},
    "dropout": {"training": (
        lambda x: ag.dropout(x, 0.3, True, np.random.default_rng(0)),
        [(5, 6)])},
    "attention": {
        "plain": (lambda q, k, v: ag.attention(q, k, v, 0.6), _ATTENTION),
        "dropout": (lambda q, k, v: ag.attention(
            q, k, v, 0.6, rng=np.random.default_rng(5), p=0.3,
            training=True), _ATTENTION),
    },
    "softmax": {"rows": (ag.softmax, [(3, 5)])},
    "cross_entropy": {"labels": (
        lambda x: ag.cross_entropy(x, np.array([0, 2, 5, 1])), [(4, 6)])},
    "soft_cross_entropy": {"dirichlet": (
        lambda x: ag.soft_cross_entropy(x, _TARGET), [(4, 6)])},
    "linear": {
        "bias": (ag.linear, [(4, 3), (5, 3), (5,)]),
        "no_bias": (ag.linear, [(4, 3), (5, 3)]),
        "3d_bias": (ag.linear, [(2, 3, 4), (6, 4), (6,)]),
        "3d_no_bias": (ag.linear, [(2, 3, 4), (6, 4)]),
    },
}
_GRADCHECK_CASES = [(op, case) for op, cases in GRADCHECKS.items()
                    for case in cases]


class TestGradcheckTable:
    def test_every_functional_op_has_a_row(self):
        assert set(GRADCHECKS) == set(F.__all__)

    @pytest.mark.parametrize("op,case", _GRADCHECK_CASES,
                             ids=[f"{op}-{case}"
                                  for op, case in _GRADCHECK_CASES])
    def test_float64_central_differences(self, op, case):
        fn, shapes = GRADCHECKS[op][case]
        leaves = [_t(shape, seed) for seed, shape in enumerate(shapes, 1)]
        upstream = Tensor(np.random.default_rng(0).standard_normal(
            fn(*leaves).shape))
        check_gradients(lambda: (fn(*leaves) * upstream).sum(), leaves,
                        atol=1e-6, rtol=1e-5, eps=1e-5)


class TestNNOps:
    def test_conv2d_shape_validation(self):
        x, w = _t((1, 3, 4, 4)), _t((4, 2, 3, 3))
        with pytest.raises(ValueError):
            ag.conv2d(x, w)

    def test_batch_norm_eval_uses_running_stats(self):
        x = _t((4, 3, 2, 2), 21)
        g = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, np.float32), requires_grad=True)
        rm = np.full(3, 0.5, np.float32)
        rv = np.full(3, 2.0, np.float32)
        out = ag.batch_norm(x, g, b, rm, rv, training=False)
        expected = (x.data - 0.5) / np.sqrt(2.0 + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_batch_norm_updates_running_stats(self):
        x = _t((8, 3, 4, 4), 22)
        g, b = _t((3,), 23), _t((3,), 24)
        rm = np.zeros(3, np.float32)
        rv = np.ones(3, np.float32)
        ag.batch_norm(x, g, b, rm, rv, training=True, momentum=0.5)
        batch_mean = x.data.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(rm, 0.5 * batch_mean, rtol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        x = _t((4, 7), 32)
        out = ag.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-5)

    def test_cross_entropy_matches_manual(self):
        x = _t((4, 6), 35)
        labels = np.array([0, 2, 5, 1])
        loss = ag.cross_entropy(x, labels)
        z = x.data - x.data.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        manual = -logp[np.arange(4), labels].mean()
        assert abs(loss.item() - manual) < 1e-6

    def test_dropout_eval_is_identity(self):
        x = _t((5, 5), 39)
        out = ag.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), np.float32), requires_grad=True)
        out = ag.dropout(x, 0.25, training=True, rng=rng)
        # Inverted dropout keeps the expectation.
        assert abs(out.data.mean() - 1.0) < 0.02


class TestGraphSemantics:
    def test_reused_tensor_accumulates(self):
        a = _t((3,), 40)
        check_gradients(lambda: (a * a + a).sum(), [a])

    def test_diamond_graph(self):
        a = _t((4,), 41)
        def fn():
            b = a * 2.0
            c = a + 1.0
            return (b * c).sum()
        check_gradients(fn, [a])

    def test_no_grad_blocks_graph(self):
        a = _t((3,), 42)
        with ag.no_grad():
            out = (a * 2.0).sum()
        assert out._backward is None
        assert not out.requires_grad

    def test_backward_accumulates_across_calls(self):
        a = _t((3,), 43)
        (a * 2.0).sum().backward()
        first = a.grad.copy()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0 * first)

    def test_detach(self):
        a = _t((3,), 44)
        d = a.detach()
        assert not d.requires_grad
        (d * 3.0).sum().backward()
        assert a.grad is None

    def test_deep_chain(self):
        a = _t((2, 2), 45)
        def fn():
            x = a
            for _ in range(20):
                x = ag.sigmoid(x * 0.9 + 0.1)
            return x.sum()
        check_gradients(fn, [a])


def _f32(shape, seed=0, positive=False):
    data = np.random.default_rng(seed).standard_normal(shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data.astype(np.float32), requires_grad=True)


def _bn(x):
    c = x.shape[1]
    return ag.batch_norm(x, _f32((c,), 1), _f32((c,), 2),
                         np.zeros(c, np.float32), np.ones(c, np.float32),
                         training=True)


_LABELS = np.array([0, 2, 1, 2])
_PROBS = np.full((4, 3), 1.0 / 3.0)

# name -> builder of one tape node from float32 leaves.  Every differentiable
# name in ``ag.__all__`` has a row here or in ``_SCALAR_DRIFT`` below
# (``test_every_public_op_is_listed``), then the ``Tensor`` operators.
FLOAT32_OPS = {
    "sigmoid": lambda: ag.sigmoid(_f32((3, 4))),
    "relu": lambda: ag.relu(_f32((3, 4))),
    "relu6": lambda: ag.relu6(_f32((3, 4))),
    "hardswish": lambda: ag.hardswish(_f32((3, 4))),
    "gelu": lambda: ag.gelu(_f32((3, 4))),
    "tsum": lambda: ag.tsum(_f32((3, 4)), axis=1),
    "reshape": lambda: ag.reshape(_f32((3, 4)), 4, 3),
    "transpose": lambda: ag.transpose(_f32((3, 4)), (1, 0)),
    "concat": lambda: ag.concat([_f32((3, 4)), _f32((2, 4), 1)], axis=0),
    "matmul": lambda: ag.matmul(_f32((3, 4)), _f32((4, 2), 1)),
    "pad2d": lambda: ag.pad2d(_f32((2, 3, 4, 4)), 1),
    "conv2d": lambda: ag.conv2d(_f32((2, 3, 4, 4)), _f32((4, 3, 3, 3), 1),
                                _f32((4,), 2), padding=1),
    "conv2d_wide": lambda: ag.conv2d(_f32((2, 3, 4, 12)),
                                     _f32((4, 3, 3, 3), 1), padding=1),
    "conv2d_depthwise": lambda: ag.conv2d(
        _f32((2, 3, 4, 4)), _f32((3, 1, 3, 3), 1), stride=2, padding=1,
        groups=3),
    "conv2d_norm_relu6": lambda: ag.conv2d(
        _f32((2, 3, 4, 4)), _f32((4, 3, 3, 3), 1), _f32((4,), 2), padding=1,
        norm=(_f32((4,), 3), _f32((4,), 4), np.zeros(4, np.float32),
              np.ones(4, np.float32), True, 0.1, 1e-5), act="relu6"),
    "global_avg_pool2d": lambda: ag.global_avg_pool2d(_f32((2, 3, 4, 4))),
    "batch_norm": lambda: _bn(_f32((4, 3, 2, 2))),
    "layer_norm": lambda: ag.layer_norm(_f32((2, 5, 8)), _f32((8,), 1),
                                        _f32((8,), 2)),
    "embedding": lambda: ag.embedding(_f32((10, 4)), np.array([[1, 2, 2]])),
    "dropout": lambda: ag.dropout(_f32((3, 4)), 0.5, True,
                                  np.random.default_rng(0)),
    "attention": lambda: ag.attention(_f32((2, 2, 4, 3)), _f32((2, 2, 4, 3), 1),
                                      _f32((2, 2, 4, 3), 2), 0.5),
    "softmax": lambda: ag.softmax(_f32((4, 3))),
    "cross_entropy": lambda: ag.cross_entropy(_f32((4, 3)), _LABELS),
    "soft_cross_entropy": lambda: ag.soft_cross_entropy(_f32((4, 3)), _PROBS),
    "linear": lambda: ag.linear(_f32((2, 5, 4)), _f32((3, 4), 1),
                                _f32((3,), 2)),
    "t + t": lambda: _f32((3, 4)) + _f32((4,), 1),
    "t - t": lambda: _f32((3, 4)) - _f32((4,), 1),
    "t * t": lambda: _f32((3, 4)) * _f32((4,), 1),
    "t / t": lambda: _f32((3, 4)) / _f32((4,), 1, positive=True),
    "t ** 2": lambda: _f32((3, 4)) ** 2,
    "-t": lambda: -_f32((3, 4)),
    "t @ t": lambda: _f32((3, 4)) @ _f32((4, 2), 1),
    "t[slice]": lambda: _f32((3, 4))[1:, ::2],
    "t[fancy]": lambda: _f32((3, 4))[np.array([0, 0, 2])],
    "t.sum()": lambda: _f32((3, 4)).sum(),
    "t.reshape": lambda: _f32((3, 4)).reshape(12),
    "t.transpose": lambda: _f32((3, 4)).transpose((1, 0)),
}

# A python scalar operand is wrapped as a 0-d float64 array, which NEP 50
# promotes against: the ROADMAP item "One sanctioned numerics-and-format
# re-golden", part "Weak python scalars".  Fixing it changes History digits,
# so it is a titled re-golden PR; strict xfail makes that PR delete these
# marks.
_SCALAR_DRIFT = {
    "tmean": lambda: ag.tmean(_f32((3, 4)), axis=1),
    "t.mean()": lambda: _f32((3, 4)).mean(),
    "t * 0.5": lambda: _f32((3, 4)) * 0.5,
    "t + 1.0": lambda: _f32((3, 4)) + 1.0,
    "1.0 - t": lambda: 1.0 - _f32((3, 4)),
    "1.0 / t": lambda: 1.0 / _f32((3, 4), positive=True),
}
FLOAT32_OPS.update(_SCALAR_DRIFT)

_NOT_OPS = {"Tensor", "as_tensor", "is_grad_enabled", "no_grad",
            "check_gradients", "numerical_gradient", "profile",
            "ProfileReport"}


class TestFloat32StaysFloat32:
    """float32 in -> float32 out and float32 gradients from the node's own
    backward: one float64 gradient makes every backward upstream of it run
    in float64."""

    def test_every_public_op_is_listed(self):
        assert set(ag.__all__) - _NOT_OPS <= set(FLOAT32_OPS)

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, reason="python scalar -> 0-d float64 (ROADMAP: "
            "One sanctioned numerics-and-format re-golden, weak python "
            "scalars)"))
        if name in _SCALAR_DRIFT else name for name in FLOAT32_OPS])
    def test_forward_and_backward_dtype(self, name):
        node = FLOAT32_OPS[name]()
        assert node._backward is not None, "not a tape node"
        assert node.dtype == np.float32
        grads = node._backward(np.ones_like(node.data))
        assert len(grads) == len(node._parents)
        for parent, grad in zip(node._parents, grads):
            if grad is not None:
                assert grad.dtype == np.float32, parent.shape

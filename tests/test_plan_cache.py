"""Engine perf round 2 contracts: fused attention, vectorised col2im, and
cached step plans.

Three invariants pinned here:

* the fused :func:`repro.autograd.attention` op matches the composed
  matmul/softmax/dropout/matmul formulation in outputs, gradients and
  dropout RNG stream;
* the vectorised ``_col2im`` adjoint matches the reference scatter loop for
  overlapping, tiling and gapped (stride > kernel) geometries;
* step plans are pure derived state — scratch arenas reused across steps,
  keyed by (model signature, batch shape), and **byte-invisible**: training
  and histories are identical with and without an active plan step.
"""

import contextlib

import numpy as np
import pytest

from repro import autograd as ag
from repro import nn
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.autograd import plan
from repro.autograd.grad_check import check_gradients, compare_gradients
from repro.experiments.runner import execute_spec
from repro.experiments.spec import ConstraintSpec, RunSpec


@pytest.fixture(autouse=True)
def _plan_cache_reset():
    """Each test starts and ends with an empty thread registry."""
    plan.clear_thread_plans()
    yield
    plan.clear_thread_plans()


@contextlib.contextmanager
def _no_step(key, batch_shape):
    """Test-owned stand-in for ``plan.step``: plain execution, every
    ``workspace()`` call a fresh allocation — the plan-free reference."""
    yield None


def _t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


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


class TestStepPlans:
    @staticmethod
    def _train_step(params, conv, lin, xb, yb, opt):
        h = ag.relu(conv(Tensor(xb)))
        logits = lin(h.reshape(xb.shape[0], -1))
        opt.zero_grad()
        loss = ag.cross_entropy(logits, yb)
        loss.backward()
        opt.step()
        return loss

    def _make_model(self, seed=0):
        mrng = np.random.default_rng(seed)
        conv = nn.Conv2d(3, 8, 3, mrng, padding=1)
        lin = nn.Linear(8 * 8 * 8, 4, mrng)
        return conv, lin, conv.parameters() + lin.parameters()

    def test_same_plan_object_across_steps(self):
        conv, lin, params = self._make_model()
        opt = nn.SGD(params, lr=0.05)
        drng = np.random.default_rng(1)
        key = ("cell", tuple(p.data.shape for p in params))
        seen = []
        for _ in range(4):
            xb = drng.standard_normal((8, 3, 8, 8)).astype(np.float32)
            yb = drng.integers(0, 4, size=8)
            with plan.step(key, xb.shape) as p:
                self._train_step(params, conv, lin, xb, yb, opt)
            seen.append(p)
        assert all(p is seen[0] for p in seen)
        assert seen[0].steps == 4

    def test_distinct_plans_across_shapes_and_keys(self):
        conv, lin, params = self._make_model()
        opt = nn.SGD(params, lr=0.05)
        drng = np.random.default_rng(2)
        key = ("cell", tuple(p.data.shape for p in params))
        plans = {}
        for batch in (8, 4, 8):
            xb = drng.standard_normal((batch, 3, 8, 8)).astype(np.float32)
            yb = drng.integers(0, 4, size=batch)
            with plan.step(key, xb.shape) as p:
                self._train_step(params, conv, lin, xb, yb, opt)
            plans[batch] = p
        assert plans[8] is not plans[4]
        with plan.step(("other-cell",), (8, 3, 8, 8)) as p_other:
            pass
        assert p_other is not plans[8]
        assert len(plan.thread_plans()) == 3

    def test_workspace_buffers_recycled(self):
        with plan.step("ws-demo", (1,)) as p:
            first = plan.workspace((4, 4), np.float32)
            second = plan.workspace((4, 4), np.float32)
            assert first is not second  # same shape, same step: distinct
        with plan.step("ws-demo", (1,)) as p2:
            assert p2 is p
            assert plan.workspace((4, 4), np.float32) is first
            assert plan.workspace((4, 4), np.float32) is second

    def test_workspace_without_active_step_is_fresh(self):
        a = plan.workspace((3, 3), np.float32)
        b = plan.workspace((3, 3), np.float32)
        assert a is not b

    def test_nested_steps_pass_through(self):
        with plan.step("outer", (1,)) as outer:
            with plan.step("inner", (1,)) as inner:
                assert inner is None
            assert plan.current_step() is outer

    def test_training_identical_with_and_without_plans(self):
        """Same seeds, with vs without an active step (recycled arenas vs
        fresh allocations): every parameter byte-identical."""
        def run(step):
            plan.clear_thread_plans()
            conv, lin, params = self._make_model(seed=3)
            opt = nn.SGD(params, lr=0.05, momentum=0.9)
            drng = np.random.default_rng(4)
            key = ("cell", tuple(p.data.shape for p in params))
            for _ in range(5):
                xb = drng.standard_normal((8, 3, 8, 8)).astype(np.float32)
                yb = drng.integers(0, 4, size=8)
                with step(key, xb.shape):
                    self._train_step(params, conv, lin, xb, yb, opt)
            return [p.data.copy() for p in params]

        cached, plain = run(plan.step), run(_no_step)
        for a, b in zip(cached, plain):
            assert np.array_equal(a, b)

    def test_model_plan_key_structural(self):
        conv1, lin1, _ = self._make_model(seed=0)
        conv2, lin2, _ = self._make_model(seed=9)  # same shapes, new weights
        assert (plan.model_plan_key(conv1) == plan.model_plan_key(conv2))
        small = nn.Conv2d(3, 4, 3, np.random.default_rng(0))
        assert plan.model_plan_key(conv1) != plan.model_plan_key(small)

    def test_model_plan_key_sees_trainable_mask(self):
        """Freezing a parameter changes the backward graph, so it must
        change the plan key (FeDepth slides its trainable segment across
        rounds without ever changing the state dict)."""
        conv1, _, _ = self._make_model(seed=0)
        conv2, _, _ = self._make_model(seed=0)
        assert plan.model_plan_key(conv1) == plan.model_plan_key(conv2)
        conv2.weight.requires_grad = False
        assert plan.model_plan_key(conv1) != plan.model_plan_key(conv2)


SMOKE = ConstraintSpec(constraints=("computation",))


def _smoke_history(algorithm) -> str:
    spec = RunSpec(algorithm=algorithm, dataset="harbox", constraints=SMOKE,
                   scale="smoke", seed=0, workers=1, executor="inline")
    return execute_spec(spec, cache=None).history.to_json()


class TestPlanCacheHistoryIdentity:
    """Arena recycling must be invisible in results."""

    # fedepth is the adversarial case: its sliding trainable segment means
    # one model signature covers many distinct backward graphs, each
    # requesting a different set of scratch buffers from the same arenas.
    @pytest.mark.parametrize("algorithm", ["sheterofl", "fedproto", "fedepth"])
    def test_history_identical_plan_on_off(self, algorithm, monkeypatch):
        cached = _smoke_history(algorithm)
        assert plan.thread_plans(), "the cell trained without step plans"
        plan.clear_thread_plans()
        monkeypatch.setattr(plan, "step", _no_step)
        plain = _smoke_history(algorithm)
        assert not plan.thread_plans()
        assert cached == plain

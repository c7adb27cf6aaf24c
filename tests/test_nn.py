"""Tests for the module system, layers, containers and optimisers."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro import autograd as ag
from repro.autograd import Tensor, check_gradients


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestModuleSystem:
    def _mlp(self):
        rng = _rng()
        return nn.Sequential(nn.Linear(4, 8, rng), nn.Linear(8, 3, rng))

    def test_named_parameters_paths(self):
        mlp = self._mlp()
        names = {name for name, _ in mlp.named_parameters()}
        assert names == {"0.weight", "0.bias", "1.weight", "1.bias"}

    def test_state_dict_roundtrip(self):
        mlp = self._mlp()
        state = mlp.state_dict()
        other = self._mlp()
        for value in other.state_dict().values():
            value += 1.0  # make sure load actually changes something
        other.load_state_dict(state)
        for key, value in other.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_state_dict_is_a_copy(self):
        mlp = self._mlp()
        state = mlp.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.any(mlp.state_dict()["0.weight"] == 99.0)

    def test_load_state_dict_shape_mismatch(self):
        mlp = self._mlp()
        state = mlp.state_dict()
        state["0.weight"] = np.zeros((2, 2), np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            mlp.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        mlp = self._mlp()
        state = mlp.state_dict()
        del state["0.weight"]
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_load_state_dict_extra_key(self):
        mlp = self._mlp()
        state = mlp.state_dict()
        state["ghost"] = np.zeros(3, np.float32)
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_train_eval_propagates(self):
        mlp = self._mlp()
        mlp.eval()
        assert all(not m.training for _, m in mlp.named_modules())
        mlp.train()
        assert all(m.training for _, m in mlp.named_modules())

    def test_named_modules_pre_order(self):
        rng = _rng()
        net = nn.Sequential(nn.Sequential(nn.Linear(2, 2, rng)),
                            nn.Linear(2, 2, rng))
        assert [name for name, _ in net.named_modules()] == ["", "0", "0.0",
                                                             "1"]

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_scale_axes_metadata(self):
        rng = _rng()
        conv = nn.Conv2d(3, 8, 3, rng, scale_in=False)
        assert conv.weight.scale_axes == (0,)
        conv2 = nn.Conv2d(8, 8, 3, rng)
        assert conv2.weight.scale_axes == (0, 1)
        dw = nn.Conv2d(8, 8, 3, rng, groups=8)
        assert dw.weight.scale_axes == (0,)
        bn = nn.BatchNorm2d(8)
        axes = bn.state_scale_axes()
        assert axes["running_mean"] == (0,)
        assert axes["weight"] == (0,)

    def test_num_parameters(self):
        mlp = self._mlp()
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3


class TestStoredWalk:
    """``named_modules`` keeps its walk until a child module is assigned
    anywhere — every later structure change is seen — and the stored walk
    never makes a model a reference cycle."""

    @staticmethod
    def _names(model):
        return [name for name, _ in model.named_parameters()]

    def test_sequential_append_after_a_walk(self):
        rng = _rng()
        net = nn.Sequential(nn.Linear(2, 3, rng))
        assert self._names(net) == ["0.weight", "0.bias"]
        net.append(nn.Linear(3, 1, rng, bias=False))
        assert self._names(net) == ["0.weight", "0.bias", "1.weight"]

    def test_nested_module_list_append_after_a_walk(self):
        rng = _rng()
        inner = nn.ModuleList()
        outer = nn.Sequential(inner)
        assert self._names(outer) == []
        inner.append(nn.Linear(2, 2, rng))    # below the walked root
        assert self._names(outer) == ["0.0.weight", "0.0.bias"]
        assert len(outer.parameters()) == 2

    def test_indexed_modules_add_after_a_walk(self):
        from repro.models import build_model
        model = build_model("har_cnn", num_classes=3, seed=0)
        before = set(model.state_dict())
        model.heads.add(0, nn.Linear(8, 3, _rng()))
        after = set(model.state_dict())
        assert after - before == {"heads.0.weight", "heads.0.bias"}

    def test_child_replacement_after_a_walk(self):
        rng = _rng()
        net = nn.Sequential(nn.Sequential(nn.Linear(2, 2, rng)))
        old = net.parameters()
        net[0].swap = nn.BatchNorm2d(2)          # assigned to a child
        names = [name for name, _ in net.named_modules()]
        assert names == ["", "0", "0.0", "0.swap"]
        assert "0.swap.running_mean" in net.state_dict()
        net.eval()
        assert not net[0].swap.training
        replacement = nn.Linear(2, 2, _rng(1))
        setattr(net[0], "0", replacement)          # a child replaced
        assert net.parameters()[0] is replacement.weight
        assert net.parameters()[0] is not old[0]

    def test_walked_model_dies_by_refcount(self):
        from repro.fl.seeding import reseed_dropout
        from repro.models import build_model
        gc.collect()
        gc.disable()
        try:
            model = build_model("transformer", num_classes=3, seed=0)
            model.train()
            model.state_dict()
            model.load_state_dict(model.state_dict())
            reseed_dropout(model, np.random.default_rng(0))
            model.stem.named_modules()            # a stored walk below, too
            alive = weakref.ref(model)
            del model
            assert alive() is None                # no collector ran
        finally:
            gc.enable()


class TestLayers:
    def test_linear_forward_shape(self):
        layer = nn.Linear(5, 7, _rng())
        out = layer(Tensor(np.zeros((3, 5), np.float32)))
        assert out.shape == (3, 7)

    def test_conv_forward_shape(self):
        layer = nn.Conv2d(3, 6, 3, _rng(), stride=2, padding=1)
        out = layer(Tensor(np.zeros((2, 3, 8, 8), np.float32)))
        assert out.shape == (2, 6, 4, 4)

    def test_batchnorm_normalises(self):
        bn = nn.BatchNorm2d(3)
        rng = _rng(1)
        x = Tensor(rng.standard_normal((16, 3, 4, 4)) * 5 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 1e-5
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_embedding_shape(self):
        emb = nn.Embedding(20, 8, _rng())
        out = emb(np.array([[0, 1], [2, 3], [4, 5]]))
        assert out.shape == (3, 2, 8)

    def test_dropout_deterministic_given_seed(self):
        d1, d2 = nn.Dropout(0.5, seed=7), nn.Dropout(0.5, seed=7)
        x = Tensor(np.ones((4, 4), np.float32))
        np.testing.assert_array_equal(d1(x).data, d2(x).data)

    def test_sequential_iteration(self):
        seq = nn.Sequential(nn.Dropout(0.0), nn.Dropout(0.0))
        assert len(seq) == 2
        seq.append(nn.LayerNorm(4))
        assert len(seq) == 3
        assert isinstance(seq[2], nn.LayerNorm)

    def test_module_list_not_callable(self):
        ml = nn.ModuleList([nn.Dropout(0.0)])
        with pytest.raises(RuntimeError):
            ml(1)

    def test_attention_shapes(self):
        attn = nn.MultiHeadAttention(8, 2, _rng())
        x = Tensor(np.zeros((2, 5, 8), np.float32))
        assert attn(x).shape == (2, 5, 8)

    def test_attention_grad(self):
        rng = _rng(2)
        attn = nn.MultiHeadAttention(4, 2, rng)
        for p in attn.parameters():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(lambda: attn(x).sum(), [x] + attn.parameters())

    def test_transformer_layer_shapes(self):
        layer = nn.TransformerEncoderLayer(8, 2, 16, _rng())
        x = Tensor(np.zeros((2, 5, 8), np.float32))
        assert layer(x).shape == (2, 5, 8)


class _ReferenceSGD:
    """The per-parameter SGD step the flat optimiser replaced, kept as the
    bit-for-bit reference (it scales ``param.grad`` in place when clipping)."""

    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0,
                 max_grad_norm=10.0):
        self.params, self.lr = list(params), lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.max_grad_norm = max_grad_norm
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        if self.max_grad_norm is not None:
            _reference_clip_global_norm(self.params, self.max_grad_norm)
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class _ReferenceAdam:
    """The per-parameter Adam step the flat optimiser replaced."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, max_grad_norm=10.0):
        self.params, self.lr, self.betas, self.eps = list(params), lr, betas, eps
        self.weight_decay, self.max_grad_norm = weight_decay, max_grad_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        if self.max_grad_norm is not None:
            _reference_clip_global_norm(self.params, self.max_grad_norm)
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._t
        bias2 = 1.0 - beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_clip_global_norm(params, max_norm):
    total = 0.0
    for param in params:
        if param.grad is not None:
            total += float((param.grad * param.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in params:
            if param.grad is not None:
                param.grad *= scale


#: parameter shapes: scalars, size 1, and sizes past numpy's 8-wide and
#: 128-element pairwise-summation blocks.
_shapes = st.lists(st.sampled_from([1, 2, 3, 7, 16, 33, 130]), max_size=3)


@st.composite
def _optimiser_case(draw):
    shapes = draw(st.lists(_shapes, min_size=1, max_size=12))
    steps = draw(st.integers(1, 5))
    return {
        "shapes": [tuple(shape) for shape in shapes],
        "dtype": draw(st.sampled_from([np.float32, np.float64])),
        "kind": draw(st.sampled_from(["sgd", "adam"])),
        "momentum": draw(st.sampled_from([0.0, 0.9])),
        "weight_decay": draw(st.sampled_from([0.0, 0.01])),
        # inactive (off / never reached), active, or a NaN gradient.
        "clip": draw(st.sampled_from(["off", "inactive", "active", "nan"])),
        # which parameters have a gradient, per step.
        "present": [draw(st.lists(st.booleans(), min_size=len(shapes),
                                  max_size=len(shapes)))
                    for _ in range(steps)],
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _make_optimiser(case):
    max_norm = {"off": None, "inactive": 1e6, "active": 0.05,
                "nan": 0.05}[case["clip"]]
    if case["kind"] == "sgd":
        return (nn.SGD, _ReferenceSGD), dict(
            lr=0.05, momentum=case["momentum"],
            weight_decay=case["weight_decay"], max_grad_norm=max_norm)
    return (nn.Adam, _ReferenceAdam), dict(
        lr=2e-3, weight_decay=case["weight_decay"], max_grad_norm=max_norm)


class TestOptim:
    @given(case=_optimiser_case())
    @settings(max_examples=150, deadline=None)
    def test_flat_step_is_bit_identical_to_per_parameter(self, case):
        rng = _rng(case["seed"])
        dtype = case["dtype"]
        initial = [rng.standard_normal(shape).astype(dtype)
                   for shape in case["shapes"]]
        flat_params = [nn.Parameter(value.copy()) for value in initial]
        ref_params = [nn.Parameter(value.copy()) for value in initial]
        (flat_cls, ref_cls), kwargs = _make_optimiser(case)
        flat_opt = flat_cls(flat_params, **kwargs)
        ref_opt = ref_cls(ref_params, **kwargs)
        for step, present in enumerate(case["present"]):
            flat_opt.zero_grad()
            for flat, ref, has_grad in zip(flat_params, ref_params, present):
                grad = None
                if has_grad:
                    grad = (rng.standard_normal(flat.data.shape) * 3.0
                            ).astype(dtype)
                    if case["clip"] == "nan" and step == 0:
                        grad.reshape(-1)[0] = np.nan
                flat.grad = None if grad is None else grad.copy()
                ref.grad = None if grad is None else grad.copy()
            flat_opt.step()
            ref_opt.step()
            for flat, ref in zip(flat_params, ref_params):
                assert flat.data.dtype == ref.data.dtype
                np.testing.assert_array_equal(flat.data, ref.data)

    @given(shapes=st.lists(_shapes, min_size=1, max_size=12),
           pad=st.integers(0, 31), dtype=st.sampled_from([np.float32,
                                                           np.float64]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_per_slice_norm_equals_per_array_sum(self, shapes, pad, dtype,
                                                 seed):
        """A gradient's squared sum over its slice of a gathered buffer, at
        any element offset, is ``(g * g).sum()`` of the array itself."""
        rng = _rng(seed)
        grads = [rng.standard_normal(tuple(shape)).astype(dtype)
                 for shape in shapes]
        bounds = np.cumsum([pad] + [g.size for g in grads]).tolist()
        flat = np.empty(bounds[-1], dtype)
        np.concatenate(grads, axis=None, out=flat[pad:])
        squares = np.empty_like(flat)
        np.multiply(flat[pad:], flat[pad:], out=squares[pad:])
        total, want = 0.0, 0.0
        for grad, start, stop in zip(grads, bounds, bounds[1:]):
            got = np.add.reduce(squares[start:stop])
            assert got == (grad * grad).sum()
            total += float(got)
            want += float((grad * grad).sum())
        assert total == want

    def test_parameters_become_views_of_one_buffer(self):
        rng = _rng(5)
        model = nn.Sequential(nn.Linear(3, 4, rng), nn.Linear(4, 2, rng))
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        nn.Adam(model.parameters(), lr=0.01)
        params = dict(model.named_parameters())
        buffer = next(iter(params.values())).data.base
        assert buffer is not None and buffer.flags.c_contiguous
        assert all(p.data.base is buffer for p in params.values())
        for name, param in params.items():
            assert param.data.flags.c_contiguous
            np.testing.assert_array_equal(param.data, before[name])
            assert param.data.shape == before[name].shape

    def test_mixed_dtypes_and_repeated_parameters_rejected(self):
        params = [nn.Parameter(np.zeros(3, np.float32)),
                  nn.Parameter(np.zeros(3, np.float64))]
        for cls in (nn.SGD, nn.Adam):
            with pytest.raises(TypeError):
                cls(params, lr=0.1)
            # a second slot would leave the first one detached
            with pytest.raises(ValueError, match="twice"):
                cls([params[0], params[0]], lr=0.1)

    def test_load_state_dict_after_construction_is_what_step_updates(self):
        rng = _rng(6)
        model = nn.Sequential(nn.Linear(3, 4, rng), nn.Linear(4, 2, rng))
        opt = nn.SGD(model.parameters(), lr=0.5, momentum=0.9)
        loaded = {name: value + 1.0
                  for name, value in model.state_dict().items()}
        model.load_state_dict(loaded)
        ref_params = [nn.Parameter(loaded[name].copy())
                      for name, _ in model.named_parameters()]
        ref = _ReferenceSGD(ref_params, lr=0.5, momentum=0.9)
        for param, ref_param in zip(model.parameters(), ref_params):
            param.grad = np.ones_like(param.data)
            ref_param.grad = np.ones_like(ref_param.data)
        opt.step()
        ref.step()
        assert len({id(p.data.base) for p in model.parameters()}) == 1
        for param, ref_param in zip(model.parameters(), ref_params):
            np.testing.assert_array_equal(param.data, ref_param.data)

    def _quadratic_problem(self):
        rng = _rng(3)
        target = rng.standard_normal((4, 4)).astype(np.float32)
        param = nn.Parameter(np.zeros((4, 4), np.float32))
        return param, target

    @staticmethod
    def _mse(param, target):
        return ((param - target) * (param - target)).mean()

    def test_sgd_converges(self):
        param, target = self._quadratic_problem()
        opt = nn.SGD([param], lr=0.3)
        for _ in range(100):
            opt.zero_grad()
            loss = self._mse(param, target)
            loss.backward()
            opt.step()
        assert self._mse(param, target).item() < 1e-3

    def test_sgd_momentum_converges(self):
        param, target = self._quadratic_problem()
        opt = nn.SGD([param], lr=0.1, momentum=0.9)
        for _ in range(100):
            opt.zero_grad()
            self._mse(param, target).backward()
            opt.step()
        assert self._mse(param, target).item() < 1e-3

    def test_adam_converges(self):
        param, target = self._quadratic_problem()
        opt = nn.Adam([param], lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            self._mse(param, target).backward()
            opt.step()
        assert self._mse(param, target).item() < 1e-3

    def test_weight_decay_shrinks(self):
        param = nn.Parameter(np.ones((4,), np.float32))
        opt = nn.SGD([param], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (param * 0.0).sum().backward()
        opt.step()
        assert np.all(param.data < 1.0)

    def test_grad_clipping(self):
        param = nn.Parameter(np.ones((4,), np.float32))
        opt = nn.SGD([param], lr=1.0, max_grad_norm=1.0)
        param.grad = np.full((4,), 100.0, np.float32)
        opt.step()
        # Update magnitude bounded by lr * max_norm.
        assert np.linalg.norm(1.0 - param.data) <= 1.0 + 1e-5

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.0)

    def test_mlp_learns_xor(self):
        rng = _rng(4)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], np.float32)
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(nn.Linear(2, 16, rng), _Relu(),
                              nn.Linear(16, 2, rng))
        opt = nn.Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = ag.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).data.argmax(axis=1)
        np.testing.assert_array_equal(preds, y)


class _Relu(nn.Module):
    def forward(self, x):
        return ag.relu(x)

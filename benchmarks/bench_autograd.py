"""Micro-benchmarks for the autograd engine hot path.

Measures forward and forward+backward throughput (ops/sec) for the operators
that dominate every PracMHBench run — conv2d variants, linear, attention,
batch_norm, layer_norm — plus full MobileNet / ResNet training steps, and
records the numbers in ``BENCH_autograd.json`` at the repo root so subsequent
PRs have a perf trajectory to hold.

Besides wall-clock throughput each case also records two machine-independent
counter columns measured over a single fwd+bwd call: ``peak_alloc_bytes``
(tracemalloc peak — numpy >= 1.22 registers array data allocations with
tracemalloc, while BLAS-internal scratch is invisible, so the number does not
vary with CPU count) and ``gemm_calls`` (BLAS GEMM dispatches counted by the
engine profiler; batched matmul counts one per batch element).  These feed
the ``results/compare_bench.py`` counter gate, which stays tight even when
the wall-clock threshold is loosened for noisy CI hosts.

The counters are the tight part for a second reason.  An isolated loop whose
temporaries reach glibc's 128 kB ``mmap`` threshold page-faults on every call
until the dynamic threshold adapts (192 minor faults per ``(8,16,8,8)`` conv
backward in a bare loop, none inside a ledger cell, where an earlier, larger
free has already raised it), so the ops/s of the conv rows — the
``conv2d_4x4`` / ``conv2d_har`` / ``conv2d_depthwise_4x4`` rows at the shapes
the ledger cells run included — are the loose part.

Usage (standalone)::

    PYTHONPATH=src python benchmarks/bench_autograd.py --label after

Labels accumulate in the JSON file; once both ``before`` and ``after`` runs
are present a ``speedup`` table is derived.  ``results/compare_bench.py``
diffs two such files and fails on regression.

The module is also collectable by pytest (smoke-scale) and feeds the shared
``--bench-json`` recorder from ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import autograd as ag
from repro import nn
from repro.autograd import Tensor, profiler
from repro.autograd import functional as F
from repro.models.zoo import build_model
from repro.nn.attention import TransformerEncoderLayer

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_autograd.json"

# Throughput floor below which a run is considered noise (guards the JSON).
_MIN_OPS_PER_SEC = 1e-6


def _timeit(fn, min_time: float, samples: int = 3) -> float:
    """Return calls/sec of ``fn``: best of ``samples`` windows of
    ``min_time`` seconds each (the max filters out scheduler interference)."""
    fn()  # warmup (first call pays allocation / cache effects)
    best = _MIN_OPS_PER_SEC
    for _ in range(samples):
        iters = 0
        start = time.perf_counter()
        while True:
            fn()
            iters += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_time and iters >= 3:
                break
        best = max(best, iters / elapsed)
    return best


# ----------------------------------------------------------------------
# Benchmark cases
# ----------------------------------------------------------------------

def _conv_case(xshape, wshape, stride, padding, groups, bias=True):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(xshape).astype(np.float32)
    w = (rng.standard_normal(wshape) * 0.1).astype(np.float32)
    b = rng.standard_normal((wshape[0],)).astype(np.float32) if bias else None

    def forward():
        xt = Tensor(x)
        wt = Tensor(w)
        bt = Tensor(b) if b is not None else None
        with ag.no_grad():
            ag.conv2d(xt, wt, bt, stride=stride, padding=padding, groups=groups)

    def fwd_bwd():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True) if b is not None else None
        out = ag.conv2d(xt, wt, bt, stride=stride, padding=padding,
                        groups=groups)
        out.sum().backward()

    return forward, fwd_bwd


def _conv_bn_relu_case(xshape=(8, 32, 4, 4), wshape=(32, 32, 3, 3)):
    """``conv2d(norm=..., act="relu")`` — the zoo's conv -> batch_norm ->
    relu block as one tape node — at ``conv2d_4x4``'s shape, training-mode
    statistics."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(xshape).astype(np.float32)
    w = (rng.standard_normal(wshape) * 0.1).astype(np.float32)
    c = wshape[0]
    g, b = np.ones(c, np.float32), np.zeros(c, np.float32)

    def call(requires_grad):
        norm = (Tensor(g, requires_grad), Tensor(b, requires_grad),
                np.zeros(c, np.float32), np.ones(c, np.float32), True, 0.1,
                1e-5)
        return ag.conv2d(Tensor(x, requires_grad), Tensor(w, requires_grad),
                         padding=1, norm=norm, act="relu")

    def forward():
        with ag.no_grad():
            call(False)

    def fwd_bwd():
        call(True).sum().backward()

    return forward, fwd_bwd


def _linear_case(batch=64, in_f=256, out_f=256):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, in_f)).astype(np.float32)
    w = (rng.standard_normal((out_f, in_f)) * 0.05).astype(np.float32)
    b = rng.standard_normal((out_f,)).astype(np.float32)

    def forward():
        with ag.no_grad():
            ag.linear(Tensor(x), Tensor(w), Tensor(b))

    def fwd_bwd():
        xt, wt, bt = (Tensor(x, True), Tensor(w, True), Tensor(b, True))
        ag.linear(xt, wt, bt).sum().backward()

    return forward, fwd_bwd


def _batch_norm_case(shape=(16, 32, 16, 16)):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(shape).astype(np.float32)
    g = np.ones(shape[1], np.float32)
    b = np.zeros(shape[1], np.float32)

    def forward():
        rm, rv = np.zeros(shape[1], np.float32), np.ones(shape[1], np.float32)
        with ag.no_grad():
            ag.batch_norm(Tensor(x), Tensor(g), Tensor(b), rm, rv,
                          training=True)

    def fwd_bwd():
        rm, rv = np.zeros(shape[1], np.float32), np.ones(shape[1], np.float32)
        xt, gt, bt = Tensor(x, True), Tensor(g, True), Tensor(b, True)
        ag.batch_norm(xt, gt, bt, rm, rv, training=True).sum().backward()

    return forward, fwd_bwd


def _layer_norm_case(train_shape=(8, 32, 32), eval_shape=(100, 32, 32)):
    """``layer_norm`` at the two shapes the ledger's ``transformer`` cell
    runs it at (``d`` = 32): the 'forward' column is the 100-sample
    evaluation batch under ``no_grad``, fwd_bwd the 8-sample training batch.
    """
    rng = np.random.default_rng(8)
    x_train = rng.standard_normal(train_shape).astype(np.float32)
    x_eval = rng.standard_normal(eval_shape).astype(np.float32)
    g = np.ones(train_shape[-1], np.float32)
    b = np.zeros(train_shape[-1], np.float32)

    def forward():
        with ag.no_grad():
            ag.layer_norm(Tensor(x_eval), Tensor(g), Tensor(b))

    def fwd_bwd():
        xt, gt, bt = Tensor(x_train, True), Tensor(g, True), Tensor(b, True)
        ag.layer_norm(xt, gt, bt).sum().backward()

    return forward, fwd_bwd


def _attention_case(batch=4, seq=32, dim=64, heads=4, ffn=128):
    rng = np.random.default_rng(3)
    layer = TransformerEncoderLayer(dim, heads, ffn, rng)
    layer.eval()  # deterministic; dropout p=0 anyway
    x = rng.standard_normal((batch, seq, dim)).astype(np.float32)

    def forward():
        with ag.no_grad():
            layer(Tensor(x))

    def fwd_bwd():
        layer.zero_grad()
        layer(Tensor(x, requires_grad=True)).sum().backward()

    return forward, fwd_bwd


def _train_step_case(arch: str, batch=8, image=16, classes=10):
    model = build_model(arch, num_classes=classes, seed=0)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((batch, 3, image, image)).astype(np.float32)
    labels = rng.integers(0, classes, size=batch)
    opt = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)

    def forward():
        model.eval()
        with ag.no_grad():
            model(x)

    def fwd_bwd():
        # Mirror the production client loop (``fl/client.py::train_local``).
        model.train()
        opt.zero_grad()
        loss = ag.cross_entropy(model(x), labels)
        loss.backward()
        opt.step()

    return forward, fwd_bwd


def _attention_core_case(batch=4, heads=4, seq=64, head_dim=16):
    """Raw fused ``ag.attention`` op (no projections / residual / FFN)."""
    rng = np.random.default_rng(5)
    shape = (batch, heads, seq, head_dim)
    q = rng.standard_normal(shape).astype(np.float32)
    k = rng.standard_normal(shape).astype(np.float32)
    v = rng.standard_normal(shape).astype(np.float32)
    scale = 1.0 / float(np.sqrt(head_dim))

    def forward():
        with ag.no_grad():
            ag.attention(Tensor(q), Tensor(k), Tensor(v), scale)

    def fwd_bwd():
        qt, kt, vt = Tensor(q, True), Tensor(k, True), Tensor(v, True)
        ag.attention(qt, kt, vt, scale).sum().backward()

    return forward, fwd_bwd


def _depthwise_backward_case(xshape=(8, 32, 16, 16), kernel=3):
    """Depthwise conv with the backward pass isolated.

    The 'forward' column re-runs backward on a prebuilt graph (grads
    cleared each call) so the batched-depthwise-backward path is timed
    without forward/tape-construction overhead; fwd_bwd is a fresh full
    pass for comparability with the other conv cases.
    """
    rng = np.random.default_rng(6)
    c = xshape[1]
    x = rng.standard_normal(xshape).astype(np.float32)
    w = (rng.standard_normal((c, 1, kernel, kernel)) * 0.1).astype(np.float32)

    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    root = ag.conv2d(xt, wt, None, stride=1, padding=1, groups=c).sum()

    def backward_only():
        xt.grad = None
        wt.grad = None
        root.backward()

    def fwd_bwd():
        a = Tensor(x, requires_grad=True)
        b = Tensor(w, requires_grad=True)
        ag.conv2d(a, b, None, stride=1, padding=1, groups=c).sum().backward()

    return backward_only, fwd_bwd


def _col2im_case(n=8, c=16, size=16, kernel=3):
    """The im2col adjoint on an overlapping (stride 1) geometry.

    The 'forward' column calls the raw ``_col2im`` scatter-add directly;
    fwd_bwd runs the conv fwd+bwd that exercises it in context.
    """
    rng = np.random.default_rng(7)
    oh = ow = size - kernel + 1
    cols = rng.standard_normal(
        (n, c, kernel, kernel, oh, ow)).astype(np.float32)
    x_shape = (n, c, size, size)

    def scatter():
        F._col2im(cols, x_shape, kernel, kernel, stride=1)

    x = rng.standard_normal(x_shape).astype(np.float32)
    w = (rng.standard_normal((c, c, kernel, kernel)) * 0.05).astype(np.float32)

    def fwd_bwd():
        a = Tensor(x, requires_grad=True)
        b = Tensor(w, requires_grad=True)
        ag.conv2d(a, b, None, stride=1, padding=0).sum().backward()

    return scatter, fwd_bwd


CASES: dict[str, tuple] = {
    "conv2d": lambda: _conv_case((8, 16, 16, 16), (32, 16, 3, 3), 1, 1, 1),
    "conv2d_1x1": lambda: _conv_case((8, 32, 16, 16), (64, 32, 1, 1), 1, 0, 1),
    "conv2d_depthwise": lambda: _conv_case((8, 32, 16, 16), (32, 1, 3, 3),
                                           1, 1, 32, bias=False),
    "conv2d_stride2": lambda: _conv_case((4, 16, 32, 32), (32, 16, 3, 3),
                                         2, 1, 1),
    # The shapes the ledger cells run (narrow maps: the gathered side of
    # conv2d's selection; the 16x16 / 32x32 rows above are the strided side).
    "conv2d_4x4": lambda: _conv_case((8, 32, 4, 4), (32, 32, 3, 3), 1, 1, 1),
    "conv2d_har": lambda: _conv_case((8, 9, 8, 4), (8, 9, 3, 3), 1, 1, 1),
    "conv2d_depthwise_4x4": lambda: _conv_case(
        (8, 64, 4, 4), (64, 1, 3, 3), 2, 1, 64, bias=False),
    "conv_bn_relu_4x4": _conv_bn_relu_case,
    "linear": _linear_case,
    "batch_norm": _batch_norm_case,
    "layer_norm": _layer_norm_case,
    "attention": _attention_case,
    "attention_core": _attention_core_case,
    "depthwise_backward": _depthwise_backward_case,
    "col2im": _col2im_case,
    "mobilenet_step": lambda: _train_step_case("mobilenet_v2"),
    "resnet_step": lambda: _train_step_case("resnet18"),
}


def _count_one_call(fwd_bwd) -> dict[str, int]:
    """Deterministic per-call counters: tracemalloc peak + GEMM dispatches.

    Run after the timing loops so lazily-built state (optimizer moments)
    exists — the numbers then depend only on the engine code path, not on
    machine speed or CPU count.
    """
    with profiler.profile() as report:
        tracemalloc.start()
        try:
            fwd_bwd()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"peak_alloc_bytes": int(peak), "gemm_calls": int(report.gemm_calls)}


def run_benchmarks(min_time: float = 0.3,
                   cases: list[str] | None = None) -> dict[str, dict]:
    """Run the micro-benchmarks and return op -> throughput numbers."""
    results: dict[str, dict] = {}
    unknown = sorted(set(cases or ()) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown benchmark case(s) {unknown}; "
                         f"choose from {sorted(CASES)}")
    for name in (cases or list(CASES)):
        forward, fwd_bwd = CASES[name]()
        results[name] = {
            "forward_ops_per_sec": round(_timeit(forward, min_time), 2),
            "fwd_bwd_ops_per_sec": round(_timeit(fwd_bwd, min_time), 2),
            **_count_one_call(fwd_bwd),
        }
    return results


# ----------------------------------------------------------------------
# JSON persistence
# ----------------------------------------------------------------------

def _speedups(runs: dict[str, dict]) -> dict[str, dict]:
    """Derive after/before throughput ratios when both runs are recorded."""
    if "before" not in runs or "after" not in runs:
        return {}
    table = {}
    before, after = runs["before"]["results"], runs["after"]["results"]
    for op in sorted(set(before) & set(after)):
        table[op] = {
            "forward": round(after[op]["forward_ops_per_sec"]
                             / before[op]["forward_ops_per_sec"], 2),
            "fwd_bwd": round(after[op]["fwd_bwd_ops_per_sec"]
                             / before[op]["fwd_bwd_ops_per_sec"], 2),
        }
    return table


def record(label: str, results: dict[str, dict],
           json_path: Path = DEFAULT_JSON) -> dict:
    """Merge a labelled run into the benchmark JSON file."""
    doc = {"schema": "bench_autograd/v1", "runs": {}}
    if json_path.exists():
        doc = json.loads(json_path.read_text())
        doc.setdefault("runs", {})
    run = doc["runs"].setdefault(label, {"results": {}})
    run["python"] = platform.python_version()
    run["numpy"] = np.__version__
    # Merge per-op so partial (--cases) runs refine an existing label.
    run.setdefault("results", {}).update(results)
    doc["speedup"] = _speedups(doc["runs"])
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


# ----------------------------------------------------------------------
# pytest entry point (smoke scale; records into --bench-json when given)
# ----------------------------------------------------------------------

def test_bench_autograd(bench_record):
    results = run_benchmarks(min_time=0.05,
                             cases=["conv2d", "linear", "batch_norm"])
    for op, numbers in results.items():
        assert numbers["fwd_bwd_ops_per_sec"] > 0
        bench_record(f"autograd/{op}", numbers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="after",
                        help="run label stored in the JSON (before/after/...)")
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON,
                        help="output JSON path (default: repo BENCH_autograd.json)")
    parser.add_argument("--min-time", type=float, default=0.3,
                        help="minimum seconds to sample each benchmark")
    parser.add_argument("--cases", nargs="*", default=None,
                        help="subset of cases to run (default: all)")
    args = parser.parse_args(argv)

    results = run_benchmarks(min_time=args.min_time, cases=args.cases)
    doc = record(args.label, results, json_path=args.json)

    width = max(len(op) for op in results)
    print(f"{'op':<{width}}  {'forward/s':>12}  {'fwd+bwd/s':>12}  "
          f"{'peak_kb':>9}  {'gemms':>6}")
    for op, numbers in results.items():
        print(f"{op:<{width}}  {numbers['forward_ops_per_sec']:>12.1f}  "
              f"{numbers['fwd_bwd_ops_per_sec']:>12.1f}  "
              f"{numbers['peak_alloc_bytes'] / 1024:>9.0f}  "
              f"{numbers['gemm_calls']:>6d}")
    if doc.get("speedup"):
        print("\nspeedup vs 'before':")
        for op, ratio in doc["speedup"].items():
            print(f"{op:<{width}}  forward x{ratio['forward']:<6} "
                  f"fwd+bwd x{ratio['fwd_bwd']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in spans around the public functions of ``podclass``.

The tracer replaces module attributes with timing wrappers, so every call
that goes through a module's namespace (``convnet.train``, or a name that
another podclass module imported with ``from .x import f``) records a span.
Nothing inside ``src/`` changes; :meth:`Tracer.uninstall` restores the
original functions.

Per-layer metrics are derived from the spans after the traced rounds
(:func:`layer_metrics`): times are summed per span family, self time is a
span's duration minus the part its direct child spans cover, and counts
and computed work (GFLOP) come from the argument shapes seen at each call.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# The Gram route of podclass.svd.thin_svd is taken when J > GRAM_ASPECT * K;
# the benchmark judges it from the input shape alone.
GRAM_ASPECT = 4


@dataclass
class Span:
    name: str
    parent: "Span | None"
    info: dict
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _svd_info(args, kwargs):
    matrix = np.ascontiguousarray(args[0] if args else kwargs["matrix"])
    j, k = matrix.shape
    digest = hashlib.blake2b(matrix.tobytes(), digest_size=16).hexdigest()
    return {"j": j, "k": k, "digest": digest}


def _conv_forward_info(args, kwargs):
    x, kernel = args[0], args[1]
    b, h, w, _ = x.shape
    return {"b": b, "h": h, "w": w, "cin": kernel.shape[2], "cout": kernel.shape[3]}


def _conv_backward_info(args, kwargs):
    kernel, grad_out = args[1], args[2]
    b, h, w, _ = grad_out.shape
    return {"b": b, "h": h, "w": w, "cin": kernel.shape[2], "cout": kernel.shape[3]}


def _frames_info(position):
    def info(args, kwargs):
        return {"frames": len(args[position])}

    return info


def _save_library_info(args, kwargs):
    return {"path": args[1]}


# (module, function, describe(args, kwargs) -> info). The describe hook runs
# before the span starts, so its cost lands in the tracing overhead only.
TARGETS = (
    ("pgm", "read_pgm", None),
    ("dataset", "load_dataset", None),
    ("dataset", "split_from_manifest", None),
    ("dataset", "split_dataset", None),
    ("dataset", "partition_arrays", _frames_info(0)),
    ("dataset", "generate_synthetic", None),
    ("dataset", "write_samples", None),
    ("svd", "thin_svd", _svd_info),
    ("basis", "build_library", None),
    ("basis", "project_pairs", _frames_info(1)),
    ("basis", "save_library", _save_library_info),
    ("basis", "load_library", None),
    ("subspace", "classify_pairs", _frames_info(1)),
    ("convnet", "train", None),
    ("convnet", "loss_and_gradients", _frames_info(2)),
    ("convnet", "forward", None),
    ("convnet", "conv3x3_forward", _conv_forward_info),
    ("convnet", "conv3x3_backward", _conv_backward_info),
    ("convnet", "maxpool_forward", lambda a, k: {"h": a[0].shape[1]}),
    ("convnet", "maxpool_backward", lambda a, k: {"h": a[2][1]}),
    ("convnet", "rmsprop_step", None),
    ("convnet", "evaluate_network", _frames_info(2)),
    ("convnet", "predict", _frames_info(1)),
    ("metrics", "accuracy", None),
    ("metrics", "confusion_matrix", None),
    ("metrics", "aggregate", None),
    ("metrics", "majority_vote_by_sample", None),
    ("experiment", "run_experiment", None),
    ("experiment", "baseline_report", None),
    ("experiment", "save_report", None),
    ("cli", "main", None),
)


class Tracer:
    """Records a span for every call into the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, func_name, describe in TARGETS:
            home = importlib.import_module(f"podclass.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, describe)
            for name, module in list(sys.modules.items()):
                if name != "podclass" and not name.startswith("podclass."):
                    continue
                if getattr(module, func_name, None) is original:
                    self._patches.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, func, describe):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            info = describe(args, kwargs) if describe else {}
            span = Span(name, stack[-1] if stack else None, info)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                if name == "basis.save_library":
                    span.info["bytes"] = os.path.getsize(span.info["path"])
                self.spans.append(span)

        return wrapper


def svd_gflop(j: int, k: int) -> float:
    """Nominal flops of a thin SVD with U1, Sigma and V of a J x K matrix:
    the R-SVD count 6mn^2 + 20n^3 (m = max, n = min; Golub & Van Loan,
    Matrix Computations, table 8.6.1). The same count is used for either
    route, so GFLOP/s compares routes on one basis of work."""
    m, n = max(j, k), min(j, k)
    return (6.0 * m * n * n + 20.0 * n**3) / 1e9


def conv_gflop(info: dict, backward: bool) -> float:
    """2 flops per multiply-add of a 3x3 same-padding convolution; the
    backward pass computes two such products (input and kernel gradients)."""
    forward = 2.0 * info["b"] * info["h"] * info["w"] * 9 * info["cin"] * info["cout"]
    return (2.0 if backward else 1.0) * forward / 1e9


@dataclass
class _Totals:
    spans: list[Span]
    by_name: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)

    def of(self, *names: str) -> list[Span]:
        return [s for n in names for s in self.by_name.get(n, [])]

    def seconds(self, *names: str) -> float:
        """Time in the named spans, counting a span nested in another span
        of the same set only once (through its outermost ancestor)."""
        wanted = set(names)
        total = 0.0
        for span in self.of(*names):
            parent = span.parent
            while parent is not None and parent.name not in wanted:
                parent = parent.parent
            if parent is None:
                total += span.duration
        return total

    def self_seconds(self, *names: str) -> float:
        return sum(s.duration - s.child_s for s in self.of(*names))

    def count(self, *names: str) -> int:
        return len(self.of(*names))

    def info_sum(self, key: str, *names: str) -> float:
        return float(sum(s.info[key] for s in self.of(*names)))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(
    rounds: list[list[Span]],
    channels: tuple[int, int, int] | None,
    side: int,
) -> dict[str, float]:
    """Per-round per-layer metrics from the spans of each traced round.

    Times, counts, bytes and GFLOP are per-round means; rates and ratios
    are taken over the totals. Convolutions are attributed to conv1-3 by
    their kernel's (input, output) channel counts, and pooling layers by
    the input's height, which distinguishes the three pools even when two
    of them carry the same number of channels. Layers that a workload
    does not run report 0.
    """
    t = _Totals([span for spans in rounds for span in spans])
    per = 1.0 / len(rounds)
    out: dict[str, float] = {}

    out["pgm.read_pgm_s"] = t.seconds("pgm.read_pgm") * per
    out["pgm.frames_read"] = t.count("pgm.read_pgm") * per
    out["dataset.load_dataset_s"] = t.seconds("dataset.load_dataset") * per
    out["dataset.split_s"] = (
        t.seconds("dataset.split_from_manifest", "dataset.split_dataset") * per
    )
    out["dataset.partition_arrays_s"] = t.seconds("dataset.partition_arrays") * per

    svds = t.of("svd.thin_svd")
    svd_s = t.seconds("svd.thin_svd")
    gflop = sum(svd_gflop(s.info["j"], s.info["k"]) for s in svds)
    out["svd.thin_svd_s"] = svd_s * per
    out["svd.thin_svd_calls"] = len(svds) * per
    out["svd.gram_route_calls"] = (
        sum(1 for s in svds if s.info["j"] > GRAM_ASPECT * s.info["k"]) * per
    )
    # Every round sees the same inputs, so distinct inputs are counted per round.
    distinct = sum(
        len({s.info["digest"] for s in spans if s.name == "svd.thin_svd"})
        for spans in rounds
    )
    out["svd.unique_inputs_ratio"] = distinct / len(svds) if svds else 0.0
    out["svd.gflop"] = gflop * per
    out["svd.gflop_per_s"] = _rate(gflop, svd_s)

    out["basis.build_library_s"] = t.seconds("basis.build_library") * per
    out["basis.build_library_calls"] = t.count("basis.build_library") * per
    out["basis.project_pairs_s"] = t.seconds("basis.project_pairs") * per
    out["basis.frames_projected"] = t.info_sum("frames", "basis.project_pairs") * per
    out["basis.save_library_s"] = t.seconds("basis.save_library") * per
    out["basis.load_library_s"] = t.seconds("basis.load_library") * per
    out["basis.library_bytes"] = t.info_sum("bytes", "basis.save_library") * per

    classify_s = t.seconds("subspace.classify_pairs")
    classified = t.info_sum("frames", "subspace.classify_pairs")
    out["subspace.classify_s"] = classify_s * per
    out["subspace.frames_classified"] = classified * per
    out["subspace.frames_per_s"] = _rate(classified, classify_s)

    train_s = t.seconds("convnet.train")
    train_frames = t.info_sum("frames", "convnet.loss_and_gradients")
    out["convnet.train_s"] = train_s * per
    out["convnet.train_frames"] = train_frames * per
    out["convnet.train_frames_per_s"] = _rate(train_frames, train_s)
    out["convnet.loss_and_gradients_s"] = t.seconds("convnet.loss_and_gradients") * per
    out["convnet.batches"] = t.count("convnet.loss_and_gradients") * per

    c1, c2, c3 = channels or (0, 0, 0)
    conv_layer = {(1, c1): 1, (c1, c2): 2, (c2, c3): 3}
    pool_layer = {side: 1, side // 2: 2, side // 4: 3}
    conv_total_s = 0.0
    conv_work = 0.0
    for direction, name in (("forward", "conv3x3_forward"), ("backward", "conv3x3_backward")):
        seconds = {1: 0.0, 2: 0.0, 3: 0.0}
        for span in t.of(f"convnet.{name}"):
            seconds[conv_layer[(span.info["cin"], span.info["cout"])]] += span.duration
            conv_work += conv_gflop(span.info, backward=direction == "backward")
        for layer, value in seconds.items():
            out[f"convnet.conv{layer}.{direction}_s"] = value * per
            conv_total_s += value
    for direction, name in (("forward", "maxpool_forward"), ("backward", "maxpool_backward")):
        seconds = {1: 0.0, 2: 0.0, 3: 0.0}
        for span in t.of(f"convnet.{name}"):
            seconds[pool_layer[span.info["h"]]] += span.duration
        for layer, value in seconds.items():
            out[f"convnet.pool{layer}.{direction}_s"] = value * per

    out["convnet.dense_softmax_self_s"] = (
        t.self_seconds("convnet.forward", "convnet.loss_and_gradients") * per
    )
    out["convnet.rmsprop_step_s"] = t.seconds("convnet.rmsprop_step") * per
    evaluate_s = t.seconds("convnet.evaluate_network")
    predict_s = t.seconds("convnet.predict")
    inferred = t.info_sum("frames", "convnet.evaluate_network", "convnet.predict")
    out["convnet.evaluate_network_s"] = evaluate_s * per
    out["convnet.predict_s"] = predict_s * per
    out["convnet.inference_frames_per_s"] = _rate(inferred, evaluate_s + predict_s)
    out["convnet.conv_gflop"] = conv_work * per
    out["convnet.conv_gflop_per_s"] = _rate(conv_work, conv_total_s)

    out["metrics.s"] = (
        t.seconds(
            "metrics.accuracy",
            "metrics.confusion_matrix",
            "metrics.aggregate",
            "metrics.majority_vote_by_sample",
        )
        * per
    )
    out["experiment.run_experiment_s"] = t.seconds("experiment.run_experiment") * per
    out["experiment.baseline_report_s"] = t.seconds("experiment.baseline_report") * per
    out["experiment.save_report_s"] = t.seconds("experiment.save_report") * per
    out["experiment.self_s"] = t.self_seconds("experiment.run_experiment") * per
    out["cli.main_s"] = t.seconds("cli.main") * per
    out["cli.self_s"] = t.self_seconds("cli.main") * per
    return out


def setup_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-set-up means of the set-up side of the dataset layer."""
    t = _Totals(spans)
    return {
        "dataset.generate_synthetic_s": t.seconds("dataset.generate_synthetic") / rounds,
        "dataset.write_samples_s": t.seconds("dataset.write_samples") / rounds,
    }


def top_level_seconds(spans: list[Span]) -> float:
    """Time covered by spans that no other traced span encloses."""
    return sum(s.duration for s in spans if s.parent is None)

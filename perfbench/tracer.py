"""In-memory span tracer and the wrappers that attach it to `atent` from outside.

Every wrapper replaces a public function under each name a caller looks it
up by (``atent.sampler.loss_and_grads`` and ``atent.defenses.loss_and_grads``
are both patched, for example), records one span per call and puts the
original back on :meth:`Patcher.restore`. Nothing in ``src/`` knows about it.

A span is ``[name, start, end, parent]``; self time is the span's duration
minus the durations of its children, which never overlap because the
program is single-threaded and spans are strictly nested.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench.traced"

TENSOR_OPS = ("conv2d", "matmul", "max_pool2d", "softmax_cross_entropy",
              "add", "relu", "reshape")


class TraceError(RuntimeError):
    """Spans closed out of order: a wrapper or the program broke nesting."""


class Tracer:
    """Spans and counters kept in memory until the traced pass ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span still open inside it (a generator
        the caller abandoned); closing an ended span again does nothing."""
        if self.spans[idx][2] is not None:
            return
        if idx not in self.stack:
            raise TraceError(f"span {self.spans[idx][0]!r} is not open")
        now = time.perf_counter()
        while True:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        """Self time of each span in seconds, aligned with ``self.spans``."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, dict]:
        """calls, total and self seconds and the list of durations per name."""
        table: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            row["durations"].append(end - start)
        return table

    def tree(self) -> dict:
        """Spans merged by call path: the tree written out after a traced run."""
        paths: dict[int, tuple] = {}
        nodes: dict[tuple, dict] = {}
        for i, ((name, start, end, parent), own) in enumerate(zip(self.spans, self.self_times())):
            path = (paths[parent] if parent >= 0 else ()) + (name,)
            paths[i] = path
            node = nodes.setdefault(path, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            node["calls"] += 1
            node["total_ms"] += 1000.0 * (end - start)
            node["self_ms"] += 1000.0 * own
        root: dict = {"children": {}}
        for path, node in sorted(nodes.items()):
            cursor = root
            for name in path[:-1]:
                cursor = cursor["children"][name]
            cursor["children"][path[-1]] = {**node, "children": {}}
        return root["children"]


class Patcher:
    """Replaces module attributes and remembers the originals."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, new) -> None:
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def replace_everywhere(self, func, make_wrapper) -> None:
        """Wrap ``func`` under every ``atent`` module attribute bound to it."""
        wrapper = make_wrapper(func)
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "atent" or modname.startswith("atent.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def _timed(tracer: Tracer, name: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper
    return make


def _tensor_op(tracer: Tracer, tensor_mod, op: str):
    """Forward span per call, plus a pull span for each tape record the
    call appended (records appended by a nested op keep that op's name)."""
    fwd_name = f"tensor.{op}"
    pull_name = f"tensor.{op}.pull"

    def make(fn):
        def wrapper(*args, **kwargs):
            tape = tensor_mod._active_tape()
            first = len(tape.records) if tape is not None else 0
            out = tracer.span(fwd_name, fn, *args, **kwargs)
            if tape is not None:
                for rec in tape.records[first:]:
                    if not getattr(rec.pull, "traced", False):
                        rec.pull = _traced_pull(tracer, pull_name, rec, tape, op)
            return out
        return wrapper
    return make


def _traced_pull(tracer: Tracer, name: str, rec, tape, op: str):
    """Pull span per record; for conv2d also counts the pulls whose input
    the tape tracks (their ``dx`` is used) and the pulls that return a
    ``dx`` for an untracked input (computed, then dropped)."""
    pull = rec.pull

    def traced(g):
        pulled = tracer.span(name, pull, g)
        if op == "conv2d":
            tracer.counts["conv2d.pulls"] += 1
            if tape._tracks(rec.inputs[0]):
                tracer.counts["conv2d.dx_useful"] += 1
            elif pulled[0] is not None:
                tracer.counts["conv2d.dx_wasted"] += 1
        return pulled

    traced.traced = True
    return traced


def _loss_and_grads(tracer: Tracer):
    def make(fn):
        def wrapper(params, batch, wrt="weights"):
            tracer.counts[f"loss_and_grads.{wrt}"] += 1
            return tracer.span("models.loss_and_grads", fn, params, batch, wrt=wrt)
        return wrapper
    return make


def _batch_iter(tracer: Tracer):
    """Time spent producing each batch, and each training step as the
    interval between handing a batch out and being asked for the next."""
    def make(fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open("data.batch_iter")
                try:
                    batch = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                idx = tracer.open("defenses.step")
                try:
                    yield batch
                finally:
                    tracer.close(idx)
        return wrapper
    return make


def _run_attack(tracer: Tracer):
    def make(fn):
        def wrapper(params, batch, cfg, stream=0):
            return tracer.span(f"attacks.run_attack.{cfg.kind}", fn, params, batch, cfg,
                               stream=stream)
        return wrapper
    return make


def _save_checkpoint(tracer: Tracer):
    """Counts a ``best.ckpt`` write as useful only when the snapshot object
    differs from the one written last: the trainer replaces it on improvement."""
    last_best = []

    def make(fn):
        def wrapper(params, path):
            if str(path).endswith("best.ckpt"):
                tracer.counts["best_writes"] += 1
                if not last_best or last_best[0] is not params:
                    tracer.counts["best_writes_useful"] += 1
                last_best[:] = [params]
            return tracer.span("checkpoint.save_checkpoint", fn, params, path)
        return wrapper
    return make


def _atomic_write(tracer: Tracer):
    def make(fn):
        def wrapper(path, blob):
            tracer.counts["atomic_write.bytes"] += len(blob)
            return tracer.span("checkpoint.atomic_write", fn, path, blob)
        return wrapper
    return make


def _train(tracer: Tracer):
    def make(fn):
        def wrapper(*args, on_epoch=None, **kwargs):
            traced_on_epoch = on_epoch
            if on_epoch is not None:
                def traced_on_epoch(state):
                    return tracer.span("experiment.on_epoch", on_epoch, state)
            return tracer.span("defenses.train", fn, *args, on_epoch=traced_on_epoch, **kwargs)
        return wrapper
    return make


def install(tracer: Tracer, atent) -> Patcher:
    """Attach ``tracer`` to every layer boundary; returns the patcher whose
    ``restore()`` takes all wrappers off again."""
    patcher = Patcher()
    try:
        for op in TENSOR_OPS:
            patcher.replace_everywhere(getattr(atent.tensor, op),
                                       _tensor_op(tracer, atent.tensor, op))
        patcher.replace_everywhere(atent.tensor.backward, _timed(tracer, "tensor.backward"))
        patcher.replace_everywhere(atent.models.loss_and_grads, _loss_and_grads(tracer))
        patcher.replace_everywhere(atent.models.predict, _timed(tracer, "models.predict"))
        patcher.replace_everywhere(atent.models.batch_loss, _timed(tracer, "models.batch_loss"))
        patcher.replace_everywhere(atent.sampler.run_chain, _timed(tracer, "sampler.run_chain"))
        patcher.replace_everywhere(atent.sampler.langevin_step,
                                   _timed(tracer, "sampler.langevin_step"))
        patcher.replace(atent.defenses, "batch_iter", _batch_iter(tracer)(atent.defenses.batch_iter))
        patcher.replace(atent.defenses, "accuracy",
                        _timed(tracer, "defenses.validation")(atent.defenses.accuracy))
        patcher.replace(atent.attacks, "run_attack", _run_attack(tracer)(atent.attacks.run_attack))
        patcher.replace(atent.smoothing, "vote_counts",
                        _timed(tracer, "smoothing.vote_counts")(atent.smoothing.vote_counts))
        patcher.replace(atent.experiment, "save_checkpoint",
                        _save_checkpoint(tracer)(atent.experiment.save_checkpoint))
        patcher.replace_everywhere(atent.checkpoint.atomic_write_bytes, _atomic_write(tracer))
        patcher.replace(atent.experiment, "train", _train(tracer)(atent.experiment.train))
        patcher.replace(atent.experiment, "synth_digits",
                        _timed(tracer, "data.synth_digits")(atent.experiment.synth_digits))
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metric table (name -> (value, unit)) of one traced pass.

    Layers a workload never enters read 0, as do fractions with no attempts.
    """
    table = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ms(name, key="total_s"):
        return 1000.0 * table.get(name, {}).get(key, 0.0)

    def frac(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out: dict[str, tuple[float, str]] = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.calls"] = (calls(f"tensor.{op}"), "count")
        out[f"tensor.{op}.fwd_ms"] = (ms(f"tensor.{op}"), "ms")
        out[f"tensor.{op}.pull_ms"] = (ms(f"tensor.{op}.pull"), "ms")
    out["tensor.conv2d.dx_useful_frac"] = (frac("conv2d.dx_useful", "conv2d.pulls"), "fraction")
    out["tensor.conv2d.dx_wasted_frac"] = (frac("conv2d.dx_wasted", "conv2d.pulls"), "fraction")
    out["tensor.backward.calls"] = (calls("tensor.backward"), "count")
    out["tensor.backward.ms"] = (ms("tensor.backward"), "ms")

    steps = calls("defenses.step")
    for wrt in ("weights", "inputs", "both"):
        out[f"models.loss_and_grads.calls.{wrt}"] = (counts[f"loss_and_grads.{wrt}"], "count")
    out["models.loss_and_grads.ms"] = (ms("models.loss_and_grads"), "ms")
    out["models.loss_and_grads.calls_per_step"] = (
        calls("models.loss_and_grads") / steps if steps else 0.0, "count")
    for name in ("models.predict", "models.batch_loss"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.ms"] = (ms(name), "ms")

    out["sampler.run_chain.calls"] = (calls("sampler.run_chain"), "count")
    out["sampler.run_chain.ms"] = (ms("sampler.run_chain"), "ms")
    out["sampler.run_chain.self_ms"] = (ms("sampler.run_chain", "self_s"), "ms")
    out["sampler.langevin_step.calls"] = (calls("sampler.langevin_step"), "count")
    out["sampler.langevin_step.ms"] = (ms("sampler.langevin_step"), "ms")

    step_ms = [1000.0 * d for d in table.get("defenses.step", {}).get("durations", [])]
    out["defenses.steps"] = (steps, "count")
    out["defenses.step_ms.p50"] = (_quantile(step_ms, 0.5), "ms")
    out["defenses.step_ms.p90"] = (_quantile(step_ms, 0.9), "ms")
    out["defenses.step_self_ms"] = (ms("defenses.step", "self_s"), "ms")
    out["defenses.validation_ms"] = (ms("defenses.validation"), "ms")

    for kind in ("pgd", "atent"):
        out[f"attacks.run_attack.{kind}.calls"] = (calls(f"attacks.run_attack.{kind}"), "count")
        out[f"attacks.run_attack.{kind}.ms"] = (ms(f"attacks.run_attack.{kind}"), "ms")
    out["smoothing.vote_counts.calls"] = (calls("smoothing.vote_counts"), "count")
    out["smoothing.vote_counts.ms"] = (ms("smoothing.vote_counts"), "ms")
    out["smoothing.vote_counts.self_ms"] = (ms("smoothing.vote_counts", "self_s"), "ms")

    out["checkpoint.save_checkpoint.calls"] = (calls("checkpoint.save_checkpoint"), "count")
    out["checkpoint.save_checkpoint.ms"] = (ms("checkpoint.save_checkpoint"), "ms")
    out["checkpoint.atomic_write.calls"] = (calls("checkpoint.atomic_write"), "count")
    out["checkpoint.atomic_write.ms"] = (ms("checkpoint.atomic_write"), "ms")
    out["checkpoint.atomic_write.bytes"] = (counts["atomic_write.bytes"], "bytes")
    out["checkpoint.best_write_useful_frac"] = (frac("best_writes_useful", "best_writes"),
                                                "fraction")

    out["experiment.on_epoch.ms"] = (ms("experiment.on_epoch"), "ms")
    out["data.batch_iter.ms"] = (ms("data.batch_iter"), "ms")
    out["data.synth_digits.ms"] = (ms("data.synth_digits"), "ms")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out

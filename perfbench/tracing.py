"""Traced runs: timing wrappers swapped onto binloc's module attributes.

``Tracer.install`` replaces every public function of each layer module
(``__all__`` where the module has one, else every public name the module
defines) with a wrapper that records a span, and patches the same object in
every other binloc module that imported it by name. A few methods that
carry layer boundaries are wrapped on their classes. ``uninstall`` restores
the originals, so an untraced run executes none of this code.

Spans are kept in memory as ``[name, start, end, parent, run_id, command]``
and written out once, at the end of the run. ``layer_metrics`` turns them
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("engine", "model", "losses", "optim", "checkpoint", "frontend",
          "data", "spatial", "metrics", "rollout", "train", "cli")

# Methods that mark layer boundaries but are not module-level functions.
METHODS = {
    "engine": {"Graph": ("__enter__", "backward")},
    "model": {"BinauralTransformer": ("__init__", "forward", "embed",
                                      "forward_with_attention"),
              "EncoderStack": ("__call__",),
              "SelfAttention": ("__call__",),
              "Mlp": ("__call__",)},
}

ENGINE_OPS = ("matmul", "add", "sub", "scale", "gelu", "softmax", "layer_norm",
              "reshape", "transpose", "concat", "tmean", "dropout")

NAME, START, END, PARENT, RUN, COMMAND = range(6)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.distinct_samples: dict[str, set] = defaultdict(set)
        self.run_id = "setup"
        self.command = ""
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id, self.command])
        self._stack.append(index)
        return index

    def add(self, key: str, value) -> None:
        """Record one per-call figure under the current run and command."""
        self.samples[key].append((self.run_id, self.command, value))

    def _exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, after=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not the consumer's loop body
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield from it
                        return
                    index = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(index)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            index = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = {layer: importlib.import_module(f"binloc.{layer}")
                   for layer in LAYERS}
        every = [importlib.import_module(f"binloc.{m}")
                 for m in (*LAYERS, "config", "util")]
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                span = _SPAN_NAMES.get((layer, name), f"{layer}.{name}")
                wrapper = self._wrap(span, fn, _AFTER.get((layer, name)))
                for owner in every:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = vars(cls)[method]
                    wrapper = self._wrap(f"{layer}.{cls_name}.{method}", fn,
                                         _AFTER.get((layer, f"{cls_name}.{method}")))
                    self._patch(cls, method, wrapper)
        self.active = True

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write one JSON line per span, then one line with the samples."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "run", "command"),
                    span))) + "\n")
            fh.write(json.dumps({"samples": self.samples}) + "\n")


# ---------------------------------------------------------------------------
# per-call counters (run after the wrapped call returns)


def _render_span(args) -> str:
    scene = args[2]
    return f"spatial.render_binaural.{'AE' if scene.is_anechoic else 'RV'}"


def _after_matmul(tracer, args, out):
    a = args[0]
    tracer.add("engine.matmul_flop", 2 * out.data.size * a.data.shape[-1])


def _after_backward(tracer, args, out):
    tracer.add("engine.tape_nodes", len(args[0]))


def _file_bytes(key):
    def after(tracer, args, out):
        tracer.add(key, os.path.getsize(args[0]))
    return after


def _after_load_manifest(tracer, args, manifest):
    root = str(Path(args[0]).resolve())
    tracer.distinct_samples[tracer.run_id].update(
        (root, r.sample_id) for r in manifest.records)


_SPAN_NAMES = {("spatial", "render_binaural"): _render_span}
_AFTER = {
    ("engine", "matmul"): _after_matmul,
    ("engine", "Graph.backward"): _after_backward,
    ("checkpoint", "save_tensors"): _file_bytes("checkpoint.save_bytes"),
    ("frontend", "save_spectrogram_cache"): _file_bytes("frontend.cache_bytes"),
    ("spatial", "load_manifest"): _after_load_manifest,
}


# ---------------------------------------------------------------------------
# span analysis


class SpanTable:
    """Derived views of a span list: durations, children and self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [s[END] - s[START] for s in spans]
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def self_time(self, i: int, child_prefix: str = "") -> float:
        """Duration minus the part covered by direct children.

        With ``child_prefix`` only children whose name starts with it are
        subtracted, which gives a layer's own time at that layer's level.
        """
        covered = sum(self.duration[c] for c in self.children[i]
                      if self.spans[c][NAME].startswith(child_prefix))
        return self.duration[i] - covered

    def outermost(self, names) -> list[int]:
        """Spans named in ``names`` that have no ancestor named in ``names``."""
        names = set(names)
        out = []
        for i in sorted(i for name in names for i in self.by_name[name]):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False


def layer_metrics(tracer: Tracer, n_setups: int, n_ops: int,
                  overhead_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one workload op.

    Time and count totals add the set-up's share (divided by ``n_setups``)
    to the timed ops' share (divided by ``n_ops``). Per-step figures
    (``engine.tape_nodes``, ``engine.backward_ms``, ``train.step_ms_*``)
    cover the steps of the workload's ``binloc train`` calls.
    """
    table = SpanTable(tracer.spans)
    spans = tracer.spans

    def weight(run_id):
        return 1.0 / n_setups if run_id == "setup" else 1.0 / n_ops

    def total_ms(indices, fn=None):
        return sum((fn(i) if fn else table.duration[i]) * weight(spans[i][RUN])
                   for i in indices) * 1e3

    def calls(indices):
        return sum(weight(spans[i][RUN]) for i in indices)

    def summed(key):
        return sum(value * weight(run) for run, _, value in tracer.samples[key])

    by_name = table.by_name

    def named_ms(*names):
        return total_ms(table.outermost(names))

    m: dict[str, tuple[float, str]] = {}

    # engine
    nodes = [n for _, cmd, n in tracer.samples["engine.tape_nodes"] if cmd == "train"]
    m["engine.tape_nodes"] = (statistics.median(nodes), "count")
    backward = [table.duration[i] for i in by_name["engine.Graph.backward"]
                if spans[i][COMMAND] == "train"]
    m["engine.backward_ms"] = (statistics.median(backward) * 1e3, "ms")
    for op in ENGINE_OPS:
        idx = by_name[f"engine.{op}"]
        m[f"engine.op_ms.{op}"] = (total_ms(idx), "ms")
        m[f"engine.op_calls.{op}"] = (calls(idx), "count")
    flop = summed("engine.matmul_flop")
    matmul_ms = m["engine.op_ms.matmul"][0]
    # computed from operand shapes of the forward matmuls, not counted by hardware
    m["engine.matmul_gflop"] = (flop / 1e9, "GFLOP")
    m["engine.matmul_gflops_per_s"] = (flop / matmul_ms / 1e6 if matmul_ms else 0.0,
                                       "GFLOP/s")

    # model
    m["model.init_ms"] = (named_ms("model.BinauralTransformer.__init__"), "ms")
    forward = table.outermost(["model.BinauralTransformer.forward"])
    m["model.forward_ms"] = (total_ms(forward), "ms")
    m["model.embed_ms"] = (named_ms("model.BinauralTransformer.embed"), "ms")
    m["model.attention_ms"] = (named_ms("model.SelfAttention.__call__"), "ms")
    m["model.mlp_ms"] = (named_ms("model.Mlp.__call__"), "ms")
    m["model.integrate_ms"] = (named_ms("model.integrate"), "ms")
    # forward minus embed, encoder stacks and integration: norm, pool, head
    m["model.head_ms"] = (total_ms(forward, lambda i: table.self_time(i, "model.")),
                          "ms")

    m["losses.loss_ms"] = (named_ms("losses.mse_loss", "losses.ad_loss",
                                    "losses.hybrid_loss"), "ms")
    m["optim.adam_ms"] = (named_ms("optim.adam_step"), "ms")

    # checkpoint
    m["checkpoint.save_ms"] = (named_ms("checkpoint.save_tensors"), "ms")
    m["checkpoint.save_bytes"] = (summed("checkpoint.save_bytes"), "bytes")
    m["checkpoint.load_ms"] = (named_ms("checkpoint.load_tensors"), "ms")
    m["checkpoint.load_calls"] = (calls(by_name["checkpoint.load_tensors"]), "count")

    # frontend
    spec = by_name["frontend.binaural_spectrogram"]
    m["frontend.spectrogram_ms"] = (total_ms(spec), "ms")
    m["frontend.spectrogram_calls"] = (calls(spec), "count")
    distinct = sum(len(ids) * weight(run) for run, ids in tracer.distinct_samples.items())
    m["frontend.spectrograms_per_sample"] = (calls(spec) / distinct if distinct else 0.0,
                                             "ratio")
    m["frontend.cache_save_ms"] = (named_ms("frontend.save_spectrogram_cache"), "ms")
    m["frontend.cache_load_ms"] = (named_ms("frontend.load_spectrogram_cache"), "ms")
    m["frontend.cache_bytes"] = (summed("frontend.cache_bytes"), "bytes")

    # data
    m["data.load_samples_ms"] = (named_ms("data.load_samples"), "ms")
    m["data.load_calls"] = (calls(by_name["data.load_samples"]), "count")
    m["data.batches_ms"] = (named_ms("data.batches"), "ms")

    # spatial
    m["spatial.render_ms.AE"] = (named_ms("spatial.render_binaural.AE"), "ms")
    m["spatial.render_ms.RV"] = (named_ms("spatial.render_binaural.RV"), "ms")
    m["spatial.make_source_ms"] = (named_ms("spatial.make_source"), "ms")
    m["spatial.write_wav_ms"] = (named_ms("spatial.write_wav"), "ms")
    m["spatial.read_wav_ms"] = (named_ms("spatial.read_wav"), "ms")

    # metrics
    m["metrics.evaluate_ms"] = (named_ms("metrics.evaluate"), "ms")
    m["metrics.hemifield_ms"] = (named_ms("metrics.hemifield_test",
                                          "metrics.hemifield_report",
                                          "metrics.fdr_correct"), "ms")
    m["metrics.write_ms"] = (named_ms("metrics.write_overall", "metrics.write_per_azimuth",
                                      "metrics.write_hemifield",
                                      "metrics.write_env_transfer"), "ms")

    # rollout
    m["rollout.capture_ms"] = (
        named_ms("model.BinauralTransformer.forward_with_attention"), "ms")
    m["rollout.chain_ms"] = (named_ms("rollout.rollout_chain"), "ms")
    m["rollout.export_ms"] = (named_ms("rollout.export_heatmap"), "ms")

    # train: a step runs from entering the tape to clearing the gradients
    steps = _step_durations_ms(spans, by_name)
    m["train.step_ms_p50"] = (float(np.percentile(steps, 50)), "ms")
    m["train.step_ms_p90"] = (float(np.percentile(steps, 90)), "ms")
    validate = [i for i in table.outermost(["metrics.evaluate"])
                if table.has_ancestor(i, "train.train")]
    m["train.validate_ms"] = (total_ms(validate), "ms")
    m["train.runs"] = (calls(by_name["train.train"]), "count")

    m["cli.self_ms"] = (total_ms(by_name["cli.main"], table.self_time), "ms")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return m


def _step_durations_ms(spans, by_name) -> list[float]:
    """Time from each tape entry to the next gradient reset, in the
    workload's ``binloc train`` calls."""
    starts = sorted(spans[i][START] for i in by_name["engine.Graph.__enter__"]
                    if spans[i][COMMAND] == "train")
    ends = sorted(spans[i][END] for i in by_name["optim.zero_grads"]
                  if spans[i][COMMAND] == "train")
    out = []
    j = 0
    for start in starts:
        while j < len(ends) and ends[j] < start:
            j += 1
        if j < len(ends):
            out.append((ends[j] - start) * 1e3)
            j += 1
    return out

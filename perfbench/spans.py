"""In-memory spans around the program's public functions, and per-layer sums.

A Patcher rebinds module attributes that callers look up (for example
``sphattn.field.grid_field``) and restores them. A Tracer is a Patcher
whose wrappers record one span per call:
name, start, end and the index of the enclosing span. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import gc
import json
import os
from time import perf_counter

# per-layer metrics, in the order they are printed
PER_LAYER = {
    "autodiff.tape_nodes.fwd": "count",
    "autodiff.tape_nodes.bwd": "count",
    "autodiff.tape_mb.fwd": "MB",
    "autodiff.tape_mb.bwd": "MB",
    "autodiff.grad.ms": "ms",
    "autodiff.grad2.ms": "ms",
    "autodiff.release.ms": "ms",
    "autodiff.gc.ms": "ms",
    "autodiff.gc.collections": "count",
    "field.grid_field.calls": "count",
    "field.grid_field.ms": "ms",
    "field.field_features.ms": "ms",
    "attention.build_qkv.ms": "ms",
    "attention.spherical_attention.ms": "ms",
    "attention.pool_attention.ms": "ms",
    "attention.gate.ms": "ms",
    "backbone.radial_basis.ms": "ms",
    "backbone.taped_harmonics.ms": "ms",
    "backbone.forward_self.ms": "ms",
    "geometry.neighbor_list.ms": "ms",
    "geometry.build_equiangular_grid.calls": "count",
    "geometry.build_equiangular_grid.ms": "ms",
    "training.batch_graph.ms": "ms",
    "training.loss.ms": "ms",
    "training.update.ms": "ms",
    "training.evaluate.ms": "ms",
    "training.evaluate.rss_mb": "MB",
    "md.langevin_step.ms": "ms",
    "md.integrator_self.ms": "ms",
    "cli.artifacts.ms": "ms",
    "trace.overhead.ms": "ms",
}

# span name -> metric that sums its self time per op
SELF_TIME = {
    "autodiff.grad": "autodiff.grad.ms",
    "autodiff.grad2": "autodiff.grad2.ms",
    "autodiff.release": "autodiff.release.ms",
    "field.grid_field": "field.grid_field.ms",
    "field.field_features": "field.field_features.ms",
    "attention.build_qkv": "attention.build_qkv.ms",
    "attention.spherical_attention": "attention.spherical_attention.ms",
    "attention.pool_attention": "attention.pool_attention.ms",
    "attention.gate": "attention.gate.ms",
    "backbone.radial_basis": "backbone.radial_basis.ms",
    "backbone.taped_harmonics": "backbone.taped_harmonics.ms",
    "backbone.energy_and_forces": "backbone.forward_self.ms",
    "backbone.batch_graph": "backbone.forward_self.ms",
    "geometry.neighbor_list": "geometry.neighbor_list.ms",
    "geometry.build_equiangular_grid": "geometry.build_equiangular_grid.ms",
    "training.loss": "training.loss.ms",
    "training.step": "training.update.ms",
    "md.langevin_step": "md.langevin_step.ms",
}
# span name -> metric that counts its calls per op
CALLS = {
    "field.grid_field": "field.grid_field.calls",
    "geometry.build_equiangular_grid": "geometry.build_equiangular_grid.calls",
}
# names of the spans that stand for one op of a workload
OP_SPANS = ("md.langevin_step", "training.step", "ef.call")


def rss_mb() -> float:
    """Current resident set size in MB (2^20 bytes)."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


class Patcher:
    """Rebinds module attributes and puts them back, last first."""

    def __init__(self):
        self._saved: list[tuple] = []

    def patch(self, module, attr: str, new) -> None:
        """Rebind module.attr until restore()."""
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


class Tracer(Patcher):
    """Span recorder plus garbage-collector pause accounting."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.gc_ms = 0.0
        self.gc_collections = 0
        self._gc_start = None
        # the largest resident-set growth of any validation pass, each read
        # from the pass's entry to the release call the pass itself makes,
        # when its tape is whole (the layers' own releases nest deeper)
        self.evaluate_rss_mb = 0.0
        self._evaluate_entry_mb = None

    def open(self, name: str) -> int:
        if name == "training.evaluate":
            self._evaluate_entry_mb = rss_mb()
        elif (name == "autodiff.release" and self._evaluate_entry_mb is not None
              and self.spans[self.stack[-1]][0] == "training.evaluate"):
            self.evaluate_rss_mb = max(self.evaluate_rss_mb, rss_mb() - self._evaluate_entry_mb)
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` and any span still open inside it."""
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if self.spans[top][0] == "training.evaluate":
                self._evaluate_entry_mb = None
            if top == idx:
                return

    def wrap(self, module, attr: str, name) -> None:
        """Rebind module.attr to a spanning wrapper; ``name`` may be a callable
        that picks the span name from the call's arguments."""
        orig = getattr(module, attr)
        pick = name if callable(name) else (lambda *a, **k: name)

        def wrapper(*args, **kwargs):
            idx = self.open(pick(*args, **kwargs))
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        self.patch(module, attr, wrapper)

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        """Undo every wrapper and the collector callback."""
        gc.callbacks.remove(self._on_gc)
        self.restore()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_ms += (perf_counter() - self._gc_start) * 1e3
            self.gc_collections += 1
            self._gc_start = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-op sums over the spans inside op spans, plus per-call and per-run figures."""
        spans = self.spans
        n = len(spans)
        dur = [(s[2] - s[1]) * 1e3 for s in spans]
        child = [0.0] * n
        last_child_end = [None] * n
        in_op = [False] * n
        for i, (name, start, end, parent) in enumerate(spans):
            if parent is not None:
                child[parent] += dur[i]
                last_child_end[parent] = end
                in_op[i] = in_op[parent] or spans[parent][0] in OP_SPANS
        ops = sum(1 for s in spans if s[0] in OP_SPANS)
        out = dict.fromkeys(PER_LAYER, 0.0)
        evaluate, artifacts, integrator = [], [], 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_ms = dur[i] - child[i]
            if in_op[i] or name in OP_SPANS:
                if name in SELF_TIME:
                    out[SELF_TIME[name]] += self_ms
                if name in CALLS:
                    out[CALLS[name]] += 1
                if name == "backbone.batch_graph" and spans[parent][0] == "training.step":
                    out["training.batch_graph.ms"] += dur[i]
            if name == "training.evaluate":
                evaluate.append(dur[i])
            elif name == "md.run":
                integrator += self_ms
            elif name == "cli.main" and last_child_end[i] is not None:
                artifacts.append((end - last_child_end[i]) * 1e3)
        if ops:
            for metric in set(SELF_TIME.values()) | set(CALLS.values()) | {"training.batch_graph.ms"}:
                out[metric] /= ops
            out["md.integrator_self.ms"] = integrator / ops
            out["autodiff.gc.ms"] = self.gc_ms / ops
            out["autodiff.gc.collections"] = self.gc_collections / ops
        if evaluate:
            out["training.evaluate.ms"] = sum(evaluate) / len(evaluate)
            out["training.evaluate.rss_mb"] = self.evaluate_rss_mb
        if artifacts:
            out["cli.artifacts.ms"] = sum(artifacts) / len(artifacts)
        return out

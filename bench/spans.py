"""Spans around calls into the program's layers, recorded from outside.

The program itself is not instrumented: `Tracer.install` replaces each traced
function wherever a `smartpaste` module binds it (a `from .dataflow import
dataflow_uses` in `infer` is a second binding of the same function), and
each traced method on its class.  A span is (name, start, end, parent span,
operation id); spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Dict, List, Optional

# (metric prefix, defining module, attribute path); one entry per layer
# boundary the benchmark reports.
TRACED = [
    ("minilang.tokenize", "smartpaste.minilang.lexer", "tokenize"),
    ("minilang.parse", "smartpaste.minilang.parser", "parse"),
    ("minilang.check", "smartpaste.minilang.checker", "check"),
    ("taskgen.extract_instances", "smartpaste.taskgen", "extract_instances"),
    ("taskgen.write_instances", "smartpaste.taskgen", "write_instances"),
    ("taskgen.read_instances", "smartpaste.taskgen", "read_instances"),
    ("dataflow.dataflow_uses", "smartpaste.dataflow", "dataflow_uses"),
    ("dataflow.build_cfg", "smartpaste.dataflow", "build_cfg"),
    ("models.Encoder.usage_repr", "smartpaste.models", "Encoder.usage_repr"),
    ("models.Encoder.context_repr", "smartpaste.models",
     "Encoder.context_repr"),
    ("nn.gru_step", "smartpaste.nn", "gru_step"),
    ("nn.Tensor.backward", "smartpaste.nn", "Tensor.backward"),
    ("nn.adam_step", "smartpaste.nn", "adam_step"),
    ("nn.load_checkpoint", "smartpaste.nn", "load_checkpoint"),
    ("infer.rank_single", "smartpaste.infer", "rank_single"),
    ("infer.total_log_prob", "smartpaste.infer", "total_log_prob"),
    ("infer.icm", "smartpaste.infer", "icm"),
    ("infer.make_paste_instance", "smartpaste.infer", "make_paste_instance"),
    ("train.train_step", "smartpaste.train", "train_step"),
    ("train.ItemCache.graph", "smartpaste.train", "ItemCache.graph"),
    ("train.per_placeholder_accuracy", "smartpaste.train",
     "per_placeholder_accuracy"),
    ("cli.main", "smartpaste.cli", "main"),
]

# Per-layer metrics that are not a traced function's calls or self time.
EXTRA_METRICS = [
    ("taskgen.jsonl_bytes", "bytes"),
    ("infer.rank_single.per_placeholder", "calls/ph"),
]


def per_layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for prefix, _, _ in TRACED:
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
    return out + EXTRA_METRICS


class Tracer:
    """In-memory span recorder.  `op` is the operation id stamped on new
    spans; the workload sets it ("setup" before the first operation)."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.op = "setup"
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        """Wrap every TRACED function at each of its bindings."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "smartpaste" or n.startswith("smartpaste.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> Dict[str, float]:
        """Calls and self time per traced function; self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = {prefix: 0 for prefix, _, _ in TRACED}
        self_s = {prefix: 0.0 for prefix, _, _ in TRACED}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        out: Dict[str, float] = {}
        for prefix, _, _ in TRACED:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = self_s[prefix]
        return out

    def write(self, path: str, meta: Optional[dict] = None):
        """One JSON line per span, after a header line with `meta`."""
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta or {}}) + "\n")
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op}) + "\n")

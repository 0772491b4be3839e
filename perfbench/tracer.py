"""In-memory span tracer for the benchmark.

The tracer wraps the layer-boundary functions of `nagc` from outside the
package: each name is patched in every module namespace it is looked up from
(a function imported with `from .x import f` lives under two names, a method
lives on its class). Nothing in `nagc` changes; uninstalling restores every
original object.

A span records its name, parent span, request id, session phase, start and
end. A span's self time is its duration minus the time of its direct children;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name). These are the layer boundaries the
# per-layer metrics are built from; the autodiff primitives (add, matmul, ...)
# are deliberately not wrapped, so their cost lands in the self time of the
# layer that called them.
TARGETS = (
    ("nagc.neural", "backward", "neural.backward"),
    ("nagc.neural", "adam_step", "neural.adam_step"),
    ("nagc.neural", "save_checkpoint", "neural.save_checkpoint"),
    ("nagc.neural", "load_checkpoint", "neural.load_checkpoint"),
    ("nagc.model", "encode", "model.encode"),
    ("nagc.model", "encode_many", "model.encode"),
    ("nagc.model", "prep_sample", "model.prep_sample"),
    ("nagc.model", "propagate", "model.propagate"),
    ("nagc.model", "tree_log_prob", "model.tree_log_prob"),
    ("nagc.model", "node_representation", "model.node_representation"),
    ("nagc.model", "pick_production_dist", "model.pick_production"),
    ("nagc.model", "pick_variable_dist", "model.pick_variable"),
    ("nagc.model", "pick_literal_dist", "model.pick_literal"),
    ("nagc.model", "decode_beam", "model.decode_beam"),
    ("nagc.model", "save_model", "model.save_model"),
    ("nagc.model", "load_model", "model.load_model"),
    ("nagc.attrgraph", "GraphBuilder.settle", "attrgraph.settle"),
    ("nagc.attrgraph", "GraphBuilder.copy", "attrgraph.copy"),
    ("nagc.attrgraph", "augment_full_tree", "attrgraph.augment_full_tree"),
    ("nagc.attrgraph", "batch_graphs", "attrgraph.batch_graphs"),
    ("nagc.attrgraph", "propagation_schedule", "attrgraph.propagation_schedule"),
    ("nagc.syntax", "PartialAst.copy", "syntax.PartialAst.copy"),
    ("nagc.syntax", "deserialize_decisions", "syntax.deserialize_decisions"),
    ("nagc.lang", "program_graph", "lang.program_graph"),
    ("nagc.grammar", "type_check", "grammar.type_check"),
    ("nagc.pipeline", "generate_corpus", "pipeline.generate_corpus"),
    ("nagc.pipeline", "extract_samples", "pipeline.extract_samples"),
    ("nagc.pipeline", "dedup", "pipeline.dedup"),
    ("nagc.pipeline", "split", "pipeline.split"),
    ("nagc.pipeline", "write_jsonl", "pipeline.write_jsonl"),
    ("nagc.pipeline", "read_jsonl", "pipeline.read_jsonl"),
    ("nagc.evalcli", "run_cli", "evalcli.run_cli"),
    ("nagc.evalcli", "evaluate", "evalcli.evaluate"),
    ("nagc.evalcli", "perplexity", "evalcli.perplexity"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def _noop():
    return None


def tape_size(loss) -> int:
    """Number of distinct tensors reachable from `loss`: the graph that
    `neural.backward` walks."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Collects spans while enabled; installed, it also records every call to
    the TARGETS. A disabled, uninstalled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = "none"
        self.request = 0
        self.tape_nodes = 0
        self.tape_s = 0.0  # time spent counting tape nodes: tracing overhead
        # (span id, parent id, request id, phase, name, start, end, self)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def new_request(self) -> int:
        self.request += 1
        return self.request

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def span(self, name):
        """Record one span around the body, unless tracing is paused."""
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, parent, self.request, self.phase, name, start, end, dur - frame[1]))

    def _wrap(self, fn, name):
        tracer = self
        count_tape = name == "neural.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count_tape:
                t0 = time.perf_counter()
                tracer.tape_nodes += tape_size(args[0])
                tracer.tape_s += time.perf_counter() - t0
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every target under every name it is looked up by."""
        nagc_modules = [m for n, m in sys.modules.items() if n == "nagc" or n.startswith("nagc.")]
        for modname, path, span in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, span)
            if cls_path:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in nagc_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def overhead_s(self, calls: int = 20000) -> float:
        """Seconds tracing added: the recorded spans times the measured cost
        of one span around a no-op, plus the tape counting."""
        probe = Tracer()
        traced = probe._wrap(_noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t2 = time.perf_counter()
        per_span = max(0.0, ((t1 - t0) - (t2 - t1)) / calls)
        return len(self.spans) * per_span + self.tape_s

    def totals(self, phase=None) -> dict:
        """{span name: (self seconds, calls)}, optionally for one phase."""
        out = defaultdict(lambda: [0.0, 0])
        for _, _, _, ph, name, _, _, self_s in self.spans:
            if phase is None or ph == phase:
                row = out[name]
                row[0] += self_s
                row[1] += 1
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """All spans as gzip JSON lines, one
        [id, parent, request, phase, name, start_s, end_s, self_s] per line."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

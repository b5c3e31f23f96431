"""Traced runs: timing shims around the public entry points of each layer.

The tracer replaces a function by a wrapper that records a span (name,
start, end, parent) and calls the original.  A function is patched in every
sumnet module that binds it under its own name, because callers look names
up in their own namespace: `composite_loss` is called as a global of
`sumnet.model`, `ssm_recurrence` as a global of `sumnet.scan`, and the
tensor ops through `sumnet.tensor`'s globals (operator sugar included).
`uninstall` puts every original back, so the untraced cycles of a traced
run execute the program exactly as shipped.

Spans stay in memory and are written once, when the benchmark ends.  A
span's self time is its duration minus the durations of its children on
the same thread.

Backward time cannot be seen from a function boundary, because the tape
replays closures.  Just before `tensor.backward` runs, the tracer walks the
public `Tape.nodes`, tags every node with the stage label that was current
when the node was recorded, and wraps its `grad_fn` in a timer keyed by op
kind, stage and scan level.

Stage labels follow the model's forward: `Model._stage(name)` opens enc{i}
or dec{j}; the label stays until the next stage begins, so down{i} counts
in enc{i} and up{j} plus skip{j} count in dec{j}.  `patch_embed` opens
embed, the head's `patch_expand` opens head, the conditioner runs under
cond, and `composite_loss` runs under loss.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from sumnet import tensor as T

STAGES = ("embed", "enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2", "dec3", "head")
# tape op kind -> span name of the function that records it
OP_SPANS = {
    "add": "tensor.add",
    "reshape": "tensor.reshape",
    "mul": "tensor.mul",
    "matmul": "tensor.matmul",
    "index": "tensor.index",
    "mean": "tensor.reduce_mean",
    "div": "tensor.div",
    "ssm_recurrence": "scan.ssm_recurrence",
}
FUNCTIONS = (
    ("sumnet.tensor", "add"), ("sumnet.tensor", "reshape"), ("sumnet.tensor", "mul"),
    ("sumnet.tensor", "matmul"), ("sumnet.tensor", "index"), ("sumnet.tensor", "reduce_mean"),
    ("sumnet.tensor", "div"), ("sumnet.tensor", "backward"),
    ("sumnet.scan", "ssm_recurrence"), ("sumnet.scan", "selective_scan"),
    ("sumnet.scan", "cross_scan"), ("sumnet.scan", "cross_merge"),
    ("sumnet.blocks", "vss_forward"), ("sumnet.blocks", "cvss_forward"),
    ("sumnet.blocks", "ln_core"), ("sumnet.blocks", "depthwise_conv3x3"),
    ("sumnet.blocks", "patch_embed"), ("sumnet.blocks", "downsample"),
    ("sumnet.blocks", "patch_expand"), ("sumnet.blocks", "conditioner"),
    ("sumnet.objective", "composite_loss"),
    ("sumnet.model", "batch_loss"), ("sumnet.model", "evaluate"),
    ("sumnet.metrics", "evaluate_sample"), ("sumnet.metrics", "auc_judd_metric"),
    ("sumnet.metrics", "summarize"),
    ("sumnet.data", "generate_dataset"), ("sumnet.data", "load_samples"),
    ("sumnet.data", "save_checkpoint"), ("sumnet.data", "load_checkpoint"),
    ("sumnet.cli", "main"),
)
METHODS = (
    ("sumnet.model", "Model", "forward"), ("sumnet.model", "Model", "predict"),
    ("sumnet.model", "Model", "_stage"), ("sumnet.model", "Adam", "step"),
)


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    """The value a call binds to parameter `name`, however it was passed."""
    return _signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Span recorder plus the shims that feed it."""

    def __init__(self, input_size: int):
        self.input_size = input_size
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._main_stack: list = []
        self._tls.stack = self._main_stack
        self._tids: dict = {}
        self._name_ids: dict = {}
        self.names: list = []
        self._name = array("i")
        self._parent = array("i")
        self._root = array("i")
        self._tid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self.missing: list = []
        self.ops: Counter = Counter()
        self.steps: list = []  # per traced train step: exact counts
        self.label_time: defaultdict = defaultdict(float)  # (op, label) -> s
        self.bwd_kind: defaultdict = defaultdict(float)
        self.bwd_stage: defaultdict = defaultdict(float)
        self.bwd_level: defaultdict = defaultdict(float)
        self.fwd_level: defaultdict = defaultdict(float)
        self.data: Counter = Counter()  # samples generated and loaded, checkpoint bytes
        self._op = None
        self._model = None
        self._reset_op()
        self._build()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            idx = len(self._name)
            self._name.append(nid)
            self._parent.append(parent)
            self._root.append(self._root[parent] if parent >= 0 else idx)
            self._tid.append(tid)
            self._end.append(math.nan)
            self._start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._tls.stack.pop()

    def _wrap(self, fn, name: str, pre=None, post=None):
        open_, close = self._open, self._close
        if pre is None and post is None:
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                ctx = pre(fn, args, kwargs) if pre is not None else None
                idx = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if post is not None:
                    post(fn, ctx, args, kwargs, result, idx)
                return result
        return functools.update_wrapper(wrapper, fn)

    # -- operations and stage labels -----------------------------------------

    def _reset_op(self) -> None:
        self._label = "none"
        self._label_t = time.perf_counter()
        self._cp_nodes = [0]
        self._cp_labels = ["none"]
        self._node_level: dict = {}
        self._step: Counter = Counter()

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation (setup, train, predict, eval)."""
        self._op = kind
        self._reset_op()
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._set_label("none")
            self.ops[kind] += 1
            if kind == "train":
                self.steps.append(self._step)
            self._op = None

    def _set_label(self, label: str) -> None:
        now = time.perf_counter()
        self.label_time[(self._op, self._label)] += now - self._label_t
        self._label, self._label_t = label, now
        tape = T.active_tape()
        if tape is not None:
            self._cp_nodes.append(len(tape.nodes))
            self._cp_labels.append(label)

    def _level(self, length: int) -> int:
        top = (self.input_size // 4) ** 2
        return min(3, max(0, round(math.log(top / length, 4))))

    # -- hooks ---------------------------------------------------------------

    def _pre_forward(self, fn, args, kwargs):
        self._model = args[0]
        self._set_label("cond")

    def _post_forward(self, fn, ctx, args, kwargs, result, idx):
        self._set_label("none")

    def _pre_stage(self, fn, args, kwargs):
        self._set_label(_arg(fn, args, kwargs, "stage_name"))

    def _pre_embed(self, fn, args, kwargs):
        self._set_label("embed")

    def _pre_expand(self, fn, args, kwargs):
        head = getattr(self._model, "head_expand", None)
        if head is not None and _arg(fn, args, kwargs, "p") is head:
            self._set_label("head")

    def _pre_loss(self, fn, args, kwargs):
        prev = self._label
        self._set_label("loss")
        return prev

    def _post_loss(self, fn, prev, args, kwargs, result, idx):
        self._set_label(prev)

    def _pre_nodes(self, fn, args, kwargs):
        tape = T.active_tape()
        return (tape, len(tape.nodes)) if tape is not None else None

    def _post_nodes_for(self, key: str):
        def post(fn, ctx, args, kwargs, result, idx):
            if ctx is not None:
                tape, n0 = ctx
                self._step[key] += sum(1 for nd in tape.nodes[n0:] if nd.kind != "leaf")
        return post

    def _post_recurrence(self, fn, ctx, args, kwargs, result, idx):
        a = np.shape(_arg(fn, args, kwargs, "a"))
        x = np.shape(_arg(fn, args, kwargs, "x"))
        bsz, length = (1,) + x[:1] if len(x) == 2 else x[:2]
        level = self._level(length)
        self.fwd_level[(self._op, level)] += self._end[idx] - self._start[idx]
        self._step["recurrence_calls"] += 1
        self._step["state_bytes"] += bsz * length * a[0] * a[1] * 8
        tape = T.active_tape()
        if tape is not None and tape.nodes and tape.nodes[-1].kind == "ssm_recurrence":
            self._node_level[len(tape.nodes) - 1] = level

    def _post_generate(self, fn, ctx, args, kwargs, result, idx):
        self.data["generated"] += 4 * _arg(fn, args, kwargs, "n_per_domain")

    def _post_load(self, fn, ctx, args, kwargs, result, idx):
        self.data["loaded"] += len(result)

    def _post_save(self, fn, ctx, args, kwargs, result, idx):
        self.data["checkpoint_bytes"] = os.path.getsize(_arg(fn, args, kwargs, "path"))

    def _pre_backward(self, fn, args, kwargs):
        self._attribute(_arg(fn, args, kwargs, "tape"))

    def _attribute(self, tape) -> None:
        """Count the recorded nodes and wrap each grad_fn in a timer."""
        cps_n, cps_l = self._cp_nodes, self._cp_labels
        j, label = 0, cps_l[0]
        nxt = cps_n[1] if len(cps_n) > 1 else math.inf
        step, op = self._step, self._op
        for i, node in enumerate(tape.nodes):
            while i >= nxt:
                j += 1
                label = cps_l[j]
                nxt = cps_n[j + 1] if j + 1 < len(cps_n) else math.inf
            step["nodes"] += 1
            if node.kind == "leaf":
                step["leaves"] += 1
                continue
            step[f"kind.{node.kind}"] += 1
            step[f"stage.{label}"] += 1
            if node.grad_fn is not None:
                node.grad_fn = self._timed_grad(node.grad_fn, (op, node.kind), (op, label),
                                                (op, self._node_level.get(i)))

    def _timed_grad(self, fn, kind_key, stage_key, level_key):
        bk, bs, bl = self.bwd_kind, self.bwd_stage, self.bwd_level

        def timed(g):
            t0 = time.perf_counter()
            out = fn(g)
            dt = time.perf_counter() - t0
            bk[kind_key] += dt
            bs[stage_key] += dt
            bl[level_key] += dt
            return out

        return timed

    # -- installation --------------------------------------------------------

    def _build(self) -> None:
        hooks = {
            "blocks.patch_embed": (self._pre_embed, None),
            "blocks.patch_expand": (self._pre_expand, None),
            "blocks.ln_core": (self._pre_nodes, self._post_nodes_for("ln_core_nodes")),
            "blocks.depthwise_conv3x3": (self._pre_nodes, self._post_nodes_for("dwconv_nodes")),
            "objective.composite_loss": (self._pre_loss, self._post_loss),
            "scan.ssm_recurrence": (None, self._post_recurrence),
            "tensor.backward": (self._pre_backward, None),
            "data.generate_dataset": (None, self._post_generate),
            "data.load_samples": (None, self._post_load),
            "data.save_checkpoint": (None, self._post_save),
            "model.Model.forward": (self._pre_forward, self._post_forward),
            "model.Model._stage": (self._pre_stage, None),
        }
        sumnet_modules = [m for n, m in sorted(sys.modules.items())
                          if (n == "sumnet" or n.startswith("sumnet.")) and m is not None]
        for modname, attr in FUNCTIONS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            span = f"{modname.split('.', 1)[1]}.{attr}"
            wrapper = self._wrap(orig, span, *hooks.get(span, (None, None)))
            for m in sumnet_modules:
                if m.__dict__.get(attr) is orig:
                    self._patches.append((m, attr, orig, wrapper))
        for modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            span = f"{modname.split('.', 1)[1]}.{clsname}.{attr}"
            wrapper = self._wrap(orig, span, *hooks.get(span, (None, None)))
            self._patches.append((cls, attr, orig, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self._name)
        return {
            "name": np.frombuffer(self._name, dtype=np.int32)[:n].copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32)[:n].copy(),
            "root": np.frombuffer(self._root, dtype=np.int32)[:n].copy(),
            "thread": np.frombuffer(self._tid, dtype=np.int32)[:n].copy(),
            "start": np.frombuffer(self._start, dtype=np.float64)[:n].copy(),
            "end": np.frombuffer(self._end, dtype=np.float64)[:n].copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Aggregates over a tracer's spans, by span name and root operation."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.name, self.root, self.thread = a["name"], a["root"], a["thread"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        parent = a["parent"]
        same = parent >= 0
        same[same] = self.thread[parent[same]] == self.thread[same]
        child = np.bincount(parent[same], weights=self.dur[same], minlength=len(self.dur))
        self.self_time = self.dur - child
        self.root_name = self.name[self.root] if len(self.name) else self.name

    def mask(self, span: str, op: str | None = None) -> np.ndarray:
        sid = self.ids.get(span, -1)
        m = self.name == sid
        if op is not None:
            m &= self.root_name == self.ids.get(f"op.{op}", -1)
        return m

    def total(self, span: str, op: str | None = None, self_only: bool = False) -> float:
        m = self.mask(span, op)
        return float((self.self_time if self_only else self.dur)[m].sum())

    def count(self, span: str, op: str | None = None) -> int:
        return int(self.mask(span, op).sum())

    def roots(self, op: str) -> np.ndarray:
        return np.flatnonzero(self.mask(f"op.{op}"))

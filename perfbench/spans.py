"""Spans recorded from outside the program, and the per-layer metrics.

``Instrumentation`` wraps every public function and every public method
of the public classes in the ace modules it is given. A name imported
with ``from x import y`` is wrapped where it is looked up (the same
wrapper object is put in every module namespace that holds the
function), and the span is named after the defining module and the
qualified name: ``constraints.primal_step``, ``layers.C4GroupConv.forward``.
``Tensor._result`` is wrapped separately as a counter of graph nodes.

Each span holds name, start, end, parent, and the node counters at its
start and end, so any interval that begins and ends on span boundaries
has exact node counts.

``split_train`` cuts each ``trainer.train`` span into steps and trace
rows. A step runs from the start of the top-level call that evaluates the
model for its backward to the end of the last parameter update after that
backward (any ``constraints.*`` call or ``layers.spectral_normalize``).
The time in ``train`` between one step's end and the next step's start
is a trace row (with checkpoint selection) when it holds a top-level call
that evaluates the model; otherwise it is loop overhead and belongs to
neither.
"""

from __future__ import annotations

import bisect
import importlib
import re
import time
import types

import numpy as np

MODEL_FORWARD = ("layers.HomotopicModel.forward", "layers.HomotopicModel.forward_with_intermediates")
BACKWARD = "tensor.Tensor.backward"
TRAIN = "trainer.train"
REP_APPLY = re.compile(r"groups\.\w+\.apply$")


class Span:
    __slots__ = ("name", "start", "end", "parent", "nodes0", "nodes1", "grads0", "grads1", "info")

    def __init__(self, name, start, end=None, parent=-1, nodes0=0, nodes1=0, grads0=0, grads1=0,
                 info=None):
        self.name, self.start, self.end, self.parent = name, start, end, parent
        self.nodes0, self.nodes1, self.grads0, self.grads1 = nodes0, nodes1, grads0, grads1
        self.info = info


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self.nodes = 0
        self.grad_nodes = 0
        self._open = []

    def begin(self, name, info=None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, nodes0=self.nodes,
                               grads0=self.grad_nodes, info=info))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.nodes1, span.grads1 = self.nodes, self.grad_nodes
        self._open.pop()

    def reset(self) -> None:
        self.spans = []


def conv_flops(args) -> float:
    """Multiply-adds times two of one conv2d call, from the operand shapes."""
    x, k = args[0].shape, args[1].shape
    n = x[0] if len(x) == 4 else 1
    return 2.0 * n * k[0] * k[1] * k[2] * k[3] * x[-2] * x[-1]


CONV = "tensor.conv2d"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Instrumentation:
    """Install and remove the wrappers; install() and remove() pair up."""

    def __init__(self, tracer: Tracer, module_names):
        self.tracer = tracer
        self.module_names = tuple(module_names)
        self._patches = []

    def _wrap(self, fn):
        tracer, name = self.tracer, span_name(fn)
        info = conv_flops if name == CONV else None

        def wrapper(*args, **kwargs):
            index = tracer.begin(name, info(args) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in self.module_names]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__ in self.module_names:
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    self._patch(mod, attr, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for mattr, method in list(vars(value).items()):
                        if not mattr.startswith("_") and isinstance(method, types.FunctionType):
                            self._patch(value, mattr, self._wrap(method))
        self._count_nodes()

    def _count_nodes(self) -> None:
        tensor_cls = getattr(importlib.import_module("ace.tensor"), "Tensor", None)
        original = vars(tensor_cls).get("_result") if tensor_cls else None
        if not isinstance(original, staticmethod):
            return
        make, tracer = original.__func__, self.tracer

        def counted(*args, **kwargs):
            out = make(*args, **kwargs)
            tracer.nodes += 1
            if getattr(out, "_backward", None) is not None:
                tracer.grad_nodes += 1
            return out

        self._patch(tensor_cls, "_result", staticmethod(counted))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _contains_forward(spans) -> list:
    flag = [s.name in MODEL_FORWARD for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        if flag[i] and spans[i].parent >= 0:
            flag[spans[i].parent] = True
    return flag


class Phase:
    """An interval with the node counters at both ends."""

    __slots__ = ("t0", "t1", "nodes", "grads", "backward")

    def __init__(self, t0, t1, nodes, grads, backward=None):
        self.t0, self.t1, self.nodes, self.grads, self.backward = t0, t1, nodes, grads, backward


def split_train(spans):
    """(steps, rows) over every ``trainer.train`` span; see the module docstring.

    ``Phase.backward`` of a step is the (start, end) of its backward call.
    """
    has_fwd = _contains_forward(spans)
    kids = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)
    steps, rows = [], []
    for t in (i for i, s in enumerate(spans) if s.name == TRAIN):
        train_span, top = spans[t], kids.get(t, [])
        bounds = []  # (first span of the step, last span of the step, backward span)
        for j, i in enumerate(top):
            if spans[i].name != BACKWARD:
                continue
            first = next((top[m] for m in range(j - 1, -1, -1) if has_fwd[top[m]]), None)
            if first is None:
                raise ValueError("a backward call with no model evaluation before it")
            last = i
            for m in range(j + 1, len(top)):
                name = spans[top[m]].name
                if has_fwd[top[m]]:
                    break
                if name.startswith("constraints.") or name == "layers.spectral_normalize":
                    last = top[m]
            bounds.append((first, last, i))
        edges = [(train_span.start, train_span.nodes0, train_span.grads0)]
        for first, last, back in bounds:
            a, b, bk = spans[first], spans[last], spans[back]
            if a.start < edges[-1][0]:
                raise ValueError("steps overlap: the trainer's call structure is not recognized")
            edges.append((a.start, a.nodes0, a.grads0))
            steps.append(Phase(a.start, b.end, b.nodes1 - a.nodes0, b.grads1 - a.grads0,
                               backward=(bk.start, bk.end)))
            edges.append((b.end, b.nodes1, b.grads1))
        edges.append((train_span.end, train_span.nodes1, train_span.grads1))
        evals = [spans[i] for i in top if has_fwd[i]]
        eval_starts = [s.start for s in evals]
        for (t0, n0, g0), (t1, n1, g1) in zip(edges[::2], edges[1::2]):
            k = bisect.bisect_left(eval_starts, t0)
            if k < len(evals) and evals[k].end <= t1:
                rows.append(Phase(t0, t1, n1 - n0, g1 - g0))
    return steps, rows


class SpanIndex:
    """Per-name sorted starts, so spans inside an interval are found by bisection."""

    def __init__(self, spans):
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
        self.starts = {k: [s.start for s in v] for k, v in self.by_name.items()}

    def names(self, pattern) -> list:
        if isinstance(pattern, str):
            return [pattern] if pattern in self.by_name else []
        if isinstance(pattern, re.Pattern):
            return [n for n in self.by_name if pattern.match(n)]
        return [n for n in pattern if n in self.by_name]

    def within(self, pattern, phases) -> list:
        """Spans matching ``pattern`` that start inside any of the phases."""
        found = []
        for name in self.names(pattern):
            starts, spans = self.starts[name], self.by_name[name]
            for ph in phases:
                found.extend(spans[bisect.bisect_left(starts, ph.t0) : bisect.bisect_left(starts, ph.t1)])
        return found

    def all(self, pattern) -> list:
        return [s for name in self.names(pattern) for s in self.by_name[name]]


def _ms(spans) -> list:
    return [(s.end - s.start) * 1e3 for s in spans]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _per(total, count) -> float:
    return float(total) / count if count else 0.0


def layer_metrics(spans) -> dict:
    """Every span-derived per-layer metric, as name -> (value, unit)."""
    steps, rows = split_train(spans)
    index = SpanIndex(spans)
    n_steps, n_rows = len(steps), len(rows)
    step_ms = [(p.t1 - p.t0) * 1e3 for p in steps]
    row_ms = [(p.t1 - p.t0) * 1e3 for p in rows]
    train_ms = sum(_ms(index.all(TRAIN)))
    convs = index.within(CONV, steps)
    conv_ms = sum(_ms(convs))
    models = index.all("metrics.bound_report")
    report_ms = _ms(models)
    top_constraints = [s for s in index.within(re.compile(r"constraints\."), steps)
                       if s.parent < 0 or spans[s.parent].name == TRAIN]

    def p50(pattern):
        return _pct(_ms(index.all(pattern)), 50)

    def per_model(pattern):
        return _per(sum(_ms(index.all(pattern))), len(models))

    return {
        "trainer.step_ms.p50": (_pct(step_ms, 50), "ms"),
        "trainer.step_ms.p90": (_pct(step_ms, 90), "ms"),
        "trainer.step_ms.n": (n_steps, "count"),
        "trainer.forward_ms_per_step": (_per(sum(p.backward[0] - p.t0 for p in steps) * 1e3, n_steps), "ms"),
        "trainer.backward_ms_per_step": (_per(sum(p.backward[1] - p.backward[0] for p in steps) * 1e3, n_steps), "ms"),
        "trainer.row_ms.p50": (_pct(row_ms, 50), "ms"),
        "trainer.row_ms.p90": (_pct(row_ms, 90), "ms"),
        "trainer.row_ms.n": (n_rows, "count"),
        "trainer.row_share": (_per(sum(row_ms), train_ms), "ratio"),
        "tensor.conv2d.calls_per_step": (_per(len(convs), n_steps), "count"),
        "tensor.conv2d.fwd_ms_per_step": (_per(conv_ms, n_steps), "ms"),
        "tensor.conv2d.gflop_per_s": (_per(sum(s.info for s in convs) / 1e6, conv_ms), "GFLOP/s"),
        "tensor.nodes_per_step": (_per(sum(p.nodes for p in steps), n_steps), "count"),
        "tensor.grad_nodes_per_row": (_per(sum(p.grads for p in rows), n_rows), "count"),
        "layers.c4_lifting.fwd_ms": (p50("layers.C4LiftingConv.forward"), "ms"),
        "layers.c4_group.fwd_ms": (p50("layers.C4GroupConv.forward"), "ms"),
        "layers.deepsets.fwd_ms": (p50("layers.DeepSetsLinear.forward"), "ms"),
        "layers.neq.fwd_ms": (p50("layers.NonEquivariantLayer.forward"), "ms"),
        "layers.spectral_normalize.ms_per_step":
            (_per(sum(_ms(index.within("layers.spectral_normalize", steps))), n_steps), "ms"),
        "layers.model_forward.calls_per_row":
            (_per(len(index.within("layers.HomotopicModel.forward", rows)), n_rows), "count"),
        "layers.lipschitz_bound.calls_per_row":
            (_per(len(index.within("layers.lipschitz_bound", rows)), n_rows), "count"),
        "groups.apply.calls_per_row": (_per(len(index.within(REP_APPLY, rows)), n_rows), "count"),
        "groups.apply.ms_per_model": (per_model(REP_APPLY), "ms"),
        "constraints.ms_per_step": (_per(sum(_ms(top_constraints)), n_steps), "ms"),
        "metrics.layer_constants.calls_per_row":
            (_per(len(index.within("metrics.layer_constants", rows)), n_rows), "count"),
        "metrics.bounds.ms_per_row":
            (_per(sum(_ms(index.within(("metrics.thm1_bounds", "metrics.thm2_bounds"), rows))),
                  n_rows), "ms"),
        "metrics.bound_report.ms.p50": (_pct(report_ms, 50), "ms"),
        "metrics.bound_report.ms.p90": (_pct(report_ms, 90), "ms"),
        "metrics.bound_report.ms.n": (len(models), "count"),
        "metrics.equivariance_error.ms_per_model": (per_model("metrics.equivariance_error"), "ms"),
        "metrics.recursion_bounds.ms_per_model": (per_model("metrics.recursion_bounds"), "ms"),
        "metrics.layer_constants.ms_per_model": (per_model("metrics.layer_constants"), "ms"),
        "tasks.dataset_ms": (_pct(_ms(index.all(("tasks.c4_toy", "tasks.set_regression"))), 50), "ms"),
        "cli.artifacts_ms": (p50("cli.write_run_artifacts"), "ms"),
        "cli.summary_ms": (p50("cli.write_summary"), "ms"),
        "binio.write_ms": (p50("_binio.write_container"), "ms"),
    }


def self_time_table(spans) -> list:
    """(name, calls, total ms, self ms) per span name, largest self time first."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (s.end - s.start) * 1e3
        row[2] += own * 1e3
    return sorted(((k, *v) for k, v in table.items()), key=lambda r: -r[3])

"""Outside-in span tracing of one training run.

The tracer replaces public names at the call sites the training loop
looks them up through (``vrm.training.total_loss``,
``vrm.losses.build_isv_edges``, every ``vrm.autodiff`` op, ``MLP`` and
``SGD`` methods, ...) with wrappers that record a span around the
original call, so the real loop runs unmodified.  Each span records a
name, start, end, parent and step id.  Spans are folded into per-step
totals when their step ends; the spans of the first few steps are kept
in memory and written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from vrm import autodiff, losses, training
from vrm.autodiff import Tape, Tensor
from vrm.models import MLP
from vrm.training import SGD

# op name recorded on _Node.op -> function that creates it
OP_FUNCTIONS = {
    "add": "add", "mul": "mul", "div": "div", "matmul": "matmul", "relu": "relu",
    "tanh": "tanh", "exp": "exp", "log": "log", "sum": "tsum", "mean": "tmean",
    "reshape": "reshape", "transpose": "transpose", "row_slice": "row_slice",
    "concat": "concat", "softmax": "softmax", "log_softmax": "log_softmax",
    "l2_normalize": "l2_normalize", "huber": "huber", "cross_entropy": "cross_entropy",
    "entropy": "entropy",
}

# the ops a training step of some workload records; each gets per-layer metrics
REPORTED_OPS = ("add", "mul", "matmul", "relu", "reshape", "transpose", "sum", "mean",
                "softmax", "l2_normalize", "huber", "cross_entropy")

# (module, attribute, span name) wrapped at the training loop's call sites
CALL_SITES = (
    (training, "virtual_batch", "data.virtual_batch"),
    (training, "total_loss", "losses.total_loss"),
    (training, "backward", "autodiff.backward"),
    (training, "accuracy", "training.accuracy"),
    (training, "gram_inter_sample", "baselines.relations"),
    (training, "gram_inter_class", "baselines.relations"),
    (training, "angular_relations", "baselines.relations"),
    (losses, "soften", "graphs.soften"),
    (losses, "build_isv_edges", "graphs.isv_edges"),
    (losses, "build_icv_edges", "graphs.icv_edges"),
    (losses, "uep_masks_for", "losses.uep_masks_for"),
    (losses, "joint_entropy_matrix", "pruning.joint_entropy"),
    (losses, "uep_mask", "pruning.uep_mask"),
    (losses, "apply_mask", "losses.apply_mask"),
)

KEEP_STEPS = 16
# the tape of a step has the same nodes on every step of a run, so it is
# counted on every TAPE_SAMPLE-th step to keep the scan's cost out of the rest
TAPE_SAMPLE = 16


class TraceInstallError(RuntimeError):
    """A name the tracer wraps no longer exists."""


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "step")

    def __init__(self, id, name, start, parent, step):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "step": self.step}


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans of one thread nest, so children never overlap."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


class Tracer:
    """Records spans while installed and folds them into per-step totals."""

    def __init__(self):
        self.teacher_ids: set[int] = set()
        self._patches = []
        self._open: list[Span] = []
        self._spans: list[Span] = []
        self._next_id = 0
        self._step = None
        self._step_start = 0.0
        self._inits_at_step = 0
        self.tensor_inits = 0
        self.kept: list[Span] = []
        self.n_steps = 0
        self.step_seconds = 0.0
        self.unattributed_seconds = 0.0
        self.incl = defaultdict(float)      # in-step inclusive seconds by span name
        self.self_s = defaultdict(float)    # in-step self seconds by span name
        self.calls = defaultdict(int)       # in-step calls by span name
        self.outside = defaultdict(float)   # inclusive seconds of spans outside steps
        self.counts = defaultdict(float)    # counters recorded at span boundaries
        self.finiteness_scans = 0
        self.tape_scans = 0

    # -- spans ------------------------------------------------------------

    def _begin(self, name) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(self._next_id, name, perf_counter(), parent, self._step)
        self._next_id += 1
        self._spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span):
        span.end = perf_counter()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(span)

    def begin_step(self, start: float):
        if self._open:
            raise RuntimeError(f"span {self._open[-1].name} open across a step boundary")
        self._fold_outside()
        self._step = self.n_steps
        self._step_start = start
        self._inits_at_step = self.tensor_inits

    def end_step(self, end: float):
        if self._open:
            raise RuntimeError(f"span {self._open[-1].name} open across a step boundary")
        spans = self._spans
        selfs = self_times(spans)
        top = 0.0
        op_calls = 0
        for s in spans:
            dur = s.end - s.start
            self.incl[s.name] += dur
            self.self_s[s.name] += selfs[s.id]
            self.calls[s.name] += 1
            if s.parent is None:
                top += dur
            if s.name.startswith("autodiff.op."):
                op_calls += 1
        step_s = end - self._step_start
        self.step_seconds += step_s
        self.unattributed_seconds += step_s - top
        # every op result and every Tensor() construction scans for non-finite values
        self.finiteness_scans += op_calls + (self.tensor_inits - self._inits_at_step)
        if self.n_steps < KEEP_STEPS:
            self.kept.extend(spans)
        self._spans = []
        self._step = None
        self.n_steps += 1

    def _fold_outside(self):
        for s in self._spans:
            self.outside[s.name] += s.end - s.start
        self._spans = []

    def flush(self):
        """Fold spans recorded since the last step (evaluation, file writes)."""
        if not self._open:
            self._fold_outside()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args)
            return out
        return wrapper

    def install(self):
        """Wrap every traced name; raises TraceInstallError if one is gone."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install_call_sites()
            self._install_models()
            self._install_ops()
        except Exception:
            self.uninstall()
            raise

    def _install_call_sites(self):
        for module, attr, name in CALL_SITES:
            if not hasattr(module, attr):
                raise TraceInstallError(f"{module.__name__}.{attr} no longer exists")
            fn = getattr(module, attr)
            if name == "autodiff.backward":
                wrapper = self._backward_wrapper(fn)
            else:
                after = self._count_kept if name == "pruning.uep_mask" else None
                wrapper = self._span_wrapper(name, fn, after)
            self._patch(module, attr, wrapper)
        if not hasattr(SGD, "step"):
            raise TraceInstallError("SGD.step no longer exists")
        self._patch(SGD, "step", self._span_wrapper("training.sgd_step", SGD.step))

    def _install_models(self):
        tracer = self
        forward, logits = MLP.forward, MLP.logits

        def traced_forward(model, x):
            role = "teacher" if id(model) in tracer.teacher_ids else "student"
            return tracer.call(f"models.{role}_forward", forward, model, x)

        def traced_logits(model, x):
            role = "teacher_logits" if id(model) in tracer.teacher_ids else "logits"
            return tracer.call(f"models.{role}", logits, model, x)

        self._patch(MLP, "forward", traced_forward)
        self._patch(MLP, "__call__", traced_forward)
        self._patch(MLP, "logits", traced_logits)

        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            tracer.tensor_inits += 1
            init(tensor, *args, **kwargs)

        self._patch(Tensor, "__init__", counting_init)

    def _install_ops(self):
        originals = {}
        for op, attr in OP_FUNCTIONS.items():
            if hasattr(autodiff, attr):
                fn = getattr(autodiff, attr)
                originals[id(fn)] = self._span_wrapper(f"autodiff.op.{op}", fn)
        # ops are also bound by name in other modules (``from .autodiff
        # import softmax``) and in tables such as the activation map
        for modname, module in list(sys.modules.items()):
            if modname != "vrm" and not modname.startswith("vrm."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patch(module, key, originals[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        if id(dval) in originals:
                            self._patch(value, dkey, originals[id(dval)])

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- counters ---------------------------------------------------------

    def _backward_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(loss, *args, **kwargs):
            # node counts come from the tape the backward pass will sweep
            if tracer._step is not None and tracer._step % TAPE_SAMPLE == 0:
                tracer.call("trace.tape_scan", tracer._count_tape, loss)
            return tracer.call("autodiff.backward", fn, loss, *args, **kwargs)
        return wrapper

    def _count_tape(self, loss):
        self.tape_scans += 1
        for t in Tape.trace(loss).nodes:
            if t.node is not None:
                self.counts["autodiff.tape_nodes"] += 1
                self.counts[f"autodiff.op.{t.node.op}.nodes"] += 1

    def _count_kept(self, mask, args):
        kind = mask.kind.lower()
        self.counts[f"pruning.kept_{kind}"] += mask.kept_count
        self.counts[f"pruning.all_{kind}"] += mask.keep.size

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, n_epochs: int) -> dict:
        """Per-step figures averaged over every traced step."""
        n = max(self.n_steps, 1)
        scanned = max(self.tape_scans, 1)

        def us(name):
            return self.incl[name] / n * 1e6

        def frac(kind):
            total = self.counts[f"pruning.all_{kind}"]
            return self.counts[f"pruning.kept_{kind}"] / total if total else 0.0

        m = {
            "data.virtual_batch_us": (us("data.virtual_batch"), "us"),
            "data.virtual_batch_calls": (self.calls["data.virtual_batch"] / n, "count"),
            "graphs.soften_us": (us("graphs.soften"), "us"),
            "graphs.isv_edges_us": (us("graphs.isv_edges"), "us"),
            "graphs.icv_edges_us": (us("graphs.icv_edges"), "us"),
            "graphs.isv_edges_calls": (self.calls["graphs.isv_edges"] / n, "count"),
            "graphs.icv_edges_calls": (self.calls["graphs.icv_edges"] / n, "count"),
            "pruning.joint_entropy_us": (us("pruning.joint_entropy"), "us"),
            "pruning.uep_mask_us": (us("pruning.uep_mask"), "us"),
            "pruning.uep_mask_calls": (self.calls["pruning.uep_mask"] / n, "count"),
            "pruning.kept_isv_frac": (frac("isv"), "fraction"),
            "pruning.kept_icv_frac": (frac("icv"), "fraction"),
            "losses.total_loss_us": (us("losses.total_loss"), "us"),
            "losses.total_loss_self_us": (self.self_s["losses.total_loss"] / n * 1e6, "us"),
            "losses.uep_masks_for_us": (us("losses.uep_masks_for"), "us"),
            "losses.apply_mask_us": (us("losses.apply_mask"), "us"),
            "baselines.relations_us": (us("baselines.relations"), "us"),
            "models.student_forward_us": (us("models.student_forward"), "us"),
            "models.teacher_logits_us": (us("models.teacher_logits"), "us"),
            "autodiff.backward_us": (us("autodiff.backward"), "us"),
            "autodiff.tape_nodes_per_step": (
                self.counts["autodiff.tape_nodes"] / scanned, "count"),
            "autodiff.finiteness_scans_per_step": (self.finiteness_scans / n, "count"),
            "training.sgd_step_us": (us("training.sgd_step"), "us"),
            "training.step_us": (self.step_seconds / n * 1e6, "us"),
            "training.step_unattributed_us": (self.unattributed_seconds / n * 1e6, "us"),
            "training.eval_ms_per_epoch": (
                self.outside["training.accuracy"] / max(n_epochs, 1) * 1e3, "ms"),
            "trace.tape_scan_us": (us("trace.tape_scan"), "us"),
        }
        for op in REPORTED_OPS:
            m[f"autodiff.op.{op}.nodes_per_step"] = (
                self.counts[f"autodiff.op.{op}.nodes"] / scanned, "count")
            m[f"autodiff.op.{op}.fwd_us"] = (us(f"autodiff.op.{op}"), "us")
        return m

"""Set-up, the closed distillation loop, the correctness gate and the
metrics of one workload, all driven through the public ``vrm`` API."""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from vrm import training
from vrm.data import AugmentSpec, Dataset, make_synthetic_dataset
from vrm.losses import VRMWeights
from vrm.models import MLP, MLPSpec, load_checkpoint, save_checkpoint
from vrm.training import (
    TrainConfig,
    distill_student,
    train_teacher,
    write_breakdown_csv,
    write_metrics_csv,
)

from .speed import SpeedGauge
from .stats import percentile, samples_needed
from .tracer import Tracer
from .workloads import DEFAULT_SEED, DISTILL_SETUPS, SETUPS, Workload, setup_seeds

# the generator _train draws each step's batch from; its yields bound a step
STEP_HOOK = "_epoch_batches"
OUTPUT_FILES = ("metrics.csv", "breakdown.csv", "student.ckpt")
LOSS_FIELDS = ("total", "ce_real", "ce_virtual", "isv", "icv")


class SetupError(RuntimeError):
    """Set-up produced something the benchmark cannot measure against."""


@dataclass
class Setup:
    index: int
    seeds: object
    data: Dataset
    teacher: MLP
    checkpoint: Path
    out_dir: Path
    seconds: float
    roundtrip_s: float
    teacher_val: float
    scale: float = 1.0  # host speed scale of ``seconds`` (see speed.py)


@dataclass
class RunResult:
    setup: int
    wall_s: float = 0.0
    step_s: list = field(default_factory=list)
    val_acc: float = float("nan")
    digest: str = ""
    failures: list = field(default_factory=list)
    scale: float = 1.0  # host speed scale of the run's times (see speed.py)


class StepClock:
    """Per-step durations, fed by the step hook; forwards the step
    boundaries to the tracer when one is attached."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.durations: list[float] = []
        self._start = 0.0

    def begin(self):
        self._start = perf_counter()
        if self.tracer is not None:
            self.tracer.begin_step(self._start)

    def end(self):
        end = perf_counter()
        self.durations.append(end - self._start)
        if self.tracer is not None:
            self.tracer.end_step(end)


@contextmanager
def step_hook(clock: StepClock, module=training):
    """Time every training step from outside the loop.

    Wraps the batch generator the loop iterates: the loop body (one step)
    runs while the generator is suspended at its yield.  Raises
    AttributeError if the generator was renamed, and a run whose step count
    disagrees with the schedule fails the gate, so a hook that stops firing
    cannot silently time nothing.
    """
    original = getattr(module, STEP_HOOK)

    def timed_batches(*args, **kwargs):
        for batch in original(*args, **kwargs):
            clock.begin()
            yield batch
            clock.end()

    setattr(module, STEP_HOOK, timed_batches)
    try:
        yield
    finally:
        setattr(module, STEP_HOOK, original)


def build_setup(w: Workload, index: int, seeds, root: Path) -> Setup:
    """Dataset generation, teacher training and the checkpoint round trip."""
    out_dir = root / f"setup{index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "teacher.ckpt"
    t0 = perf_counter()
    data = make_synthetic_dataset("spirals", w.n_classes, w.dim, w.n_per_class, w.noise,
                                  seeds.dataset)
    config = TrainConfig(lr=w.teacher_lr, milestones=w.teacher_milestones,
                         batch_size=w.batch_size, epochs=w.teacher_epochs, seed=seeds.teacher)
    teacher, records = train_teacher(MLPSpec(list(w.teacher_widths), "relu", seeds.teacher),
                                     data, config)
    t1 = perf_counter()
    save_checkpoint(teacher, ckpt, epoch=config.epochs)
    loaded, _ = load_checkpoint(ckpt)
    t2 = perf_counter()
    if loaded.param_checksum() != teacher.param_checksum():
        raise SetupError("teacher checkpoint round trip changed the weights")
    val = records[-1].val_acc
    if not val >= w.teacher_val_floor:
        raise SetupError(f"teacher val_acc {val:.3f} below floor {w.teacher_val_floor}")
    return Setup(index, seeds, data, loaded, ckpt, out_dir, t2 - t0, t2 - t1, val)


def distill_config(w: Workload, seeds) -> tuple[MLPSpec, TrainConfig]:
    spec = MLPSpec(list(w.student_widths), "relu", seeds.student)
    config = TrainConfig(
        weights=VRMWeights(alpha=w.alpha, beta=w.beta),
        augment=AugmentSpec(n_ops=2, magnitude=0.05, seed=seeds.train),
        lr=w.lr, milestones=w.milestones, batch_size=w.batch_size, epochs=w.epochs,
        seed=seeds.train)
    return spec, config


def outputs_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def gate(w: Workload, run: RunResult, records, expected_digest: str | None) -> list[str]:
    """Reasons a finished run fails the correctness gate (empty if none)."""
    reasons = []
    if len(run.step_s) != w.steps_per_run:
        reasons.append(f"step hook saw {len(run.step_s)} steps, "
                       f"schedule has {w.steps_per_run}")
    if any(not math.isfinite(getattr(r, f)) for r in records for f in LOSS_FIELDS):
        reasons.append("non-finite loss")
    if not run.val_acc >= w.val_floor:
        reasons.append(f"val_acc {run.val_acc:.4f} below floor {w.val_floor}")
    if expected_digest is not None and run.digest != expected_digest:
        reasons.append("outputs differ from an earlier run of the same setup")
    return reasons


def distill_run(w: Workload, setup: Setup, clock: StepClock, expected_digest) -> RunResult:
    """One ``vrm distill`` equivalent: train, evaluate and write the outputs."""
    run = RunResult(setup.index)
    run_dir = setup.out_dir / "run"
    run_dir.mkdir(exist_ok=True)
    first = len(clock.durations)
    try:
        spec, config = distill_config(w, setup.seeds)
        with step_hook(clock):
            t0 = perf_counter()
            student, records = distill_student(spec, setup.teacher, setup.data, config,
                                               w.objective)
            write_metrics_csv(records, run_dir / "metrics.csv")
            write_breakdown_csv(records, run_dir / "breakdown.csv")
            save_checkpoint(student, run_dir / "student.ckpt", epoch=config.epochs)
            run.wall_s = perf_counter() - t0
    except Exception as exc:  # a failed run is counted, not fatal
        run.failures.append(f"raised {type(exc).__name__}: {exc}")
        run.step_s = clock.durations[first:]
        return run
    run.step_s = clock.durations[first:]
    run.val_acc = records[-1].val_acc
    run.digest = outputs_digest(run_dir)
    run.failures = gate(w, run, records, expected_digest)
    return run


@contextmanager
def traced(tracer: Tracer, setup: Setup, teachers: dict):
    """Install the tracer for one run.  Each setup's teacher is reloaded
    from its checkpoint the first time, while the tracer is installed, so
    that its forward pass goes through the wrapped ops as well."""
    tracer.install()
    try:
        if setup.index not in teachers:
            teachers[setup.index], _ = load_checkpoint(setup.checkpoint)
            tracer.teacher_ids.add(id(teachers[setup.index]))
        yield replace(setup, teacher=teachers[setup.index])
    finally:
        tracer.uninstall()
        tracer.flush()


def closed_loop(w: Workload, setups, seconds: float, clocks, digests: dict,
                min_runs: int, min_steps: int, gauge: SpeedGauge | None = None
                ) -> list[RunResult]:
    """Distillation runs back to back until ``seconds`` have passed and the
    minimum sample counts are reached.  Successive runs alternate over
    ``clocks`` (a clock with a tracer runs traced) and, after each round of
    clocks, move to the next setup.  With a ``gauge``, each run is followed
    by a reference measurement that sets its speed scale."""
    runs = []
    teachers: dict = {}
    start = perf_counter()
    steps = 0
    while perf_counter() - start < seconds or len(runs) < min_runs or steps < min_steps:
        clock = clocks[len(runs) % len(clocks)]
        setup = setups[len(runs) // len(clocks) % len(setups)]
        if clock.tracer is None:
            run = distill_run(w, setup, clock, digests.get(setup.index))
        else:
            with traced(clock.tracer, setup, teachers) as traced_setup:
                run = distill_run(w, traced_setup, clock, digests.get(setup.index))
        if gauge is not None:
            run.scale = gauge.bracket()
        if not run.failures:
            digests.setdefault(setup.index, run.digest)
        runs.append(run)
        steps += len(run.step_s)
        if run.failures and not run.step_s:
            break  # nothing is being measured; do not spin until the deadline
    return runs


def _metric(value, unit, n, what, raw=None):
    m = {"value": value, "unit": unit, "n": n, "of": what}
    if raw is not None:
        m["raw"] = raw
    return m


def end_to_end_metrics(w: Workload, import_s: float, import_scale: float, setups,
                       runs) -> dict:
    """Times are scaled to the reference speed; ``raw`` keeps the wall time."""
    ok = [r for r in runs if not r.failures]
    if not ok:
        return {}

    def timings(scaled):
        setup = statistics.median(s.seconds * (s.scale if scaled else 1.0) for s in setups)
        steps = [t * (r.scale if scaled else 1.0) for r in ok for t in r.step_s]
        return {
            "setup_s": import_s * (import_scale if scaled else 1.0) + setup,
            "run_s": statistics.median(r.wall_s * (r.scale if scaled else 1.0) for r in ok),
            "samples_per_s": statistics.median(
                len(r.step_s) * w.batch_size / (sum(r.step_s) * (r.scale if scaled else 1.0))
                for r in ok),
            "step_ms_p50": percentile(steps, 50) * 1e3,
            "step_ms_p90": percentile(steps, 90) * 1e3,
        }

    scaled, raw = timings(True), timings(False)
    n_steps = sum(len(r.step_s) for r in ok)
    val_by_setup = {}
    for r in ok:
        val_by_setup.setdefault(r.setup, r.val_acc)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(scaled["setup_s"], "s", len(setups),
                           "set-ups (import once + median set-up)", raw["setup_s"]),
        "run_s": _metric(scaled["run_s"], "s", len(ok), "distill runs (median)",
                         raw["run_s"]),
        "samples_per_s": _metric(scaled["samples_per_s"], "1/s", len(ok),
                                 "distill runs (median of samples / summed step time)",
                                 raw["samples_per_s"]),
        "step_ms_p50": _metric(scaled["step_ms_p50"], "ms", n_steps, "steps",
                               raw["step_ms_p50"]),
        "step_ms_p90": _metric(scaled["step_ms_p90"], "ms", n_steps, "steps",
                               raw["step_ms_p90"]),
        "val_acc": _metric(statistics.median(val_by_setup.values()), "fraction",
                           len(val_by_setup), "set-ups (median final val_acc)"),
        "peak_rss_mib": _metric(rss_kib / 1024.0, "MiB", 1, "process high-water mark"),
    }


def traced_metrics(w: Workload, setups, digests: dict, seconds: float):
    """Untraced and traced runs alternately, so that drift in machine speed
    does not pass for tracing overhead.  Returns (runs, per-layer metrics,
    tracer)."""
    tracer = Tracer()
    runs = closed_loop(w, setups, seconds, [StepClock(), StepClock(tracer)], digests,
                       min_runs=2, min_steps=1)
    n_epochs = w.epochs * sum(1 for r in runs[1::2] if not r.failures)
    metrics = {name: _metric(value, unit, tracer.n_steps, "traced steps")
               for name, (value, unit) in tracer.layer_metrics(n_epochs).items()}
    # each traced run against the untraced run just before it, because step
    # times drift with machine speed over seconds to minutes
    ratios = [percentile(t.step_s, 50) / percentile(u.step_s, 50) - 1.0
              for u, t in zip(runs[0::2], runs[1::2]) if u.step_s and t.step_s]
    if ratios:
        metrics["trace.overhead_frac"] = _metric(
            statistics.median(ratios), "fraction", len(ratios),
            "traced vs untraced run pairs (median of step p50 ratios)")
    return runs, metrics, tracer


def stage_shares(layer: dict) -> list[tuple[str, float, float]]:
    """A traced vrm step split into its stages: (stage, us/step, share of
    the step net of the tape scan).  The edge-loss graph is the objective
    (cross-entropy, soften, edges, mask, Huber) without its UEP masks."""
    v = {k: m["value"] for k, m in layer.items()}
    stages = [
        ("augmentation", v["data.virtual_batch_us"]),
        ("edge-loss graph", v["losses.total_loss_us"] - v["losses.uep_masks_for_us"]),
        ("backward", v["autodiff.backward_us"]),
        ("UEP masks", v["losses.uep_masks_for_us"]),
        ("teacher forward", v["models.teacher_logits_us"]),
        ("student forward", v["models.student_forward_us"]),
        ("SGD step", v["training.sgd_step_us"]),
        ("unattributed", v["training.step_unattributed_us"]),
    ]
    total = v["training.step_us"] - v["trace.tape_scan_us"]
    return [(name, us, us / total) for name, us in stages]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, import_s: float,
                 out_root: Path) -> dict:
    """Set up, measure and gate one workload; returns the full record."""
    out_root.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    import_scale = gauge.now()
    setups = []
    for k, s in enumerate(setup_seeds(seed, SETUPS)):
        setups.append(build_setup(w, k, s, out_root))
        setups[-1].scale = gauge.bracket()
    distilled = setups[:DISTILL_SETUPS]
    digests: dict = {}
    if trace:
        runs, metrics, tracer = traced_metrics(w, distilled, digests, seconds)
        metrics["models.checkpoint_roundtrip_ms"] = _metric(
            statistics.median(s.roundtrip_s for s in setups) * 1e3, "ms", len(setups),
            "set-ups")
        spans_path = out_root / "spans.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.kept:
                fh.write(json.dumps(span.as_dict()) + "\n")
    else:
        runs = closed_loop(w, distilled, seconds, [StepClock()], digests,
                           min_runs=len(distilled), min_steps=samples_needed(90), gauge=gauge)
        metrics = end_to_end_metrics(w, import_s, import_scale, setups, runs)
    failed = [r for r in runs if r.failures]
    first = digests.get(0)
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": len(failed),
        "failures": sorted({f for r in failed for f in r.failures}),
        "metrics": metrics,
        "outputs_digest": first,
        # the reference exists for the default seed only
        "outputs_match": (first == w.reference_digest) if seed == DEFAULT_SEED else None,
        "teacher_val_acc": [s.teacher_val for s in setups],
        "speed_scale_median": statistics.median(gauge.scales),
    }

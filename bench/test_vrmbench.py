"""Tests of the benchmark's own machinery: statistics, span arithmetic,
the correctness gate, seeding, and agreement with BENCHMARK.json."""
import json
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vrm import autodiff, graphs, models, training
from vrm.models import MLP
from vrmbench import harness
from vrmbench.stats import MIN_TAIL_SAMPLES, percentile, samples_needed
from vrmbench.tracer import Span, Tracer, self_times
from vrmbench.workloads import WORKLOADS, setup_seeds

ROOT = Path(__file__).resolve().parent.parent

TINY = replace(
    WORKLOADS["vrm_desk"], name="tiny", n_classes=3, dim=4, n_per_class=10, batch_size=8,
    teacher_widths=(4, 8, 3), student_widths=(4, 6, 3), teacher_epochs=2,
    teacher_milestones=(), epochs=2, milestones=(), teacher_val_floor=0.0, val_floor=0.0)


def test_percentile_keeps_ten_samples_beyond_the_tail():
    assert samples_needed(90) == 100
    xs = list(range(100))
    p90 = percentile(xs, 90)
    assert sum(x > p90 for x in xs) == MIN_TAIL_SAMPLES
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # nearest rank, no tail rule


def test_self_time_subtracts_direct_children_only():
    def span(i, start, end, parent):
        s = Span(i, f"s{i}", start, parent, 0)
        s.end = end
        return s

    # 0: [0, 10] contains 1: [1, 4] and 2: [5, 9]; 2 contains 3: [6, 8]
    spans = [span(0, 0.0, 10.0, None), span(1, 1.0, 4.0, 0), span(2, 5.0, 9.0, 0),
             span(3, 6.0, 8.0, 2)]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}


def test_tracer_totals_add_up_to_the_step():
    tracer = Tracer()
    tracer.begin_step(0.0)
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    tracer.end_step(1.0)
    assert tracer.n_steps == 1
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(tracer.incl["outer"])
    assert tracer.unattributed_seconds == pytest.approx(1.0 - tracer.incl["outer"])


def test_a_hook_that_never_fires_fails_the_run(tmp_path, monkeypatch):
    seeds = setup_seeds(0, 1)[0]
    setup = harness.build_setup(TINY, 0, seeds, tmp_path)
    ok = harness.distill_run(TINY, setup, harness.StepClock(), None)
    assert ok.failures == [] and len(ok.step_s) == TINY.steps_per_run

    # hook a name the loop does not call: the run must fail, not time nothing
    monkeypatch.setattr(training, "_unused_batches", training._epoch_batches, raising=False)
    monkeypatch.setattr(harness, "STEP_HOOK", "_unused_batches")
    missed = harness.distill_run(TINY, setup, harness.StepClock(), ok.digest)
    assert any("step hook saw 0 steps" in f for f in missed.failures)


def test_a_renamed_hook_raises():
    clock = harness.StepClock()
    with pytest.raises(AttributeError):
        with harness.step_hook(clock, module=types.SimpleNamespace()):
            pass


def test_gate_flags_floor_and_nondeterminism():
    run = harness.RunResult(0, step_s=[0.1] * TINY.steps_per_run, val_acc=0.5, digest="a")
    assert harness.gate(TINY, run, [], "a") == []
    assert harness.gate(replace(TINY, val_floor=0.6), run, [], "a")
    assert harness.gate(TINY, run, [], "b")


def test_seed_determines_inputs():
    assert setup_seeds(7) == setup_seeds(7)
    assert setup_seeds(7) != setup_seeds(8)
    a, b = setup_seeds(0, 1)[0], setup_seeds(1, 1)[0]
    from vrm.data import make_synthetic_dataset
    da = make_synthetic_dataset("spirals", 3, 4, 10, 0.02, a.dataset)
    db = make_synthetic_dataset("spirals", 3, 4, 10, 0.02, b.dataset)
    assert not np.array_equal(da.inputs, db.inputs)


def test_tracer_restores_every_name():
    before = (autodiff.add, graphs.softmax, models._ACTIVATIONS["relu"], MLP.__call__,
              training.total_loss, autodiff.Tensor.__init__)
    tracer = Tracer()
    tracer.install()
    assert autodiff.add is not before[0] and models._ACTIVATIONS["relu"] is not before[2]
    tracer.uninstall()
    after = (autodiff.add, graphs.softmax, models._ACTIVATIONS["relu"], MLP.__call__,
             training.total_loss, autodiff.Tensor.__init__)
    assert all(x is y for x, y in zip(before, after))


def test_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}

    plain = harness.run_workload(TINY, 0, 0.01, False, 0.0, tmp_path / "e2e")
    traced = harness.run_workload(TINY, 0, 0.01, True, 0.0, tmp_path / "traced")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["outputs_digest"] == traced["outputs_digest"]  # tracing changes no output
    for key, result in (("end_to_end", plain), ("per_layer", traced)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == {k: m["unit"] for k, m in result["metrics"].items()}
    assert traced["metrics"]["data.virtual_batch_calls"]["value"] == 1.0
    assert traced["metrics"]["pruning.uep_mask_calls"]["value"] == 2.0


def test_speed_scale_uses_the_references_around_a_unit():
    from vrmbench.speed import REFERENCE_NOMINAL_S, SpeedGauge
    readings = iter([2.0, 4.0, 1.0])
    gauge = SpeedGauge(measure=lambda: next(readings) * REFERENCE_NOMINAL_S)
    assert gauge.now() == pytest.approx(0.5)
    assert gauge.bracket() == pytest.approx(1 / 3)   # mean of 2 and 4
    assert gauge.bracket() == pytest.approx(0.4)     # mean of 4 and 1

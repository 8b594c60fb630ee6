"""Tests of the benchmark's own arithmetic and output checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
from spans import Target, Tracer, instrumented  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize("percent, need", [(80, 50), (90, 100), (99, 1000)])
def test_tail_needs_ten_samples_beyond_it(percent, need):
    assert pipeline.min_samples(percent) == need
    assert pipeline.beyond_rank(need, percent) == 10
    assert pipeline.beyond_rank(need - 1, percent) < 10
    assert all(pipeline.beyond_rank(n, percent) >= 10 for n in range(need, 2000))


def test_the_reported_tail_is_the_one_the_rule_allows():
    assert pipeline.min_samples(pipeline.TAIL_PERCENT) == 50
    assert f"frame_ms_p{pipeline.TAIL_PERCENT}" in pipeline.END_TO_END


@pytest.mark.parametrize("count", [50, 51, 100, 137, 250])
@pytest.mark.parametrize("percent", [80, 90])
def test_nearest_rank_leaves_the_counted_samples_beyond(count, percent):
    values = [float(v) for v in range(count, 0, -1)]
    tail = pipeline.nearest_rank(values, percent)
    assert sum(v > tail for v in values) == pipeline.beyond_rank(count, percent)
    assert sum(v <= tail for v in values) >= percent / 100 * count


def test_nearest_rank_median_and_extremes():
    assert pipeline.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert pipeline.nearest_rank([5.0], 90) == 5.0
    assert pipeline.nearest_rank([1.0, 2.0], 100) == 2.0
    with pytest.raises(ValueError):
        pipeline.nearest_rank([], 50)


# ---------------------------------------------------------------------------
# self time


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.now = 2.0
        with tracer.span("child"):
            clock.now = 3.0
            with tracer.span("grandchild"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("child"):
            clock.now = 8.0
        clock.now = 10.0
    with tracer.span("second"):
        clock.now = 11.0
    assert tracer.self_s == {"outer": 5.0, "child": 4.0, "grandchild": 1.0, "second": 1.0}
    assert tracer.total_s["outer"] == 10.0
    assert tracer.total_s["child"] == 5.0
    assert tracer.calls["child"] == 2
    assert tracer.top_level_s == 11.0


def test_span_still_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            clock.now = 1.0
            with tracer.span("inner"):
                clock.now = 3.0
                raise RuntimeError("stage failed")
    assert tracer.self_s == {"outer": 1.0, "inner": 2.0}
    assert tracer._child_s == []


def test_wrapped_calls_are_timed_counted_and_restored():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = Tracer()
    seen = []
    targets = [
        Target("fake", "double", "fake.double", lambda t, a, r: seen.append((a, r))),
        Target("fake", "gone", "fake.gone"),
        Target("absent", "anything", "absent.anything"),
    ]
    with instrumented(tracer, targets, {"fake": module}) as unmeasured:
        assert module.double(4) == 8
        assert module.double(1) == 2
    assert unmeasured == ["fake.gone", "absent.anything"]
    assert module.double is original
    assert tracer.calls["fake.double"] == 2
    assert seen == [((4,), 8), ((1,), 2)]


def test_a_failing_counter_does_not_fail_the_call():
    module = types.SimpleNamespace(one=lambda: 1)
    tracer = Tracer()
    target = Target("m", "one", "m.one", lambda t, a, r: a[5])
    with instrumented(tracer, [target], {"m": module}):
        assert module.one() == 1
    assert tracer.counts["m.one.uncounted"] == 1


def test_splat_bytes_clip_the_window_at_the_border():
    import numpy as np

    grid = np.zeros((10, 10), dtype=np.float32)
    # sigma 1, extent 2: a 5x5 window, clipped to 3x3 in the corner
    assert pipeline.splat_bytes(1, grid, 5.0, 5.0, 1.0, 2.0) == 2 * 4 * 25
    assert pipeline.splat_bytes(3, grid, 0.0, 0.0, 1.0, 2.0) == 2 * 3 * 4 * 9


# ---------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    workload = replace(pipeline.WORKLOADS["crowd_track"], animals=4, frames=6)
    built, _ = pipeline.setup(workload, 5, tmp_path_factory.mktemp("scene"))
    return built


def test_correct_frames_pass(scene):
    phase = pipeline.run_phase(scene, pipeline.NullTracer(), 0.0, min_frames=6)
    assert (phase.attempted, phase.failed, phase.frames) == (6, 0, 6)
    assert len(phase.first_pass) == 6


def _corrupted(corrupt):
    def frame_fn(scene, tracker, tracer, frame_index):
        result = pipeline.run_frame(scene, tracker, tracer, frame_index)
        if frame_index == 3:
            corrupt(result)
        return result

    return frame_fn


def _shuffle(result):
    result.output.records.reverse()


def _renumber(result):
    result.output.frame_index += 1


def _drop_record(result):
    result.output.records.pop()


def _raise(result):
    raise RuntimeError("stage failed")


@pytest.mark.parametrize("corrupt", [_shuffle, _renumber, _drop_record, _raise])
def test_a_corrupted_frame_counts_as_failed(scene, corrupt):
    phase = pipeline.run_phase(
        scene, pipeline.NullTracer(), 0.0, min_frames=5, frame_fn=_corrupted(corrupt)
    )
    assert phase.attempted == 6
    assert phase.failed == 1
    assert phase.frames == 5
    assert "frame 3" in phase.problems[0]


def test_far_candidates():
    from keytrack.maps import CandidateKeypoint
    from keytrack.skeleton import Pose

    encoded = [Pose(coords={"head": (100.0, 100.0), "nose": None})]
    near = CandidateKeypoint("head", 103.0, 104.0, 1.0)
    far = CandidateKeypoint("head", 120.0, 100.0, 1.0)
    stray = CandidateKeypoint("nose", 100.0, 100.0, 1.0)
    assert pipeline.far_candidates([near], encoded, 960, 720) == 0
    assert pipeline.far_candidates([near, far, stray], encoded, 960, 720) == 2


# ---------------------------------------------------------------------------
# the benchmark's declaration


def test_benchmark_json_names_the_metrics_the_code_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOAD_NAMES == tuple(pipeline.WORKLOADS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        w.name: w.why for w in pipeline.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == pipeline.PER_LAYER


def test_traced_frames_measure_every_layer_and_restore_the_package(tmp_path):
    workload = replace(
        pipeline.WORKLOADS["dense_files"], animals=1, width=480, height=400, frames=3
    )
    scene, _ = pipeline.setup(workload, 3, tmp_path)
    box_mean = pipeline.kernels.box_mean
    untraced = pipeline.run_phase(scene, pipeline.NullTracer(), 0.0, min_frames=3)
    traced, tracer, unmeasured = pipeline.traced_phase(scene, 0.3)
    assert unmeasured == []
    assert pipeline.kernels.box_mean is box_mean
    assert traced.failed == 0
    values = pipeline.layer_metrics(traced, tracer, untraced)
    for span in (*pipeline.LAYERS["kernels"], "assembly.association_penalty",
                 "assignment.greedy_assign", "kalman.predict"):
        assert tracer.calls[span] > 0, span
    assert values["maps.candidate_precision"] == 1.0
    assert values["kernels.box_mean.mb_computed"] > 0
    shares = sum(values[f"{layer}.frame_share"] for layer in pipeline.LAYERS)
    assert 0.5 < shares <= 1.0

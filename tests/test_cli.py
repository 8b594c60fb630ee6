import json
import logging
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

import keytrack
from keytrack import cli as cli_module
from keytrack.cli import cli
from keytrack.io import (
    StreamHeader,
    load_detections,
    load_tracks,
    save_detections,
    save_scenario,
)
from keytrack.simulate import RegimeSegment, ScenarioConfig


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def scenario_file(tmp_path):
    config = ScenarioConfig(
        n_animals=2,
        seed=99,
        width=640,
        height=480,
        margin=110.0,
        detection_noise=0.0,
        dropout=0.0,
        offset_jitter=0.0,
        regimes=(RegimeSegment("stationary", 4),),
    )
    path = tmp_path / "scenario.yaml"
    save_scenario(config, str(path))
    return path


@pytest.fixture()
def truth_file(runner, scenario_file, tmp_path):
    path = tmp_path / "truth.jsonl"
    result = runner.invoke(
        cli,
        ["simulate", "--scenario", str(scenario_file), "--truth-out", str(path)],
    )
    assert result.exit_code == 0, result.output
    return path


class TestSimulateCommand:
    def test_writes_truth_and_detections(self, runner, scenario_file, tmp_path):
        truth_path = tmp_path / "truth.jsonl"
        det_path = tmp_path / "det.jsonl"
        result = runner.invoke(
            cli,
            [
                "simulate",
                "--scenario",
                str(scenario_file),
                "--truth-out",
                str(truth_path),
                "--detections-out",
                str(det_path),
            ],
        )
        assert result.exit_code == 0, result.output
        header, frames, regimes = load_detections(str(truth_path))
        assert header.width == 640 and header.height == 480
        assert len(frames) == 4
        assert all(len(poses) == 2 for poses in frames.values())
        assert set(regimes.values()) == {"stationary"}
        _, detections, _ = load_detections(str(det_path))
        assert set(detections) == set(frames)

    def test_overrides(self, runner, tmp_path):
        path = tmp_path / "truth.jsonl"
        result = runner.invoke(
            cli,
            [
                "simulate",
                "--truth-out",
                str(path),
                "--seed",
                "3",
                "--animals",
                "1",
                "--frames",
                "2",
            ],
        )
        assert result.exit_code == 0, result.output
        _, frames, _ = load_detections(str(path))
        assert len(frames) == 2
        assert all(len(poses) == 1 for poses in frames.values())

    def test_requires_an_output(self, runner):
        result = runner.invoke(cli, ["simulate"])
        assert result.exit_code != 0


class TestEncodeDecode:
    def encode(self, runner, truth_file, tmp_path, extra=()):
        maps_dir = tmp_path / "maps"
        result = runner.invoke(
            cli,
            [
                "encode",
                "--detections",
                str(truth_file),
                "--out-dir",
                str(maps_dir),
                *extra,
            ],
        )
        assert result.exit_code == 0, result.output
        return maps_dir

    def test_encode_writes_per_frame_binaries(self, runner, truth_file, tmp_path):
        maps_dir = self.encode(runner, truth_file, tmp_path)
        names = sorted(p.name for p in maps_dir.iterdir())
        assert names == [f"frame_{i:06d}.ktm" for i in range(4)]

    def test_encode_text_format(self, runner, truth_file, tmp_path):
        maps_dir = self.encode(runner, truth_file, tmp_path, extra=["--text"])
        names = sorted(p.name for p in maps_dir.iterdir())
        assert names == [f"frame_{i:06d}.ktmt" for i in range(4)]

    def test_decode_assemble_recovers_truth(self, runner, truth_file, tmp_path):
        maps_dir = self.encode(runner, truth_file, tmp_path)
        out_path = tmp_path / "assembled.jsonl"
        result = runner.invoke(
            cli,
            [
                "decode-assemble",
                "--maps-dir",
                str(maps_dir),
                "--out",
                str(out_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "assembled 8 skeletons over 4 frames" in result.output
        _, truth_frames, _ = load_detections(str(truth_file))
        _, assembled, _ = load_detections(str(out_path))
        for frame_index, gt_poses in truth_frames.items():
            built = assembled[frame_index]
            assert len(built) == len(gt_poses)
            for gt in gt_poses:
                best = min(
                    (
                        max(
                            math.dist(gt.get(c), pose.get(c))
                            for c in gt.coords
                            if pose.get(c) is not None
                        )
                        for pose in built
                    ),
                )
                assert best < 0.75

    def test_decode_empty_dir_fails(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(
            cli,
            ["decode-assemble", "--maps-dir", str(empty), "--out", str(tmp_path / "o.jsonl")],
        )
        assert result.exit_code != 0


class TestTrackCommand:
    def test_track_produces_stable_ids(self, runner, truth_file, tmp_path):
        out_path = tmp_path / "tracks.jsonl"
        result = runner.invoke(
            cli,
            ["track", "--detections", str(truth_file), "--out", str(out_path)],
        )
        assert result.exit_code == 0, result.output
        _, outputs = load_tracks(str(out_path))
        assert [o.frame_index for o in outputs] == [0, 1, 2, 3]
        for output in outputs:
            assert sorted(r.tracklet_id for r in output.records) == [1, 2]


class TestEvaluateCommand:
    def test_truth_against_itself(self, runner, truth_file, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            cli,
            [
                "evaluate",
                "--truth",
                str(truth_file),
                "--poses",
                str(truth_file),
                "--out",
                str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(report_path.read_text())
        assert payload["recovery_rate"]["overall"] == 1.0
        assert payload["unpaired_ground_truth"] == 0
        assert payload["relative_error"]["withers"]["mean"] == pytest.approx(0.0)

    def test_report_to_stdout(self, runner, truth_file):
        result = runner.invoke(
            cli,
            ["evaluate", "--truth", str(truth_file), "--poses", str(truth_file)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["paired_skeletons"] == 8

    def test_tracks_add_smoothness_section(self, runner, truth_file, tmp_path):
        tracks_path = tmp_path / "tracks.jsonl"
        runner.invoke(
            cli, ["track", "--detections", str(truth_file), "--out", str(tracks_path)]
        )
        result = runner.invoke(
            cli,
            ["evaluate", "--truth", str(truth_file), "--tracks", str(tracks_path)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert "observed" in payload["frame_difference_quantiles"]
        assert "posterior" in payload["frame_difference_quantiles"]

    def test_map_pr_section(self, runner, truth_file, tmp_path):
        maps_dir = tmp_path / "maps"
        runner.invoke(
            cli,
            ["encode", "--detections", str(truth_file), "--out-dir", str(maps_dir)],
        )
        result = runner.invoke(
            cli,
            [
                "evaluate",
                "--truth",
                str(truth_file),
                "--poses",
                str(truth_file),
                "--truth-maps",
                str(maps_dir),
                "--pred-maps",
                str(maps_dir),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        pr = payload["precision_recall"]["overall"]
        assert pr["precision"] == 1.0
        assert pr["recall"] == 1.0

    def test_requires_exactly_one_prediction_source(self, runner, truth_file, tmp_path):
        result = runner.invoke(
            cli, ["evaluate", "--truth", str(truth_file)], catch_exceptions=True
        )
        assert result.exit_code != 0
        tracks_path = tmp_path / "tracks.jsonl"
        runner.invoke(
            cli, ["track", "--detections", str(truth_file), "--out", str(tracks_path)]
        )
        both = runner.invoke(
            cli,
            [
                "evaluate",
                "--truth",
                str(truth_file),
                "--poses",
                str(truth_file),
                "--tracks",
                str(tracks_path),
            ],
            catch_exceptions=True,
        )
        assert both.exit_code != 0


class TestKfDemoCommand:
    def test_prints_rmse_and_writes_csv(self, runner, tmp_path):
        csv_path = tmp_path / "demo.csv"
        result = runner.invoke(
            cli,
            ["kf-demo", "--mode", "adaptive", "--steps", "60", "--out", str(csv_path)],
        )
        assert result.exit_code == 0, result.output
        assert "mode=adaptive pre-switch RMSE=" in result.output
        assert "post-switch RMSE=" in result.output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,truth_pos,truth_vel,z,")
        assert len(lines) == 61

    def test_rejects_unknown_mode(self, runner):
        result = runner.invoke(cli, ["kf-demo", "--mode", "bogus"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--steps", "0"], "steps"),
            (["--steps", "1"], "steps"),
            (["--switch-at", "900"], "switch_at"),
            (["--switch-at", "-3"], "switch_at"),
            (["--q-var", "0"], "q_var"),
            (["--r-var", "-1"], "r_var"),
            (["--q-jump", "-1"], "q_jump"),
        ],
    )
    def test_bad_parameter_exits_two(self, monkeypatch, capsys, args, name):
        monkeypatch.setattr(sys, "argv", ["keytrack", "kf-demo", *args])
        with pytest.raises(SystemExit) as exit_info:
            cli_module.main()
        assert exit_info.value.code == 2
        assert f"error: {name} must be" in capsys.readouterr().err


class TestConsoleScript:
    """Exit-code contract of ``python -m keytrack.cli`` run from the source tree."""

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "keytrack.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_help_exits_zero(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        assert "encode" in proc.stdout and "track" in proc.stdout

    def test_version_exits_zero(self):
        proc = self.run("--version")
        assert proc.returncode == 0
        assert "keytrack" in proc.stdout
        assert keytrack.__version__ in proc.stdout

    def test_usage_error_exits_two(self):
        proc = self.run("encode")  # missing required options
        assert proc.returncode == 2
        assert "Missing option" in proc.stderr + proc.stdout

    def test_value_error_exits_two(self, tmp_path):
        truth = tmp_path / "t.jsonl"
        save_detections(str(truth), StreamHeader("s", 10, 10), {0: []})
        proc = self.run("evaluate", "--truth", str(truth))
        assert proc.returncode == 2
        assert "exactly one of" in proc.stderr

    def test_missing_file_exits_two(self, tmp_path):
        proc = self.run(
            "track",
            "--detections",
            str(tmp_path / "absent.jsonl"),
            "--out",
            str(tmp_path / "o.jsonl"),
        )
        assert proc.returncode == 2

    def test_non_finite_detection_exits_two(self, tmp_path):
        detections = tmp_path / "det.jsonl"
        save_detections(str(detections), StreamHeader("cattle-dorsal", 100, 100), {})
        with open(detections, "a") as handle:
            pose = {"withers": [50.0, 50.0], "tail_implant": [math.nan, 50.0]}
            handle.write(json.dumps({"frame_index": 0, "poses": [pose]}) + "\n")
        proc = self.run("track", "--detections", str(detections), "--out", str(tmp_path / "o.jsonl"))
        assert proc.returncode == 2
        assert f"{detections} line 2: non-finite coordinates for 'tail_implant'" in proc.stderr

    def test_decreasing_frame_index_exits_two(self, tmp_path):
        detections = tmp_path / "det.jsonl"
        save_detections(str(detections), StreamHeader("cattle-dorsal", 100, 100), {})
        pose = {"withers": [50.0, 50.0], "tail_implant": [20.0, 50.0]}
        with open(detections, "a") as handle:
            for frame_index in (3, 5, 4):
                handle.write(json.dumps({"frame_index": frame_index, "poses": [pose]}) + "\n")
        proc = self.run("track", "--detections", str(detections), "--out", str(tmp_path / "o.jsonl"))
        assert proc.returncode == 2
        assert f"{detections}: frame 4 does not follow frame 5" in proc.stderr

    def write_poses(self, path, *extra):
        """A two-frame pose file; ``extra`` keypoints join frame 1's second pose."""
        save_detections(str(path), StreamHeader("cattle-dorsal", 100, 100), {})
        good = {"withers": [50.0, 50.0], "tail_implant": [20.0, 50.0]}
        bad = {**good, **{name: [60.0, 40.0] for name in extra}}
        with open(path, "a") as handle:
            handle.write(json.dumps({"frame_index": 0, "poses": [good]}) + "\n")
            handle.write(json.dumps({"frame_index": 1, "poses": [good, bad]}) + "\n")
        return path

    def test_encode_unknown_category_exits_two(self, tmp_path):
        detections = self.write_poses(tmp_path / "det.jsonl", "horn")
        proc = self.run("encode", "--detections", str(detections), "--out-dir", str(tmp_path / "maps"))
        assert proc.returncode == 2
        assert f"{detections}: frame 1 pose 1 has unknown category 'horn'" in proc.stderr

    @pytest.mark.parametrize("bad_side", ["--truth", "--poses"])
    def test_evaluate_unknown_category_exits_two(self, tmp_path, bad_side):
        args = []
        for side in ("--truth", "--poses"):
            extra = ["horn"] if side == bad_side else []
            args += [side, str(self.write_poses(tmp_path / f"{side[2:]}.jsonl", *extra))]
        proc = self.run("evaluate", *args)
        assert proc.returncode == 2
        bad = tmp_path / f"{bad_side[2:]}.jsonl"
        assert f"{bad}: frame 1 pose 1 has unknown category 'horn'" in proc.stderr

    def test_unknown_category_exits_two(self, tmp_path):
        detections = tmp_path / "det.jsonl"
        save_detections(str(detections), StreamHeader("cattle-dorsal", 100, 100), {})
        good = {"withers": [50.0, 50.0], "tail_implant": [20.0, 50.0]}
        bad = {**good, "horn": [60.0, 40.0]}
        with open(detections, "a") as handle:
            handle.write(json.dumps({"frame_index": 0, "poses": [good]}) + "\n")
            handle.write(json.dumps({"frame_index": 1, "poses": [good, bad]}) + "\n")
        proc = self.run("track", "--detections", str(detections), "--out", str(tmp_path / "o.jsonl"))
        assert proc.returncode == 2
        assert f"{detections}: frame 1 pose 1 has unknown category 'horn'" in proc.stderr


def test_unexpected_error_logs_traceback_at_debug(monkeypatch, caplog, tmp_path):
    detections = tmp_path / "det.jsonl"
    save_detections(str(detections), StreamHeader("cattle-dorsal", 100, 100), {0: []})

    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module.io, "load_detections", broken)
    monkeypatch.setattr(
        sys, "argv", ["keytrack", "track", "--detections", str(detections), "--out", str(tmp_path / "o.jsonl")]
    )
    caplog.set_level(logging.DEBUG, logger="keytrack")
    with pytest.raises(SystemExit) as exit_info:
        cli_module.main()
    assert exit_info.value.code == 1
    records = [r for r in caplog.records if r.getMessage() == "unexpected error"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert records[0].exc_info[0] is RuntimeError
    assert "boom" in caplog.text

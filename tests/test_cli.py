import json
import logging
import math
import subprocess
import sys

import pytest
import yaml
from click.testing import CliRunner

import keytrack
from keytrack import cli as cli_module
from keytrack.cli import cli
from keytrack.io import (
    StreamHeader,
    default_skeleton,
    load_detections,
    load_tracks,
    save_detections,
    save_scenario,
    skeleton_to_dict,
)
from keytrack.maps import encode as encode_maps, save_maps
from keytrack.simulate import RegimeSegment, ScenarioConfig, two_point_skeleton
from keytrack.skeleton import Pose

from map_oracles import save_maps_v2


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


def _two_point_maps(spec, pose):
    front_back = Pose(coords={"front": (100.0, 100.0), "back": (160.0, 100.0)})
    return encode_maps([front_back], two_point_skeleton(), 320, 240)


def _maps_without_head_nose(spec, pose):
    stack = encode_maps([pose], spec, 320, 240)
    del stack.assoc[("head", "nose")]
    return stack


def _empty_maps_without_withers(spec, pose):
    stack = encode_maps([], spec, 320, 240)
    del stack.prob["withers"]
    return stack


def exit_code_and_error(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["keytrack", *args])
    with pytest.raises(SystemExit) as exit_info:
        cli_module.main()
    return exit_info.value.code, capsys.readouterr().err


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
    def encode(self, runner, truth_file, tmp_path):
        maps_dir = tmp_path / "maps"
        result = runner.invoke(
            cli,
            [
                "encode",
                "--detections",
                str(truth_file),
                "--out-dir",
                str(maps_dir),
            ],
        )
        assert result.exit_code == 0, result.output
        return maps_dir

    def test_encode_writes_per_frame_binaries(self, runner, truth_file, tmp_path):
        maps_dir = self.encode(runner, truth_file, tmp_path)
        names = sorted(p.name for p in maps_dir.iterdir())
        assert names == [f"frame_{i:06d}.ktm" for i in range(4)]

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

    def test_two_files_for_one_frame_exit_two(
        self, runner, spec, truth_file, tmp_path, monkeypatch, capsys
    ):
        maps_dir = self.encode(runner, truth_file, tmp_path)
        # frame 0 also without zero padding; the names clash before either is read
        short = maps_dir / "frame_0.ktm"
        save_maps(encode_maps([], spec, 8, 6), str(short))
        both = f"two map files for frame 0: {short} and {maps_dir / 'frame_000000.ktm'}"
        out = str(tmp_path / "o.jsonl")
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", out
        )
        assert code == 2 and both in err
        single = tmp_path / "single"
        single.mkdir()
        for path in maps_dir.glob("frame_??????.ktm"):
            (single / path.name).write_bytes(path.read_bytes())
        for truth_maps, pred_maps in ((maps_dir, single), (single, maps_dir)):
            code, err = exit_code_and_error(
                monkeypatch, capsys, "evaluate", "--truth", str(truth_file), "--poses", str(truth_file),
                "--truth-maps", str(truth_maps), "--pred-maps", str(pred_maps),
            )
            assert code == 2 and both in err

    def test_only_exact_map_names_are_read(self, runner, truth_file, tmp_path):
        """A name that merely ends in a map file name names no frame."""
        encoded = self.encode(runner, truth_file, tmp_path)
        maps_dir = tmp_path / "one"
        maps_dir.mkdir()
        frame_3 = (encoded / "frame_000003.ktm").read_bytes()
        (maps_dir / "frame_000000.ktm").write_bytes((encoded / "frame_000000.ktm").read_bytes())
        (maps_dir / "old_frame_000000.ktm").write_bytes(frame_3)
        (maps_dir / "xframe_12.ktm").write_bytes(frame_3)
        out_path = tmp_path / "assembled.jsonl"
        result = runner.invoke(
            cli, ["decode-assemble", "--maps-dir", str(maps_dir), "--out", str(out_path)]
        )
        assert result.exit_code == 0, result.output
        assert "assembled 2 skeletons over 1 frames" in result.output
        assert list(load_detections(str(out_path))[1]) == [0]
        result = runner.invoke(
            cli,
            [
                "evaluate", "--truth", str(truth_file), "--poses", str(truth_file),
                "--truth-maps", str(maps_dir), "--pred-maps", str(maps_dir),
            ],
        )
        assert result.exit_code == 0, result.output
        # two animals of six keypoints in the one frame read
        overall = json.loads(result.output)["precision_recall"]["overall"]
        assert (overall["tp"], overall["fp"], overall["fn"]) == (12.0, 0, 0)

    def test_frame_size_change_exits_two(self, spec, tmp_path, monkeypatch, capsys):
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        save_maps(encode_maps([], spec, 320, 240), str(maps_dir / "frame_000000.ktm"))
        save_maps(encode_maps([], spec, 640, 480), str(maps_dir / "frame_000001.ktm"))
        out = str(tmp_path / "o.jsonl")
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", out
        )
        assert code == 2
        second = maps_dir / "frame_000001.ktm"
        assert f"{second}: 640x480 maps, but earlier frames are 320x240" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "make_maps, message",
        [
            (_two_point_maps, "probability maps of ['front', 'back'] not in skeleton 'cattle-dorsal'"),
            (_maps_without_head_nose, "no assoc:head->nose maps for skeleton 'cattle-dorsal'"),
            (_empty_maps_without_withers, "no prob:withers maps for skeleton 'cattle-dorsal'"),
        ],
        ids=["another-skeleton", "no-connection", "no-category"],
    )
    def test_maps_that_do_not_fit_the_skeleton_exit_two(
        self, spec, square_pose, tmp_path, monkeypatch, capsys, make_maps, message
    ):
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        path = maps_dir / "frame_000000.ktm"
        save_maps(make_maps(spec, square_pose), str(path))
        out = tmp_path / "o.jsonl"
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", str(out)
        )
        assert code == 2
        assert f"error: {path}: {message}" in err
        assert not out.exists()

    def test_old_map_version_exits_two(self, spec, tmp_path, monkeypatch, capsys):
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        path = maps_dir / "frame_000000.ktm"
        save_maps_v2(encode_maps([], spec, 32, 24), str(path))
        out = tmp_path / "o.jsonl"
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", str(out)
        )
        assert code == 2
        assert (
            f"error: {path}: .ktm version 2 is no longer read; "
            "re-encode the frame from its detections with keytrack encode"
        ) in err
        assert not out.exists()

    def test_text_map_file_exits_two(self, tmp_path, monkeypatch, capsys):
        """A text map file under the .ktm name is rejected by its magic."""
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        path = maps_dir / "frame_000000.ktm"
        path.write_bytes(b"KTMT 1\n1 1 1\nprob:k\n0\n")
        out = tmp_path / "o.jsonl"
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", str(out)
        )
        assert code == 2
        assert (
            f"error: {path}: text map files (.ktmt) are no longer read; "
            "re-encode the frame from its detections with keytrack encode"
        ) in err
        assert not out.exists()

    def test_text_map_directory_exits_two(self, tmp_path, monkeypatch, capsys):
        """A directory whose only map file is ``.ktmt`` holds no map files."""
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        (maps_dir / "frame_000000.ktmt").write_bytes(b"KTMT 1\n1 1 1\nprob:k\n0\n")
        out = tmp_path / "o.jsonl"
        code, err = exit_code_and_error(
            monkeypatch, capsys, "decode-assemble", "--maps-dir", str(maps_dir), "--out", str(out)
        )
        assert code == 2
        assert f"error: no frame_*.ktm files in {maps_dir}" in err
        assert not out.exists()

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

    def test_predicted_map_without_truth_map_exits_two(
        self, runner, truth_file, tmp_path, monkeypatch, capsys
    ):
        truth_maps = tmp_path / "maps"
        runner.invoke(cli, ["encode", "--detections", str(truth_file), "--out-dir", str(truth_maps)])
        pred_maps = tmp_path / "pred"
        pred_maps.mkdir()
        for path in truth_maps.iterdir():
            (pred_maps / path.name).write_bytes(path.read_bytes())
        # an extra predicted frame would hold only false positives
        (pred_maps / "frame_000099.ktm").write_bytes((truth_maps / "frame_000003.ktm").read_bytes())
        code, err = exit_code_and_error(
            monkeypatch, capsys, "evaluate", "--truth", str(truth_file), "--poses", str(truth_file),
            "--truth-maps", str(truth_maps), "--pred-maps", str(pred_maps),
        )
        assert code == 2
        assert "truth maps only [], predicted maps only [99]" in err
        code, err = exit_code_and_error(
            monkeypatch, capsys, "evaluate", "--truth", str(truth_file), "--poses", str(truth_file),
            "--truth-maps", str(pred_maps), "--pred-maps", str(truth_maps),
        )
        assert code == 2
        assert "truth maps only [99], predicted maps only []" in err

    def test_duplicate_track_frame_exits_two(
        self, runner, truth_file, tmp_path, monkeypatch, capsys
    ):
        tracks_path = tmp_path / "tracks.jsonl"
        runner.invoke(cli, ["track", "--detections", str(truth_file), "--out", str(tracks_path)])
        lines = tracks_path.read_text().splitlines()
        tracks_path.write_text("\n".join([*lines[:3], lines[2], *lines[3:]]) + "\n")
        code, err = exit_code_and_error(
            monkeypatch, capsys, "evaluate", "--truth", str(truth_file), "--tracks", str(tracks_path)
        )
        assert code == 2
        assert f"{tracks_path} line 4: duplicate frame 1" in err

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


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("decode-assemble", ["--threshold", "nan"], "threshold must be finite, got nan"),
        ("decode-assemble", ["--nms-radius", "-7"], "nms_radius must be non-negative and finite, got -7.0"),
        ("decode-assemble", ["--gate-fraction", "-1"], "gate_fraction must be positive, got -1.0"),
        ("evaluate", ["--pair-gate", "-1"], "max_distance must be positive, got -1.0"),
        ("evaluate", ["--pair-gate", "nan"], "max_distance must be positive, got nan"),
        ("evaluate", ["--coord-scale", "0"], "coord_scale must be positive and finite, got 0.0"),
        ("evaluate", ["--coord-scale", "-1"], "coord_scale must be positive and finite, got -1.0"),
        ("evaluate", ["--coord-scale", "nan"], "coord_scale must be positive and finite, got nan"),
        ("evaluate", ["--prob-cutoff", "nan"], "cutoff must be finite, got nan"),
        ("track", ["--gate", "nan"], "gate_px must be positive, got nan"),
        ("track", ["--r-star", "nan"], "r_star variances must be positive and finite"),
        ("evaluate without maps", ["--prob-cutoff", "nan"], "cutoff must be finite, got nan"),
        ("evaluate without maps", ["--prob-cutoff", "-inf"], "cutoff must be finite, got -inf"),
        ("encode", ["--extent", "nan"], "kernel_extent must be positive and finite, got nan"),
        ("encode", ["--extent", "inf"], "kernel_extent must be positive and finite, got inf"),
        ("encode", ["--extent", "1e308"], "kernel_extent 1e+308 times kernel sigma"),
    ],
)
def test_out_of_range_parameter_exits_two(
    monkeypatch, capsys, runner, truth_file, tmp_path, command, args, message
):
    maps_dir = tmp_path / "maps"
    result = runner.invoke(cli, ["encode", "--detections", str(truth_file), "--out-dir", str(maps_dir)])
    assert result.exit_code == 0, result.output
    out = str(tmp_path / "o.jsonl")
    inputs = {
        "decode-assemble": ["--maps-dir", str(maps_dir), "--out", out],
        "evaluate": ["--truth", str(truth_file), "--poses", str(truth_file),
                     "--truth-maps", str(maps_dir), "--pred-maps", str(maps_dir)],
        "evaluate without maps": ["--truth", str(truth_file), "--poses", str(truth_file)],
        "track": ["--detections", str(truth_file), "--out", out],
        "encode": ["--detections", str(truth_file), "--out-dir", str(tmp_path / "encoded")],
    }
    name = command.split()[0]
    code, err = exit_code_and_error(monkeypatch, capsys, name, *inputs[command], *args)
    assert code == 2
    # the extent is checked against a frame's kernel sigmas, so encode names the file and frame
    where = f"{truth_file}: frame 0: " if "times kernel sigma" in message else ""
    assert f"error: {where}{message}" in err


def _skeleton_config(change):
    data = skeleton_to_dict(default_skeleton())
    change(data)
    return data


@pytest.mark.parametrize(
    "option, config, message",
    [
        ("--scenario", {"n_animal": 5}, "scenario config: unknown key 'n_animal'"),
        (
            "--scenario",
            {"regimes": [{"mode": "walking", "frames": 3, "velocty": [1, 0]}]},
            "regimes[0]: unknown key 'velocty'",
        ),
        ("--scenario", {"n_animals": "3"}, "n_animals must be an integer, got '3'"),
        (
            "--scenario",
            {"template": {"withers->head": [1]}},
            "template['withers->head'] must be a list of two numbers, got [1]",
        ),
        ("--scenario", {"regimes": [{"mode": "walking"}]}, "regimes[0]: missing field 'frames'"),
        ("--scenario", {"offset_jitter": math.nan}, "offset_jitter must be finite, got nan"),
        ("--scenario", "n_animals: [3", "while parsing a flow sequence"),
        ("--skeleton", _skeleton_config(lambda d: d.update(categories=5)), "categories must be a list, got 5"),
        (
            "--skeleton",
            _skeleton_config(lambda d: d["connections"].__setitem__(0, "withers->tail_implant")),
            "connections[0] must be a mapping, got 'withers->tail_implant'",
        ),
        (
            "--skeleton",
            _skeleton_config(lambda d: d["connections"][5].update(trainig_only=True)),
            "connections[5]: unknown key 'trainig_only'",
        ),
        (
            "--skeleton",
            _skeleton_config(lambda d: d["betas"].update({"withers->left_hip": "x"})),
            "betas['withers->left_hip'] must be a number, got 'x'",
        ),
        ("--skeleton", _skeleton_config(lambda d: d.update(rot="withers")), "skeleton config: unknown key 'rot'"),
    ],
    ids=[
        "unknown-key",
        "unknown-regime-key",
        "string-count",
        "short-offset",
        "regime-without-frames",
        "nan-jitter",
        "not-yaml",
        "categories-not-a-list",
        "connection-as-string",
        "unknown-connection-key",
        "beta-not-a-number",
        "unknown-skeleton-key",
    ],
)
def test_bad_config_exits_two_naming_file_and_key(
    monkeypatch, capsys, tmp_path, option, config, message
):
    path = tmp_path / "config.yaml"
    path.write_text(config if isinstance(config, str) else yaml.safe_dump(config))
    code, err = exit_code_and_error(
        monkeypatch, capsys, "simulate", option, str(path), "--truth-out", str(tmp_path / "t.jsonl")
    )
    assert code == 2
    assert f"error: {path}: {message}" in err


@pytest.mark.parametrize(
    "scenario, flags, message",
    [
        ({"dropout": 1.5}, [], "dropout must be in [0, 1], got 1.5"),
        ({"dropout": {"nose": -0.1}}, [], "dropout['nose'] must be in [0, 1], got -0.1"),
        ({"offset_jitter": -1.0}, [], "offset_jitter must be non-negative and finite, got -1.0"),
        ({"min_separation": -5.0}, [], "min_separation must be non-negative and finite, got -5.0"),
        ({"margin": -1.0}, [], "margin must be non-negative and finite, got -1.0"),
        (
            {"detection_noise": {"head": -2.0}},
            [],
            "detection_noise['head'] must be non-negative and finite, got -2.0",
        ),
        (None, ["--noise", "nan"], "detection_noise must be non-negative and finite, got nan"),
        (None, ["--noise", "-1"], "detection_noise must be non-negative and finite, got -1.0"),
        (None, ["--dropout", "1.5"], "dropout must be in [0, 1], got 1.5"),
        (None, ["--dropout", "nan"], "dropout must be in [0, 1], got nan"),
        ({"dropout": 0.1}, ["--dropout", "-0.5"], "dropout must be in [0, 1], got -0.5"),
    ],
)
def test_out_of_range_scenario_value_exits_two(monkeypatch, capsys, tmp_path, scenario, flags, message):
    """A scenario value out of range, from a file or a flag, is rejected
    before anything is written, naming the key (and the file it came from)."""
    args = ["simulate", "--frames", "3", "--detections-out", str(tmp_path / "d.jsonl"), *flags]
    path = tmp_path / "scenario.yaml"
    if scenario is not None:
        path.write_text(yaml.safe_dump(scenario))
        args += ["--scenario", str(path)]
    code, err = exit_code_and_error(monkeypatch, capsys, *args)
    assert code == 2
    where = f"{path}: " if scenario is not None and not flags else ""
    assert f"error: {where}{message}" in err
    assert not (tmp_path / "d.jsonl").exists()


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

    def write_flat_pose(self, path):
        """One pose with every keypoint on one spot: its skeleton scale is 0."""
        flat = {cat: [100.0, 100.0] for cat in default_skeleton().categories}
        save_detections(str(path), StreamHeader("cattle-dorsal", 200, 200), {})
        with open(path, "a") as handle:
            handle.write(json.dumps({"frame_index": 0, "poses": [flat]}) + "\n")
        return path

    def test_evaluate_zero_scale_pair_skipped(self, tmp_path):
        truth = self.write_flat_pose(tmp_path / "truth.jsonl")
        proc = self.run("evaluate", "--truth", str(truth), "--poses", str(truth))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("skipping pair with undefined ground-truth scale") == 1
        payload = json.loads(proc.stdout)
        assert payload["paired_skeletons"] == 1
        assert payload["recovery_rate"]["overall"] == 1.0
        assert all(stats["count"] == 0 for stats in payload["relative_error"].values())

    def test_encode_zero_scale_names_file_and_frame(self, tmp_path):
        truth = self.write_flat_pose(tmp_path / "truth.jsonl")
        proc = self.run("encode", "--detections", str(truth), "--out-dir", str(tmp_path / "maps"))
        assert proc.returncode == 2
        assert f"error: {truth}: frame 0: skeleton scales must be positive" in proc.stderr

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

    def test_evaluate_tracks_unknown_category_exits_two(self, tmp_path):
        detections = self.write_poses(tmp_path / "det.jsonl")
        tracks = tmp_path / "tracks.jsonl"
        assert self.run("track", "--detections", str(detections), "--out", str(tracks)).returncode == 0
        lines = tracks.read_text().splitlines()
        for n in (1, 2):  # frames 0 and 1
            record = json.loads(lines[n])
            for tracklet in record["tracklets"]:
                tracklet["observed"]["horn"] = tracklet["posterior"]["horn"] = [60.0, 40.0]
            lines[n] = json.dumps(record)
        tracks.write_text("\n".join(lines) + "\n")
        proc = self.run("evaluate", "--truth", str(detections), "--tracks", str(tracks))
        assert proc.returncode == 2
        assert f"{tracks}: frame 0 tracklet 1 has unknown category 'horn'" in proc.stderr

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


def test_package_import_loads_no_scipy():
    # a fresh interpreter: this test session may have imported scipy itself
    code = (
        "import sys, keytrack, keytrack.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

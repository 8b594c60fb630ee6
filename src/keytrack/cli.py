"""Command line interface.

Exit codes: 0 on success, 2 for invalid inputs or arguments, 1 for
anything else.  Set ``KEYTRACK_LOG`` (DEBUG/INFO/WARNING/ERROR) to
control log verbosity.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Optional

import click
import numpy as np

from . import __version__, assembly, io, maps, metrics, simulate
from .keysort import KeySortTracker, TrackerConfig
from .skeleton import Pose, SkeletonSpec, connection_name, is_valid_pose

log = logging.getLogger("keytrack")

MAP_FILE_RE = re.compile(r"frame_(\d+)\.ktm")


def _load_spec(path: Optional[str]) -> SkeletonSpec:
    if path is None:
        return io.default_skeleton()
    return io.load_skeleton(path)


def _check_categories(
    path: str, spec: SkeletonSpec, poses: Iterable[tuple[int, str, Pose]]
) -> None:
    """Reject a keypoint category the skeleton lacks, naming file, frame and pose."""
    known = set(spec.categories)
    for frame_index, label, pose in poses:
        for category in pose.coords:
            if category not in known:
                raise ValueError(
                    f"{path}: frame {frame_index} {label} has unknown category {category!r}"
                )


def _load_detections(
    path: str, spec: SkeletonSpec
) -> tuple[io.StreamHeader, dict[int, list[Pose]], dict[int, str]]:
    """``io.load_detections``, rejecting a keypoint category the skeleton lacks."""
    header, frames, regimes = io.load_detections(path)
    poses = ((f, f"pose {n}", pose) for f, frame in frames.items() for n, pose in enumerate(frame))
    _check_categories(path, spec, poses)
    return header, frames, regimes


@click.group()
@click.version_option(version=__version__, prog_name="keytrack")
def cli() -> None:
    """Keypoint map codec, skeleton assembly and multi-animal tracking."""


skeleton_option = click.option(
    "--skeleton",
    "skeleton_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Skeleton YAML config (default: bundled cattle skeleton).",
)


# ---------------------------------------------------------------------------
# encode


@cli.command()
@click.option("--detections", "detections_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Input pose JSONL.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False), help="Directory for per-frame map files.")
@skeleton_option
@click.option("--theta", default=maps.DEFAULT_THETA, show_default=True, help="Kernel width as a fraction of skeleton scale.")
@click.option("--cutoff", default=maps.DEFAULT_WEIGHT_CUTOFF, show_default=True, help="Association weight cutoff.")
@click.option("--extent", default=maps.DEFAULT_KERNEL_EXTENT, show_default=True, help="Kernel support radius in sigmas.")
def encode(detections_path: str, out_dir: str, skeleton_path: Optional[str], theta: float, cutoff: float, extent: float) -> None:
    """Encode poses into probability and association maps."""
    spec = _load_spec(skeleton_path)
    params = maps.EncoderParams(theta=theta, weight_cutoff=cutoff, kernel_extent=extent)
    header, frames, _ = _load_detections(detections_path, spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for frame_index in sorted(frames):
        poses = [p for p in frames[frame_index] if is_valid_pose(spec, p)]
        skipped = len(frames[frame_index]) - len(poses)
        if skipped:
            log.warning("frame %d: skipped %d invalid poses", frame_index, skipped)
        try:
            stack = maps.encode(poses, spec, header.width, header.height, params)
        except ValueError as exc:
            raise ValueError(f"{detections_path}: frame {frame_index}: {exc}") from None
        maps.save_maps(stack, str(out / f"frame_{frame_index:06d}.ktm"))
    click.echo(f"encoded {len(frames)} frames to {out_dir}")


# ---------------------------------------------------------------------------
# decode-assemble


def _map_files(maps_dir: str) -> list[tuple[int, Path]]:
    found: dict[int, Path] = {}
    for entry in sorted(Path(maps_dir).iterdir()):
        match = MAP_FILE_RE.fullmatch(entry.name)
        if match:
            frame_index = int(match.group(1))
            # frame_7.ktm and frame_000007.ktm name the same frame
            if frame_index in found:
                raise ValueError(
                    f"two map files for frame {frame_index}: {found[frame_index]} and {entry}"
                )
            found[frame_index] = entry
    if not found:
        raise ValueError(f"no frame_*.ktm files in {maps_dir}")
    return sorted(found.items())


def _check_maps_fit(path: Path, stack: maps.MapStack, spec: SkeletonSpec) -> None:
    """Reject, naming the file, maps with a probability channel of a
    category the skeleton lacks, or without the channels of one of its
    categories or of a connection it assembles."""
    unknown = [category for category in stack.prob if category not in spec.categories]
    if unknown:
        raise ValueError(f"{path}: probability maps of {unknown} not in skeleton {spec.name!r}")
    missing = [f"prob:{category}" for category in spec.categories if category not in stack.prob]
    missing += [f"assoc:{connection_name(pair)}" for pair in spec.tree_connections if pair not in stack.assoc]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} maps for skeleton {spec.name!r}")


@cli.command("decode-assemble")
@click.option("--maps-dir", required=True, type=click.Path(exists=True, file_okay=False), help="Directory of per-frame map files.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Output pose JSONL.")
@skeleton_option
@click.option("--threshold", default=maps.DEFAULT_DETECT_THRESHOLD, show_default=True, help="Peak detection threshold on smoothed maps.")
@click.option("--nms-radius", default=maps.DEFAULT_NMS_RADIUS, show_default=True, help="Non-maximum suppression radius in pixels.")
@click.option("--gate-fraction", default=assembly.DEFAULT_GATE_FRACTION, show_default=True, help="Assembly gate as a fraction of the image diagonal.")
def decode_assemble(maps_dir: str, out_path: str, skeleton_path: Optional[str], threshold: float, nms_radius: float, gate_fraction: float) -> None:
    """Detect keypoints in map files and assemble skeletons."""
    spec = _load_spec(skeleton_path)
    header: Optional[io.StreamHeader] = None
    frames: dict[int, list[Pose]] = {}
    for frame_index, path in _map_files(maps_dir):
        stack = maps.load_maps(str(path))
        if header is None:
            header = io.StreamHeader(skeleton=spec.name, width=stack.width, height=stack.height)
        elif (stack.width, stack.height) != (header.width, header.height):
            raise ValueError(
                f"{path}: {stack.width}x{stack.height} maps, but earlier frames are "
                f"{header.width}x{header.height}"
            )
        _check_maps_fit(path, stack, spec)
        candidates = maps.decode_candidates(stack.prob, threshold, nms_radius)
        frames[frame_index] = assembly.assemble(candidates, stack, spec, gate_fraction=gate_fraction)
    assert header is not None
    io.save_detections(out_path, header, frames)
    total = sum(len(v) for v in frames.values())
    click.echo(f"assembled {total} skeletons over {len(frames)} frames")


# ---------------------------------------------------------------------------
# track


@cli.command()
@click.option("--detections", "detections_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Input pose JSONL.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False), help="Output track JSONL.")
@skeleton_option
@click.option("--r-star", default=1.0, show_default=True, help="Measurement noise scale per coordinate.")
@click.option("--gate", "gate_px", default=25.0, show_default=True, help="Association gate in original-image pixels.")
@click.option("--coord-scale", default=1.0, show_default=True, help="Working-to-original image coordinate factor.")
@click.option("--max-missed", default=3, show_default=True, help="Consecutive missed frames before termination.")
@click.option("--maturity-age", default=3, show_default=True, help="Matched frames before a tracklet survives a miss.")
@click.option("--sign-window", default=8, show_default=True, help="Innovation sign history length.")
def track(detections_path: str, out_path: str, skeleton_path: Optional[str], r_star: float, gate_px: float, coord_scale: float, max_missed: int, maturity_age: int, sign_window: int) -> None:
    """Track assembled skeletons across frames."""
    spec = _load_spec(skeleton_path)
    header, frames, _ = _load_detections(detections_path, spec)
    config = TrackerConfig(
        gate_px=gate_px,
        coord_scale=coord_scale,
        max_missed=max_missed,
        maturity_age=maturity_age,
        sign_window=sign_window,
    )
    tracker = KeySortTracker(spec, np.full(len(spec.categories), r_star), config)
    outputs = []
    # frames in file order: the tracker rejects an index that does not increase
    for frame_index, poses in frames.items():
        try:
            outputs.append(tracker.step(poses, frame_index))
        except ValueError as exc:
            raise ValueError(f"{detections_path}: {exc}") from None
    io.save_tracks(out_path, header, outputs)
    emitted = sum(len(out.records) for out in outputs)
    click.echo(f"tracked {len(frames)} frames, {emitted} tracklet records")


# ---------------------------------------------------------------------------
# evaluate


@cli.command()
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Ground-truth pose JSONL.")
@click.option("--poses", "poses_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Predicted pose JSONL.")
@click.option("--tracks", "tracks_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Track JSONL (scores posteriors, adds smoothness).")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False), help="Write the JSON report here instead of stdout.")
@skeleton_option
@click.option("--pair-gate", default=metrics.DEFAULT_PAIR_GATE, show_default=True, help="Skeleton pairing gate in original-image pixels.")
@click.option("--coord-scale", default=1.0, show_default=True, help="Working-to-original image coordinate factor.")
@click.option("--truth-maps", default=None, type=click.Path(exists=True, file_okay=False), help="Ground-truth map directory for detection PR.")
@click.option("--pred-maps", default=None, type=click.Path(exists=True, file_okay=False), help="Predicted map directory for detection PR.")
@click.option("--prob-cutoff", default=metrics.DEFAULT_PROB_CUTOFF, show_default=True, help="Probability cutoff for detection PR.")
def evaluate(truth_path: str, poses_path: Optional[str], tracks_path: Optional[str], out_path: Optional[str], skeleton_path: Optional[str], pair_gate: float, coord_scale: float, truth_maps: Optional[str], pred_maps: Optional[str], prob_cutoff: float) -> None:
    """Score predictions against ground truth."""
    if (poses_path is None) == (tracks_path is None):
        raise ValueError("provide exactly one of --poses or --tracks")
    if (truth_maps is None) != (pred_maps is None):
        raise ValueError("--truth-maps and --pred-maps go together")
    metrics.check_prob_cutoff(prob_cutoff)
    spec = _load_spec(skeleton_path)
    _, gt_frames, _ = _load_detections(truth_path, spec)

    if poses_path is not None:
        _, pred_frames, _ = _load_detections(poses_path, spec)
        report, _ = metrics.evaluate_poses(gt_frames, pred_frames, spec, pair_gate, coord_scale)
    else:
        _, outputs = io.load_tracks(tracks_path)
        poses = (
            (out.frame_index, f"tracklet {record.tracklet_id}", pose)
            for out in outputs
            for record in out.records
            for pose in (record.observed, record.prior, record.posterior)
            if pose is not None
        )
        _check_categories(tracks_path, spec, poses)
        report, _ = metrics.evaluate_tracks(gt_frames, outputs, spec, pair_gate, coord_scale)
    result = report.to_dict()

    if truth_maps is not None:
        truth_files = dict(_map_files(truth_maps))
        pred_files = dict(_map_files(pred_maps))
        truth_only = sorted(truth_files.keys() - pred_files.keys())
        pred_only = sorted(pred_files.keys() - truth_files.keys())
        if truth_only or pred_only:
            raise ValueError(
                f"map directories cover different frames: truth maps only {truth_only[:5]}, "
                f"predicted maps only {pred_only[:5]}"
            )
        total = metrics.PRReport()
        for frame_index, truth_file in truth_files.items():
            gt_stack = maps.load_maps(str(truth_file))
            pred_stack = maps.load_maps(str(pred_files[frame_index]))
            candidates = maps.decode_candidates(pred_stack.prob)
            total += metrics.precision_recall(
                gt_frames.get(frame_index, []), candidates, gt_stack.prob, pred_stack.prob, prob_cutoff
            )
        result["precision_recall"] = total.to_dict()

    text = json.dumps(result, indent=2)
    if out_path is None:
        click.echo(text)
    else:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote report to {out_path}")


# ---------------------------------------------------------------------------
# simulate


@cli.command("simulate")
@click.option("--truth-out", default=None, type=click.Path(dir_okay=False), help="Write ground-truth pose JSONL here.")
@click.option("--detections-out", default=None, type=click.Path(dir_okay=False), help="Write corrupted detections JSONL here.")
@click.option("--scenario", "scenario_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Scenario YAML config.")
@skeleton_option
@click.option("--seed", default=None, type=int, help="Override the scenario seed.")
@click.option("--animals", default=None, type=int, help="Override the animal count.")
@click.option("--frames", default=None, type=int, help="Replace the schedule with one stationary segment this long.")
@click.option("--noise", default=None, type=float, help="Override detection noise sigma in pixels.")
@click.option("--dropout", default=None, type=float, help="Override keypoint dropout probability.")
def simulate_cmd(truth_out: Optional[str], detections_out: Optional[str], scenario_path: Optional[str], skeleton_path: Optional[str], seed: Optional[int], animals: Optional[int], frames: Optional[int], noise: Optional[float], dropout: Optional[float]) -> None:
    """Generate synthetic ground truth and optional noisy detections."""
    if truth_out is None and detections_out is None:
        raise ValueError("provide --truth-out and/or --detections-out")
    spec = _load_spec(skeleton_path)
    config = io.load_scenario(scenario_path) if scenario_path else simulate.ScenarioConfig()
    overrides = {
        "seed": seed,
        "n_animals": animals,
        "regimes": None if frames is None else (simulate.RegimeSegment("stationary", frames),),
        "detection_noise": noise,
        "dropout": dropout,
    }
    # rebuilt, so the overrides pass the same checks as a scenario file
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})

    truth = simulate.generate(spec, config)
    header = io.StreamHeader(skeleton=spec.name, width=config.width, height=config.height)
    if truth_out is not None:
        io.save_detections(
            truth_out,
            header,
            truth.poses_by_frame(),
            regimes={f.frame_index: f.regime for f in truth.frames},
        )
        click.echo(f"wrote {len(truth.frames)} ground-truth frames to {truth_out}")
    if detections_out is not None:
        detections = simulate.corrupt(truth, spec, config)
        io.save_detections(detections_out, header, detections)
        kept = sum(len(v) for v in detections.values())
        click.echo(f"wrote {kept} detected poses to {detections_out}")


# ---------------------------------------------------------------------------
# kf-demo


@cli.command("kf-demo")
@click.option("--mode", type=click.Choice(simulate.KF_DEMO_MODES), default="adaptive", show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False), help="Write per-step CSV here.")
@click.option("--steps", default=500, show_default=True)
@click.option("--seed", default=5, show_default=True)
@click.option("--q-var", default=1e-3, show_default=True, help="Process noise variance the filter assumes.")
@click.option("--q-jump", default=1e5, show_default=True, help="Process noise multiplier after the switch.")
@click.option("--r-var", default=1.0, show_default=True, help="Measurement noise variance.")
@click.option("--switch-at", default=None, type=int, help="Switch step (default: halfway).")
def kf_demo(mode: str, out_path: Optional[str], steps: int, seed: int, q_var: float, q_jump: float, r_var: float, switch_at: Optional[int]) -> None:
    """Run the regime-switch filtering demonstration."""
    result = simulate.regime_switch_demo(
        mode=mode, steps=steps, seed=seed, q_var=q_var, q_jump=q_jump, r_var=r_var, switch_at=switch_at
    )
    pre = result.rmse(0, result.switch_at)
    post = result.rmse(result.switch_at, steps)
    click.echo(f"mode={mode} pre-switch RMSE={pre:.4f} post-switch RMSE={post:.4f}")
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["step", "truth_pos", "truth_vel", "z", "prior_pos", "posterior_pos", "alpha", "gamma"])
            for i in range(steps):
                writer.writerow(
                    [
                        i,
                        f"{result.truth_pos[i]:.6f}",
                        f"{result.truth_vel[i]:.6f}",
                        f"{result.z[i]:.6f}",
                        f"{result.prior_pos[i]:.6f}",
                        f"{result.posterior_pos[i]:.6f}",
                        f"{result.alpha[i]:.6f}",
                        f"{result.gamma[i]:.6f}",
                    ]
                )
        click.echo(f"wrote {steps} steps to {out_path}")


# ---------------------------------------------------------------------------


def main() -> None:
    logging.basicConfig(level=os.environ.get("KEYTRACK_LOG", "WARNING").upper())
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(1)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:
        log.debug("unexpected error", exc_info=True)
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()

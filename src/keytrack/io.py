"""File formats: skeleton configs, detections, track output, scenarios.

Detections and track files are line-delimited JSON with a leading header
record naming the format, version, skeleton and image dimensions.  Parse
errors raise ``ValueError`` carrying the offending line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence, TextIO

import yaml

from .keysort import TrackletFrameRecord, TrackOutput
from .simulate import RegimeSegment, ScenarioConfig
from .skeleton import (
    Pair,
    Pose,
    SkeletonSpec,
    XY,
    connection_name,
    parse_connection_name,
    require_valid_spec,
)

FORMAT_VERSION = 1
DETECTIONS_FORMAT = "keytrack-detections"
TRACKS_FORMAT = "keytrack-tracks"
SKELETON_FORMAT = "keytrack-skeleton"
SCENARIO_FORMAT = "keytrack-scenario"


@dataclass
class StreamHeader:
    skeleton: str
    width: int
    height: int


# ---------------------------------------------------------------------------
# skeleton configuration (YAML)


def skeleton_to_dict(spec: SkeletonSpec) -> dict:
    connections = []
    for pair in spec.connections:
        entry: dict = {"parent": pair[0], "child": pair[1]}
        if pair in spec.training_only:
            entry["training_only"] = True
        connections.append(entry)
    return {
        "format": SKELETON_FORMAT,
        "version": FORMAT_VERSION,
        "name": spec.name,
        "categories": list(spec.categories),
        "root": spec.root,
        "connections": connections,
        "dominant": [connection_name(p) for p in spec.dominant],
        "reference": connection_name(spec.reference),
        "betas": {connection_name(p): float(b) for p, b in spec.betas.items()},
    }


def skeleton_from_dict(data: dict) -> SkeletonSpec:
    if data.get("format", SKELETON_FORMAT) != SKELETON_FORMAT:
        raise ValueError(f"not a skeleton config: format {data.get('format')!r}")
    try:
        connections: list[Pair] = []
        training: set[Pair] = set()
        for entry in data["connections"]:
            pair = (str(entry["parent"]), str(entry["child"]))
            connections.append(pair)
            if entry.get("training_only"):
                training.add(pair)
        spec = SkeletonSpec(
            name=str(data.get("name", "unnamed")),
            categories=tuple(str(c) for c in data["categories"]),
            root=str(data["root"]),
            connections=tuple(connections),
            dominant=tuple(parse_connection_name(d) for d in data["dominant"]),
            betas={parse_connection_name(k): float(v) for k, v in data["betas"].items()},
            reference=parse_connection_name(data["reference"]),
            training_only=frozenset(training),
        )
    except KeyError as exc:
        raise ValueError(f"skeleton config missing field {exc}") from exc
    return require_valid_spec(spec)


def load_skeleton(path: str) -> SkeletonSpec:
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: skeleton config must be a mapping")
    return skeleton_from_dict(data)


def save_skeleton(spec: SkeletonSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(skeleton_to_dict(spec), handle, sort_keys=False)


def default_skeleton() -> SkeletonSpec:
    """The bundled six-keypoint cattle skeleton."""
    text = resources.files("keytrack.data").joinpath("cattle_dorsal.yaml").read_text()
    return skeleton_from_dict(yaml.safe_load(text))


# ---------------------------------------------------------------------------
# scenario configuration (YAML)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "format": SCENARIO_FORMAT,
        "version": FORMAT_VERSION,
        "seed": config.seed,
        "n_animals": config.n_animals,
        "width": config.width,
        "height": config.height,
        "regimes": [
            {
                "mode": seg.mode,
                "frames": seg.frames,
                "velocity": list(seg.velocity),
                "process_noise": seg.process_noise,
            }
            for seg in config.regimes
        ],
        "template": {connection_name(p): list(xy) for p, xy in config.template.items()},
        "scale_range": list(config.scale_range),
        "offset_jitter": config.offset_jitter,
        "margin": config.margin,
        "min_separation": config.min_separation,
        "detection_noise": config.detection_noise,
        "dropout": config.dropout,
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    if data.get("format", SCENARIO_FORMAT) != SCENARIO_FORMAT:
        raise ValueError(f"not a scenario config: format {data.get('format')!r}")
    kwargs: dict = {}
    for key in (
        "seed",
        "n_animals",
        "width",
        "height",
        "offset_jitter",
        "margin",
        "min_separation",
        "detection_noise",
        "dropout",
    ):
        if key in data:
            kwargs[key] = data[key]
    if "regimes" in data:
        kwargs["regimes"] = tuple(
            RegimeSegment(
                mode=str(seg["mode"]),
                frames=int(seg["frames"]),
                velocity=tuple(seg.get("velocity", (0.0, 0.0))),
                process_noise=float(seg.get("process_noise", 0.0)),
            )
            for seg in data["regimes"]
        )
    if "template" in data:
        kwargs["template"] = {
            parse_connection_name(k): (float(v[0]), float(v[1]))
            for k, v in data["template"].items()
        }
    if "scale_range" in data:
        kwargs["scale_range"] = tuple(data["scale_range"])
    return ScenarioConfig(**kwargs)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scenario config must be a mapping")
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(scenario_to_dict(config), handle, sort_keys=False)


# ---------------------------------------------------------------------------
# pose (de)serialization helpers


def _pose_to_json(pose: Optional[Pose]) -> Optional[dict]:
    if pose is None:
        return None
    out: dict = {}
    for cat, xy in pose.coords.items():
        out[cat] = None if xy is None else [float(xy[0]), float(xy[1])]
    return out


def _pose_from_json(data: Optional[dict], frame_index: int, where: str) -> Optional[Pose]:
    """Parse one pose; ``where`` (path and line) prefixes every error."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"{where}: a pose must be an object or null, got {type(data).__name__}")
    coords: dict[str, Optional[XY]] = {}
    for cat, xy in data.items():
        if xy is None:
            coords[cat] = None
            continue
        try:
            if not isinstance(xy, (list, tuple)) or len(xy) != 2:
                raise TypeError
            x, y = float(xy[0]), float(xy[1])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where}: malformed coordinates for {cat!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{where}: non-finite coordinates for {cat!r}: [{x}, {y}]")
        coords[cat] = (x, y)
    return Pose(coords=coords, frame_index=frame_index)


def _read_header(handle: TextIO, path: str, expected_format: str) -> StreamHeader:
    first = handle.readline()
    if not first.strip():
        raise ValueError(f"{path}: empty file")
    try:
        data = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} line 1: invalid JSON header: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} line 1: the header must be a JSON object")
    if data.get("format") != expected_format:
        raise ValueError(
            f"{path} line 1: expected format {expected_format!r}, got {data.get('format')!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path} line 1: unsupported version {data.get('version')!r}")
    try:
        return StreamHeader(
            skeleton=str(data["skeleton"]),
            width=int(data["width"]),
            height=int(data["height"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path} line 1: header missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path} line 1: header width and height must be integers") from None


def _json_record(line: str, where: str) -> dict:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{where}: a record must be a JSON object, got {type(data).__name__}")
    return data


def _frame_fields(data: dict, key: str, where: str) -> tuple[int, list]:
    """A record's integer ``frame_index`` and the list stored under ``key``."""
    for name in ("frame_index", key):
        if name not in data:
            raise ValueError(f"{where}: missing field {name!r}")
    frame_index, items = data["frame_index"], data[key]
    if isinstance(frame_index, bool) or not isinstance(frame_index, int):
        raise ValueError(f"{where}: frame_index must be an integer, got {frame_index!r}")
    if not isinstance(items, list):
        raise ValueError(f"{where}: {key} must be a list, got {type(items).__name__}")
    return frame_index, items


def _number_or_null(item: dict, key: str, where: str) -> Optional[float]:
    value = item.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {key} must be a number or null, got {value!r}")
    return float(value)


def _header_json(header: StreamHeader, fmt: str) -> str:
    return json.dumps(
        {
            "format": fmt,
            "version": FORMAT_VERSION,
            "skeleton": header.skeleton,
            "width": header.width,
            "height": header.height,
        }
    )


# ---------------------------------------------------------------------------
# detections / ground truth streams


def save_detections(
    path: str,
    header: StreamHeader,
    frames: dict[int, list[Pose]],
    regimes: Optional[dict[int, str]] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_header_json(header, DETECTIONS_FORMAT) + "\n")
        for frame_index in sorted(frames):
            record: dict = {
                "frame_index": frame_index,
                "poses": [_pose_to_json(p) for p in frames[frame_index]],
            }
            if regimes and frame_index in regimes:
                record["regime"] = regimes[frame_index]
            handle.write(json.dumps(record) + "\n")


def load_detections(
    path: str,
) -> tuple[StreamHeader, dict[int, list[Pose]], dict[int, str]]:
    frames: dict[int, list[Pose]] = {}
    regimes: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        header = _read_header(handle, path, DETECTIONS_FORMAT)
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            where = f"{path} line {line_no}"
            data = _json_record(line, where)
            frame_index, poses_json = _frame_fields(data, "poses", where)
            if frame_index in frames:
                raise ValueError(f"{where}: duplicate frame {frame_index}")
            poses = []
            for pose_json in poses_json:
                pose = _pose_from_json(pose_json, frame_index, where)
                if pose is not None:
                    poses.append(pose)
            frames[frame_index] = poses
            if "regime" in data:
                regimes[frame_index] = str(data["regime"])
    return header, frames, regimes


# ---------------------------------------------------------------------------
# track output streams


def save_tracks(path: str, header: StreamHeader, outputs: Sequence[TrackOutput]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_header_json(header, TRACKS_FORMAT) + "\n")
        for output in sorted(outputs, key=lambda o: o.frame_index):
            record = {
                "frame_index": output.frame_index,
                "tracklets": [
                    {
                        "id": r.tracklet_id,
                        "observed": _pose_to_json(r.observed),
                        "prior": _pose_to_json(r.prior),
                        "posterior": _pose_to_json(r.posterior),
                        "imputed": sorted(r.imputed),
                        "alpha": r.alpha,
                        "gamma": r.gamma,
                        "psi": r.psi,
                    }
                    for r in output.records
                ],
            }
            handle.write(json.dumps(record) + "\n")


def load_tracks(path: str) -> tuple[StreamHeader, list[TrackOutput]]:
    outputs: list[TrackOutput] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as handle:
        header = _read_header(handle, path, TRACKS_FORMAT)
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            where = f"{path} line {line_no}"
            data = _json_record(line, where)
            frame_index, tracklets = _frame_fields(data, "tracklets", where)
            if frame_index in seen:
                raise ValueError(f"{where}: duplicate frame {frame_index}")
            seen.add(frame_index)
            records = []
            for item in tracklets:
                if not isinstance(item, dict):
                    raise ValueError(f"{where}: a tracklet record must be an object")
                try:
                    observed = _pose_from_json(item["observed"], frame_index, where)
                    posterior = _pose_from_json(item["posterior"], frame_index, where)
                    tracklet_id = item["id"]
                except KeyError as exc:
                    raise ValueError(f"{where}: tracklet missing field {exc}") from exc
                if observed is None:
                    raise ValueError(f"{where}: tracklet record without observation")
                if posterior is None:
                    raise ValueError(f"{where}: tracklet record without posterior")
                if isinstance(tracklet_id, bool) or not isinstance(tracklet_id, int):
                    raise ValueError(f"{where}: tracklet id must be an integer, got {tracklet_id!r}")
                imputed = item.get("imputed", [])
                if not isinstance(imputed, list) or not all(isinstance(c, str) for c in imputed):
                    raise ValueError(f"{where}: imputed must be a list of category names")
                records.append(
                    TrackletFrameRecord(
                        tracklet_id=tracklet_id,
                        observed=observed,
                        prior=_pose_from_json(item.get("prior"), frame_index, where),
                        posterior=posterior,
                        imputed=frozenset(imputed),
                        alpha=_number_or_null(item, "alpha", where),
                        gamma=_number_or_null(item, "gamma", where),
                        psi=_number_or_null(item, "psi", where),
                    )
                )
            outputs.append(TrackOutput(frame_index=frame_index, records=records))
    return header, outputs

"""File formats: skeleton configs, detections, track output, scenarios.

Detections and track files are line-delimited JSON with a leading header
record naming the format, version, skeleton and image dimensions.  Parse
errors raise ``ValueError`` carrying the offending line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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


def _mapping(data, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``data`` if it is a mapping with every key of ``required`` and no key
    outside ``required`` and ``optional``; errors name ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a mapping, got {data!r}")
    for key in data:
        if key not in required and key not in optional:
            raise ValueError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{where}: missing field {key!r}")
    return data


def _typed(value, kind, where: str, what: str):
    """``value`` if it is a ``kind`` and not a bool; errors name ``where``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return value


def _number(value, where: str) -> float:
    value = float(_typed(value, (int, float), where, "a number"))
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value}")
    return value


def _pair(value, where: str) -> XY:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{where} must be a list of two numbers, got {value!r}")
    return _number(value[0], where), _number(value[1], where)


def _load_yaml(path: str, parse):
    """``parse`` of the YAML document at ``path``; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(yaml.safe_load(handle))
    except (ValueError, OverflowError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def skeleton_from_dict(data: dict) -> SkeletonSpec:
    if isinstance(data, dict) and data.get("format", SKELETON_FORMAT) != SKELETON_FORMAT:
        raise ValueError(f"not a skeleton config: format {data.get('format')!r}")
    required = ("categories", "root", "connections", "dominant", "reference", "betas")
    _mapping(data, "skeleton config", required, ("format", "version", "name"))
    connections: list[Pair] = []
    training: set[Pair] = set()
    for n, entry in enumerate(_typed(data["connections"], list, "connections", "a list")):
        where = f"connections[{n}]"
        _mapping(entry, where, ("parent", "child"), ("training_only",))
        pair = (str(entry["parent"]), str(entry["child"]))
        connections.append(pair)
        if entry.get("training_only"):
            training.add(pair)
    spec = SkeletonSpec(
        name=str(data.get("name", "unnamed")),
        categories=tuple(str(c) for c in _typed(data["categories"], list, "categories", "a list")),
        root=str(data["root"]),
        connections=tuple(connections),
        dominant=tuple(
            parse_connection_name(str(d)) for d in _typed(data["dominant"], list, "dominant", "a list")
        ),
        betas={
            parse_connection_name(str(k)): _number(v, f"betas[{k!r}]")
            for k, v in _typed(data["betas"], dict, "betas", "a mapping").items()
        },
        reference=parse_connection_name(str(data["reference"])),
        training_only=frozenset(training),
    )
    return require_valid_spec(spec)


def load_skeleton(path: str) -> SkeletonSpec:
    """The skeleton config at ``path``; every error names the file."""
    return _load_yaml(path, skeleton_from_dict)


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
    if isinstance(data, dict) and data.get("format", SCENARIO_FORMAT) != SCENARIO_FORMAT:
        raise ValueError(f"not a scenario config: format {data.get('format')!r}")
    _mapping(data, "scenario config", (), ("format", "version", *(f.name for f in fields(ScenarioConfig))))
    kwargs: dict = {}
    for key in ("seed", "n_animals", "width", "height"):
        if key in data:
            kwargs[key] = _typed(data[key], int, key, "an integer")
    for key in ("offset_jitter", "margin", "min_separation"):
        if key in data:
            kwargs[key] = _number(data[key], key)
    for key in ("detection_noise", "dropout"):
        if isinstance(data.get(key), dict):
            kwargs[key] = {str(c): _number(v, f"{key}[{c!r}]") for c, v in data[key].items()}
        elif key in data:
            kwargs[key] = _number(data[key], key)
    if "regimes" in data:
        regimes = []
        for n, seg in enumerate(_typed(data["regimes"], list, "regimes", "a list")):
            where = f"regimes[{n}]"
            _mapping(seg, where, ("mode", "frames"), ("velocity", "process_noise"))
            regimes.append(
                RegimeSegment(
                    mode=str(seg["mode"]),
                    frames=_typed(seg["frames"], int, f"{where}.frames", "an integer"),
                    velocity=_pair(seg.get("velocity", [0.0, 0.0]), f"{where}.velocity"),
                    process_noise=_number(seg.get("process_noise", 0.0), f"{where}.process_noise"),
                )
            )
        kwargs["regimes"] = tuple(regimes)
    if "template" in data:
        kwargs["template"] = {
            parse_connection_name(str(k)): _pair(v, f"template[{k!r}]")
            for k, v in _typed(data["template"], dict, "template", "a mapping").items()
        }
    if "scale_range" in data:
        kwargs["scale_range"] = _pair(data["scale_range"], "scale_range")
    return ScenarioConfig(**kwargs)


def load_scenario(path: str) -> ScenarioConfig:
    """The scenario config at ``path``; every error names the file."""
    return _load_yaml(path, scenario_from_dict)


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
    for name in ("skeleton", "width", "height"):
        if name not in data:
            raise ValueError(f"{path} line 1: header missing field {name!r}")
    for name in ("width", "height"):
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"{path} line 1: header {name} must be a positive integer, got {value!r}")
    return StreamHeader(skeleton=str(data["skeleton"]), width=data["width"], height=data["height"])


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
    frame_index = _typed(data["frame_index"], int, f"{where}: frame_index", "an integer")
    items = data[key]
    if not isinstance(items, list):
        raise ValueError(f"{where}: {key} must be a list, got {type(items).__name__}")
    return frame_index, items


def _number_or_null(item: dict, key: str, where: str) -> Optional[float]:
    value = item.get(key)
    if value is None:
        return None
    return float(_typed(value, (int, float), f"{where}: {key}", "a number or null"))


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
                _typed(tracklet_id, int, f"{where}: tracklet id", "an integer")
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

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack.io import (
    StreamHeader,
    default_skeleton,
    load_detections,
    load_scenario,
    load_skeleton,
    load_tracks,
    save_detections,
    save_scenario,
    save_skeleton,
    save_tracks,
    scenario_from_dict,
    scenario_to_dict,
    skeleton_from_dict,
    skeleton_to_dict,
)
from keytrack.keysort import KeySortTracker
from keytrack.simulate import RegimeSegment, ScenarioConfig, corrupt, generate

from conftest import make_pose


HEADER = StreamHeader(skeleton="cattle-dorsal", width=960, height=720)


class TestSkeletonConfig:
    def test_dict_round_trip(self, spec):
        recovered = skeleton_from_dict(skeleton_to_dict(spec))
        assert recovered == spec

    def test_file_round_trip(self, spec, tmp_path):
        path = tmp_path / "skeleton.yaml"
        save_skeleton(spec, str(path))
        assert load_skeleton(str(path)) == spec

    def test_training_only_flag_preserved(self, spec):
        data = skeleton_to_dict(spec)
        flagged = [c for c in data["connections"] if c.get("training_only")]
        assert flagged == [{"parent": "right_hip", "child": "left_hip", "training_only": True}]

    def test_default_skeleton_matches_bundle(self, spec):
        assert default_skeleton() == spec
        assert spec.name == "cattle-dorsal"

    def test_wrong_format_rejected(self, spec):
        data = skeleton_to_dict(spec)
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="not a skeleton config"):
            skeleton_from_dict(data)

    def test_missing_field_reported(self, spec):
        data = skeleton_to_dict(spec)
        del data["root"]
        with pytest.raises(ValueError, match="missing field"):
            skeleton_from_dict(data)

    def test_invalid_structure_rejected(self, spec):
        data = skeleton_to_dict(spec)
        data["dominant"] = ["head->nose"]  # second-order connection
        with pytest.raises(ValueError):
            skeleton_from_dict(data)

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError, match="must be a mapping"):
            load_skeleton(str(path))


class TestScenarioConfig:
    def test_dict_round_trip(self):
        config = ScenarioConfig(
            n_animals=4,
            seed=17,
            regimes=(
                RegimeSegment("stationary", 20),
                RegimeSegment("walking", 30, velocity=(2.0, 0.5), process_noise=0.1),
            ),
            detection_noise={"nose": 3.0},
            dropout=0.15,
        )
        recovered = scenario_from_dict(scenario_to_dict(config))
        assert recovered == config

    def test_file_round_trip(self, tmp_path):
        config = ScenarioConfig(n_animals=2, seed=5)
        path = tmp_path / "scenario.yaml"
        save_scenario(config, str(path))
        assert load_scenario(str(path)) == config

    def test_partial_dict_uses_defaults(self):
        config = scenario_from_dict({"seed": 42})
        assert config.seed == 42
        assert config.n_animals == ScenarioConfig().n_animals

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a scenario config"):
            scenario_from_dict({"format": "keytrack-skeleton"})


class TestDetectionsStream:
    def frames(self):
        return {
            0: [make_pose(withers=(10.5, 20.25), tail_implant=None)],
            1: [],
            2: [
                make_pose(frame_index=2, withers=(11.0, 20.0)),
                make_pose(frame_index=2, withers=(50.0, 60.0)),
            ],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "det.jsonl"
        save_detections(str(path), HEADER, self.frames(), regimes={0: "stationary"})
        header, frames, regimes = load_detections(str(path))
        assert header == HEADER
        assert set(frames) == {0, 1, 2}
        assert frames[1] == []
        assert frames[0][0].get("withers") == (10.5, 20.25)
        assert frames[0][0].get("tail_implant") is None
        assert frames[0][0].frame_index == 0
        assert len(frames[2]) == 2
        assert regimes == {0: "stationary"}

    def test_simulated_round_trip(self, spec, quiet_scenario, tmp_path):
        truth = generate(spec, quiet_scenario)
        detections = corrupt(truth, spec)
        path = tmp_path / "sim.jsonl"
        save_detections(
            str(path),
            StreamHeader("cattle-dorsal", quiet_scenario.width, quiet_scenario.height),
            detections,
            regimes={f.frame_index: f.regime for f in truth.frames},
        )
        _, frames, regimes = load_detections(str(path))
        assert set(frames) == set(detections)
        for frame_index, poses in detections.items():
            for original, loaded in zip(poses, frames[frame_index]):
                for cat in spec.categories:
                    assert loaded.get(cat) == pytest.approx(original.get(cat))
        assert all(r == "stationary" for r in regimes.values())

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_detections(str(path))

    def test_header_format_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "keytrack-tracks", "version": 1, "skeleton": "s", "width": 1, "height": 1}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="line 1: expected format"):
            load_detections(str(path))

    def test_header_version_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "keytrack-detections", "version": 99, "skeleton": "s", "width": 1, "height": 1}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="unsupported version"):
            load_detections(str(path))

    def test_invalid_json_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_detections(str(path), HEADER, {0: []})
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="line 3: invalid JSON"):
            load_detections(str(path))

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        save_detections(str(path), HEADER, {0: []})
        with open(path, "a") as handle:
            handle.write(json.dumps({"frame_index": 0, "poses": []}) + "\n")
        with pytest.raises(ValueError, match="line 3: duplicate frame 0"):
            load_detections(str(path))

    def test_malformed_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_detections(str(path), HEADER, {})
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"frame_index": 0, "poses": [{"withers": [1.0]}]}) + "\n"
            )
        with pytest.raises(ValueError, match="malformed coordinates"):
            load_detections(str(path))

    def test_malformed_coordinates_name_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_detections(str(path), HEADER, {0: []})
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"frame_index": 1, "poses": [{"withers": ["a", 2.0]}]}) + "\n"
            )
        with pytest.raises(ValueError) as info:
            load_detections(str(path))
        assert str(info.value) == f"{path} line 3: malformed coordinates for 'withers'"

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coordinates_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.jsonl"
        save_detections(str(path), HEADER, {0: [make_pose(withers=(1.0, 2.0))]})
        with open(path, "a") as handle:
            # json.dumps writes NaN and Infinity as bare literals
            value = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}[bad]
            pose = {"withers": [3.0, 4.0], "head": [value, 5.0]}
            handle.write(json.dumps({"frame_index": 1, "poses": [pose]}) + "\n")
        with pytest.raises(ValueError) as info:
            load_detections(str(path))
        message = str(info.value)
        assert message.startswith(f"{path} line 3: non-finite coordinates for 'head'")

    def test_missing_field_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_detections(str(path), HEADER, {})
        with open(path, "a") as handle:
            handle.write(json.dumps({"poses": []}) + "\n")
        with pytest.raises(ValueError, match="line 2: missing field"):
            load_detections(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        save_detections(str(path), HEADER, {0: []})
        with open(path, "a") as handle:
            handle.write("\n\n")
        _, frames, _ = load_detections(str(path))
        assert set(frames) == {0}


class TestTracksStream:
    def tracked_outputs(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(len(spec.categories)))
        outputs = []
        for frame in range(4):
            pose = make_pose(
                frame_index=frame,
                **{
                    c: (x + 2.0 * frame, y)
                    for c, (x, y) in square_pose.coords.items()
                },
            )
            outputs.append(tracker.step([pose], frame_index=frame))
        return outputs

    def test_round_trip(self, spec, square_pose, tmp_path):
        outputs = self.tracked_outputs(spec, square_pose)
        path = tmp_path / "tracks.jsonl"
        save_tracks(str(path), HEADER, outputs)
        header, loaded = load_tracks(str(path))
        assert header == HEADER
        assert [o.frame_index for o in loaded] == [0, 1, 2, 3]
        for original, recovered in zip(outputs, loaded):
            assert len(original.records) == len(recovered.records)
            for ra, rb in zip(original.records, recovered.records):
                assert ra.tracklet_id == rb.tracklet_id
                assert rb.imputed == ra.imputed
                assert rb.alpha == (None if ra.alpha is None else pytest.approx(ra.alpha))
                assert rb.psi == (None if ra.psi is None else pytest.approx(ra.psi))
                for cat in spec.categories:
                    assert rb.posterior.get(cat) == pytest.approx(ra.posterior.get(cat))
                if ra.prior is None:
                    assert rb.prior is None
                else:
                    for cat in spec.categories:
                        assert rb.prior.get(cat) == pytest.approx(ra.prior.get(cat))

    def test_frames_sorted_on_save(self, spec, square_pose, tmp_path):
        outputs = self.tracked_outputs(spec, square_pose)
        path = tmp_path / "tracks.jsonl"
        save_tracks(str(path), HEADER, list(reversed(outputs)))
        _, loaded = load_tracks(str(path))
        assert [o.frame_index for o in loaded] == [0, 1, 2, 3]

    def test_duplicate_frame_rejected(self, spec, square_pose, tmp_path):
        path = tmp_path / "tracks.jsonl"
        save_tracks(str(path), HEADER, self.tracked_outputs(spec, square_pose))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[2]]) + "\n")
        with pytest.raises(ValueError) as info:
            load_tracks(str(path))
        assert str(info.value) == f"{path} line 6: duplicate frame 1"

    def test_missing_observation_rejected(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        record = {
            "frame_index": 0,
            "tracklets": [
                {"id": 1, "observed": None, "prior": None, "posterior": {}, "imputed": []}
            ],
        }
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "format": "keytrack-tracks",
                        "version": 1,
                        "skeleton": "s",
                        "width": 10,
                        "height": 10,
                    }
                )
                + "\n"
            )
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="without observation"):
            load_tracks(str(path))

    def test_tracklet_missing_field(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        record = {"frame_index": 0, "tracklets": [{"id": 1}]}
        with open(path, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "format": "keytrack-tracks",
                        "version": 1,
                        "skeleton": "s",
                        "width": 10,
                        "height": 10,
                    }
                )
                + "\n"
            )
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="line 2: tracklet missing field"):
            load_tracks(str(path))

    def test_non_finite_posterior_rejected(self, spec, square_pose, tmp_path):
        path = tmp_path / "tracks.jsonl"
        save_tracks(str(path), HEADER, self.tracked_outputs(spec, square_pose))
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["tracklets"][0]["posterior"]["nose"] = [math.nan, 1.0]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_tracks(str(path))
        assert str(info.value).startswith(f"{path} line 3: non-finite coordinates for 'nose'")


# ---------------------------------------------------------------------------
# fuzzed JSONL readers: every input parses or raises ValueError


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_coords = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=4),  # wrong lengths included
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).map(list),
    _json,
)
_pose = st.one_of(
    st.dictionaries(st.sampled_from(["withers", "head", "nose", "x"]), st.none() | _coords, max_size=3),
    _json,
)


def _maybe(field_strategy, wrong=_json):
    """The field's plausible value, a value of the wrong type, or no field at all."""
    return st.one_of(field_strategy, wrong, st.just(_MISSING))


_MISSING = object()
_frame_index = st.integers(min_value=-3, max_value=5)
_detection_record = st.fixed_dictionaries(
    {"frame_index": _maybe(_frame_index), "poses": _maybe(st.lists(_pose, max_size=3))}
)
_tracklet = st.fixed_dictionaries(
    {
        "id": _maybe(st.integers(0, 5)),
        "observed": _maybe(_pose),
        "prior": _maybe(_pose),
        "posterior": _maybe(_pose),
        "imputed": _maybe(st.lists(st.sampled_from(["head", "nose"]), max_size=2)),
        "alpha": _maybe(st.floats(0.0, 1.0)),
        "gamma": _maybe(st.floats(0.0, 1.0)),
        "psi": _maybe(st.floats(0.0, 50.0) | st.none()),
    }
)
_track_record = st.one_of(
    st.fixed_dictionaries(
        {"frame_index": _maybe(_frame_index), "tracklets": _maybe(st.lists(_tracklet, max_size=2))}
    ),
    _json,
)


def _present(value):
    """``value`` with the fields drawn as missing left out, at any depth."""
    if isinstance(value, dict):
        return {k: _present(v) for k, v in value.items() if v is not _MISSING}
    if isinstance(value, list):
        return [_present(v) for v in value]
    return value


def _render(record, cut):
    text = json.dumps(_present(record))
    return text if cut is None else text[: cut % (len(text) + 1)]  # truncated line


def _stream(fmt, records):
    header = {"format": fmt, "version": 1, "skeleton": "cattle-dorsal", "width": 960, "height": 720}
    return st.tuples(
        st.one_of(st.just(header), _json),
        st.lists(st.tuples(records, st.none() | st.integers(0, 200)), max_size=4),
    ).map(lambda drawn: "\n".join([json.dumps(drawn[0])] + [_render(r, c) for r, c in drawn[1]]))


def _parses_or_value_error(loader, path, text):
    path.write_text(text, encoding="utf-8")
    try:
        loader(str(path))
    except ValueError:
        pass


@settings(deadline=None, max_examples=300)
@given(text=_stream("keytrack-detections", _detection_record | _json))
def test_fuzzed_detections_parse_or_raise_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "det.jsonl"
    _parses_or_value_error(load_detections, path, text)


@settings(deadline=None, max_examples=300)
@given(text=_stream("keytrack-tracks", _track_record))
def test_fuzzed_tracks_parse_or_raise_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "tracks.jsonl"
    _parses_or_value_error(load_tracks, path, text)


@pytest.mark.parametrize(
    "record, message",
    [
        ([0, []], "a record must be a JSON object"),
        ({"frame_index": None, "poses": []}, "frame_index must be an integer"),
        ({"frame_index": 1.5, "poses": []}, "frame_index must be an integer"),
        ({"frame_index": 0, "poses": {"withers": [1, 2]}}, "poses must be a list"),
        ({"frame_index": 0, "poses": [[1, 2]]}, "a pose must be an object or null"),
        ({"frame_index": 0, "poses": [{"withers": [10**400, 1]}]}, "malformed coordinates"),
    ],
)
def test_wrongly_typed_detection_records_rejected(tmp_path, record, message):
    path = tmp_path / "det.jsonl"
    save_detections(str(path), HEADER, {})
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_detections(str(path))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("id", "1", "tracklet id must be an integer"),
        ("imputed", "nose", "imputed must be a list"),
        ("alpha", "0.5", "alpha must be a number or null"),
        ("posterior", None, "tracklet record without posterior"),
    ],
)
def test_wrongly_typed_track_fields_rejected(tmp_path, field, value, message):
    item = {"id": 1, "observed": {"withers": [1.0, 2.0]}, "posterior": {"withers": [1.0, 2.0]}}
    item[field] = value
    path = tmp_path / "tracks.jsonl"
    save_tracks(str(path), HEADER, [])
    with open(path, "a") as handle:
        handle.write(json.dumps({"frame_index": 0, "tracklets": [item]}) + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_tracks(str(path))


@pytest.mark.parametrize("loader", [load_detections, load_tracks])
@pytest.mark.parametrize(
    "field, value",
    [("width", -5), ("width", 0), ("height", 0), ("width", "960"), ("height", 720.5), ("width", True)],
)
def test_header_size_must_be_a_positive_integer(tmp_path, loader, field, value):
    fmt = "keytrack-detections" if loader is load_detections else "keytrack-tracks"
    header = {"format": fmt, "version": 1, "skeleton": "s", "width": 960, "height": 720, field: value}
    path = tmp_path / "stream.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 1: header {field} must be a positive integer")):
        loader(str(path))


def test_header_must_be_an_object(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="line 1: the header must be a JSON object"):
        load_detections(str(path))

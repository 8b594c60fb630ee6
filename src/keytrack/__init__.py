"""Keypoint map codec, skeleton assembly and multi-animal tracking."""

from .assembly import assemble, association_penalty
from .assignment import greedy_assign, hungarian
from .io import (
    StreamHeader,
    default_skeleton,
    load_detections,
    load_scenario,
    load_skeleton,
    load_tracks,
    save_detections,
    save_tracks,
)
from .keysort import KeySortTracker, TrackerConfig
from .maps import EncoderParams, decode_candidates, encode, load_maps, pose_sigmas, save_maps
from .metrics import (
    PRReport,
    evaluate_poses,
    evaluate_tracks,
    pair_skeletons,
    precision_recall,
)
from .simulate import (
    RegimeSegment,
    ScenarioConfig,
    corrupt,
    generate,
    parallel_rows_scene,
    regime_switch_demo,
)
from .skeleton import Pose, SkeletonSpec, is_valid_pose

__version__ = "1.0.0"

__all__ = [
    "EncoderParams",
    "KeySortTracker",
    "Pose",
    "PRReport",
    "RegimeSegment",
    "ScenarioConfig",
    "SkeletonSpec",
    "StreamHeader",
    "TrackerConfig",
    "assemble",
    "association_penalty",
    "corrupt",
    "decode_candidates",
    "default_skeleton",
    "encode",
    "evaluate_poses",
    "evaluate_tracks",
    "generate",
    "greedy_assign",
    "hungarian",
    "is_valid_pose",
    "load_detections",
    "load_maps",
    "load_scenario",
    "load_skeleton",
    "load_tracks",
    "pair_skeletons",
    "parallel_rows_scene",
    "pose_sigmas",
    "precision_recall",
    "regime_switch_demo",
    "save_detections",
    "save_maps",
    "save_tracks",
]

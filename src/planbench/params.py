"""Planner parameter files: a ``common`` section plus per-planner sections.

Each key lives in one section: ``common`` holds the one ``edge_step`` both
planners check edges at, and RRT-Connect's ``seed``.  Unknown keys anywhere
in the document, a per-planner ``edge_step`` or ``seed`` among them, are
rejected at load time so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .ara_star import AraParams
from .errors import ValidationError, check_keys, parse_mapping, read_text
from .rrt_connect import RrtParams

_COMMON_KEYS = {"edge_step", "goal_tolerance_default", "seed"}
_RRT_KEYS = {"step_eta", "max_iterations"}
_ARA_KEYS = {"epsilon_schedule"}
_TOP_KEYS = {"common", "rrt_connect", "ara_star"}
_FLOAT_KEYS = {"edge_step", "goal_tolerance_default", "step_eta"}


@dataclass(frozen=True)
class PlannerParams:
    """Validated parameters for both planners, which share one edge step."""

    goal_tolerance_default: float = 0.0
    rrt_connect: RrtParams = RrtParams()
    ara_star: AraParams = AraParams()

    def __post_init__(self):
        if not 0.0 <= self.goal_tolerance_default < math.inf:
            raise ValidationError("goal_tolerance_default must be finite and >= 0")
        if self.rrt_connect.edge_step != self.ara_star.edge_step:
            raise ValidationError("rrt_connect and ara_star must share one edge_step")

    def with_seed(self, seed: int) -> "PlannerParams":
        """These params with RRT-Connect's seed replaced; ARA* draws no
        random numbers."""
        return replace(self, rrt_connect=replace(self.rrt_connect, seed=seed))


def _section(doc: dict, name: str, keys) -> dict:
    """The keys present in section ``name``, scalars converted to float; the
    dataclasses supply every default."""
    section = dict(check_keys(doc.get(name) or {}, f"{name} section", keys))
    for key in _FLOAT_KEYS & section.keys():
        section[key] = float(section[key])
    if not isinstance(section.get("epsilon_schedule", ()), (list, tuple)):
        raise ValidationError("epsilon_schedule must be a list of scalars")
    return section


def _build(doc: dict) -> PlannerParams:
    common = _section(doc, "common", _COMMON_KEYS)
    shared = {key: common.pop(key) for key in ("edge_step", "seed") if key in common}
    rrt = RrtParams(**shared, **_section(doc, "rrt_connect", _RRT_KEYS))
    shared.pop("seed", None)  # ARA* draws no random numbers
    ara = AraParams(**shared, **_section(doc, "ara_star", _ARA_KEYS))
    return PlannerParams(**common, rrt_connect=rrt, ara_star=ara)


def parse_params(text: str) -> PlannerParams:
    """Parse a planner parameters document; an empty one gives the defaults."""
    return parse_mapping(text, "params", _TOP_KEYS, _build)


def load_params(path: str | Path) -> PlannerParams:
    """Load a planner parameters file."""
    return parse_params(read_text(path))

"""Planner parameter files: a ``common`` section plus per-planner sections.

Each key is a field of ``PlannerParams``, ``RrtParams`` or ``AraParams`` in
one section; ``common`` holds the ``edge_step`` both planners share.  Unknown
keys, a per-planner ``edge_step`` or a ``seed`` (a run argument) among them,
are rejected at load time so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .ara_star import AraParams
from .errors import ValidationError, check_keys, parse_mapping, read_text, real
from .rrt_connect import RrtParams

_SECTION_KEYS = {"common": {"edge_step", "goal_tolerance_default"},
                 "rrt_connect": {"step_eta", "max_iterations"},
                 "ara_star": {"epsilon_schedule"}}


@dataclass(frozen=True)
class PlannerParams:
    """Validated parameters for both planners, which share one edge step."""

    goal_tolerance_default: float = 0.0
    rrt_connect: RrtParams = RrtParams()
    ara_star: AraParams = AraParams()

    def __post_init__(self):
        object.__setattr__(self, "goal_tolerance_default",
                           real(self.goal_tolerance_default, "goal_tolerance_default"))
        if self.goal_tolerance_default < 0:
            raise ValidationError("goal_tolerance_default must be >= 0")
        if self.rrt_connect.edge_step != self.ara_star.edge_step:
            raise ValidationError("rrt_connect and ara_star must share one edge_step")


def _build(doc: dict) -> PlannerParams:
    # Each section holds only the keys set in it; the dataclasses check
    # every value and supply every default.
    common, rrt, ara = (dict(check_keys(doc.get(name) or {}, f"{name} section", keys))
                        for name, keys in _SECTION_KEYS.items())
    shared = {"edge_step": common.pop("edge_step")} if "edge_step" in common else {}
    return PlannerParams(**common, rrt_connect=RrtParams(**shared, **rrt),
                         ara_star=AraParams(**shared, **ara))


def parse_params(text: str) -> PlannerParams:
    """Parse a planner parameters document; an empty one gives the defaults."""
    return parse_mapping(text, "params", _SECTION_KEYS, _build)


def load_params(path: str | Path) -> PlannerParams:
    """Load a planner parameters file."""
    return parse_params(read_text(path))

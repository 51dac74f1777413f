"""Planner parameter files: a ``common`` section plus per-planner sections.

Unknown keys anywhere in the document are rejected at load time so typos
cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .ara_star import AraParams
from .errors import ValidationError, check_keys, parse_mapping
from .rrt_connect import RrtParams

_COMMON_KEYS = {"edge_step", "goal_tolerance_default", "seed"}
_RRT_KEYS = {"step_eta", "edge_step", "max_iterations", "seed"}
_ARA_KEYS = {"epsilon_schedule", "edge_step", "budget_split"}
_TOP_KEYS = {"common", "rrt_connect", "ara_star"}


@dataclass(frozen=True)
class PlannerParams:
    """Validated parameters for both planners plus the shared defaults."""

    goal_tolerance_default: float = 0.0
    rrt_connect: RrtParams = RrtParams()
    ara_star: AraParams = AraParams()

    def with_seed(self, seed: int) -> "PlannerParams":
        """These params with RRT-Connect's seed replaced; ARA* draws no
        random numbers."""
        return replace(self, rrt_connect=replace(self.rrt_connect, seed=seed))


def _build(doc: dict) -> PlannerParams:
    common = check_keys(doc.get("common") or {}, "common section", _COMMON_KEYS)
    edge_step = float(common.get("edge_step", 0.05))
    goal_tolerance_default = float(common.get("goal_tolerance_default", 0.0))

    rrt_doc = check_keys(doc.get("rrt_connect") or {}, "rrt_connect section", _RRT_KEYS)
    rrt = RrtParams(
        step_eta=float(rrt_doc.get("step_eta", 0.5)),
        edge_step=float(rrt_doc.get("edge_step", edge_step)),
        max_iterations=rrt_doc.get("max_iterations"),
        seed=rrt_doc.get("seed", common.get("seed", 0)),
    )

    ara_doc = check_keys(doc.get("ara_star") or {}, "ara_star section", _ARA_KEYS)
    schedule = ara_doc.get("epsilon_schedule", (3.0, 2.0, 1.5, 1.0))
    if not isinstance(schedule, (list, tuple)):
        raise ValidationError("epsilon_schedule must be a list of scalars")
    ara = AraParams(
        epsilon_schedule=tuple(float(e) for e in schedule),
        edge_step=float(ara_doc.get("edge_step", edge_step)),
        budget_split=float(ara_doc.get("budget_split", 0.5)),
    )
    return PlannerParams(goal_tolerance_default=goal_tolerance_default,
                         rrt_connect=rrt, ara_star=ara)


def parse_params(text: str) -> PlannerParams:
    """Parse a planner parameters document; an empty one gives the defaults."""
    return parse_mapping(text, "params", _TOP_KEYS, _build)


def load_params(path: str | Path) -> PlannerParams:
    """Load a planner parameters file."""
    return parse_params(Path(path).read_text(encoding="utf-8"))

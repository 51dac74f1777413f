"""Motion planning on a shared substrate: RRT-Connect and ARA* over motion
primitives, plus the benchmark harness that compares them."""

from .ara_star import AraParams, default_primitives, plan_ara_star
from .bench import (RunRecord, SuiteAggregate, aggregate, emit_csv, emit_table, plan,
                    run_one, run_suite)
from .core import Query, validate_path
from .errors import (ContractViolation, ParseError, PlanbenchError,
                     ValidationError)
from .params import PlannerParams, load_params
from .rrt_connect import RrtParams, plan_rrt_connect
from .world import GoalSpec, generate_variations, load_scenario

__version__ = "0.1.0"

"""Planner parameter files: defaults, propagation, strict key checking."""

import dataclasses
import math

import numpy as np
import pytest

from planbench import bench
from planbench.ara_star import AraParams
from planbench.core import UNSOLVABLE, query_from_scenario
from planbench.data import data_path
from planbench.errors import ValidationError
from planbench.params import _SECTION_KEYS, PlannerParams, load_params, parse_params
from planbench.rrt_connect import RrtParams, plan_rrt_connect
from planbench.world import WorldModel, load_scenario
from oracles import sphere_obstacle


def shelf_easy():
    return load_scenario(data_path("scenarios", "shelf_easy.yaml"))


def rrt_args(scenario, params=PlannerParams()):
    """The arguments before the seed with which ``bench.plan`` calls
    ``plan_rrt_connect`` for ``scenario``."""
    query = query_from_scenario(scenario, params.goal_tolerance_default)
    return scenario.robot, scenario.world, query, params.rrt_connect


class TestParseParams:
    def test_empty_document_gives_defaults(self):
        params = parse_params("")
        assert params.rrt_connect.step_eta == 0.5
        assert params.rrt_connect.max_iterations is None
        assert params.ara_star.epsilon_schedule == (3.0, 2.0, 1.5, 1.0)
        assert params.goal_tolerance_default == 0.0

    def test_default_file_holds_the_built_in_defaults(self):
        # The file's header says its values are also the built-in defaults.
        assert load_params(data_path("params", "default.yaml")) == PlannerParams()

    def test_common_values_propagate(self):
        params = parse_params("common: {edge_step: 0.02, goal_tolerance_default: 0.1}\n")
        assert params.rrt_connect.edge_step == 0.02
        assert params.ara_star.edge_step == 0.02
        assert params.goal_tolerance_default == 0.1

    def test_sections_take_the_common_edge_step(self):
        doc = ("common: {edge_step: 0.02}\n"
               "rrt_connect: {step_eta: 0.7, max_iterations: 500}\n"
               "ara_star: {epsilon_schedule: [2.5, 1.0]}\n")
        params = parse_params(doc)
        assert params.rrt_connect.edge_step == params.ara_star.edge_step == 0.02
        assert params.rrt_connect.step_eta == 0.7
        assert params.rrt_connect.max_iterations == 500
        assert params.ara_star.epsilon_schedule == (2.5, 1.0)

    @pytest.mark.parametrize("doc", [
        "rrt_connect: {edge_step: 0.1}\n",
        "ara_star: {edge_step: 0.1}\n",
        "common: {edge_step: 0.1}\nrrt_connect: {edge_step: 0.1}\n",
        "rrt_connect: {seed: 3}\n",
        "common: {seed: 0}\n",
    ])
    def test_per_section_edge_step_and_seed_rejected(self, doc):
        # Both planners check edges at the one common edge_step, and the
        # seed is a run argument (``bench`` gives each run its own), a key
        # of no section.
        with pytest.raises(ValidationError, match="unknown"):
            parse_params(doc)

    def test_planners_must_share_the_edge_step(self):
        with pytest.raises(ValidationError, match="edge_step"):
            PlannerParams(rrt_connect=RrtParams(edge_step=0.1))

    @pytest.mark.parametrize("doc", [
        "unknown_top: 1\n",
        "common: {step: 0.1}\n",
        "rrt_connect: {eta: 0.5}\n",
        "ara_star: {schedule: [1.0]}\n",
        "ara_star: {seed: 3}\n",  # the seed is a run argument
        "ara_star: {budget_split: 0.5}\n",  # the forward half is a constant
    ])
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ValidationError):
            parse_params(doc)

    def test_malformed_values_rejected(self):
        with pytest.raises(ValidationError):
            parse_params("ara_star: {epsilon_schedule: 3.0}\n")
        with pytest.raises(ValidationError):
            parse_params("rrt_connect: {step_eta: fast}\n")
        with pytest.raises(ValidationError):
            parse_params("ara_star: {epsilon_schedule: [1.0, 2.0]}\n")  # increasing

    @pytest.mark.parametrize("doc", [
        "common: {seed: -3}\n",
        "common: {seed: -1}\n",
        "common: {seed: 1.5}\n",  # not truncated to seed 1
        "common: {seed: true}\n",
        "rrt_connect: {max_iterations: 2.7}\n",  # not truncated to 2
    ])
    def test_invalid_rrt_integers_rejected(self, doc):
        # A document sets no seed, whatever its value: the key is unknown.
        match = r"unknown common section keys: \['seed'\]" if "seed" in doc else "max_iter"
        with pytest.raises(ValidationError, match=match):
            parse_params(doc)

    @pytest.mark.parametrize("seed", [-3, -1, 1.5, True])  # 1.5 is not truncated to 1
    def test_invalid_seed_values_rejected_in_code(self, seed):
        scenario = shelf_easy()
        with pytest.raises(ValidationError, match="seed"):
            plan_rrt_connect(*rrt_args(scenario), seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            bench.plan(scenario, bench.RRT_CONNECT, PlannerParams(), seed=seed)

    def test_section_keys_are_the_dataclass_fields(self):
        # Every field of a params class is a document key, so a run argument
        # such as the seed cannot come back into one unnoticed.
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert _SECTION_KEYS["rrt_connect"] == names(RrtParams) - {"edge_step"}
        assert _SECTION_KEYS["ara_star"] == names(AraParams) - {"edge_step"}
        assert _SECTION_KEYS["common"] == (
            {"edge_step"} | names(PlannerParams) - {"rrt_connect", "ara_star"})

    @pytest.mark.parametrize("doc", [
        "rrt_connect: {step_eta: .nan}\n",
        "rrt_connect: {step_eta: .inf}\n",
        "common: {edge_step: .inf}\n",
        "ara_star: {epsilon_schedule: [.nan]}\n",
        "ara_star: {epsilon_schedule: [.inf, 1.0]}\n",
        "ara_star: {epsilon_schedule: [3.0, .nan, 1.0]}\n",
    ])
    def test_non_finite_values_rejected(self, doc):
        # NaN fails every ordered comparison and inf passes every lower
        # bound, so only an explicit finite bound stops them before a NaN
        # step_eta aborts a suite in motion sampling or a NaN or inf factor
        # makes search keys NaN.
        with pytest.raises(ValidationError, match="finite"):
            parse_params(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_constructor_values_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            RrtParams(step_eta=value)
        with pytest.raises(ValidationError, match="finite"):
            RrtParams(edge_step=value, step_eta=value)
        with pytest.raises(ValidationError, match="finite"):
            AraParams(epsilon_schedule=(value,))
        with pytest.raises(ValidationError, match="finite"):
            AraParams(epsilon_schedule=(value, 1.0))
        with pytest.raises(ValidationError, match="finite"):
            AraParams(edge_step=value)

    @pytest.mark.parametrize("text, value", [(".nan", math.nan), (".inf", math.inf),
                                             ("-0.1", -0.1)])
    def test_goal_tolerance_default_must_be_finite_and_nonnegative(self, text, value):
        # query_from_scenario applies only a tolerance > 0, so NaN or a
        # negative value would silently mean none, and an infinite one would
        # make every configuration within limits satisfy a config goal.
        match = r"goal_tolerance_default must be (a finite real number|>= 0)"
        with pytest.raises(ValidationError, match=match):
            parse_params(f"common: {{goal_tolerance_default: {text}}}\n")
        with pytest.raises(ValidationError, match=match):
            PlannerParams(goal_tolerance_default=value)

    def test_with_negative_seed_rejected(self):
        # The seed is checked first: a bad one is an error even for a query
        # that is unsolvable before any sample is drawn.
        scenario = shelf_easy()
        blocked = dataclasses.replace(scenario, world=WorldModel(
            (sphere_obstacle((0.0, 0.0, 0.0), 5.0),)))
        robot, world, query, params = rrt_args(blocked)
        assert plan_rrt_connect(robot, world, query, params, 0).status == UNSOLVABLE
        with pytest.raises(ValidationError, match="seed must be at least 0"):
            plan_rrt_connect(robot, world, query, params, -1)

    def test_plan_passes_the_seed_to_rrt_connect(self):
        scenario = shelf_easy()
        params = PlannerParams(goal_tolerance_default=0.1)
        paths = []
        for seed in (0, 1):
            ours = bench.plan(scenario, bench.RRT_CONNECT, params, seed=seed)
            direct = plan_rrt_connect(*rrt_args(scenario, params), seed=seed)
            assert ours.path.waypoints.tobytes() == direct.path.waypoints.tobytes()
            assert ours.stats == direct.stats
            paths.append(ours.path.waypoints)
        assert not np.array_equal(*paths)  # the seeds give different paths

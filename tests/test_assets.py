"""Shipped data assets: everything loads and the scenarios are well-posed."""

import numpy as np

from planbench.collision import check_config
from planbench.core import OK, query_from_scenario, validate_query
from planbench.data import data_path
from planbench.params import load_params
from planbench.robot import load_robot
from planbench.world import load_scenario


def test_reference_robot_loads():
    robot = load_robot(data_path("robots", "arm8.yaml"))
    assert robot.dof == 8
    kinds = [j.type for j in robot.joints]
    assert kinds.count("prismatic") == 1
    assert kinds.count("revolute") == 7
    assert len(robot.spheres) == 10
    # Resolutions divide every joint range exactly (integer cell counts).
    spans = robot.upper - robot.lower
    cells = spans / robot.resolutions
    assert np.allclose(cells, np.round(cells), atol=1e-9)


def test_params_files_load():
    default = load_params(data_path("params", "default.yaml"))
    assert default.ara_star.epsilon_schedule == (3.0, 2.0, 1.5, 1.0)
    tuned = load_params(data_path("params", "shelf_tuned.yaml"))
    assert tuned.ara_star.epsilon_schedule == (3.0,)


def test_scenarios_load_and_are_well_posed():
    for name in ("shelf_easy.yaml", "shelf_reach.yaml"):
        scenario = load_scenario(data_path("scenarios", name))
        assert scenario.robot.dof == 8
        assert scenario.time_budget == 5.0
        assert check_config(scenario.robot, scenario.world, scenario.start)
        assert check_config(scenario.robot, scenario.world, scenario.goal.target)
        query = query_from_scenario(scenario)
        assert validate_query(scenario.robot, scenario.world, query) == OK


def test_bench_base_declares_variation_convention():
    scenario = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    var = scenario.variation
    assert var is not None
    assert set(var.shelf_indices) == {0, 1, 2, 3, 4}
    assert set(var.object_indices) == {5, 6}
    assert all(scenario.world.obstacles[i].shape == "cylinder"
               for i in var.object_indices)

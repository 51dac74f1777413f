"""Command-line interface, exercised in-process through main()."""

import pytest

from planbench.bench import plan
from planbench.params import PlannerParams
from planbench.cli import main
from planbench.data import data_path
from planbench.world import load_scenario

from conftest import csv_rows

GANTRY_ROBOT = """
joints:
  - {name: x, type: prismatic, axis: [1, 0, 0], limits: [0.0, 6.0], resolution: 0.25}
  - {name: y, type: prismatic, axis: [0, 1, 0], limits: [0.0, 6.0], resolution: 0.25}
collision_spheres:
  - {link: 1, center: [0, 0, 0], radius: 0.05}
"""

SCENARIO = """
name: cli_case
robot: gantry.yaml
start: [1.0, 1.0]
goal: {type: config, target: [5.0, 5.0]}
world:
  obstacles:
    - {shape: box, center: [3.0, 3.0, 0.0], yaw: 0.0, half_extents: [0.2, 1.5, 0.5]}
    - {shape: cylinder, center: [2.5, 4.8, 0.0], yaw: 0.0, radius: 0.1, half_height: 0.3}
time_budget_s: 5.0
variation:
  object_jitter_xy: 0.1
  height_range: 0.0
  yaw_range_deg: 10
  shelf_indices: [0]
  object_indices: [1]
"""

BLOCKED = """
name: blocked
robot: gantry.yaml
start: [1.0, 1.0]
goal: {type: config, target: [5.0, 5.0]}
world:
  obstacles:
    - {shape: sphere, center: [1.0, 1.0, 0.0], radius: 0.3}
time_budget_s: 1.0
"""

# A wall 0.1 thick at x = 3 that the straight motion (2.75, 3) -> (3.75, 3)
# crosses between its samples at step 0.5 (x = 2.75, 3.25, 3.75).
THIN_WALL = """
name: thin_wall
robot: gantry.yaml
start: [2.75, 3.0]
goal: {type: config, target: [3.75, 3.0]}
world:
  obstacles:
    - {shape: box, center: [3.0, 3.0, 0.0], yaw: 0.0, half_extents: [0.05, 1.5, 0.5]}
time_budget_s: 1.0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "gantry.yaml").write_text(GANTRY_ROBOT)
    (tmp_path / "case.scenario").write_text(SCENARIO)
    (tmp_path / "blocked.scenario").write_text(BLOCKED)
    (tmp_path / "thin_wall.scenario").write_text(THIN_WALL)
    return tmp_path


class TestPlan:
    def test_solved_exit_zero(self, workdir, capsys):
        code = main(["plan", "--scenario", str(workdir / "case.scenario"),
                     "--planner", "rrt-connect", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: solved-forward" in out
        assert "path_cost:" in out

    def test_unsolvable_exit_two(self, workdir, capsys):
        code = main(["plan", "--scenario", str(workdir / "blocked.scenario"),
                     "--planner", "ara-star"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unsolvable (start_in_collision)" in out
        assert out.splitlines()[-3:] == [
            "collision_checks: 0", "expansions: 0", "reopened: 0"]

    @pytest.mark.parametrize("planner", ["ara-star", "rrt-connect"])
    def test_prints_counters(self, workdir, capsys, planner):
        scenario_file = workdir / "case.scenario"
        code = main(["plan", "--scenario", str(scenario_file), "--planner", planner,
                     "--seed", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        stats = plan(load_scenario(scenario_file), planner, PlannerParams(), 4).stats
        assert lines[-len(stats):] == [f"{k}: {v}" for k, v in sorted(stats.items())]
        if planner == "ara-star":
            assert f"collision_checks: {stats['collision_checks']}" in lines
            assert f"expansions: {stats['expansions']}" in lines
            assert stats["expansions"] > 0

    def test_path_out_then_validate(self, workdir, capsys):
        path_file = workdir / "solution.csv"
        code = main(["plan", "--scenario", str(workdir / "case.scenario"),
                     "--planner", "ara-star", "--path-out", str(path_file)])
        assert code == 0
        assert path_file.exists()
        code = main(["validate", "--scenario", str(workdir / "case.scenario"),
                     "--path", str(path_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid" in out

    def test_validate_rejects_corrupted_path(self, workdir, capsys):
        path_file = workdir / "solution.csv"
        main(["plan", "--scenario", str(workdir / "case.scenario"),
              "--planner", "ara-star", "--path-out", str(path_file)])
        lines = path_file.read_text().splitlines()
        lines[1] = "3.0,3.0"  # teleport the first waypoint into the wall
        path_file.write_text("\n".join(lines) + "\n")
        code = main(["validate", "--scenario", str(workdir / "case.scenario"),
                     "--path", str(path_file)])
        assert code == 1

    def test_validate_header_less_path_file(self, tmp_path, capsys):
        # A first row of dof numbers is the first waypoint, not a header.
        scenario = str(data_path("scenarios", "shelf_easy.yaml"))
        path_file = tmp_path / "solution.csv"
        assert main(["plan", "--scenario", scenario, "--planner", "ara-star",
                     "--path-out", str(path_file)]) == 0
        header, *rows = path_file.read_text().splitlines(keepends=True)
        assert header.startswith("q0,")
        path_file.write_text("".join(rows))
        capsys.readouterr()
        code = main(["validate", "--scenario", scenario, "--path", str(path_file)])
        assert (code, capsys.readouterr().out) == (0, "valid\n")

    @pytest.mark.parametrize("extra, verdict", [
        ([], "invalid"), (["--params", "coarse.yaml"], "valid"),
        (["--params", "coarse.yaml", "--step", "0.05"], "invalid")])
    def test_validate_checks_at_the_params_edge_step(self, workdir, capsys, monkeypatch,
                                                     extra, verdict):
        # Without --step, validate samples each segment at the loaded params'
        # edge_step (0.05 by default); an explicit --step wins.
        monkeypatch.chdir(workdir)
        (workdir / "coarse.yaml").write_text("common: {edge_step: 0.5}\n")
        (workdir / "crossing.csv").write_text("q0,q1\n2.75,3.0\n3.75,3.0\n")
        main(["validate", "--scenario", "thin_wall.scenario", "--path", "crossing.csv",
              *extra])
        assert capsys.readouterr().out == f"{verdict}\n"

    @staticmethod
    def validate_rows(workdir, capsys, rows):
        path_file = workdir / "bad.csv"
        path_file.write_text("q0,q1\n1.0,1.0\n" + rows + "5.0,5.0\n")
        code = main(["validate", "--scenario", str(workdir / "case.scenario"),
                     "--path", str(path_file)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        return path_file, captured.err.splitlines()

    @pytest.mark.parametrize("rows, line", [
        ("2.0,abc\n", 3), ("2.0\n", 3), ("2.0,2.0,2.0\n", 3), ("\n2.0,2.0,\n", 4)],
        ids=["non_numeric", "short_row", "long_row", "after_blank_line"])
    def test_validate_malformed_path_file_reports_error(self, workdir, capsys, rows, line):
        # A non-numeric cell or a row whose length is not the robot's dof is
        # an error naming the file and the line, not a traceback or "invalid".
        path_file, err = self.validate_rows(workdir, capsys, rows)
        assert len(err) == 1
        assert err[0].startswith(f"error: line {line}: path file {path_file}: expected 2")

    def test_numeric_first_row_of_wrong_length_reports_error(self, workdir, capsys):
        # Only a row with a non-numeric cell is a header; a numeric first
        # row of three values was once skipped as one.
        path_file = workdir / "bad.csv"
        path_file.write_text("1.0,1.0,7.0\n3.0,1.0\n")
        code = main(["validate", "--scenario", str(workdir / "case.scenario"),
                     "--path", str(path_file)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: line 1: path file {path_file}: expected 2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_validate_non_finite_waypoint_reports_error(self, workdir, capsys, value):
        _, err = self.validate_rows(workdir, capsys, f"{value},2.0\n")
        assert err == ["error: path waypoints must be finite"]

    def test_malformed_scenario_reports_error(self, workdir, capsys):
        bad = workdir / "bad.scenario"
        bad.write_text(SCENARIO.replace("time_budget_s: 5.0", "time_budget_s: abc"))
        code = main(["plan", "--scenario", str(bad), "--planner", "rrt-connect"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["2024-13-45", "7" * 5000, "[" * 2000 + "]" * 2000],
                             ids=["bad_date", "long_integer", "deep_nesting"])
    def test_unconstructible_scenario_value_reports_error(self, workdir, capsys, value):
        bad = workdir / "bad.scenario"
        bad.write_text(SCENARIO.replace("time_budget_s: 5.0", f"time_budget_s: {value}"))
        code = main(["plan", "--scenario", str(bad), "--planner", "rrt-connect"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed scenario document: ")

    def test_validate_rejects_an_infinite_step(self, workdir, capsys, monkeypatch):
        # At step inf only the end configuration would be checked, and the
        # motion through the wall would read "valid".
        monkeypatch.chdir(workdir)
        (workdir / "crossing.csv").write_text("q0,q1\n2.75,3.0\n3.75,3.0\n")
        code = main(["validate", "--scenario", "thin_wall.scenario", "--path", "crossing.csv",
                     "--step", "inf"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: motion step must be positive and finite")

    @pytest.mark.parametrize("step", ["1e-300", "5e-324"])
    def test_validate_rejects_a_step_too_fine_to_count(self, workdir, capsys, monkeypatch,
                                                       step):
        # The segment would need more samples than an int64 counts.
        monkeypatch.chdir(workdir)
        (workdir / "crossing.csv").write_text("q0,q1\n2.75,3.0\n3.75,3.0\n")
        code = main(["validate", "--scenario", "thin_wall.scenario", "--path", "crossing.csv",
                     "--step", step])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (f"error: motion step {float(step)} gives more than "
                                "2**63 - 1 samples\n")

    @pytest.mark.parametrize("extra", [["--seed", "-1"], ["--params", "seed.yaml"]])
    def test_invalid_seed_reports_error(self, workdir, capsys, monkeypatch, extra):
        # A params document holds no seed, whatever its value: the seed is a
        # run argument.
        monkeypatch.chdir(workdir)
        (workdir / "seed.yaml").write_text("common: {seed: -3}\n")
        code = main(["plan", "--scenario", "case.scenario", "--planner", "rrt-connect",
                     *extra])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: seed must be" if extra[0] == "--seed"
            else "error: unknown common section keys: ['seed']")


class TestGen:
    def test_writes_count_files(self, workdir, capsys):
        out_dir = workdir / "suite" / "generated"
        code = main(["gen", "--base", str(workdir / "case.scenario"),
                     "--family", "objects", "--count", "5", "--seed", "9",
                     "--out", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.glob("*.scenario"))
        assert len(files) == 5
        names = [load_scenario(f).name for f in files]
        assert names == [f"cli_case_{i:03d}" for i in range(5)]

    def test_deterministic_and_loadable(self, workdir):
        out_a = workdir / "a"
        out_b = workdir / "b"
        for out in (out_a, out_b):
            main(["gen", "--base", str(workdir / "case.scenario"),
                  "--family", "rotation", "--count", "3", "--seed", "2",
                  "--out", str(out)])
        for fa, fb in zip(sorted(out_a.glob("*.scenario")),
                          sorted(out_b.glob("*.scenario"))):
            assert load_scenario(fa).world == load_scenario(fb).world

    def test_shelf_fixed_for_objects_family(self, workdir):
        out_dir = workdir / "objfam"
        main(["gen", "--base", str(workdir / "case.scenario"),
              "--family", "objects", "--count", "4", "--seed", "3",
              "--out", str(out_dir)])
        base = load_scenario(workdir / "case.scenario")
        for f in out_dir.glob("*.scenario"):
            scenario = load_scenario(f)
            assert scenario.world.obstacles[0] == base.world.obstacles[0]

    @pytest.mark.parametrize("count, seed, what", [("2", "-1", "seed"), ("0", "3", "count")])
    def test_invalid_count_or_seed_reports_error(self, workdir, capsys, count, seed, what):
        # A negative seed once reached numpy's generator and ended in its
        # traceback.
        code = main(["gen", "--base", str(workdir / "case.scenario"), "--family", "objects",
                     "--count", count, "--seed", seed, "--out", str(workdir / "g")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: variation {what} must be at least")
        assert not (workdir / "g").exists()


class TestBench:
    def test_bench_writes_csv_and_table(self, workdir, capsys):
        suite_dir = workdir / "suite"
        main(["gen", "--base", str(workdir / "case.scenario"),
              "--family", "objects", "--count", "3", "--seed", "1",
              "--out", str(suite_dir / "generated")])
        report_file = workdir / "report.csv"
        code = main(["bench", "--suite", str(suite_dir),
                     "--planners", "rrt-connect,ara-star",
                     "--reps", "1", "--seed", "0",
                     "--out", str(report_file), "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "planner: rrt-connect" in out
        assert "planner: ara-star" in out
        records = csv_rows(report_file.read_text())
        assert len(records) == 6
        assert {r["planner"] for r in records} == {"rrt-connect", "ara-star"}

    def test_bench_deterministic(self, workdir):
        suite_dir = workdir / "suite2"
        main(["gen", "--base", str(workdir / "case.scenario"),
              "--family", "objects", "--count", "2", "--seed", "1",
              "--out", str(suite_dir / "generated")])
        reports = []
        for name in ("r1.csv", "r2.csv"):
            target = workdir / name
            main(["bench", "--suite", str(suite_dir), "--planners", "rrt-connect",
                  "--reps", "2", "--seed", "3", "--out", str(target)])
            reports.append([(r["scenario"], r["seed"], r["status"], r["path_cost"])
                            for r in csv_rows(target.read_text())])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("option, value, what", [("--seed", "-1", "base_seed"),
                                                     ("--workers", "0", "workers")])
    def test_invalid_run_argument_reports_error(self, workdir, capsys, option, value,
                                                what):
        # A negative seed once gave an error record for the first run while
        # the others went on, and --workers 0 once ran serially.
        code = main(["bench", "--suite", str(workdir), "--planners", "rrt-connect,ara-star",
                     option, value, "--out", str(workdir / "r.csv"), "--table"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {what} must be at least")
        assert not (workdir / "r.csv").exists()

    def test_table_counts_error_records(self, workdir, capsys):
        # The primitives file is read for the first scene's two joints, so
        # the second scene's three-joint robot is a harness error.
        suite_dir = workdir / "suite4"
        suite_dir.mkdir()
        (suite_dir / "gantry.yaml").write_text(GANTRY_ROBOT)
        (suite_dir / "gantry3.yaml").write_text(GANTRY_ROBOT.replace("collision", (
            "  - {name: z, type: prismatic, axis: [0, 0, 1], limits: [0.0, 2.0], "
            "resolution: 0.25}\ncollision")))
        (suite_dir / "a.scenario").write_text(SCENARIO)
        (suite_dir / "b.scenario").write_text(
            SCENARIO.replace("gantry.yaml", "gantry3.yaml")
            .replace("[1.0, 1.0]", "[1.0, 1.0, 1.0]").replace("[5.0, 5.0]", "[5.0, 5.0, 1.0]"))
        (suite_dir / "prims.yaml").write_text("primitives: []\n")
        code = main(["bench", "--suite", str(suite_dir), "--planners", "ara-star",
                     "--primitives", str(suite_dir / "prims.yaml"),
                     "--out", str(workdir / "r.csv"), "--table"])
        assert code == 0
        records = csv_rows((workdir / "r.csv").read_text())
        assert [r["status"] == "error" for r in records] == [False, True]
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        header = rows.index(["total", "errors", "solved_median_s", "solved_geomean_s",
                             "solved_max_s"])
        total, errors = rows[header + 1][:2]
        assert (total, errors) == ("2", "1")
        counts = rows[header - 1][1:]  # success_forward, success_backward, failure, unsolvable
        assert sum(int(c) for c in counts) + int(errors) == int(total)

    def test_unknown_planner_rejected(self, workdir, capsys):
        code = main(["bench", "--suite", str(workdir), "--planners", "prm",
                     "--out", str(workdir / "x.csv")])
        assert code == 1

    def test_planner_listed_twice_rejected(self, workdir, capsys):
        # It once ran the suite twice and counted both runs as one planner's.
        code = main(["bench", "--suite", str(workdir), "--planners", "ara-star, ara-star",
                     "--out", str(workdir / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "planner 'ara-star' listed twice in --planners\n"
        assert not (workdir / "x.csv").exists()

    def test_empty_planner_list_rejected(self, workdir, capsys):
        code = main(["bench", "--suite", str(workdir), "--planners", ",",
                     "--out", str(workdir / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "no planner named in --planners ','\n"
        assert not (workdir / "x.csv").exists()


class TestErrors:
    def test_missing_scenario_file_reports_error(self, workdir, capsys):
        code = main(["plan", "--scenario", str(workdir / "nope.scenario"),
                     "--planner", "ara-star"])
        assert code == 1 or code == 2  # harness error path

    @pytest.mark.parametrize("option", ["--scenario", "--path", "--params"])
    def test_non_utf8_file_reports_error(self, workdir, capsys, monkeypatch, option):
        monkeypatch.chdir(workdir)
        (workdir / "crossing.csv").write_text("q0,q1\n1.0,1.0\n5.0,5.0\n")
        (workdir / "latin1.txt").write_bytes("name: café\n".encode("latin-1"))
        files = {"--scenario": "case.scenario", "--path": "crossing.csv", option: "latin1.txt"}
        code = main(["validate", *(arg for pair in files.items() for arg in pair)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: 'utf-8' codec can't decode")
        assert captured.err.endswith(" in latin1.txt\n")

    @pytest.mark.parametrize("culprit", ["--primitives", "robot"])
    def test_non_utf8_primitives_or_robot_file_names_it(self, workdir, capsys, monkeypatch,
                                                          culprit):
        # The robot file is read inside the scenario's parse; its decode error
        # names the robot file, not a malformed scenario.
        monkeypatch.chdir(workdir)
        (workdir / "latin1.txt").write_bytes("joints: [café]\n".encode("latin-1"))
        scenario = "case.scenario"
        extra = ["--primitives", "latin1.txt"] if culprit == "--primitives" else []
        if culprit == "robot":
            scenario = "latin_robot.scenario"
            (workdir / scenario).write_text(SCENARIO.replace("gantry.yaml", "latin1.txt"))
        code = main(["plan", "--scenario", scenario, "--planner", "ara-star", *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("error: 'utf-8' codec can't decode")
        assert captured.err.endswith(" in latin1.txt\n")

    def test_non_integer_primitive_reports_error(self, workdir, capsys, monkeypatch):
        # [1.5, 0] once became the axis move [1, 0] without a word.
        monkeypatch.chdir(workdir)
        (workdir / "prims.yaml").write_text("primitives: [[1.5, 0]]\n")
        code = main(["plan", "--scenario", "case.scenario", "--planner", "ara-star",
                     "--primitives", "prims.yaml"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: primitive vector entry must be an integer, got 1.5\n"

"""Regenerate paths_fine.json, the path set of the validate-fine workload.

    python3 benchmark/make_paths.py [--suite-seed 424242]

Both planners solve every scene of the shelf suite exactly as the ara-shelf
and rrt-shelf workloads do; every solved path is stored with its verdict at
the fine validation step and its cost.  The stored verdicts are what
validate-fine checks against, so regenerate the file only when a change to
the planners or to collision checking is meant to change them, and say so.
"""

from __future__ import annotations

import argparse
import json

import run
from planbench import core


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite-seed", type=int, default=run.DEFAULT_SUITE_SEED)
    args = parser.parse_args()
    paths = []
    for name in (run.ARA_SHELF, run.RRT_SHELF):
        workload = run.set_up(name, args.suite_seed)
        for op in workload.ops:
            record = workload.run(op)
            if record.status not in run.SOLVED:
                continue
            path = core.Path(record.path)
            rob, wld = op.scenario.robot, op.scenario.world
            valid = core.validate_path(rob, wld, op.query, path, run.FINE_STEP)
            paths.append({"scene": op.index, "planner": record.planner,
                          "valid": bool(valid), "cost": core.path_cost(rob, path),
                          "waypoints": path.waypoints.tolist()})
            print(f"{record.planner} scene {op.index}: {len(path)} waypoints, "
                  f"valid at {run.FINE_STEP}: {valid}", flush=True)
    doc = {"suite_seed": args.suite_seed, "step": run.FINE_STEP, "paths": paths}
    run.PATH_SET.write_text(json.dumps(doc) + "\n")
    print(f"wrote {len(paths)} paths to {run.PATH_SET}")


if __name__ == "__main__":
    main()

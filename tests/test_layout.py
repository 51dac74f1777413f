"""Package layout rules, checked on the source: modules share no private
names, the only runtime dependencies are numpy and PyYAML, no public
function, class, class member or class field exists only for the tests, only
``errors.py`` checks values for finiteness, no constructor bounds a value by
infinity by hand, every dataclass with an array field compares through
``errors.field_eq``, only ``errors.py`` loads and only
``world.py`` dumps YAML, only ``collision.py`` samples motions and counts
checked configurations and check calls, ``collision.py`` names no obstacle
shape, only ``collision._groups_free`` cuts proof intervals and reads the
proof margin, only ``core.py`` screens queries and builds planner results,
only ``robot.as_configurations`` tests an array's dimension against the
robot's, every function the benchmark traces exists, and the tests import
nothing they do not use."""

import ast
import dataclasses
import importlib
import sys
from collections import Counter
from pathlib import Path

import planbench
from planbench.errors import field_eq
from planbench.world import BOX, CYLINDER, SPHERE

SOURCES = sorted(Path(planbench.__file__).parent.rglob("*.py"))
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "benchmark").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "planbench"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_private_imports_across_modules():
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES for node in _imports(path)
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_imports_only_stdlib_numpy_and_yaml():
    found = []
    for path in SOURCES:
        for node in _imports(path):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert found == []


def _names(node):
    """Identifiers used under ``node``: names, attributes and imported names
    (strings and docstrings do not count)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def _trees_and_uses():
    """Each package and benchmark source's syntax tree, and the count of
    every identifier they use outside ``planbench/__init__.py``, whose
    re-exports are not uses."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES + BENCHMARK}
    exports = Path(planbench.__file__)
    return trees, sum((_names(tree) for path, tree in trees.items()
                       if path != exports), Counter())


def test_every_public_definition_is_used_outside_tests():
    # A public module-level function or class must be named somewhere in the
    # package outside its own definition (an export from __init__ counts) or
    # in the benchmark scripts.
    trees, used = _trees_and_uses()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in SOURCES for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and used[node.name] == _names(node)[node.name]]
    assert BENCHMARK
    assert unused == []


def test_every_public_member_is_used_outside_tests():
    # The same rule for the public methods, properties and classmethods of
    # the package's classes: each is named outside its own definition.
    trees, used = _trees_and_uses()
    unused = [f"{path.name}:{member.lineno} {node.name}.{member.name}"
              for path in SOURCES for node in trees[path].body
              if isinstance(node, ast.ClassDef)
              for member in node.body
              if isinstance(member, ast.FunctionDef)
              and not member.name.startswith("_")
              and used[member.name] == _names(member)[member.name]]
    assert unused == []


def test_every_dataclass_field_is_read():
    # A public annotated field of a package class must be read somewhere in
    # the package or the benchmark scripts, as an ``x.<field>`` load (the
    # class's own methods count); a field that is only written, or read
    # only by tests, is computed for nothing.  Growing a list field with
    # ``x.<field>.append(...)``, ``extend`` or ``insert`` writes it and is
    # no read.  A field whose name some other attribute shares passes unread.
    trees, _ = _trees_and_uses()
    grown = {id(n.func.value) for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr in ("append", "extend", "insert")}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in grown}
    unread = [f"{node.name}.{field.target.id}"
              for path in SOURCES for node in trees[path].body
              if isinstance(node, ast.ClassDef)
              for field in node.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and not field.target.id.startswith("_")
              and field.target.id not in read]
    # The per-iteration incumbent costs of an anytime search are read only
    # by the tests of the epsilon bound so far; the per-run counters of the
    # observability aim will give them a reader.
    assert unread == ["SearchStats.incumbent_costs"]


def test_dataclasses_with_arrays_share_one_equality():
    # The generated dataclass __eq__ compares fields with ==, which raises
    # on an array of more than one entry; errors.field_eq compares arrays
    # by value, and a second hand-kept field list would drift from it.
    modules = [importlib.import_module(f"planbench.{path.stem}") for path in SOURCES
               if path.parent.name == "planbench" and path.stem != "__init__"]
    with_arrays = {cls for module in modules for cls in vars(module).values()
                   if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                   and any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert len(with_arrays) >= 9
    assert [cls.__name__ for cls in with_arrays if cls.__eq__ is not field_eq] == []


def test_finite_checks_only_in_errors():
    # errors.finite_array is the package's one array check: a second
    # isfinite elsewhere would be a second, drifting copy of it.
    found = [path.name for path in SOURCES
             if _names(ast.parse(path.read_text(encoding="utf-8")))["isfinite"]]
    assert found == ["errors.py"]


def test_no_hand_written_finite_bound_in_post_init():
    # errors.real is the one scalar check: a `0 < x < math.inf` in a
    # constructor would be a second copy of it, one that passes bools and
    # numeric strings on to the range comparison.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
             for node in ast.walk(func) if isinstance(node, ast.Compare)
             and any(isinstance(side, ast.Attribute) and side.attr == "inf"
                     for side in (node.left, *node.comparators))]
    assert found == []


def test_yaml_loaded_only_in_errors_and_dumped_only_in_world():
    # errors.parse_mapping is the one YAML loader and world.serialize_scenario
    # the one dumper, each on libyaml where PyYAML has it; a stray
    # yaml.safe_load elsewhere would bring back the pure-Python parser.
    loaders = {"safe_load", "SafeLoader", "CSafeLoader", "CParser"}
    dumpers = {"safe_dump", "SafeDumper", "CSafeDumper"}
    found = [f"{path.name} {name}" for path in SOURCES
             for name in _names(ast.parse(path.read_text(encoding="utf-8")))
             if name in loaders and path.name != "errors.py"
             or name in dumpers and path.name != "world.py"]
    assert found == []


def test_motions_sampled_only_in_collision():
    # Every planner edge goes through collision.motions_free, the one edge
    # checker; a second module sampling its own motions would be a second
    # edge pipeline to keep in step with it.
    found = [path.name for path in SOURCES
             if _names(ast.parse(path.read_text(encoding="utf-8")))["motion_configs"]]
    assert found == ["collision.py"]


def test_collision_counters_stored_only_in_collision():
    # collision.free_mask is the one place that counts checked configurations
    # and check calls; a planner may start either key at 0, but a second
    # module that stored a count would report work no kernel did.
    keys = {"collision_checks", "check_calls"}
    found = {(path.name, node.slice.value) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
             and isinstance(node.slice, ast.Constant) and node.slice.value in keys}
    assert found == {("collision.py", key) for key in keys}


def test_one_obstacle_rule_in_collision():
    # collision.py names no obstacle shape: WorldModel.kernel_table gives
    # every obstacle the same three axes, so collision._squared_excess
    # measures every shape as a solid by one formula, and no caller keeps a
    # second penetration rule or reach for one shape.
    shapes = {"BOX", "CYLINDER", "SPHERE", BOX, CYLINDER, SPHERE}
    tree = ast.parse((Path(planbench.__file__).parent / "collision.py")
                     .read_text(encoding="utf-8"))
    found = [f"collision.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in shapes)
             or (isinstance(node, ast.Constant) and node.value in shapes)
             or (isinstance(node, ast.alias) and node.name in shapes)]
    assert found == []


def test_one_proof_loop_in_collision():
    # collision._groups_free is the one clearance-proof loop: no other
    # function of collision.py names the interval cuts or the proof margin,
    # so a per-motion caller groups its motions for that loop instead of
    # keeping a second copy of it.
    tree = ast.parse((Path(planbench.__file__).parent / "collision.py")
                     .read_text(encoding="utf-8"))
    proof = {"_pieces", "_cuts", "_PROOF_MARGIN"}
    readers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and proof & set(_names(node))}
    assert readers == {"_groups_free"}


def test_one_planning_frame():
    # core.run_planner screens every query, takes the one clock of a run and
    # builds its PlannerResult; a planner that screened or built a result
    # itself would keep a second copy of the planning conditions.
    found = {(path.name, name) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
             if name in ("PlannerResult", "screen_query")}
    assert found == {("core.py", "PlannerResult"), ("core.py", "screen_query")}


def _dimension_tests(tree):
    """Comparisons of an array's ``shape`` or ``ndim`` with a ``dof`` attribute."""
    def attrs(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and {"shape", "ndim"} & attrs(node) and "dof" in attrs(node)]


def test_one_dimension_test_in_robot():
    # robot.as_configurations is the one test that an array has the
    # robot's dimension: a second copy in another module would carry its own
    # message, and an entry that kept none turned a wrong size into a verdict.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in _dimension_tests(ast.parse(path.read_text(encoding="utf-8")))]
    robot = ast.parse((Path(planbench.__file__).parent / "robot.py").read_text(encoding="utf-8"))
    holder = next(node for node in robot.body if isinstance(node, ast.FunctionDef)
                  and node.name == "as_configurations")
    assert len(found) == 1
    assert found == [f"robot.py:{node.lineno}" for node in _dimension_tests(holder)]


def test_trace_targets_name_package_attributes():
    # benchmark/run.py looks each (module, "attr", ...) entry of TRACE_TARGETS
    # up with getattr when it traces, so a renamed or deleted function would
    # only crash a traced run; read the entries from the source instead.
    run = next(path for path in BENCHMARK if path.name == "run.py")
    tree = ast.parse(run.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TRACE_TARGETS" for t in node.targets))
    entries = [(entry.elts[0].id, entry.elts[1].value) for entry in targets.elts]
    missing = [f"{module}.{attr}" for module, attr in entries
               if not hasattr(importlib.import_module(f"planbench.{module}"), attr)]
    assert len(entries) >= 10
    assert missing == []


def test_tests_import_only_names_they_use():
    # An imported name counts as used when the module names it anywhere
    # (attribute access on a module counts); __future__ imports are
    # compiler directives.
    unused = []
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in (alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
                   if name not in used]
    assert len(TESTS) >= 10
    assert unused == []

"""Import structure: what each module may take from the solver modules, the
names the benchmark's layer tracer reads and the fit-report keys its fit
check reads."""

import ast
import importlib.util
import inspect
import json
from dataclasses import fields
from pathlib import Path

from wws import mpc, qp
from wws.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every import in ``path``, modules absolute under
    ``wws`` (``from .qp import x`` in ``src/wws`` reads ``wws.qp``, x) and
    name "" for a plain ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("wws." * (node.level > 0)) + (node.module or "")
            found += [(module.rstrip("."), alias.name) for alias in node.names]
    return found


def test_oracles_share_no_code_with_the_solvers():
    solvers = {"wws.qp", "wws.miqp"}
    for module, name in _imports(ROOT / "tests" / "oracles.py"):
        assert module not in solvers, (module, name)
        assert f"{module}.{name}" not in solvers, (module, name)


def test_branch_and_bound_uses_public_qp_names():
    private = [name for module, name in _imports(ROOT / "src" / "wws" / "miqp.py")
               if module == "wws.qp" and name.startswith("_")]
    assert private == []
    assert ("wws.qp", "NodeQp") in _imports(ROOT / "src" / "wws" / "miqp.py")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # a module of src/wws takes only public names from the package's other
    # modules, by import (``from .qp import x``) or by attribute
    # (``plant_mod.x`` after ``from . import plant as plant_mod``)
    found = []
    for path in sorted((ROOT / "src" / "wws").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to a module of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "wws"):
                for alias in node.names:
                    if node.module in (None, "wws"):
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        found.append(f"{path.stem}: from {node.module} import {alias.name}")
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []


# public names kept for callers outside the package: the closed loop is the
# library's entry point (README, ROADMAP)
UNREFERENCED_ENTRY_POINTS = {("mpc", "run_closed_loop")}


def test_every_public_name_in_the_package_has_a_caller():
    # a public top-level function or class of src/wws is referenced somewhere
    # in src/wws outside its own definition; a name bound by an import alias
    # (``from .qp import solve_node as solve_qp``) counts as the imported name
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "wws").glob("*.py"))}

    def references(node, aliases: dict[str, str]) -> list[str]:
        found = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.append(aliases.get(sub.id, sub.id))
            elif isinstance(sub, ast.Attribute):
                found.append(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found += [alias.name for alias in sub.names]
        return found

    aliases = {module: {alias.asname: alias.name for sub in ast.walk(tree)
                        if isinstance(sub, (ast.Import, ast.ImportFrom))
                        for alias in sub.names if alias.asname}
               for module, tree in trees.items()}
    everywhere = [name for module, tree in trees.items()
                  for name in references(tree, aliases[module])]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and (module, node.name) not in UNREFERENCED_ENTRY_POINTS
                    and everywhere.count(node.name)
                    <= references(node, aliases[module]).count(node.name)):
                unused.append(f"{module}.{node.name}")
    assert unused == []


# patched names the benchmark's tracer already records as missing: their
# spans read 0 until the tracer is pointed at the current names
TRACER_MISSING = {("wws.mpc", "encode_formula"), ("wws.qp", "phase1_violation")}


def test_benchmark_tracer_finds_what_it_patches():
    # perfbench/layertrace.py is read, never edited: every name it patches
    # exists (but the two recorded as missing), and its counters read
    # StepProblem's third field, plan_step's fourth parameter and two
    # fields of QpResult
    spec = importlib.util.spec_from_file_location("layertrace",
                                                  ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = {(module, attr) for module, attr, _, _ in layertrace.PATCHES
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == TRACER_MISSING
    assert mpc.StepProblem._fields[2] == "n_binaries"
    assert list(inspect.signature(mpc.plan_step).parameters)[3] == "k"
    assert {"status", "iterations"} <= {field.name for field in fields(qp.QpResult)}


def test_benchmark_fit_check_finds_its_report_keys(tmp_path):
    # perfbench/workloads.py checks each `wws fit` by the dynamics rank and
    # the read-out residual of its report
    out = tmp_path / "pred.json"
    assert main(["fit", "--plant", "demo", "--K", "100", "--out", str(out)]) == 0
    report = json.loads(out.with_name("pred_report.json").read_text())
    assert report["dynamics"]["rank"] == 18  # 16 observables, input, ambient
    assert report["readout"]["residual_max"] <= 1e-8

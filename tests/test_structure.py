"""Import structure: what each module may take from the solver modules."""

import ast
from pathlib import Path

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

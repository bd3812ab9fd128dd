"""Import hygiene: every uqsl2 module imports cleanly with warnings as
errors, none keeps a module-level import it never references, and only
the scalar kernel and the field compute on kernel pairs.

``__init__.py`` is exempt from the unused-import check; its imports are
the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uqsl2

PKG = Path(uqsl2.__file__).resolve().parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PKG)]))


def test_modules_import_with_warnings_as_errors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG.parent), env.get("PYTHONPATH")]))
    code = "; ".join(f"import uqsl2.{m}" for m in MODULES)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _imported(tree: ast.Module) -> dict:
    """Names bound by module-level imports, mapped to their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set:
    """Every name the module loads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"uqsl2.{module}: unused imports {unused}"


# The kernel's pair arithmetic; every module but these two works on scalar ids.
PAIR_FUNCTIONS = {"knorm", "kadd", "ksub", "kneg", "kmul"}
PAIR_MODULES = ("_kernel", "cyclo_field")


@pytest.mark.parametrize("module", [m for m in MODULES if m not in PAIR_MODULES])
def test_pair_arithmetic_stays_in_kernel_and_field(module):
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & PAIR_FUNCTIONS, f"uqsl2.{module} imports {imported & PAIR_FUNCTIONS}"

"""Import hygiene: every uqsl2 module imports cleanly with warnings as
errors, none keeps a module-level import it never references, only
the scalar kernel computes on kernel pairs, and only the field context
builds a field's scalar table.  Every assert
left in the package is an internal invariant on an allowlist: argument
guards raise, so they survive ``python -O``.  Every function, class,
method and ``property(...)`` binding, and every attribute a class sets
on ``self`` or lists in ``__slots__``, is loaded by some code in the
package that can reach it, or listed with what uses it from outside.  The
package computes exactly: no float or complex arithmetic.

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
    """Every name the module loads or deletes, including those inside string
    annotations; binding a name is not a use of it."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


# The kernel's pair arithmetic; every other module works on scalar ids.
PAIR_FUNCTIONS = {"knorm", "kadd", "kneg", "kmul"}
PAIR_MODULES = ("_kernel",)


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


def test_only_the_field_builds_tables():
    """One module decides which table a field has: only cyclo_field calls
    Scalars, once per FieldCtx(p)."""
    builders = set()
    for module in MODULES:
        tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", None) == "Scalars" or getattr(f, "attr", None) == "Scalars":
                    builders.add(module)
    assert builders == {"cyclo_field"}


# Every assert statement in the package, by module and source text, with why
# it is an internal invariant and not an argument guard.
ASSERTS = {
    ("cyclo_field", "assert den[-1] == 1"):
        "_poly_div_exact is private and divides only by products of cyclotomic "
        "polynomials, which are monic",
}


def test_asserts_are_listed_invariants():
    found = set()
    for module in MODULES:
        text = (PKG / f"{module}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assert):
                found.add((module, ast.get_source_segment(text, node)))
    assert found == set(ASSERTS), (
        f"unlisted: {sorted(found - set(ASSERTS))}; gone: {sorted(set(ASSERTS) - found)}")


# Floating-point sites in the package, by module and source text, with why
# each is there: an import of cmath, a float or complex literal, a float()
# or complex() call, or a true division by an int literal.  There are none.
FLOATS: dict = {}


def _float_sites(text: str):
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "cmath" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "cmath"
        elif isinstance(node, ast.Constant):
            hit = type(node.value) in (float, complex)
        elif isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            hit = (isinstance(node.op, ast.Div) and isinstance(divisor, ast.Constant)
                   and type(divisor.value) is int)
        else:
            hit = False
        if hit:
            yield ast.get_source_segment(text, node)


def test_no_float_arithmetic():
    found = {(module, site) for module in MODULES
             for site in _float_sites((PKG / f"{module}.py").read_text(encoding="utf-8"))}
    assert found == set(FLOATS), (
        f"unlisted: {sorted(found - set(FLOATS))}; gone: {sorted(set(FLOATS) - found)}")


# Functions, classes and methods whose name no code in the package loads
# (docstrings and comments do not count), with what uses them.
_TRACED = "wrapped by perfbench/layer_trace.py as {}; leaves with ROADMAP item 8"
UNREFERENCED = {
    "mat_mul": _TRACED.format("rep.matmul_s"),
    "cup": _TRACED.format("diagram.cupcap_s"),
    "cap": _TRACED.format("diagram.cupcap_s"),
    "e_op": _TRACED.format("diagram.cupcap_s"),
    "parse_cyclo": "public API, re-exported by the package; "
                   "tests/test_relation_engine.py parses a dependency witness back to its ids",
}


def _is_property(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "property")


def _definitions(tree: ast.Module, prefix: str = ""):
    """(qualified name, bare name) of every function, class and method,
    and of every name a class body binds to ``property(...)``; dunder
    methods are left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        elif (isinstance(tree, ast.ClassDef) and isinstance(node, ast.Assign)
              and _is_property(node.value)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield prefix + target.id, target.id


def _attributes(tree: ast.Module):
    """(class, name, set) of every attribute a class declares: set is True
    where the class sets it on ``self`` in one of its methods or lists it in
    its ``__slots__``, False where the class body only annotates it (a
    NamedTuple field); dunder names are left out."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names, fields = set(), set()
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                names |= {c.value for c in ast.walk(node.value)
                          if isinstance(c, ast.Constant) and isinstance(c.value, str)}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names |= {n.attr for n in ast.walk(node)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == "self"}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.add(node.target.id)
        for name in sorted(names | fields):
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, name in names


def _attribute_loads(tree: ast.Module, cls: str | None = None):
    """(class, name) of every attribute the module loads, as ``x.name`` or
    ``getattr(x, "name")``: class is the class whose method loads it where
    x is ``self``, else None.  Storing an attribute is not a use of it."""
    for node in ast.iter_child_nodes(tree):
        yield from _attribute_loads(node, node.name if isinstance(node, ast.ClassDef) else cls)
    if isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        receiver, name = tree.value, tree.attr
    elif (isinstance(tree, ast.Call) and isinstance(tree.func, ast.Name)
          and tree.func.id == "getattr" and len(tree.args) > 1
          and isinstance(tree.args[1], ast.Constant)):
        receiver, name = tree.args[0], tree.args[1].value
    else:
        return
    on_self = isinstance(receiver, ast.Name) and receiver.id == "self"
    yield (cls if on_self else None), name


def test_every_name_is_used():
    """A definition is used where a bare name or an attribute loads it.  An
    attribute is used only where an attribute loads it, since a local
    variable of the same name is no reader of it, and a load reads it only
    if the load can reach it: a load on ``self`` reads the attribute of the
    class whose method it is in; any other load reads the attributes of
    that name declared in its own module if there are any (config.budget in
    cli_report reads RunConfig's field), else those of every class."""
    names: set = set()
    read: set = set()  # (module, class, name) of attributes a load reaches
    anywhere: set = set()  # names loaded in a module that declares none of them
    defined = []
    for module in MODULES:
        tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
        loads = set(_attribute_loads(tree))
        attributes = list(_attributes(tree))
        names |= _referenced(tree) | {name for _, name in loads}
        for cls, name in loads:
            owners = [cls] if cls else [c for c, n, _ in attributes if n == name]
            read |= {(module, c, name) for c in owners}
            if not owners:
                anywhere.add(name)
        defined += [(module, qual, name, False) for qual, name in _definitions(tree)]
        defined += [(module, f"{cls}.{name}", name, True)
                    for cls, name, own in attributes if own]

    def used(module, qual, name, attribute):
        if not attribute:
            return name in names
        return name in anywhere or (module, qual.split(".")[0], name) in read

    unused = sorted(f"{module}.{qual}" for module, qual, name, attribute in defined
                    if not used(module, qual, name, attribute) and qual not in UNREFERENCED)
    assert not unused, f"defined but never used in uqsl2: {unused}"
    stale = sorted(qual for qual in UNREFERENCED
                   if all(d[1] != qual or used(*d) for d in defined))
    assert not stale, f"listed but used, or gone: {stale}"

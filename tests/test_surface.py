"""Static guards on the library surface, read with ast alone (no lint tool).

Every public top-level name of src/bilipfactor must be reached: read in the
package outside its own definition, be the CLI entry point, be imported and
read by the acceptance suite, or be one of the names perfbench looks up by
name.  Every name a library module or the acceptance suite imports must be
read there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bilipfactor"
ENTRY_POINTS = {("cli", "main")}
# Read only by perfbench: tracer.py wraps its TRACED names through getattr,
# and worker.py records kernels.HAVE_COMPILED.
PERFBENCH_NAMES = {
    ("corona", "region_fit_error"),
    ("factorization", "factor_linear_outside_cube"),
    ("geometry_core", "unit_cube_dyadics"),
    ("kernels", "HAVE_COMPILED"),
    ("map_engine", "almost_affine_fit"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


MODULES = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
ACCEPTANCE = _parse(ROOT / "tests" / "test_acceptance.py")


def _binds(stmt: ast.stmt) -> set[str]:
    """Names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _loads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The bilipfactor module a from-import reads from, None for other packages."""
    if node.level == 1:
        return node.module
    if node.module and node.module.startswith("bilipfactor."):
        return node.module.removeprefix("bilipfactor.")
    return None


def _imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every `from bilipfactor.module import name` in the
    tree whose bound name the tree reads."""
    loads = _loads(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _package_module(node)):
            out.update((mod, a.name) for a in node.names if (a.asname or a.name) in loads)
    return out


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names the tree's imports bind and it never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - _loads(tree))


def _attribute_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attr) of every `module.attr` where `from . import module` binds module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases.update({a.asname or a.name: a.name for a in node.names})
    return {
        (aliases[n.value.id], n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
    }


def _reached_in_package() -> set[tuple[str, str]]:
    reached = set()
    for mod, tree in MODULES.items():
        for stmt in tree.body:
            reached.update((mod, n) for n in _loads(stmt) - _binds(stmt))
        reached |= _imported_names(tree) | _attribute_reads(tree)
    return reached


def _public_names() -> set[tuple[str, str]]:
    return {
        (mod, n)
        for mod, tree in MODULES.items()
        for stmt in tree.body
        for n in _binds(stmt)
        if not n.startswith("_")
    }


def test_every_public_name_is_reached():
    acceptance = _imported_names(ACCEPTANCE)
    allowed = _reached_in_package() | ENTRY_POINTS | acceptance | PERFBENCH_NAMES
    unreached = sorted(f"{mod}.{n}" for mod, n in _public_names() - allowed)
    assert not unreached, f"public names nothing in src/, the CLI, acceptance or perfbench reads: {unreached}"


def test_perfbench_names_are_still_read_by_perfbench():
    seen = set()
    for name in ("tracer.py", "worker.py"):
        for n in ast.walk(_parse(ROOT / "perfbench" / name)):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                seen.add(n.value)
            elif isinstance(n, ast.Attribute):
                seen.add(n.attr)
    stale = sorted(f"{mod}.{n}" for mod, n in PERFBENCH_NAMES if n not in seen)
    assert not stale, f"perfbench no longer names {stale}: drop them from PERFBENCH_NAMES"


@pytest.mark.parametrize("mod", sorted(MODULES))
def test_every_import_is_read(mod):
    unread = _unread_imports(MODULES[mod])
    assert not unread, f"{mod} imports names it never reads: {unread}"


def test_acceptance_reads_every_import():
    unread = _unread_imports(ACCEPTANCE)
    assert not unread, f"test_acceptance.py imports names it never reads: {unread}"

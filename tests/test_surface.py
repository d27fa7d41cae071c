"""Static guards on the library surface, read with ast alone (no lint tool).

Every public top-level name of src/bilipfactor must be reached: read in the
package outside its own definition, be the CLI entry point, be imported and
read by the acceptance suite, or be one of the names perfbench looks up by
name.  Every name a library module or a test module imports must be read
there.  Every field and public method of a library class must be read as an
attribute in src/, the acceptance suite or perfbench.
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
TEST_MODULES = {f"tests/{p.stem}": _parse(p) for p in sorted((ROOT / "tests").glob("*.py"))}
ACCEPTANCE = TEST_MODULES["tests/test_acceptance"]
IMPORTERS = MODULES | TEST_MODULES


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


def test_perfbench_traced_names_exist():
    # tracer.py wraps each TRACED name through getattr; a name deleted from the
    # library would fail only perfbench's own tests and traced runs.
    tracer = _parse(ROOT / "perfbench" / "tracer.py")
    traced = next(ast.literal_eval(n.value) for n in tracer.body
                  if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    defined = {(mod, n) for mod, tree in MODULES.items() for stmt in tree.body for n in _binds(stmt)}
    missing = sorted(f"{mod}.{n}" for mod, names in traced.items() for n in names if (mod, n) not in defined)
    assert not missing, f"perfbench/tracer.py traces names bilipfactor no longer has: {missing}"


@pytest.mark.parametrize("mod", sorted(IMPORTERS))
def test_every_import_is_read(mod):
    unread = _unread_imports(IMPORTERS[mod])
    assert not unread, f"{mod} imports names it never reads: {unread}"


def _attribute_loads(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _members() -> set[tuple[str, str]]:
    """(class, name) of every field a src/ class body declares and every public method it defines."""
    out = set()
    for tree in MODULES.values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    out.add((cls.name, stmt.target.id))
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                    out.add((cls.name, stmt.name))
    return out


def test_every_member_is_read():
    """Each class member is read as `x.name` in src/, tests/test_acceptance.py
    (with the tests/conftest.py helpers it imports) or perfbench/.

    The check goes by name alone, not by the class a read goes through: a
    name read on one class hides an unread member of that name on another
    (as `.target`, read on FactorSequence, would hide a SphericalFactorReport
    field of that name)."""
    conftest = TEST_MODULES["tests/conftest"]
    helpers = {a.name for n in ast.walk(ACCEPTANCE)
               if isinstance(n, ast.ImportFrom) and n.module == "conftest" for a in n.names}
    trees = [*MODULES.values(), ACCEPTANCE, *(stmt for stmt in conftest.body if _binds(stmt) & helpers),
             *(_parse(p) for p in sorted((ROOT / "perfbench").rglob("*.py")))]
    read = set().union(*map(_attribute_loads, trees))
    unread = sorted(f"{cls}.{name}" for cls, name in _members() if name not in read)
    assert not unread, f"class members nothing in src/, acceptance or perfbench reads: {unread}"

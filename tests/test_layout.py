"""Layout rule: every public top-level function and class in ``src/qanet``
is used by the package, the scripts or the benchmark, so a helper that only
tests call lives under ``tests/``.

A use is a name or attribute in the code, found with ``ast``. A definition
does not use its own name, an import alone is not a use, and the strings of
an ``__all__`` list are not names.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qanet"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def public_definitions(package=PACKAGE):
    """(module.name, name) for each public top-level def and class."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def used_names(folders=USERS):
    """Every name read, called or attribute-accessed in ``folders``' code."""
    names = set()
    for folder in folders:
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_is_used_outside_tests():
    used = used_names()
    unused = [where for where, name in public_definitions() if name not in used]
    assert unused == [], (f"only tests use {unused}: move them under tests/ "
                          "or make them private")


def test_scan_sees_through_imports_and_all(tmp_path):
    """The scan counts neither an import nor an ``__all__`` entry as a use."""
    (tmp_path / "lib.py").write_text(
        '__all__ = ["listed", "called"]\n'
        "def listed():\n    pass\n"
        "def imported():\n    pass\n"
        "class called:\n    pass\n", encoding="utf-8")
    (tmp_path / "app.py").write_text(
        "from lib import called, imported\ncalled()\n", encoding="utf-8")
    used = used_names([tmp_path])
    assert [w for w, n in public_definitions(tmp_path) if n not in used] == [
        "lib.listed", "lib.imported"]

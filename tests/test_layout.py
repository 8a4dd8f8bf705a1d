"""Layout rules: every public top-level function and class in ``src/qanet``
is used by the package, the scripts or the benchmark, so a helper that only
tests call lives under ``tests/``; and every defaulted parameter of a public
function or method is passed by one of their calls, so an option that only
tests set does not live in ``src/`` either. A module imports no other
module's private name unless an allowance gives the reason.

A use is a name or attribute in the code, found with ``ast``. A definition
does not use its own name, an import alone is not a use, and the strings of
an ``__all__`` list are not names. Calls match by the called name, the way
uses do; a class call passes its ``__init__``'s parameters.
"""
import ast
import dataclasses
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


# Defaulted parameters no call outside the tests passes, each with its reason.
_NETWORK = "network setting, tuned per service, not per run"
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script calls main() bare, so it reads "
                     "sys.argv; tests pass the arguments",
    "augmentation.HttpTranslator.timeout": _NETWORK,
    "augmentation.HttpTranslator.retries": _NETWORK,
    "augmentation.HttpTranslator.backoff": _NETWORK,
}


def _callables(tree):
    """(owner, called name, def, implicit first argument) for each public
    top-level function and each public class's ``__init__`` and public
    methods; ``__init__`` is named and called by its class's name."""
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                bound = not any(getattr(d, "id", "") == "staticmethod"
                                for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield node.name, node.name, fn, bound
                elif not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name, fn, bound


def defaulted_parameters(package=PACKAGE):
    """(module.owner.param, called name, position, param) for each defaulted
    parameter; position is None for a keyword-only one and leaves out a
    bound ``self`` or ``cls``."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, called, fn, bound in _callables(tree):
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first_default:], first_default):
                yield (f"{path.stem}.{owner}.{arg.arg}", called, i - bound,
                       arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{owner}.{arg.arg}", called, None, arg.arg


def passed_arguments(folders=USERS):
    """{called name: (most positional arguments, keyword names)} over every
    call in ``folders``; a ``*`` or ``**`` argument passes everything."""
    calls = {}
    for folder in folders:
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                most, keywords = calls.get(name, (0, set()))
                count = len(node.args)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    count = float("inf")
                for kw in node.keywords:
                    keywords.add(kw.arg)  # None for a ** argument
                calls[name] = (max(most, count), keywords)
    return calls


def unpassed_defaults(package=PACKAGE, folders=USERS):
    calls = passed_arguments(folders)
    unpassed = []
    for where, called, position, param in defaulted_parameters(package):
        most, keywords = calls.get(called, (0, set()))
        if not (param in keywords or None in keywords
                or (position is not None and position < most)):
            unpassed.append(where)
    return unpassed


def test_every_default_is_passed_outside_tests():
    unpassed = [w for w in unpassed_defaults() if w not in UNPASSED_DEFAULTS]
    assert unpassed == [], (f"only tests set {unpassed}: make the value a "
                            "constant, or pass it from the package")


def test_allowed_defaults_still_exist():
    """An allowance outlives neither its parameter nor a caller that passes it."""
    assert sorted(set(UNPASSED_DEFAULTS) - set(unpassed_defaults())) == []


def test_default_scan_matches_position_keyword_and_class(tmp_path):
    """A default counts as passed by keyword, by position (a method's or a
    class's ``self`` aside) or through ``*``/``**``, and not otherwise."""
    (tmp_path / "lib.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(a=1):\n    pass\n"
        "def _private(a=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n        pass\n"
        "    def m(self, a=1):\n        pass\n"
        "    @staticmethod\n"
        "    def s(a=1, b=2):\n        pass\n"
        "    def _p(self, a=1):\n        pass\n", encoding="utf-8")
    (tmp_path / "app.py").write_text(
        "f(0, 1)\nf(0, d=4)\ng(*[])\nK(0)\nK().m()\nK.s(0)\n",
        encoding="utf-8")
    assert unpassed_defaults(tmp_path, [tmp_path]) == [
        "lib.f.c", "lib.K.b", "lib.K.m.a", "lib.K.s.b"]


# Defaults that restate a config default under the field's own name, each
# with its reason.
_NO_CONFIG = "perfbench's augment_http parses its input with no model config"
CONFIG_COPIES = {
    "data.parse_qa_json.max_context_len": _NO_CONFIG,
    "data.parse_qa_json.max_answer_len": _NO_CONFIG,
}


# The classes that hold the run's settings.
CONFIG_HOLDERS = ("ModelConfig", "OptimizerConfig", "AugmentationConfig",
                  "PathsConfig", "RunConfig")


def config_defaults():
    """{field name: default} over every holder's fields; RunConfig's section
    fields have a factory, not a default, so its top-level fields count."""
    import qanet.config
    return {f.name: f.default for name in CONFIG_HOLDERS
            for f in dataclasses.fields(getattr(qanet.config, name))
            if f.default is not dataclasses.MISSING}


def literal_defaults(package=PACKAGE):
    """(module.owner.name, name, default node) for each defaulted parameter
    of any function or method and each defaulted field of any class but the
    holders themselves."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                pairs = list(zip(positional[len(positional) - len(a.defaults):],
                                 a.defaults))
                pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                for arg, default in pairs:
                    yield f"{path.stem}.{node.name}.{arg.arg}", arg.arg, default
            elif isinstance(node, ast.ClassDef) and \
                    node.name not in CONFIG_HOLDERS:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        name = stmt.target.id
                        yield f"{path.stem}.{node.name}.{name}", name, stmt.value


def config_copies(package=PACKAGE, defaults=None):
    defaults = config_defaults() if defaults is None else defaults
    copies = []
    for where, name, node in literal_defaults(package):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            continue
        if name in defaults and type(value) is type(defaults[name]) \
                and value == defaults[name]:
            copies.append(where)
    return copies


def test_no_default_restates_a_config_default():
    copies = [w for w in config_copies() if w not in CONFIG_COPIES]
    assert copies == [], (f"{copies} restate a config default: pass the "
                          "config's value instead")


def test_allowed_config_copies_still_exist():
    assert sorted(set(CONFIG_COPIES) - set(config_copies())) == []


def test_config_copy_scan_matches_name_and_value(tmp_path):
    """A copy is a literal default equal to a config default under the same
    name, on a parameter, a keyword-only parameter or a class field."""
    (tmp_path / "lib.py").write_text(
        "def f(batch_size=32, other=32, dropout=0.2, *, char_limit=16):\n"
        "    pass\n"
        "def _g(batch_size=1 + 31, char_limit=16.0):\n    pass\n"
        "class K:\n"
        "    dropout: float = 0.1\n"
        "    batch_size: int\n", encoding="utf-8")
    assert config_copies(tmp_path, {"batch_size": 32, "dropout": 0.1,
                                    "char_limit": 16}) == [
        "lib.f.batch_size", "lib.f.char_limit", "lib.K.dropout"]


# Private names a module of the package imports from another, each with its
# reason.
PRIVATE_IMPORTS = {
    "cli._train_step": "qanet bench times the step trainer.train runs",
    "config._mix_shares": "AugmentationConfig refuses the mix weights "
                          "mixed_sampler would refuse",
    "data._PUNCT": "tokenization splits off the punctuation that answer "
                   "normalization drops",
}


def private_imports(package=PACKAGE):
    """module.name for each private name a module imports by ``from``."""
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                yield from (f"{path.stem}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_"))


def test_no_private_name_imported_across_modules():
    crossing = [w for w in private_imports() if w not in PRIVATE_IMPORTS]
    assert crossing == [], (f"{crossing} import another module's private "
                            "name: make it public, or keep it in one module")


def test_allowed_private_imports_still_exist():
    assert sorted(set(PRIVATE_IMPORTS) - set(private_imports())) == []


def test_private_import_scan_matches_underscore_names(tmp_path):
    """Only ``from`` imports of underscore names count, nested ones too."""
    (tmp_path / "lib.py").write_text(
        "from __future__ import annotations\n"
        "from .a import _x, y\n"
        "import _thread\n"
        "def f():\n    from .b import _z\n", encoding="utf-8")
    assert list(private_imports(tmp_path)) == ["lib._x", "lib._z"]


# Functions outside tensor.py that raise DimensionMismatch, each with its
# reason. Elsewhere the op that needs a shape refuses it, once.
DIMENSION_CHECKS = {
    "span.dp_span_inference": "decodes raw numpy arrays that no op has "
                              "checked",
}


def dimension_checks(package=PACKAGE):
    """module.function for each top-level function or class of a module
    other than ``tensor.py`` that raises ``DimensionMismatch``."""
    for path in sorted(package.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            raised = {getattr(n.exc, "func", n.exc) for n in ast.walk(node)
                      if isinstance(n, ast.Raise) and n.exc is not None}
            if any(getattr(e, "id", getattr(e, "attr", None))
                   == "DimensionMismatch" for e in raised):
                yield f"{path.stem}.{node.name}"


def test_only_tensor_ops_raise_dimension_mismatch():
    extra = [w for w in dimension_checks() if w not in DIMENSION_CHECKS]
    assert extra == [], (f"{extra} re-check a shape: leave the rule to the "
                         "tensor op that needs it")


def test_allowed_dimension_checks_still_exist():
    assert sorted(set(DIMENSION_CHECKS) - set(dimension_checks())) == []


def test_dimension_check_scan_matches_raises(tmp_path):
    """A raise counts called or bare, by name or attribute, nested too; the
    class itself, other errors and ``tensor.py`` do not."""
    (tmp_path / "lib.py").write_text(
        "class DimensionMismatch(ValueError):\n    pass\n"
        "def f():\n    raise DimensionMismatch('x')\n"
        "def g():\n    def inner():\n        raise T.DimensionMismatch\n"
        "class K:\n    def m(self):\n        raise DimensionMismatch\n"
        "def h():\n    raise ValueError('x')\n"
        "def r():\n    raise\n", encoding="utf-8")
    (tmp_path / "tensor.py").write_text(
        "def op():\n    raise DimensionMismatch('x')\n", encoding="utf-8")
    assert list(dimension_checks(tmp_path)) == ["lib.f", "lib.g", "lib.K"]

"""Source hygiene: every name a bsdkit module imports is used in it, every
module it imports is in the standard library or bsdkit itself, every
private module-level function or class is used somewhere, only the CLI
reads the environment, and every function the perfbench tracer wraps
exists."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bsdkit"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    src = "import math\nfrom typing import List, Tuple\nx: List[int] = []\n"
    assert unused_imports(src) == [(1, "math"), (2, "Tuple")]


def foreign_imports(source: str):
    """(line, module) for each import outside the standard library and
    bsdkit; relative imports are bsdkit's own."""
    allowed = sys.stdlib_module_names | {"bsdkit"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] not in allowed]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_detects_foreign_import():
    src = ("import json\nfrom . import rings\nfrom bsdkit.poly import P\n"
           "from jsonschema.validators import validator_for\n"
           "import numpy as np\n")
    assert foreign_imports(src) == [(4, "jsonschema.validators"),
                                    (5, "numpy")]


ENVIRONMENT = {"environ", "getenv"}


def environment_reads(source: str):
    """(line, name) for each os.environ / os.getenv in the source, as an
    attribute of os or imported from it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT \
                and getattr(node.value, "id", None) == "os":
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name in ENVIRONMENT]
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_cli_reads_environment(path):
    # a knob read from the environment is process-global configuration;
    # the library takes its limits as arguments
    assert environment_reads(path.read_text()) == []


def test_detects_environment_read():
    src = ("import os\nfrom os import getenv, path\n"
           "a = os.environ.get('A')\nb = os.getenv('B')\n"
           "c = os.path.join('c')\n")
    assert environment_reads(src) == [(2, "getenv"), (3, "environ"),
                                      (4, "getenv")]


def test_cli_imports_without_jsonschema():
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "import bsdkit.cli")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def unreferenced_private(sources):
    """(module, line, name) for each module-level function or class named
    _name in the {module: source} map that no source refers to outside
    its own definition: by name, attribute, import or string (such as a
    monkeypatch target)."""
    defs, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defs.append((module, stmt.lineno, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Constant):
                    name = node.value
                else:
                    continue
                if name != own:
                    used.add(name)
    return [d for d in defs if d[2] not in used]


def test_no_unreferenced_private_helpers():
    sources = {path.name: path.read_text() for path in MODULES + TESTS}
    assert unreferenced_private(sources) == []


def test_detects_unreferenced_private_helper():
    sources = {
        "a.py": ("def _used():\n    pass\n\n\ndef _dead(n):\n"
                 "    return _dead(n - 1) if n else 0\n\n\n"
                 "class _Patched:\n    pass\n"),
        "b.py": ("from a import _used\nimport a\n"
                 "setattr(a, '_Patched', None)\n"),
    }
    assert unreferenced_private(sources) == [("a.py", 5, "_dead")]


def unresolved_targets(targets):
    """(module, name) for each traced name in a {layer: (module, names)}
    map that the module does not define: a module attribute, or
    "Class.method" with the method in the class's own namespace."""
    out = []
    for module, names in targets.values():
        mod = importlib.import_module(module)
        for name in names:
            owner, _, attr = name.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                found = attr in getattr(cls, "__dict__", ())
            else:
                found = hasattr(mod, attr)
            if not found:
                out.append((module, name))
    return out


def tracing_targets():
    """TARGETS of perfbench/tracing.py, read from its source without
    importing or running it."""
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_traced_names_exist():
    assert unresolved_targets(tracing_targets()) == []


def test_detects_unresolved_target():
    targets = {"intmat": ("bsdkit.intmat", ["smith_normal_form", "gone"]),
               "groebner": ("bsdkit.groebner", [
                   "Ideal.groebner_basis", "Ideal.gone", "Gone.method"])}
    assert unresolved_targets(targets) == [
        ("bsdkit.intmat", "gone"), ("bsdkit.groebner", "Ideal.gone"),
        ("bsdkit.groebner", "Gone.method")]


def unset_defaults(defining, calling):
    """(module, line, "function.parameter") for each parameter with a
    default, of a function or method other than ``__init__`` in the
    {module: source} map ``defining``, that no call in ``calling`` sets:
    by keyword, or by position, to a callee of that name.  A call that
    passes *args or **kwargs sets every parameter."""
    calls = {}     # callee name -> [(positional count, keywords)]
    for source in calling.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                setting = (float("inf"), None)
            else:
                setting = (len(node.args), {k.arg for k in node.keywords})
            calls.setdefault(name, []).append(setting)

    def is_set(name, param, index):
        return any(keywords is None or param in keywords or
                   (index is not None and index < count)
                   for count, keywords in calls.get(name, ()))

    out = []
    for module, source in defining.items():
        tree = ast.parse(source)
        methods = {id(stmt) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef) and not any(
                       getattr(d, "id", None) == "staticmethod"
                       for d in stmt.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            skip = id(fn) in methods          # self or cls: not passed
            params = [(a.arg, i - skip) for i, a in enumerate(positional)
                      if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults) if d]
            out += [(module, fn.lineno, f"{fn.name}.{param}")
                    for param, index in params
                    if not is_set(fn.name, param, index)]
    return sorted(out)


def test_every_default_is_set_by_a_call():
    # a parameter no call sets is dead configuration: a constant reads
    # plainer, and a caller that needs it can add it back
    sources = {path.name: path.read_text() for path in MODULES + TESTS}
    defining = {path.name: sources[path.name] for path in MODULES}
    assert unset_defaults(defining, sources) == []


def test_detects_unset_default():
    defining = {"a.py": (
        "def f(x, n=1, *, m=2):\n    pass\n\n\n"
        "def h(a, b=0, c=0):\n    pass\n\n\n"
        "class C:\n    def __init__(self, z=0):\n        pass\n\n"
        "    def g(self, k=0):\n        pass\n\n"
        "    @staticmethod\n    def s(a, k=0):\n        pass\n")}
    calling = {"b.py": "f(1, 2)\nh(a, c=1)\nC().g(1)\nC.s(1)\n",
               "c.py": "f(*xs)\n"}
    assert unset_defaults(defining, calling) == [
        ("a.py", 5, "h.b"), ("a.py", 17, "s.k")]

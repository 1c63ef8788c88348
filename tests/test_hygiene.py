"""Source hygiene: every name a bsdkit module imports is used in it, and
every module it imports is in the standard library or bsdkit itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bsdkit"
MODULES = sorted(SRC.glob("*.py"))


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


def test_cli_imports_without_jsonschema():
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "import bsdkit.cli")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

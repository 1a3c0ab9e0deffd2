"""Every exported name and every name the README imports must resolve."""

import ast
import importlib
import re
from pathlib import Path

import quadsurv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in quadsurv.__all__ if not hasattr(quadsurv, name)]
    assert missing == []


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [(node.module, alias.name)
               for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("quadsurv")
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

"""The README and the library's docstrings and comments name only code that exists.

A private name such as ``_power_row`` cited in prose outlives a rename or a
deletion unless something checks it: every ``_name`` cited there must be
defined in ``src/apnforge``, at module or class level.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "apnforge").glob("*.py"))
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")  # _name, not x_1 or __init__


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for scope in [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _prose(text: str, tree: ast.Module) -> list[str]:
    """The docstrings and comments of one source file."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = [ast.get_docstring(node) for node in ast.walk(tree) if isinstance(node, kinds)]
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [doc for doc in docs if doc] + [t.string for t in tokens if t.type == tokenize.COMMENT]


def test_cited_private_names_are_defined():
    defined: set[str] = set()
    cited: dict[str, set[str]] = {}
    for path in LIBRARY:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        defined |= _defined(tree)
        for chunk in _prose(text, tree):
            for name in PRIVATE.findall(chunk):
                cited.setdefault(name, set()).add(path.name)
    for name in PRIVATE.findall((ROOT / "README.md").read_text(encoding="utf-8")):
        cited.setdefault(name, set()).add("README.md")
    assert {"_power_row", "_values_at_logs", "_affine_parts"} <= cited.keys()
    stale = {name: sorted(where) for name, where in cited.items() if name not in defined}
    assert stale == {}

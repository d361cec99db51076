"""Every function, method, class and module-level name in src/bitcycle is used by the program itself.

A definition or module-level assignment whose name appears, as a whole
word, nowhere in src/, demos/ or the non-test files of perfbench/ except
where it is defined or assigned is code only tests call. Names are matched
as text, so a use in a docstring, or in a string the benchmark tracer
patches by name, counts.
"""

import ast
import glob
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _program_files() -> list[str]:
    paths = []
    for top in ("src", "demos", "perfbench"):
        paths += glob.glob(os.path.join(ROOT, top, "**", "*.py"), recursive=True)
    return [p for p in paths if not os.path.basename(p).startswith("test_")]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements assign, once per assignment."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_definition_is_used_only_by_tests():
    text = ""
    defined = Counter()
    for path in _program_files():
        with open(path) as f:
            source = f.read()
        text += source + "\n"
        if os.sep + os.path.join("src", "bitcycle") + os.sep in path:
            tree = ast.parse(source)
            defined.update(node.name for node in ast.walk(tree)
                           if isinstance(node, DEFS) and not _dunder(node.name))
            defined.update(name for name in _assigned(tree) if not _dunder(name))
    unused = sorted(name for name, count in defined.items()
                    if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count)
    assert unused == []

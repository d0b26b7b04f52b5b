"""Every module-level function, class or UPPER_CASE constant of bellkit is exported or used.

A name outside bellkit.__all__ must be loaded, as a name or an attribute,
somewhere in src/bellkit outside its own definition; a mention in a
docstring or comment does not count, and neither do tests or the benchmark:
code that only they reach is dead to every caller of bellkit.  Dunder names
such as __version__ are skipped.
"""
import ast
from pathlib import Path

import bellkit

SRC = Path(bellkit.__file__).parent


def test_every_unexported_definition_is_used_in_the_package():
    definitions = {}  # (module, name) -> the lines of its body
    loads = []  # (module, line, name) of every loaded name or attribute
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)
                         and t.id.isupper() and not t.id.startswith("__")]
            else:
                names = []
            for name in names:
                definitions[path.name, name] = range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path.name, node.lineno, node.attr))
    unused = [
        f"{module}:{name}" for (module, name), body in sorted(definitions.items())
        if name not in bellkit.__all__
        and not any(used == name and (where != module or line not in body)
                    for where, line, used in loads)
    ]
    assert unused == []

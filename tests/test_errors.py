"""Every exception type is declared in bellkit.errors; other modules raise built-ins or those."""
import ast
import builtins
from pathlib import Path

import bellkit
from bellkit import errors

SRC = Path(bellkit.__file__).parent

EXCEPTION_NAMES = {
    name for name, obj in {**vars(builtins), **vars(errors)}.items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def exception_classes(source: str) -> list[str]:
    """Names of the classes in source whose bases include an exception type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                 for base in node.bases]
        if any(name in EXCEPTION_NAMES or name.endswith(("Error", "Exception"))
               for name in bases):
            found.append(node.name)
    return found


def test_guard_sees_an_exception_class():
    assert exception_classes("class CliError(Exception):\n    pass\n") == ["CliError"]
    assert exception_classes("class Cap(errors.ResourceLimitError):\n    pass\n") == ["Cap"]
    assert exception_classes("class Layout:\n    pass\n") == []


def test_no_exception_class_outside_the_errors_module():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for name in exception_classes(path.read_text())
    ]
    assert found == []

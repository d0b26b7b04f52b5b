"""The README's library quick tour runs as printed, and its policy tables match the code."""
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from bellkit import limits, tolerance

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, f"{README}:quick tour", "exec"), namespace)
    assert math.isclose(namespace["best"].value, 4 * math.sqrt(2), rel_tol=0, abs_tol=1e-9)


def readme_value(text: str, **variables):
    """A value cell as Python: 2^20 is 2**20 and 50 (m + n) is 50 * (m + n)."""
    return eval(re.sub(r"(\d) \(", r"\1 * (", text.replace("^", "**")), {}, variables)


@pytest.mark.parametrize("module, title", [(tolerance, "Tolerances"), (limits, "Limits")])
def test_policy_table_lists_every_name_and_value(module, title):
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)[^`]*` \| ([^|]+?) \|", section, re.MULTILINE))
    assert sorted(rows) == sorted(name for name in vars(module) if not name.startswith("_"))
    for name, text in rows.items():
        value = getattr(module, name)
        if callable(value):
            for m, n in ((3, 7), (40, 81)):
                assert readme_value(text, m=m, n=n) == value(m, n), name
        else:
            assert readme_value(text) == value, name

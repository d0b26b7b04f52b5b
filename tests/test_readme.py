"""The README's library quick tour runs as printed."""
import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, f"{README}:quick tour", "exec"), namespace)
    assert math.isclose(namespace["best"].value, 4 * math.sqrt(2), rel_tol=0, abs_tol=1e-9)

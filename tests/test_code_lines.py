"""tools/code_lines.py: code lines without docstrings, comments or blank lines."""
import importlib.util
import textwrap
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", PATH)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

#: each line that counts ends in "# x", which the tokenizer still sees as code
#: on that line; the other lines are docstrings, comments and blanks
SOURCE = textwrap.dedent('''\
    """A module docstring
    over two lines."""
    import os  # x

    # a comment line
    TEXT = """a string that is  # x
    not a docstring"""  # x


    class Box:  # x
        """One line."""

        def size(self):  # x
            """Two
            lines."""
            "a second string statement"  # x
            return (1 +  # x
                    2)  # x


    async def wait():  # x
        \'\'\'Single-quoted.\'\'\'
        pass  # x
    ''')


def test_counts_a_synthetic_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == SOURCE.count("# x") == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "b.py").write_text(SOURCE)
    (package / "sub" / "a.py").write_text("x = 1\n\n# c\ny = [\n    2,\n]\n")
    (package / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    10  {package / 'b.py'}", f"     4  {package / 'sub' / 'a.py'}", "    14  total"]

"""The README's code and CLI examples stay runnable against the package."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import abeltau
from abeltau import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs_in_a_fresh_interpreter():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README has no python block under '## Library quick tour'"
    package_root = str(Path(abeltau.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); exec(sys.argv[2])"
    proc = subprocess.run([sys.executable, "-I", "-c", code, package_root, match.group(1)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _cli_examples():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n.*?^Examples:\n+```\n(.*?)^```$", text, re.M | re.S)
    assert match, "README has no code block after 'Examples:' under '## CLI'"
    lines = [line for line in match.group(1).splitlines() if line.startswith("abeltau ")]
    assert lines
    return lines


@pytest.mark.parametrize("line", _cli_examples())
def test_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    # in tmp_path, since an example writes its report there; a comment shows
    # what the line prints
    command, _, shown = line.partition("#")
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0, line
    if shown.strip():
        assert capsys.readouterr().out.strip() == shown.strip(), line

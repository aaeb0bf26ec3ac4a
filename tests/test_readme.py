"""The README's code stays runnable against the package's root namespace."""

import re
import subprocess
import sys
from pathlib import Path

import abeltau

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

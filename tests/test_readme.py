"""README's Python example runs, and prints what its comments say it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == re.findall(r"^print\(.*\)\s+# (.*)$", code, flags=re.M)

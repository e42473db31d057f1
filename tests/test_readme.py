"""README's library example runs as shown: its one python block is executed
as written, and what its comments claim is checked."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_block_runs_as_commented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue() == "Entangled\n"   # the comment on its print
    report = namespace["report"]
    assert report.lam - report.trace_mean == namespace["violation"] < 0

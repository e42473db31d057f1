"""Golden CLI reports, compared byte for byte.

`tests/data/golden/cases.json` lists each case's arguments (`{data}` stands
for `tests/data`) and exit code.  A case runs `cli.main` in an empty working
directory; its stdout must equal `<case>.out` and, for `sweep`, the CSV it
writes must equal `<case>.csv`.  The corpus covers `check` (auto, ppt and
witness on a two-mode squeezed vacuum, a locally dressed two-mode state, a
Werner-Wolf family point and a dressed Werner-Wolf-pattern state; auto and
ppt on two NPT two-mode states within 1e-9 of Simon's boundary, whose
margins only a floor at rounding resolves; nongauss on one ladder state),
both sweeps and one two-mode `oracle`.  A change that
moves a byte rewrites the golden and names the byte and its cause.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cvwitness import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path, monkeypatch):
    case = CASES[name]
    argv = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == case["exit"]
    assert out.getvalue() == (GOLDEN / f"{name}.out").read_text()
    csv = GOLDEN / f"{name}.csv"
    if csv.exists():
        assert (tmp_path / "out.csv").read_bytes() == csv.read_bytes()

"""Golden CLI reports, compared byte for byte.

`tests/data/golden/cases.json` lists each case's arguments (`{data}` stands
for `tests/data`) and exit code.  A case runs `cli.main` in an empty working
directory; its stdout must equal `<case>.out` and, for `sweep`, the CSV it
writes must equal `<case>.csv`.  The corpus covers `check` (auto, ppt and
witness on a two-mode squeezed vacuum, a locally dressed two-mode state, a
Werner-Wolf family point and a dressed Werner-Wolf-pattern state; auto and
ppt on two NPT two-mode states within 1e-9 of Simon's boundary, whose
margins only floors at rounding resolve: the criterion's sign is read
against its own rounding, `lhs_rounding` (about 1e-13 and 1e-11 there),
and the witness's ratio against its own, `ell_rel_err` and
`ell_limit_rel_err`; nongauss on one ladder state), both sweeps and one
two-mode `oracle`.  A change that
moves a byte rewrites the goldens with
`PYTHONPATH=src python tests/test_golden_reports.py`, which runs every case
as the test does, and names the byte and its cause.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cvwitness import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _run(name: str) -> tuple[int, str]:
    """Exit code and stdout of the case's `cli.main` call, run in the
    working directory, where a sweep writes its CSV."""
    argv = [arg.replace("{data}", str(DATA)) for arg in CASES[name]["argv"]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = _run(name)
    assert code == CASES[name]["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()
    csv = GOLDEN / f"{name}.csv"
    if csv.exists():
        assert (tmp_path / "out.csv").read_bytes() == csv.read_bytes()


if __name__ == "__main__":
    # rewrite every golden: a case's exit code is kept in cases.json, so a
    # case that now exits otherwise fails its test after the rewrite
    home = Path.cwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                _, out = _run(name)
            finally:
                os.chdir(home)
            (GOLDEN / f"{name}.out").write_text(out)
            csv = Path(tmp) / "out.csv"
            if csv.exists():
                (GOLDEN / f"{name}.csv").write_bytes(csv.read_bytes())

"""The CLI's reports on its run files, byte for byte.

The files under tests/golden/ are the reports as first recorded; a change
that alters any report or exit status fails here.  A report is made from
the run file next to it that is named after the golden with its command
dropped, or else from demos/reference.torvoa, with the command replaced
in either case.  n2-natural.torvoa puts the natural tops at N = 2 on
half-integral lattice points; verify-realization, verify-sugawara and
singular run on it.  verify-voa is left out because one run takes about
5 s (4.7-5.5 s in three runs on a shared 2-vCPU host, Python 3.11), a
seventh of Tier-1's wall time; its Borcherds window is fixed at 2,
whatever the run file's window.  A CI step outside Tier-1 diffs its
report against golden/verify-voa.json.  Likewise verify-fields runs here
at window 1 only; a CI step diffs its default-window report (about 4 s)
against golden/verify-fields.json.
"""

from pathlib import Path

import pytest

from torvoa.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# (command, extra flags, golden file, exit status)
CASES = [
    ("verify-jacobi", [], "verify-jacobi.json", 0),
    ("verify-sugawara", [], "verify-sugawara.json", 0),
    ("verify-realization", [], "verify-realization.json", 0),
    ("singular", [], "singular.json", 0),
    ("char", [], "char.json", 1),
    ("verify-fields", ["--window", "1"], "verify-fields-window1.json", 0),
    ("verify-realization", [], "verify-realization-n2-natural.json", 0),
    ("verify-sugawara", [], "verify-sugawara-n2-natural.json", 0),
    ("singular", [], "singular-n2-natural.json", 0),
]


@pytest.mark.parametrize("command, flags, golden, status", CASES)
def test_report_matches_golden(command, flags, golden, status, tmp_path,
                               capsys):
    name = Path(golden).stem.removeprefix(command + "-")
    runfile = GOLDEN / f"{name}.torvoa"
    if not runfile.exists():
        runfile = ROOT / "demos" / "reference.torvoa"
    lines = runfile.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "run.torvoa"
    path.write_text("".join(f'command = "{command}"\n'
                            if line.startswith("command = ") else line
                            for line in lines), encoding="utf-8")
    assert main([str(path), *flags]) == status
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")

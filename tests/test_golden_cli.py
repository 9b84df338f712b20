"""Replay the benchmark's CLI script in-process against its golden stdout.

Every entry of ``bench/cli/script.json`` runs through ``mapvir.cli.main``
with ``bench/cli`` as the working directory (the script names its spec files
relative to it), and its stdout must match ``bench/cli/golden/<name>.out``
byte for byte.  Nothing under ``bench/`` is written.
"""

import json
from pathlib import Path

import pytest

from mapvir.cli import main

CLI_DIR = Path(__file__).resolve().parent.parent / "bench" / "cli"
SCRIPT = json.loads((CLI_DIR / "script.json").read_text(encoding="utf-8"))


def test_every_golden_has_a_script_entry():
    names = {entry["name"] for entry in SCRIPT}
    goldens = {p.stem for p in (CLI_DIR / "golden").glob("*.out")}
    assert goldens == names
    assert len(names) == len(SCRIPT)


@pytest.mark.parametrize("entry", SCRIPT, ids=[e["name"] for e in SCRIPT])
def test_cli_output_matches_golden(entry, capsys, monkeypatch):
    monkeypatch.chdir(CLI_DIR)
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    golden = (CLI_DIR / "golden" / f"{entry['name']}.out").read_text(encoding="utf-8")
    assert out == golden

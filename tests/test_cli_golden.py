"""Golden outputs: every CLI command on fixed inputs, byte for byte.

Each case runs ``critnet.cli.main`` in-process from ``tests/data/golden``
and compares the exit code, stdout and stderr with the record committed in
``tests/data/golden/expected.json``. The record was written once from the
program's own output; a refactor that keeps behaviour leaves it untouched,
and a deliberate change in output edits it by hand, visibly in the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from critnet.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

# Paths are relative to GOLDEN, so no output depends on where the checkout is.
NETWORKS = {
    "line": "../../../demos/data/line.net",
    "notobs": "notobs.net",
    "dups": "dups.net",
    "composed": "composed.net",
    "single": "single.net",
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, path in NETWORKS.items():
        for algorithm in ("1", "otf", "3"):
            cases[f"{name}-check-{algorithm}"] = ["check", path, "--algorithm", algorithm]
            cases[f"{name}-check-{algorithm}-json"] = [
                "check", path, "--algorithm", algorithm, "--json",
            ]
        cases[f"{name}-synth"] = ["synth", path]
        cases[f"{name}-compose"] = ["compose", path]
        cases[f"{name}-reduce"] = ["reduce", path]
        cases[f"{name}-export"] = ["export", path, "--dot"]
        cases[f"{name}-preserve"] = ["preserve", path]
        cases[f"{name}-preserve-json"] = ["preserve", path, "--json"]
    cases["line-monitor"] = ["monitor", "line.obs", "--events", "line.events"]
    cases["line-monitor-desync"] = ["monitor", "line.obs", "--events", "desync.events"]
    return cases


CASES = _cases()
EXPECTED = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_every_case_has_a_record():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_record(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("CRITNET_BUDGET", raising=False)
    code = main(CASES[case])
    captured = capsys.readouterr()
    want = EXPECTED[case]
    assert want["argv"] == CASES[case]
    assert (code, captured.out, captured.err) == (want["exit"], want["stdout"], want["stderr"])

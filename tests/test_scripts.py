"""The scripts under `scripts/` run to completion on small bounds."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "command",
    [
        ["reproduce_tables.py"],
        ["sweep_corpus.py", "--max-nu", "4"],
        ["signature_evidence.py", "--max-nu", "4"],
    ],
)
def test_script_runs(command):
    script, *args = command
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_spine_peaks_reports_each_command(tmp_path, capsys):
    import hashlib
    import json

    from arbora.cli import main

    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "spine_peaks.py"), "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert [line["command"] for line in lines] == ["flipgraph", "complex", "singletons"]
    star = tmp_path / "star5.json"
    star.write_text(
        json.dumps(
            {
                "vertices": [{"id": i, "sign": "-"} for i in range(1, 6)],
                "edges": [[1, i] for i in range(2, 6)],
            }
        )
    )
    for line in lines:
        assert line["nu"] == 5 and line["exit"] == 0
        assert line["peak_kib"] > 0 and line["seconds"] >= 0
        assert main([line["command"], str(star)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert line["stdout_sha256"] == hashlib.sha256(stdout).hexdigest()


def test_cli_digests_hash_each_command(tmp_path, capsys):
    import hashlib
    import json

    from arbora.catalog import tripod_neg
    from arbora.cli import main
    from arbora.trees import tree_to_json

    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "cli_digests.py"), "--max-nu", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    names = list(dict.fromkeys(line["tree"] for line in lines))
    assert names == [
        "corpus-0", "corpus-9",
        "tripod_neg", "tripod_pos", "p3mix", "path4_neg", "htree_eq", "htree_diff", "spider7",
        "phantom-leaf", "phantom-centre",
    ]
    all_orders = "congruence-check --all-orders"
    every_base = [line["tree"] for line in lines if line["command"] == all_orders]
    above_five = ("htree_eq", "htree_diff", "spider7")
    assert every_base == [name for name in names if name not in above_five]
    assert len(lines) == 12 * len(names) + len(every_base)
    refused = {(line["tree"], line["command"]) for line in lines if line["exit"] != 0}
    assert refused == {
        (name, command)
        for name in ("phantom-leaf", "phantom-centre")
        for command in ("minkowski --check", "signature-sweep")
    }
    path = tmp_path / "tripod.json"
    path.write_text(json.dumps(tree_to_json(tripod_neg())))
    for line in lines:
        if line["tree"] == "tripod_neg":
            command, *options = line["command"].split()
            argv = [command, str(path), *options]
            if command == "isometric":
                argv.append(str(path))  # the tree against itself
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert line["stdout_sha256"] == hashlib.sha256(captured.out.encode()).hexdigest()
            assert line["stderr_sha256"] == hashlib.sha256(captured.err.encode()).hexdigest()

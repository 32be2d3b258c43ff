#!/usr/bin/env python3
"""Digests of the CLI's output on a fixed set of trees.

Runs `arbora.cli.main` in this process for every command below on every
ninth tree of `corpus(max_nu=MAX_NU)` (named trees excluded), the named
trees and two phantom trees, and prints one JSON line per (command, tree):
the exit code and the SHA-256 of stdout and of stderr.  Two checkouts
print the same lines exactly when their CLI output is byte-identical, so
comparing two source trees is one `diff`:

    python scripts/cli_digests.py > digests.txt
    python scripts/cli_digests.py --max-nu 4
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arbora.catalog import NAMED_TREES, corpus
from arbora.cli import main
from arbora.trees import tree_to_json

PHANTOM_TREES = {
    "phantom-leaf": {
        "vertices": [{"id": 6, "sign": "-"}, {"id": 7, "sign": "+"}, {"id": 9, "phantom": True}],
        "edges": [[6, 7], [7, 9]],
    },
    "phantom-centre": {
        "vertices": [
            {"id": 1, "phantom": True},
            {"id": 2, "sign": "-"},
            {"id": 3, "sign": "+"},
            {"id": 4, "sign": "-"},
            {"id": 5, "sign": "+"},
        ],
        "edges": [[1, 2], [1, 3], [1, 4], [4, 5]],
    },
}


def trees(max_nu: int) -> dict:
    """Name -> tree document, in a fixed order."""
    chosen = list(corpus(max_nu=max_nu, include_named=False))[::9]
    documents = {f"corpus-{9 * i}": tree_to_json(tree) for i, tree in enumerate(chosen)}
    documents.update((name, tree_to_json(factory())) for name, factory in NAMED_TREES.items())
    documents.update(PHANTOM_TREES)
    return documents


def commands(path: str, document: dict) -> list:
    standard = [v["id"] for v in document["vertices"] if not v.get("phantom", False)]
    order = ",".join(map(str, sorted(standard)))
    return [
        ["blocks", path],
        ["complex", path],
        ["polytope", path],
        ["kappa", path, "--order", order],
        ["flipgraph", path],
        ["flipgraph", path, "--dot"],
        ["minkowski", path, "--check"],
        ["singletons", path],
        ["barycenter", path],
        ["isometric", path, path],
        ["congruence-check", path, "--order", order],
        ["signature-sweep", path],
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main_digests():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-nu", type=int, default=6)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "tree.json")
        for name, document in trees(args.max_nu).items():
            Path(path).write_text(json.dumps(document), encoding="utf-8")
            for argv in commands(path, document):
                code, out, err = run(argv)
                line = {
                    "tree": name,
                    "command": " ".join(a for a in argv if a != path),
                    "exit": code,
                    "stdout_sha256": digest(out),
                    "stderr_sha256": digest(err),
                }
                print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main_digests()

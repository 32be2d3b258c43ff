#!/usr/bin/env python3
"""Time and peak memory of the spine commands on the all-negative star.

For each of `flipgraph`, `complex` and `singletons`, runs `arbora.cli.main`
on the all-negative NU-vertex star (centre 1, leaves 2 .. NU) in a child
process of its own, with the optional address-space cap (RLIMIT_AS) set in
that child only.  The child reports its own peak resident set, VmHWM of
/proc/self/status (Linux), since `ru_maxrss` of a child can include the
parent's peak.  Prints one JSON line per command: the seconds spent in
`main`, the peak in KiB, the exit code and the SHA-256 of stdout.

    python scripts/spine_peaks.py 9 --cap-mb 2000
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("flipgraph", "complex", "singletons")

CHILD = """
import json, sys, time
src, command, tree, report = sys.argv[1:]
sys.path.insert(0, src)
from arbora.cli import main
start = time.perf_counter()
code = main([command, tree])
seconds = time.perf_counter() - start
sys.stdout.flush()
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
with open(report, "w", encoding="ascii") as handle:
    json.dump({"seconds": round(seconds, 3), "peak_kib": peak}, handle)
sys.exit(code)
"""


def star(nu: int) -> dict:
    return {
        "vertices": [{"id": i, "sign": "-"} for i in range(1, nu + 1)],
        "edges": [[1, i] for i in range(2, nu + 1)],
    }


def probe(command: str, tree: Path, report: Path, cap_mb) -> dict:
    def cap():
        limit = cap_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(SRC), command, str(tree), str(report)],
        stdout=subprocess.PIPE,
        preexec_fn=cap if cap_mb else None,
    )
    digest = hashlib.sha256()
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
    code = child.wait()
    # a child killed before its report has no figures
    figures = json.loads(report.read_text()) if report.exists() else {}
    return {
        "command": command,
        "seconds": figures.get("seconds"),
        "peak_kib": figures.get("peak_kib"),
        "exit": code,
        "stdout_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("nu", type=int, help="standard vertices of the star")
    parser.add_argument("--cap-mb", type=int, help="address-space cap of each child")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / f"star{args.nu}.json"
        tree.write_text(json.dumps(star(args.nu)))
        for command in COMMANDS:
            report = Path(scratch) / f"{command}.json"
            result = {"nu": args.nu, **probe(command, tree, report, args.cap_mb)}
            print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

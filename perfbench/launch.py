"""Run `arbora ARGS...` the way `python -m arbora.cli ARGS...` does, then report peak RSS.

At exit the process appends one line `perfbench-peak-rss-kb N` to stderr, with
N its own VmHWM.  The parent's ru_maxrss for a child is no use here: a child
started by vfork and exec inherits the parent's peak into that figure.
"""

import atexit
import runpy
import sys

MARK = "perfbench-peak-rss-kb"


def report_peak():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"\n{MARK} {line.split()[1]}\n")


if __name__ == "__main__":
    atexit.register(report_peak)
    runpy.run_module("arbora.cli", run_name="__main__", alter_sys=True)

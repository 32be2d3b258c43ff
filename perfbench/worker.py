"""Benchmark worker: runs arbora in-process, one request per stdin line.

run.py starts it with PYTHONPATH set to the checkout's src/ and the work
directory as its only argument.  The worker answers every JSON request line
with one JSON line:

  {"op": "certify", "path": P}       the certificate bundle of one tree file
  {"op": "trace", "kind": K, "path": P, "request": R, "traced_first": B}
                                     the layer chain of K ("polytope", "blocks"
                                     or "certify") once traced and once not
  {"op": "calibrate"}                the named-tree section of the traced run
  {"op": "finish"}                   spans, counts and peak RSS; then exit
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
import traceback
from itertools import combinations, permutations
from pathlib import Path

import inputs
from spans import NullTracer, Tracer

SRC = Path(__file__).resolve().parents[1] / "src"

import arbora  # noqa: E402

if not Path(arbora.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"worker: arbora was imported from {arbora.__file__}, not from {SRC}")

from arbora import (  # noqa: E402
    blocks,
    cli,
    complexes,
    fans,
    geometry,
    minkowski,
    spines,
    trees,
    weak_order,
)

CALIBRATION_REPEATS = 3


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def peak_rss_kb() -> int:
    """VmHWM of this process: its own peak, not that of the process that spawned it."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def chain(t, kind, text, probes, cli_argv=None):
    """Call the layers in dependency order; each call finds the earlier layers cached.

    `kind` says how deep the chain goes: "blocks", "polytope" or "certify"
    (the full certificate bundle).  With `probes`, the per-call figures are
    taken too: every flip, validation, vertex, sweep and tight right-hand side
    is called once more on its own.  Returns what the checks need.
    """
    result = {}
    if cli_argv:
        result["cli"] = t.call("cli.request", run_cli, cli_argv)
    tree = t.call("trees.load", trees.tree_from_json, text)
    with t.counting("blocks.subsets_tested", blocks, "is_building_block"):
        found_blocks = t.call("blocks.enumerate", blocks.enumerate_blocks, tree)
    t.count("blocks.found", len(found_blocks))
    result["blocks"] = found_blocks
    if kind == "blocks":
        return result

    with t.counting("spines.flips", spines, "flip_arc"):
        found = t.call("spines.enumerate", spines.enumerate_maximal_spines, tree)
    t.count("spines.count", len(found))
    if probes:
        for spine in found:
            if not t.call("spines.validate", spines.validate_spine, tree, spine):
                raise AssertionError("an enumerated spine does not validate")
        for spine in found:
            for arc in spine.arcs:
                t.call("spines.flip", spines.flip_arc, tree, spine, arc)
        for spine in found:
            t.call("geometry.vertex_point", geometry.vertex_point, tree, spine)
    certificate = t.call("geometry.verify", geometry.verify_realization, tree)
    result.update(nu=tree.nu, spines=len(found), certificate=bool(certificate))
    if kind == "polytope":
        return result

    base = tuple(sorted(tree.standard))
    if probes:
        for order in permutations(base):
            t.call("fans.kappa", fans.kappa, tree, order)
    sizes = [len(t.call("fans.fiber", fans.fiber, tree, s)) for s in found]
    fan = t.call("fans.fan_cover", fans.fan_cover_check, tree)
    t.count("fans.orders", fan.order_count)
    stats = t.call("complexes.stats", complexes.complex_stats, tree)
    t.count("complexes.faces", sum(stats.f_complex))
    h = t.call("weak_order.h_vector", weak_order.h_vector, tree, base)
    if probes:
        t.call("weak_order.digraph", weak_order.increasing_flip_digraph, tree, base)
    report = t.call("weak_order.congruence", weak_order.congruence_diagnostics, tree, base)
    if probes:
        for r in range(1, len(base) + 1):
            for subset in combinations(base, r):
                t.call("minkowski.tight_rhs", minkowski.tight_rhs, tree, subset)
        t.call("minkowski.oracle", minkowski.moebius_oracle, tree)
    table = t.call(
        "minkowski.coefficients", minkowski.minkowski_coefficients, tree, 7, True
    )
    result["summary"] = {
        "nu": tree.nu,
        "blocks": len(found_blocks),
        "spines": len(found),
        "certificate": bool(certificate),
        "fiber_sizes": sizes,
        "fan": [fan.passed, fan.cones, fan.order_count],
        "f_vector": list(stats.f_complex),
        "incidence": list(stats.incidence_profile),
        "h_vector": list(h),
        "congruence": [
            report.is_order_congruence,
            len(report.interval_failures),
            report.projection_down_failure is None,
            report.projection_up_failure is None,
        ],
        "y": [value for _, value in table.y],
        "z": [value for _, value in table.z],
        "checked": table.checked,
    }
    return result


def check_view(kind, result, original):
    """The part of a chain result that run.py checks, in JSON form.

    `original` maps the ids of the copy the chain ran on back to the ids of
    the generated tree, so that outputs compare with the recorded digests.
    """
    view = {}
    if "cli" in result:
        rc, stdout = result["cli"]
        view["cli_rc"] = rc
        view["cli_stdout"] = stdout
    if kind == "blocks":
        listed = [sorted(original[v] for v in b) for b in result["blocks"]]
        # the exact bytes `arbora blocks` prints for this tree
        view["blocks_stdout"] = inputs.dumps(listed) + "\n"
    else:
        view["nu"] = result["nu"]
        view["blocks"] = len(result["blocks"])
        view["spines"] = result["spines"]
        view["certificate"] = result["certificate"]
    if "summary" in result:
        view["summary"] = result["summary"]
    return view


class Worker:
    def __init__(self, work: Path):
        self.work = work
        self.tracer = Tracer()
        self._rng = random.Random(0)
        self._labellings = set()

    def copy(self, doc) -> tuple:
        """A relabelled copy of the tree that this process has not seen: (text, new ids).

        The new ids are increasing and at most 256, like the ids 1..n of the
        generated trees: CPython shares the objects of small ints, and ids
        without that sharing make dictionary lookups measurably slower.
        """
        n = len(doc["vertices"])
        ids = tuple(range(1, n + 1))
        while ids == tuple(range(1, n + 1)) or ids in self._labellings:
            ids = tuple(sorted(self._rng.sample(range(1, 257), n)))
        self._labellings.add(ids)
        return inputs.dumps(inputs.relabel(doc, ids)), ids

    def copy_file(self, doc) -> str:
        path = self.work / f"copy-{len(self._labellings)}.json"
        path.write_text(self.copy(doc)[0])
        return str(path)

    def certify(self, msg):
        text = Path(msg["path"]).read_text()
        return {"summary": chain(NullTracer(), "certify", text, probes=False)["summary"]}

    def trace(self, msg):
        """Run one request's chain traced and untraced, on distinct copies.

        Each side works on a tree the process has not seen, so neither side
        profits from the other's caches, and both sides' ids are alike; the
        difference of the two times is the cost of tracing.
        """
        kind = msg["kind"]
        doc = json.loads(Path(msg["path"]).read_text())
        sides = ("traced", "untraced") if msg["traced_first"] else ("untraced", "traced")
        reply = {}
        for side in sides:
            t = self.tracer if side == "traced" else NullTracer()
            t.request = msg["request"]
            layer_text, ids = self.copy(doc)
            cli_argv = None if kind == "certify" else [kind, self.copy_file(doc)]
            start = time.perf_counter()
            result = t.call("request", chain, t, kind, layer_text, True, cli_argv)
            reply[side + "_s"] = time.perf_counter() - start
            if side == "traced":
                original = {new: old for old, new in enumerate(ids, 1)}
                reply["check"] = check_view(kind, result, original)
        return reply

    def calibrate(self, msg):
        """Re-measure the ROADMAP baseline trees, and the full chain on htree_eq."""
        t = self.tracer
        for name in ("htree_eq", "spider7"):
            for repeat in range(CALIBRATION_REPEATS):
                t.request = f"calib:{name}:{repeat}"
                text, _ = self.copy(inputs.NAMED[name])
                tree = t.call("trees.load", trees.tree_from_json, text)
                found = t.call("spines.enumerate", spines.enumerate_maximal_spines, tree)
                for spine in found:
                    t.call("spines.validate", spines.validate_spine, tree, spine)
                    for arc in spine.arcs:
                        t.call("spines.flip", spines.flip_arc, tree, spine, arc)
                t.call("geometry.verify", geometry.verify_realization, tree)
        t.request = "calib:path18"
        text, _ = self.copy(inputs.NAMED["path18"])
        tree = t.call("trees.load", trees.tree_from_json, text)
        t.count("blocks.found", len(t.call("blocks.enumerate", blocks.enumerate_blocks, tree)))
        t.request = "calib:chain"
        htree = inputs.NAMED["htree_eq"]
        cli_argv = ["polytope", self.copy_file(htree)]
        t.call("request", chain, t, "certify", self.copy(htree)[0], True, cli_argv)
        return {"done": True}

    def finish(self, msg):
        return {
            "spans": self.tracer.spans,
            "counts": [[r, c] for r, c in self.tracer.counts.items()],
            "peak_rss_kb": peak_rss_kb(),
        }


def main():
    worker = Worker(Path(sys.argv[1]))
    handlers = {
        "certify": worker.certify,
        "trace": worker.trace,
        "calibrate": worker.calibrate,
        "finish": worker.finish,
    }
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        try:
            reply = handlers[msg["op"]](msg)
        except Exception:  # reported to run.py, which counts the request as failed
            reply = {"error": traceback.format_exc()}
        print(json.dumps(reply), flush=True)
        if msg["op"] == "finish":
            break


if __name__ == "__main__":
    main()

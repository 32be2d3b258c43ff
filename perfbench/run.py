#!/usr/bin/env python3
"""The arbora benchmark: one closed-loop client, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record [--workload NAME]   # re-record expected digests

Run from the root of a checkout; arbora is imported from its src/ only.  Each
request starts when the previous one has finished, and at most one arbora
process runs beside this one.  With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it runs every request's layer chain
in a worker, traced and untraced, and reports the per-layer metrics, the
tracing overhead and the calibration table.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  README.md has the design.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import inputs
from launch import MARK
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

WORKLOADS = {
    # arbora's flagship command, in a fresh process per request.  The pool
    # holds each shape as often as random Pruefer codes would on average, so
    # that runs differ only in labels and signs: the number of spines, and so
    # most of the work, depends on the shape alone.
    "cli-polytope": {"command": "polytope", "nu": 6, "pool": 32},
    # the 2^nu subset filter of `arbora blocks`; no spine is ever built.  Each
    # tree is followed by its sign-flipped twin: the filter's cost on the two
    # is negatively correlated, which steadies a run's figures across seeds.
    "cli-blocks-wide": {"command": "blocks", "nu": 13, "pool": 32, "twins": True},
    # one long-lived process certifying every tree with nu <= 5 and sixteen
    # nu = 6 trees drawn by shape as in cli-polytope, all in one seeded order:
    # more than ten nu = 6 trees, so that the tail lies among them, and spread
    # over the pass, so that a change of machine speed in one part of it does
    # not decide the tail
    "corpus-certify": {"command": None, "max_nu": 5, "nu": 6, "pool": 16},
}
SETUP_REPEATS = 15
STARTUP_PROBES = 5
TAIL_BEYOND = 10  # requests per pass beyond the tail
REQUEST_TIMEOUT = 170

# The children's Python settings are fixed here, whatever the caller's: arbora
# comes from src/ only, and its bytecode is cached as for an installed package,
# but in the benchmark's own directory rather than in src/.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
ENV.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(HERE / "_work" / "pycache"))


class Item:
    def __init__(self, doc):
        self.doc = doc
        self.text = inputs.dumps(doc)
        self.key = inputs.digest(self.text)[:16]
        self.nu = len(doc["vertices"])
        self.path = None


def shape_pool(rng: random.Random, nu: int, size: int) -> list:
    """`size` distinct trees, each shape as often as random Pruefer codes give it."""
    pool = {}
    for edges, count in inputs.shape_quotas(nu, size):
        for _ in range(count):
            item = Item(inputs.random_labelling(rng, edges, nu))
            while item.key in pool:
                item = Item(inputs.random_labelling(rng, edges, nu))
            pool[item.key] = item
    items = list(pool.values())
    rng.shuffle(items)
    return items


def make_items(workload: str, seed: int) -> list:
    """The items of one pass, in order."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if spec.get("twins"):
        docs = [inputs.random_tree(rng, spec["nu"]) for _ in range(spec["pool"] // 2)]
        return [Item(d) for doc in docs for d in (doc, inputs.flip_signs(doc))]
    if "max_nu" not in spec:
        return shape_pool(rng, spec["nu"], spec["pool"])
    items = [Item(doc) for doc in inputs.small_corpus(spec["max_nu"])]
    items += shape_pool(rng, spec["nu"], spec["pool"])
    rng.shuffle(items)
    return items


class WorkerProcess:
    """The in-process side: worker.py, started with the checkout's src/ on its path."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=ENV,
            cwd=ROOT,
        )
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def ask(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        reply = self.ask({"op": "finish"})
        self.close()
        return reply

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def import_probe() -> float:
    """Seconds for a cold interpreter to import arbora.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import arbora.cli"], env=ENV, cwd=ROOT, check=True)
    return time.perf_counter() - start


def cli_request(command: str, path: Path):
    """One `arbora COMMAND FILE` in a fresh process: (rc, stdout, stderr, seconds, peak kB)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), command, str(path)],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=REQUEST_TIMEOUT,
    )
    seconds = time.perf_counter() - start
    stderr, _, mark = proc.stderr.rstrip("\n").rpartition("\n")
    peak = int(mark.split()[1]) if mark.startswith(MARK) else 0
    return proc.returncode, proc.stdout, stderr.strip(), seconds, peak


def set_up(workload: str, seed: int, work: Path):
    """Generate and write the inputs; probe the import or start the worker."""
    items = make_items(workload, seed)
    trees = work / "trees"
    trees.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(items):
        item.path = trees / f"{i:03d}.json"
        item.path.write_text(item.text)
    if WORKLOADS[workload]["command"]:
        import_probe()
        return items, None
    return items, WorkerProcess(work)


def timed_set_up(workload: str, seed: int, work: Path):
    """Set up SETUP_REPEATS times; keep the last; report the median time."""
    times = []
    worker = None
    for _ in range(SETUP_REPEATS):
        if worker:
            worker.close()
        start = time.perf_counter()
        items, worker = set_up(workload, seed, work)
        times.append(time.perf_counter() - start)
    return items, worker, statistics.median(times)


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED.read_text()).get(workload, {})


# -- end-to-end run -----------------------------------------------------------


def check_outcome(command, item: Item, outcome, expected: dict) -> list:
    """Problems of one request: the CLI's (rc, stdout, stderr), or the worker's reply."""
    if command:
        rc, output, stderr = outcome
        if rc != 0 or stderr:
            return [f"exit code {rc}, stderr {stderr[-300:]!r}"]
        document, problems = checks.parse_json(output)
        if not problems and command == "polytope":
            problems = checks.check_polytope(item.doc, document)
        elif not problems:
            problems = checks.check_blocks(item.doc, document)
    elif "error" in outcome:
        return [outcome["error"].strip().splitlines()[-1]]
    else:
        output = inputs.dumps(outcome["summary"])
        problems = checks.check_summary(item.doc, outcome["summary"])
    return problems + checks.digest_problems(expected, item.key, output)


def run_pass(command, items: list, worker) -> tuple:
    """Every item once, in order: (latencies, seconds, peak kB, outcomes)."""
    latencies, outcomes, peak = [], [], 0
    start = time.perf_counter()
    for item in items:
        if command:
            rc, stdout, stderr, elapsed, child_peak = cli_request(command, item.path)
            outcomes.append((item, (rc, stdout, stderr)))
            peak = max(peak, child_peak)
        else:
            t0 = time.perf_counter()
            outcomes.append((item, worker.ask({"op": "certify", "path": str(item.path)})))
            elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
    wall = time.perf_counter() - start
    if worker:
        peak = worker.finish()["peak_rss_kb"]
    return latencies, wall, peak, outcomes


def run_e2e(workload: str, seed: int, seconds: float, work: Path) -> dict:
    command = WORKLOADS[workload]["command"]
    items, worker, setup_s = timed_set_up(workload, seed, work)
    expected = load_expected(workload)
    # Only whole passes are timed, so every figure describes the same mix of
    # trees however fast the program is.  Passes go on while the next one
    # would end less than half a pass after the deadline; there is at least one.
    passes, outcomes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][1] / 2 < seconds:
        if passes and not command:
            worker = WorkerProcess(work)  # each pass of the corpus in a fresh process
        latencies, wall, peak, done = run_pass(command, items, worker)
        passes.append((latencies, wall, peak))
        outcomes += done

    failed = 0
    first = {}  # tree key -> (outcome, problems) of its first request
    for item, outcome in outcomes:
        if item.key in first:
            seen, problems = first[item.key]
            if outcome != seen:
                problems = ["output, exit code or stderr changed on a repeat"]
        else:
            problems = check_outcome(command, item, outcome, expected)
            first[item.key] = (outcome, problems)
        if problems:
            failed += 1
            print(f"FAILED {workload} tree {item.key} (nu {item.nu}): {problems}", file=sys.stderr)

    latencies = [x for pass_latencies, _, _ in passes for x in pass_latencies]
    wall = sum(pass_wall for _, pass_wall, _ in passes)
    n, k = len(latencies), len(passes)
    tail_index = n - TAIL_BEYOND * k - 1  # the same percentile for any number of passes
    metrics = {
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "tail_ms": (sorted(latencies)[tail_index] * 1000, "ms"),
        "items_per_s": (n / wall, "1/s"),
        "peak_rss_mb": (max(peak for _, _, peak in passes) / 1024, "MiB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "tail_ms": f"p{100 * (tail_index + 1) / n:.1f} of {n} requests",
        "ok_ratio": f"fail_ratio {failed / n:.4f} ({failed} of {n} failed)",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "largest arbora process" if command else "largest worker process",
    }
    print(
        f"{workload}  seed {seed}  {k} whole passes of {len(items)} requests"
        f" in {wall:.1f} s, {failed} failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit:<6} {notes.get(name, '')}")
    return {"attempted": n, "failed": failed, "metrics": metrics}


# -- traced run ---------------------------------------------------------------

PER_REQUEST_MS = [
    "cli.startup", "cli.request", "trees.load", "blocks.enumerate",
    "spines.enumerate", "geometry.verify", "fans.fiber", "fans.fan_cover",
    "complexes.stats", "weak_order.h_vector", "weak_order.digraph",
    "weak_order.congruence", "minkowski.oracle", "minkowski.coefficients",
]
PER_CALL_US = [
    "spines.flip", "spines.validate", "geometry.vertex_point", "fans.kappa",
    "minkowski.tight_rhs",
]
COUNTS = [
    "blocks.found", "blocks.subsets_tested", "spines.count", "spines.flips",
    "fans.orders", "complexes.faces",
]
# The spans that make up a request as the program runs it; the rest are the
# per-call probes and extra calls of the traced chain.
REQUEST_PATH = [
    "trees.load", "blocks.enumerate", "spines.enumerate", "geometry.verify",
    "fans.fiber", "fans.fan_cover", "complexes.stats", "weak_order.h_vector",
    "weak_order.congruence", "minkowski.coefficients",
]
FALLBACK = "calib:chain"  # htree_eq, for layers a workload's requests never call

# (what, calibration request, span, statistic, ROADMAP value, re-anchor value)
CALIBRATION = [
    ("flip_arc ms, htree_eq", "calib:htree_eq", "spines.flip", "per-call", 0.17, None),
    ("flip_arc ms, spider7", "calib:spider7", "spines.flip", "per-call", 0.17, None),
    ("validate_spine ms, htree_eq", "calib:htree_eq", "spines.validate", "per-call", 0.10, None),
    ("enumerate_maximal_spines ms, htree_eq", "calib:htree_eq", "spines.enumerate", "median", 180, 165),
    ("enumerate_maximal_spines ms, spider7", "calib:spider7", "spines.enumerate", "median", 815, 730),
    ("verify_realization ms, htree_eq", "calib:htree_eq", "geometry.verify", "median", 244, 220),
    ("verify_realization ms, spider7", "calib:spider7", "geometry.verify", "median", 1063, 922),
    ("enumerate_blocks ms, path18", "calib:path18", "blocks.enumerate", "median", 4100, None),
]
DISAGREE = 0.15  # relative difference reported as a disagreement


def request_group(request) -> str:
    """calib:htree_eq:2 -> calib:htree_eq; workload requests keep their id."""
    if request.startswith("calib:"):
        return ":".join(request.split(":")[:2])
    return request


def layer_stats(spans):
    """Per span name and request group: per-request totals and per-call durations."""
    totals = defaultdict(lambda: defaultdict(float))  # name -> request -> ms
    calls = defaultdict(lambda: defaultdict(list))  # name -> group -> [us]
    for _, name, start, end, _, request in spans:
        ms = (end - start) / 1e6
        totals[name][request] += ms
        calls[name][request_group(request)].append(ms * 1000)
    return totals, calls


def per_layer_metrics(spans, counts, traced_s, untraced_s):
    totals, calls = layer_stats(spans)

    def own(request):
        return not request.startswith("calib:")

    def pick(values, fallback):
        return (values, "requests") if values else (fallback, "calibration htree_eq")

    metrics, sources = {}, {}
    for name in PER_REQUEST_MS:
        values, sources[name + "_ms"] = pick(
            [v for r, v in totals[name].items() if own(r)], [totals[name][FALLBACK]]
        )
        metrics[name + "_ms"] = (statistics.median(values), "ms")
    for name in PER_CALL_US:
        values, sources[name + "_us"] = pick(
            [v for r, group in calls[name].items() if own(r) for v in group],
            calls[name][FALLBACK],
        )
        metrics[name + "_us"] = (statistics.fmean(values), "us")
    for name in COUNTS:
        rows, sources[name] = pick(
            [c[name] for r, c in counts if own(r) and name in c],
            [c[name] for r, c in counts if r == FALLBACK and name in c],
        )
        metrics[name] = (statistics.fmean(rows), "count")
    # an enumerator that tests no candidate wastes nothing: its yield is 1
    found, tested = metrics["blocks.found"][0], metrics["blocks.subsets_tested"][0]
    metrics["blocks.yield"] = (found / max(tested, found, 1), "ratio")
    sources["blocks.yield"] = sources["blocks.found"]
    metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(untraced_s) - 1, "ratio")
    sources["trace.overhead_ratio"] = "traced vs untraced copies of every request"
    return metrics, sources


def layer_shares(spans):
    """Self time per layer over the request-path spans of the workload's own requests."""
    child_time = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_layer = defaultdict(float)
    requests = set()
    for span_id, name, start, end, _, request in spans:
        if name in REQUEST_PATH and not request.startswith("calib:"):
            per_layer[name.split(".")[0]] += (end - start - child_time[span_id]) / 1e6
            requests.add(request)
    total = sum(per_layer.values()) or 1.0
    return {
        layer: (ms / max(len(requests), 1), ms / total)
        for layer, ms in sorted(per_layer.items(), key=lambda kv: -kv[1])
    }


def calibration_rows(spans, counts):
    totals, calls = layer_stats(spans)
    rows = []
    for what, group, span, statistic, roadmap, reanchor in CALIBRATION:
        if statistic == "per-call":
            value = statistics.fmean(calls[span][group]) / 1000
        else:
            value = statistics.median(
                v for r, v in totals[span].items() if request_group(r) == group
            )
        ratio = value / roadmap
        rows.append(
            {
                "what": what,
                "measured": value,
                "roadmap": roadmap,
                "reanchor": reanchor,
                "ratio": ratio,
                "disagrees": abs(ratio - 1) > DISAGREE,
            }
        )
    found = [c["blocks.found"] for r, c in counts if r.startswith("calib:path18")]
    rows.append(
        {
            "what": "blocks found, path18",
            "measured": found[0],
            "roadmap": 171,
            "reanchor": None,
            "ratio": found[0] / 171,
            "disagrees": found[0] != 171,
        }
    )
    return rows


def check_trace_view(kind: str, item: Item, view: dict, expected: dict) -> list:
    problems = []
    if view.get("cli_rc", 0) != 0:
        problems.append(f"in-process cli exit code {view['cli_rc']}")
    if kind == "blocks":
        listed, problems2 = checks.parse_json(view["blocks_stdout"])
        problems += problems2 or checks.check_blocks(item.doc, listed)
        problems += checks.digest_problems(expected, item.key, view["blocks_stdout"])
        cli_listed, problems3 = checks.parse_json(view["cli_stdout"])
        if problems3 or len(cli_listed) != len(listed):
            problems.append("in-process cli output disagrees with the layer chain")
    elif kind == "polytope":
        document, problems2 = checks.parse_json(view["cli_stdout"])
        problems += problems2
        if not view["certificate"] or (document or {}).get("certificate") != "PASS":
            problems.append("realization certificate failed")
        elif len(document["vertices"]) != view["spines"] or len(document["facets"]) != view["blocks"]:
            problems.append("in-process cli output disagrees with the layer chain")
        if view["blocks"] != len(checks.BlockOracle(item.doc).all_blocks()):
            problems.append("block count differs from the independent enumeration")
    else:
        problems += checks.check_summary(item.doc, view["summary"])
        problems += checks.digest_problems(expected, item.key, inputs.dumps(view["summary"]))
    return problems


def run_trace(workload: str, seed: int, seconds: float, work: Path) -> dict:
    command = WORKLOADS[workload]["command"]
    kind = command or "certify"
    items, worker, _ = timed_set_up(workload, seed, work)
    tracer = Tracer()
    for k in range(STARTUP_PROBES):
        tracer.request = f"startup{k}"
        tracer.call("cli.startup", import_probe)
    worker = worker or WorkerProcess(work)
    expected = load_expected(workload)

    replies = []
    start = time.perf_counter()
    while not replies or time.perf_counter() - start < seconds:
        item = items[len(replies) % len(items)]
        request = {
            "op": "trace",
            "kind": kind,
            "path": str(item.path),
            "request": f"r{len(replies)}",
            "traced_first": len(replies) % 2 == 0,
        }
        replies.append((item, worker.ask(request)))

    traced_s, untraced_s, failed, attempted = [], [], 0, len(replies)
    for item, reply in replies:
        if "error" in reply:
            problems = [reply["error"].strip().splitlines()[-1]]
        else:
            traced_s.append(reply["traced_s"])
            untraced_s.append(reply["untraced_s"])
            problems = check_trace_view(kind, item, reply["check"], expected)
        if problems:
            failed += 1
            print(f"FAILED {workload} tree {item.key} (nu {item.nu}): {problems}", file=sys.stderr)

    calibrated = worker.ask({"op": "calibrate"})
    final = worker.finish()
    if "error" in calibrated or "error" in final or not traced_s:
        raise RuntimeError(calibrated.get("error") or final.get("error") or "no request traced")
    worker_spans = [tuple(s) for s in final["spans"]]
    spans = tracer.spans + worker_spans
    counts = final["counts"]
    metrics, sources = per_layer_metrics(spans, counts, traced_s, untraced_s)
    shares = layer_shares(worker_spans)
    rows = calibration_rows(spans, counts)

    with open(work / "spans.jsonl", "w", encoding="utf-8") as out:
        for i, (span_id, name, s, e, parent, request) in enumerate(spans):
            proc = "run" if i < len(tracer.spans) else "worker"
            out.write(
                json.dumps(
                    {"proc": proc, "id": span_id, "name": name, "start_ns": s,
                     "end_ns": e, "parent": parent, "request": request}
                )
                + "\n"
            )
    report = {
        "workload": workload,
        "seed": seed,
        "requests_traced": len(traced_s),
        "metrics": {k: {"value": v, "unit": u, "source": sources[k]} for k, (v, u) in metrics.items()},
        "shares": {k: {"ms_per_request": ms, "share": share} for k, (ms, share) in shares.items()},
        "calibration": rows,
        "counts": counts,
    }
    (work / "layers.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"{workload}  seed {seed}  traced run: {attempted} requests, {failed} failed")
    print(f"  spans: {work / 'spans.jsonl'}  table: {work / 'layers.json'}")
    print("  per-layer metrics")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<28} {value:14.4f} {unit:<6} {sources[name]}")
    print("  self time on the request path (requests of this workload)")
    for layer, (ms, share) in shares.items():
        print(f"    {layer:<12} {ms:12.2f} ms/request {100 * share:6.1f} %")
    startup = metrics["cli.startup_ms"][0]
    cli_total = startup + metrics["cli.request_ms"][0]
    print(f"  cli: startup is {100 * startup / cli_total:.1f} % of startup + in-process request")
    print("  calibration against ROADMAP (in-process, caches cold)")
    for row in rows:
        mark = "DISAGREES" if row["disagrees"] else "agrees"
        reanchor = "" if row["reanchor"] is None else f" (re-anchor {row['reanchor']})"
        print(
            f"    {row['what']:<40} {row['measured']:10.3f} vs {row['roadmap']}{reanchor}"
            f"  x{row['ratio']:.2f} {mark}"
        )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- entry points -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "_work" / f"{workload}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return (run_trace if trace else run_e2e)(workload, seed, seconds, work)


def record(names):
    """Record output digests for the default and held-out seeds, after checking them."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in names:
        spec = WORKLOADS[workload]
        work = HERE / "_work" / f"{workload}-record"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        table = expected[workload] = {}
        for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
            items, worker = set_up(workload, seed, work)
            for item in items:
                if spec["command"]:
                    outcome = cli_request(spec["command"], item.path)[:3]
                else:
                    outcome = worker.ask({"op": "certify", "path": str(item.path)})
                problems = check_outcome(spec["command"], item, outcome, {})
                if problems:
                    sys.exit(f"record: {workload} tree {item.key}: {problems}")
                output = outcome[1] if spec["command"] else inputs.dumps(outcome["summary"])
                table[item.key] = inputs.digest(output)
            if worker:
                worker.close()
        print(f"recorded {len(table)} digests for {workload}")
    EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "arbora" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arbora sources at {SRC}; run from the root of a checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        record(names)
        return

    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()

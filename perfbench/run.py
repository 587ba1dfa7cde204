#!/usr/bin/env python3
"""End-to-end benchmark for astra-mrt: analyze, watch, campaign and serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds `astra-mrt`,
`astra_serve` and the traced-run program `astra_trace` with the repository's
own CMake project under .bench_build/ (or $CARGO_TARGET_DIR); later runs
reuse the build.  Inputs come from perfbench/gen.py, seeded by --seed, and
are cached per seed under the build directory.  Timed commands are forked
from perfbench/spawner.py.

Workloads (see README.md for why each exists):
  analyze-clean  analyze --threads=1, --threads=4 and watch, clean dataset
  analyze-dirty  the same commands after the generator's damage pass
  campaign-grid  campaign on the default 2x2x2 grid at --threads=1 and 4
  serve-fleet    astra_serve daemon launches, one fed on a schedule, then --drain

With --trace 0 a run warms up, then repeats whole rounds of its timed
operations until --seconds have passed, checks every output and prints the
end-to-end metrics.  With --trace 1 it runs astra_trace instead and prints
the per-layer metrics from its spans.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import checks  # noqa: E402
import gen  # noqa: E402

THREADS = 4                       # nproc of the reference host
RACKS, NODES_PER_RACK = 10, 40    # 400 node streams, one per generated node
HOLD_BACK = 0.05                  # share of lines the live phase appends
BATCHES, BATCH_MS = 8, 100        # open-loop append schedule
QUIESCE_MS = 300
LAUNCHES, DRAINS = 2, 2           # daemon launches and drains per serve round
SETUP_REPS = 3                    # warm-up invocations behind setup_s
CAMPAIGN = {"trials": 2, "nodes": 36, "seed": 20190120, "cells": 8}
OP_TIMEOUT_S = 120


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build():
    """Configure once, then (re)build the three binaries; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise BenchError(f"no astra-mrt source tree at {ROOT}")
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "trace"), "-B", cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(THREADS), "--target",
                  "astra-mrt", "astra_serve_cli", "astra_trace"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    tools = os.path.join(cmake_dir, "astra", "src", "tools")
    return {"mrt": os.path.join(tools, "astra-mrt"),
            "serve": os.path.join(tools, "astra_serve"),
            "trace": os.path.join(cmake_dir, "astra_trace")}


# --- inputs ------------------------------------------------------------------

def data_root():
    """Cached inputs live under a digest of the code that makes them."""
    digest = hashlib.sha256()
    for name in ("gen.py", "checks.py", "run.py"):
        with open(os.path.join(HERE, name), "rb") as f:
            digest.update(f.read())
    return os.path.join(build_dir(), "data", digest.hexdigest()[:12])


def prune_inputs(seed):
    """Keep cached inputs of `seed` only: every seed's inputs take ~200 MB."""
    current = data_root()
    root = os.path.dirname(current)
    for version in os.listdir(root) if os.path.isdir(root) else []:
        path = os.path.join(root, version)
        names = os.listdir(path) if path == current else [""]
        for name in names:
            if name.rsplit("-", 1)[-1] != str(seed):
                shutil.rmtree(os.path.join(path, name), ignore_errors=True)


def dataset(seed, dirty):
    """Generated dataset directory plus its make-up and reference figures."""
    out = os.path.join(data_root(), f"{'dirty' if dirty else 'clean'}-{seed}")
    meta_path = os.path.join(out, "meta.json")
    if not os.path.isfile(meta_path):
        shutil.rmtree(out, ignore_errors=True)
        meta = gen.write_dataset(out, seed, dirty)
        meta["reference"] = checks.reference(out)
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
    with open(meta_path) as f:
        return out, json.load(f)


def fleet(seed):
    """The clean dataset split per node as serve_fleet lays it out, with the
    last HOLD_BACK of the lines held back for the live phase."""
    clean, _ = dataset(seed, False)
    out = os.path.join(data_root(), f"fleet-{seed}")
    plan_path = os.path.join(out, "plan.json")
    if not os.path.isfile(plan_path):
        shutil.rmtree(out, ignore_errors=True)
        tree = os.path.join(out, "tree")
        nodes = RACKS * NODES_PER_RACK
        with open(os.path.join(clean, "memory_errors.tsv")) as f:
            f.readline()
            memory = f.read().splitlines()
        with open(os.path.join(clean, "het_events.tsv")) as f:
            f.readline()
            het = f.read().splitlines()
        cut = len(memory) - int(len(memory) * HOLD_BACK)
        per_node = [[] for _ in range(nodes)]
        for line in memory[:cut]:
            per_node[int(line.split("\t", 2)[1]) % nodes].append(line)
        het_per_node = [[] for _ in range(nodes)]
        for line in het:
            het_per_node[int(line.split("\t", 2)[1]) % nodes].append(line)
        sizes = []
        for node in range(nodes):
            d = os.path.join(tree, f"node-{node:04d}")
            os.makedirs(d)
            gen.write_tsv(os.path.join(d, "memory_errors.tsv"), gen.MEMORY_HEADER,
                          per_node[node])
            gen.write_tsv(os.path.join(d, "het_events.tsv"), gen.HET_HEADER,
                          het_per_node[node])
            sizes.append(os.path.getsize(os.path.join(d, "memory_errors.tsv")))
        os.makedirs(os.path.join(out, "combined"))
        for name in ("memory_errors.tsv", "het_events.tsv"):
            shutil.copyfile(os.path.join(clean, name), os.path.join(out, "combined", name))
        held = memory[cut:]
        step = -(-len(held) // BATCHES)
        plan = {"sizes": sizes,
                "batches": [held[i:i + step] for i in range(0, len(held), step)]}
        with open(plan_path + ".tmp", "w") as f:
            json.dump(plan, f)
        os.replace(plan_path + ".tmp", plan_path)
    with open(plan_path) as f:
        return out, json.load(f)


def prepare(workload, seed, trace):
    """Generate (or find cached) every input the run will read."""
    prune_inputs(seed)
    if workload != "campaign-grid" or trace:
        dataset(seed, workload == "analyze-dirty")
    if workload == "serve-fleet" or trace:
        fleet(seed)


# --- process helpers -----------------------------------------------------------

class Spawner:
    """Runs commands through perfbench/spawner.py (see there for why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv, out_path):
        """(seconds, peak RSS MB, exit code) of one command run to completion."""
        request = {"argv": argv, "out": out_path, "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("spawner exited")
        reply = json.loads(line)
        return reply["seconds"], reply["rss_kb"] / 1024.0, reply["code"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def http_get(port, path, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8", "replace")
    finally:
        conn.close()


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self, work, spawner):
        self.work = work
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def op(self, argv, tag):
        """One timed operation; returns (seconds, rss, stdout) or None."""
        self.attempted += 1
        out_path = os.path.join(self.work, f"{tag}.out")
        seconds, rss, code = self.spawner.run(argv, out_path)
        if code != 0:
            self.failed += 1
            log(f"{tag}: exit {code}: {read(out_path + '.err')[-400:]}")
            return None
        return seconds, rss, read(out_path)

    def expect(self, tag, problems):
        for p in problems:
            self.problems.append(f"{tag}: {p}")
            log(f"CHECK FAILED {tag}: {p}")


# --- workloads -----------------------------------------------------------------

def analyze_workload(run, bins, seed, seconds, dirty):
    data, meta = dataset(seed, dirty)
    ref = meta["reference"]
    tally = meta["damage"].get("torn", 0)
    commands = {
        "serial": [bins["mrt"], "analyze", data, "--threads=1"],
        "parallel": [bins["mrt"], "analyze", data, f"--threads={THREADS}"],
        "watch": [bins["mrt"], "watch", data],
    }

    # setup_s: the serial analyze warm-up, the same invocation every run.
    for i in range(SETUP_REPS):
        result = run.op(commands["serial"], f"warmup{i}-serial")
        if result is not None:
            run.add("setup_s", result[0])
            run.expect(f"warmup{i}-serial", checks.check_analyze(result[2], ref, tally))
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        tag = f"round{rounds}"
        rounds += 1
        outputs = {}
        for name, argv in commands.items():
            result = run.op(argv, f"{tag}-{name}")
            if result is not None:
                outputs[name] = result
                run.expect(f"{tag}-{name}", checks.check_analyze(result[2], ref, tally))
        if len({text for _, _, text in outputs.values()}) > 1:
            run.expect(tag, ["analyze --threads=1, --threads=4 and watch differ"])
        if len(outputs) == len(commands):
            run.add("serial_s", outputs["serial"][0])
            run.add("parallel_s", outputs["parallel"][0])
            run.add("round_s", sum(o[0] for o in outputs.values()))
            run.add("peak_rss_mb", outputs["serial"][1])


def campaign_workload(run, bins, seed, seconds):
    del seed  # the grid is fixed: --trials, --nodes and --seed never vary
    c = CAMPAIGN
    base = [bins["mrt"], "campaign", f"--trials={c['trials']}", f"--nodes={c['nodes']}",
            f"--seed={c['seed']}"]
    # setup_s: the serial --json warm-up, the same invocation every run.
    warm = {}
    for tag, threads in [(f"warmup{i}-json-t1", 1) for i in range(SETUP_REPS)] + [
            (f"warmup-json-t{THREADS}", THREADS)]:
        result = run.op(base + [f"--threads={threads}", "--json"], tag)
        if result is None:
            continue
        warm[threads] = result[2]
        if threads == 1:
            run.add("setup_s", result[0])
        run.expect(tag, checks.check_campaign_json(result[2], c["trials"], c["cells"]))
    if len(warm) == 2 and warm[1] != warm[THREADS]:
        run.expect("warmup-json", ["--json output differs between --threads=1 and 4"])

    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        tag = f"round{rounds}"
        rounds += 1
        serial = run.op(base + ["--threads=1"], f"{tag}-serial")
        parallel = run.op(base + [f"--threads={THREADS}"], f"{tag}-parallel")
        for name, result in (("serial", serial), ("parallel", parallel)):
            if result is not None:
                run.expect(f"{tag}-{name}", checks.check_campaign_text(
                    result[2], c["trials"], c["nodes"], c["seed"], c["cells"]))
        if serial is None or parallel is None:
            continue
        if serial[2] != parallel[2]:
            run.expect(tag, ["campaign output differs between --threads=1 and 4"])
        run.add("serial_s", serial[0])
        run.add("parallel_s", parallel[0])
        run.add("round_s", serial[0] + parallel[0])
        run.add("peak_rss_mb", serial[1])


def reset_tree(tree, sizes):
    for node, size in enumerate(sizes):
        os.truncate(os.path.join(tree, f"node-{node:04d}", "memory_errors.tsv"), size)


def append_batch(tree, lines):
    nodes = RACKS * NODES_PER_RACK
    by_node = {}
    for line in lines:
        by_node.setdefault(int(line.split("\t", 2)[1]) % nodes, []).append(line)
    for node, chunk in by_node.items():
        path = os.path.join(tree, f"node-{node:04d}", "memory_errors.tsv")
        with open(path, "a", encoding="ascii") as f:
            f.write("\n".join(chunk) + "\n")


def peak_rss_mb(pid):
    """VmHWM of a running process.  Unlike ru_maxrss it starts afresh at
    exec, so the RSS of the process that forked it does not count."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def wait_healthy(proc, port_file, launched):
    """Poll /healthz; (port, perf_counter time of the first 200)."""
    port = None
    deadline = launched + OP_TIMEOUT_S
    while time.perf_counter() < deadline and proc.poll() is None:
        if port is None and os.path.exists(port_file):
            text = read(port_file).strip()
            port = int(text) if text.isdigit() else None
        if port is not None:
            try:
                status, _ = http_get(port, "/healthz", timeout=5)
                if status == 200:
                    return port, time.perf_counter()
            except OSError:
                pass
        time.sleep(0.005)
    raise BenchError("daemon never became healthy")


def feed_and_query(run, port, tree, plan):
    """Append the held-back batches on the fixed schedule (open loop) while
    one connection requests /fleet/report back to back (closed loop)."""
    latencies = []
    t0 = time.perf_counter()
    for i, batch in enumerate(plan["batches"]):
        due = t0 + i * BATCH_MS / 1000.0
        while time.perf_counter() < due:
            run.attempted += 1
            sent = time.perf_counter()
            status, body = http_get(port, "/fleet/report")
            latencies.append(time.perf_counter() - sent)
            if status != 200 or not body.startswith("== ingest"):
                run.failed += 1
        append_batch(tree, batch)
    return latencies


def daemon_phase(run, bins, tree, plan, reference, tag, feed):
    """Launch the daemon on the partial tree and time its catch-up.  With
    `feed`, go on to append the held-back lines, wait for quiesce and check
    the final /fleet/report.  None when any step failed."""
    port_file = os.path.join(run.work, f"{tag}.port")
    argv = [bins["serve"], tree, f"--racks={RACKS}", f"--nodes-per-rack={NODES_PER_RACK}",
            f"--pollers={THREADS}", "--poll-ms=50", "--merge-ms=200",
            f"--quiesce-ms={QUIESCE_MS}", f"--port-file={port_file}"]
    run.attempted += 1
    result = None
    with open(os.path.join(run.work, f"{tag}.daemon.err"), "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        try:
            port, healthy = wait_healthy(proc, port_file, launched)
            result = {"setup": healthy - launched, "latencies": []}
            if feed:
                result["latencies"] = feed_and_query(run, port, tree, plan)
                deadline = time.perf_counter() + 30
                while not json.loads(http_get(port, "/stats")[1]).get("quiesced"):
                    if time.perf_counter() > deadline:
                        raise BenchError("daemon never quiesced")
                    time.sleep(0.02)
                run.attempted += 1
                status, final = http_get(port, "/fleet/report")
                if status != 200:
                    raise BenchError(f"final /fleet/report answered {status}")
                run.expect(f"{tag}-live", checks.check_serve(final, reference))
            result["rss"] = peak_rss_mb(proc.pid)
        except (BenchError, OSError, ValueError) as e:
            result = None
            log(f"{tag}: daemon phase failed: {e}")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
    if result is None or code != 0:
        run.failed += 1
        return None
    return result


def serve_workload(run, bins, seed, seconds):
    out, plan = fleet(seed)
    tree, combined = os.path.join(out, "tree"), os.path.join(out, "combined")
    reset_tree(tree, plan["sizes"])
    # The oracle: analyze over the combined logs (untimed warm-up).
    result = run.op([bins["mrt"], "analyze", combined, "--threads=1"], "warmup-analyze")
    if result is None:
        raise BenchError("analyze over the combined dataset failed")
    reference = result[2]
    drain = [bins["serve"], tree, f"--racks={RACKS}", f"--nodes-per-rack={NODES_PER_RACK}",
             "--drain"]
    if daemon_phase(run, bins, tree, plan, reference, "warmup-launch", feed=False) is None:
        raise BenchError("warm-up daemon launch failed")
    start = time.perf_counter()
    rounds = 0
    latencies = []
    while rounds == 0 or time.perf_counter() - start < seconds:
        tag = f"round{rounds}"
        rounds += 1
        round_start = time.perf_counter()
        phases = [daemon_phase(run, bins, tree, plan, reference, f"{tag}-launch{i}",
                               feed=i == LAUNCHES - 1) for i in range(LAUNCHES)]
        if None in phases:
            # The tree may be only partly appended: draining it would check
            # a partial dataset against the whole one.
            reset_tree(tree, plan["sizes"])
            continue
        drains = [run.op(drain, f"{tag}-drain{i}") for i in range(DRAINS)]
        for i, drained in enumerate(drains):
            if drained is not None:
                run.expect(f"{tag}-drain{i}", checks.check_serve(drained[2], reference))
        reset_tree(tree, plan["sizes"])
        if None in drains:
            continue
        for phase in phases:
            latencies += phase["latencies"]
            run.add("setup_s", phase["setup"])
        run.add("peak_rss_mb", phases[-1]["rss"])
        for drained in drains:
            run.add("serial_s", drained[0])
        run.add("round_s", time.perf_counter() - round_start)
    if latencies:
        ms = sorted(v * 1000 for v in latencies)
        tail = (f", p90 {statistics.quantiles(ms, n=10)[-1]:.2f} ms"
                if len(ms) >= 100 else "")
        log(f"/fleet/report during live appends: {len(ms)} requests, "
            f"median {statistics.median(ms):.2f} ms{tail}")


# --- traced run ----------------------------------------------------------------

LAYER_SPANS = {
    "util.map_s": "util.map", "logs.parse_s": "logs.parse",
    "logs.ingest_s": "logs.ingest", "logs.parallel_ingest_s": "logs.parallel_ingest",
    "core.observe_s": "core.observe",
    "core.observe.coalescer_s": "core.observe.coalescer",
    "core.observe.positional_s": "core.observe.positional",
    "core.observe.temporal_s": "core.observe.temporal",
    "core.observe.predictor_s": "core.observe.predictor",
    "core.observe.uncorrectable_s": "core.observe.uncorrectable",
    "core.merge_s": "core.merge", "core.finalize_s": "core.finalize",
    "core.render_s": "core.render", "stats.power_law_fit_s": "stats.power_law_fit",
    "stream.poll_s": "stream.poll", "serve.init_s": "serve.init",
    "serve.drain_s": "serve.drain", "serve.fleet_report_s": "serve.fleet_report",
    "serve.rack_report_s": "serve.rack_report",
    "faultsim.simulate_s": "faultsim.simulate", "campaign.analyze_s": "campaign.analyze",
    "campaign.run_s": "campaign.run",
}
LAYER_COUNTS = ["logs.lines", "logs.records_out", "logs.quarantined", "logs.deduped",
                "logs.reordered", "core.state_bytes", "stream.checkpoint_bytes",
                "serve.checkpoint_bytes", "faultsim.records_out", "campaign.trials"]
TRACE_PASSES = 3


def span_sums(trace):
    """Summed duration of every span name, and of the spans directly under
    the serial analyze pipeline's root."""
    sums = {}
    covered = 0.0
    by_id = {s["id"]: s for s in trace["spans"]}
    for s in trace["spans"]:
        seconds = (s["end_ns"] - s["start_ns"]) / 1e9
        sums[s["name"]] = sums.get(s["name"], 0.0) + seconds
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "analyze.serial":
            covered += seconds
    return sums, covered


def layer_metrics(traces, cli_seconds):
    """Per-layer figures: the median over the traced passes of each span
    name's summed duration.  Coverage divides the median time the layer
    spans cover by the median wall time of `analyze --threads=1`, run
    between the passes."""
    passes = [span_sums(trace) for trace in traces]

    def median_of(fn):
        return statistics.median(fn(sums) for sums, _ in passes)

    metrics = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (median_of(lambda sums: sums.get(span, 0.0)), "s")
    metrics["logs.replay_s"] = (median_of(
        lambda sums: sums["logs.ingest"] - sums["logs.parse"]), "s")
    counts = traces[0]["counts"]
    for name in LAYER_COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (float(counts.get(name, 0)), unit)
    metrics["trace.analyze_serial_s"] = (median_of(lambda sums: sums["analyze.serial"]), "s")
    metrics["trace.analyze_coverage"] = (statistics.median(
        covered for _, covered in passes) / statistics.median(cli_seconds), "share")
    return metrics


def traced_run(run, bins, workload, seed):
    data, meta = dataset(seed, workload == "analyze-dirty")
    fleet_out, plan = fleet(seed)
    tree = os.path.join(fleet_out, "tree")
    reset_tree(tree, plan["sizes"])
    ref = meta["reference"]
    tally = meta["damage"].get("torn", 0)
    c = CAMPAIGN
    traces, cli_seconds = [], []

    def analyze(tag):
        result = run.op([bins["mrt"], "analyze", data, "--threads=1"], tag)
        if result is None:
            raise BenchError("analyze failed")
        cli_seconds.append(result[0])
        return result[2]

    expected = analyze("cli-0")
    for i in range(TRACE_PASSES):
        spans_path = os.path.join(run.work, f"spans-{i}.json")
        report_path = os.path.join(run.work, f"trace-report-{i}.txt")
        traced = run.op([bins["trace"], f"--dataset={data}", f"--fleet={tree}",
                         f"--racks={RACKS}", f"--nodes-per-rack={NODES_PER_RACK}",
                         f"--campaign-trials={c['trials']}",
                         f"--campaign-nodes={c['nodes']}", f"--campaign-seed={c['seed']}",
                         f"--work={run.work}", f"--out={spans_path}",
                         f"--report={report_path}", f"--threads={THREADS}"], f"trace-{i}")
        if traced is None:
            raise BenchError("astra_trace failed")
        # The traced pipeline must be the real one: same report, same figures.
        report = read(report_path)
        if report != expected:
            run.expect(f"trace-{i}", ["in-process report differs from analyze --threads=1"])
        run.expect(f"trace-{i}", checks.check_analyze(report, ref, tally))
        with open(spans_path) as f:
            traces.append(json.load(f))
        counts = traces[-1]["counts"]
        for name, want in (("logs.lines", ref["lines"]),
                           ("logs.quarantined", ref["quarantined"]),
                           ("logs.deduped", ref["deduped"]),
                           ("logs.reordered", ref["resorted"]),
                           ("logs.records_out", ref["records"])):
            if counts.get(name) != want:
                run.expect(f"trace-{i}", [f"{name} {counts.get(name)} != reference {want}"])
        analyze(f"cli-{i + 1}")
    return layer_metrics(traces, cli_seconds)


# --- main ----------------------------------------------------------------------

WORKLOADS = {
    "analyze-clean": lambda r, b, s, t: analyze_workload(r, b, s, t, dirty=False),
    "analyze-dirty": lambda r, b, s, t: analyze_workload(r, b, s, t, dirty=True),
    "campaign-grid": campaign_workload,
    "serve-fleet": serve_workload,
}
END_TO_END = {"setup_s": "s", "serial_s": "s", "round_s": "s",
              "peak_rss_mb": "MB"}


def main(argv):
    parser = argparse.ArgumentParser(description="astra-mrt end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bins = build()
        work = os.path.join(build_dir(), "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        spawner = Spawner()
        run = Run(work, spawner)
        try:
            # Make every input first and flush it, so that its writeback
            # does not run during the timed operations.
            prepare(args.workload, args.seed, args.trace)
            os.sync()
            if args.trace:
                metrics = traced_run(run, bins, args.workload, args.seed)
            else:
                WORKLOADS[args.workload](run, bins, args.seed, args.seconds)
        finally:
            spawner.close()
        if not args.trace:
            missing = [m for m in END_TO_END if not run.samples.get(m)]
            if missing:
                raise BenchError(f"no samples for {', '.join(missing)}")
            metrics = {m: (statistics.median(run.samples[m]), unit)
                       for m, unit in END_TO_END.items()}
            # parallel_s is logged, not reported: see README.md, Steadiness.
            for m, values in run.samples.items():
                log(f"{m}: " + " ".join(f"{v:.4f}" for v in values))
    except BenchError as e:
        log(f"error: {e}")
        return 2
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The vnet benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the release `vnet` binary and the helper in `perfbench/tool`
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload, checks
every output against references that do not come from the code under test
(`vn_results.csv`, `perfbench/plan.json`, and the daemon's own cold answers
for cached repeats), prints one line per metric, and ends with one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1`
the per-layer ones, taken by timing calls into each layer from outside
the `vnet` binary. On mc-serial the end-to-end times are scaled to a
reference host speed, read by a calibration kernel run between the timed
`vnet mc` legs (plan.json `calibration`).

Workloads (see plan.json for why each was chosen):
  mc-serial    serial `vnet mc` on three Figure-3 subjects and on the
               symmetry-reduced 4-cache subject (sym-4c)
  fig3-modes   CHI Figure-3 through five explorer modes
  serve-mix    `vnet serve` over a pre-filled store, closed loop, 2 connections
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOADS = ("mc-serial", "fig3-modes", "serve-mix")
E2E = ("setup_s", "verdict_s", "peak_rss_mb", "ok_frac", "rtt_p50_ms", "miss_rtt_p50_ms",
       "req_per_s")
# Percentiles the tail metric may report; the highest one that leaves at
# least ten samples beyond it is used.
TAIL_LADDER = (50, 90, 99)
# No single process may run longer than this; the run fails instead.
PROCESS_TIMEOUT_S = 120.0

SYM_ARGS = ["--general", "--symmetry", "--caches", "4", "--dirs", "1", "--per-cache", "1"]
FIG3_SUBJECTS = (
    ("MSI-blocking-cache", ["--unique-vns"], ["--verify-witness"]),
    ("MSI-nonblocking-cache", [], []),
    ("CHI", [], []),
)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- statistics

def percentile(samples, p):
    """Nearest-rank percentile of a non-empty sample list."""
    s = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(s)))
    return s[rank - 1]


def tail(samples):
    """(value, label) of the highest ladder percentile that leaves at least
    ten samples beyond it, or None when no ladder percentile does (fewer
    than 20 samples)."""
    n = len(samples)
    best = None
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100 * n)) >= 10:
            best = p
    if best is None:
        return None
    return percentile(samples, best), f"p{best}"


class Tally:
    """Attempted and failed operations; every failed check is kept with
    its reason and printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.why = []

    def check(self, problems, what):
        """Counts one operation; `problems` is a list of mismatches."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.why.append(f"{what}: {'; '.join(problems)}")

    def ok_frac(self):
        return (self.attempted - self.failed) / max(self.attempted, 1)


# ---------------------------------------------------------------- references

def load_reference(path):
    """Table I rows of vn_results.csv keyed by protocol name."""
    with open(path, newline="") as f:
        return {row["protocol"]: row for row in csv.DictReader(f)}


def fig3_expectation(ref, protocol):
    """What a Figure-3 `vnet mc` of `protocol` must answer, per the CSV."""
    row = ref.get(protocol)
    if row is None:
        raise KeyError(f"{protocol} has no row in vn_results.csv")
    deadlock = row["mc_verdict"] == "deadlock"
    return {"kind": "deadlock" if deadlock else "no-deadlock",
            "complete": "false" if deadlock else "true",
            "states": int(row["mc_states"]),
            "exit": 2 if deadlock else 0}


def min_vns_expectation(ref, protocol):
    """Table I min_vns: an int, or None for Class 2 (`-` in the CSV)."""
    v = ref[protocol]["min_vns"]
    return None if v == "-" else int(v)


def parse_mc_result(stdout):
    for line in stdout.splitlines():
        if line.startswith("mc-result "):
            return dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
    return None


def check_mc(run, expect):
    """Mismatches between one `vnet mc --machine` run and `expect`
    (keys: kind, complete, states, exit, and optionally levels, depth,
    witness)."""
    problems = []
    if run["exit"] != expect["exit"]:
        problems.append(f"exit {run['exit']} != {expect['exit']}")
    res = parse_mc_result(run["stdout"])
    if res is None:
        return problems + ["no mc-result line"]
    for key in ("kind", "complete", "states", "levels", "depth"):
        if key in expect and res.get(key) != str(expect[key]):
            problems.append(f"{key} {res.get(key)} != {expect[key]}")
    if res.get("provenance") != "exact":
        problems.append(f"provenance {res.get('provenance')}")
    if expect.get("witness") and "witness verified" not in run["stdout"]:
        problems.append("witness did not replay")
    return problems


def check_probe(run):
    """A setup probe stops after one state: degraded, exit 3."""
    res = parse_mc_result(run["stdout"]) or {}
    problems = [] if run["exit"] == 3 else [f"exit {run['exit']} != 3"]
    if res.get("complete") != "false":
        problems.append("probe did not stop at its node budget")
    return problems


def answer_body(resp):
    """A response without the fields that legitimately differ between a
    cold answer and its cached replay."""
    return {k: v for k, v in resp.items() if k not in ("id", "provenance", "wall_ms")}


def check_serve(stream, results, ref):
    """Checks every answered request of a serve-mix loop. Returns a list of
    (what, problems) per request, in request order."""
    out = []
    first_answer = {}
    for r in results:
        item = stream[r["i"]]
        what = f"request {r['i']} ({item['kind']} {item['key']})"
        problems = []
        try:
            resp = json.loads(r["resp"]) if r["resp"] else None
        except json.JSONDecodeError:
            resp = None
        if resp is None:
            out.append((what, ["no answer"]))
            continue
        if resp.get("status") != "ok":
            out.append((what, [f"status {resp.get('status')} ({resp.get('reason')})"]))
            continue
        kind = item["kind"]
        if kind == "hit-analyze":
            want = min_vns_expectation(ref, item["key"])
            if resp.get("min_vns") != want:
                problems.append(f"min_vns {resp.get('min_vns')} != {want}")
        elif kind == "hit-mc":
            exp = fig3_expectation(ref, item["key"])
            verdict = "deadlock" if exp["kind"] == "deadlock" else "no_deadlock"
            if resp.get("verdict") != verdict:
                problems.append(f"verdict {resp.get('verdict')} != {verdict}")
            if resp.get("states") != exp["states"]:
                problems.append(f"states {resp.get('states')} != {exp['states']}")
        elif kind in ("cold", "repeat"):
            body = answer_body(resp)
            seen = first_answer.setdefault(item["key"], body)
            if body != seen:
                problems.append("cached answer differs from the cold one")
            if "min_vns" not in resp:
                problems.append("analyze answer lacks min_vns")
        out.append((what, problems))
    return out


# ---------------------------------------------------------------- processes

class Bench:
    def __init__(self, target, work):
        self.vnet = target / "release" / "vnet"
        self.tool = target / "release" / "perfbench-tool"
        self.target = target
        self.work = work
        self.seq = 0

    def launch(self, argv):
        """Runs `argv` to completion in its own process group, through
        `perfbench-tool spawn` so that the reported peak resident set is the
        command's own (a child forked from this script would inherit the
        script's high-water mark). Returns exit code, wall seconds, peak RSS
        in MB of the process tree, and stdout."""
        self.seq += 1
        out_path = self.work / f"out-{self.seq}.txt"
        err_path = self.work / f"err-{self.seq}.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            p = subprocess.Popen([str(self.tool), "spawn"] + argv, stdout=out, stderr=err,
                                 cwd=self.work, start_new_session=True)
            timer = threading.Timer(PROCESS_TIMEOUT_S, kill_group, (p.pid,))
            timer.start()
            try:
                p.wait()
            finally:
                timer.cancel()
        kill_group(p.pid)
        stdout = out_path.read_text()
        err_text = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        report = [ln for ln in err_text.splitlines() if ln.startswith("perfbench-spawn ")]
        if p.returncode != 0 or not report:
            sys.stderr.write(err_text[-2000:])
            raise RuntimeError(f"could not run {argv[0]} (spawn exit {p.returncode})")
        fields = dict(kv.split("=", 1) for kv in report[-1].split()[1:])
        code = int(fields["exit"])
        if code not in (0, 2, 3):
            sys.stderr.write(err_text[-2000:])
        return {"exit": code, "wall": float(fields["wall_s"]),
                "rss_mb": int(fields["maxrss_kb"]) / 1024, "stdout": stdout}

    def tool_run(self, args):
        """Runs perfbench-tool; returns its stdout, raises on failure."""
        run = self.launch([str(self.tool)] + args)
        if run["exit"] != 0:
            raise RuntimeError(f"perfbench-tool {args[0]} failed (exit {run['exit']})")
        return run["stdout"]

    def tool_json(self, args):
        return json.loads(self.tool_run(args).strip().splitlines()[-1])

    def calibrate(self, passes):
        """Times of `passes` runs of the calibration kernel, in seconds."""
        return self.tool_json(["calibrate", "--passes", str(passes)])["cal_s"]

    def mc(self, protocol, args):
        return self.launch([str(self.vnet), "mc", protocol, "--machine"] + args)


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------- mc workloads

def mc_plan(workload, ref, bench):
    """(setup subjects, legs) of an mc workload. A setup subject is
    (protocol, args); a leg is (name, protocol, args-factory, expectation,
    setup subject index)."""
    if workload == "mc-serial":
        subjects = [(p, base) for p, base, _ in FIG3_SUBJECTS]
        legs = []
        for i, (p, base, extra) in enumerate(FIG3_SUBJECTS):
            exp = fig3_expectation(ref, p)
            if extra:
                exp["witness"] = True
            legs.append((p, p, lambda base=base, extra=extra: base + extra, exp, i))
        r = PLAN["references"]["sym_4c"]
        exp = {"kind": "no-deadlock", "complete": "true", "states": r["states"],
               "levels": r["levels"], "exit": 0}
        legs.append(("sym-4c", "MSI-blocking-cache", lambda: list(SYM_ARGS), exp, len(subjects)))
        subjects.append(("MSI-blocking-cache", SYM_ARGS))
        return subjects, legs
    # fig3-modes: every leg must match the CSV; levels are pinned to the
    # serial leg's count of the same pass when checked.
    exp = fig3_expectation(ref, "CHI")
    modes = PLAN["fig3_modes"]
    caps = PLAN["explorer_caps"]

    def fresh(name):
        path = bench.work / name
        if path.exists():
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        return str(path)

    legs = [
        ("serial", lambda: []),
        ("threaded", lambda: ["--parallel", str(caps["parallel"])]),
        ("sharded", lambda: ["--shard-procs", str(caps["shard_procs"]),
                             "--shard-dir", fresh("shards")]),
        ("spill", lambda: ["--mem-budget", str(modes["spill_mem_budget_bytes"]),
                           "--spill-dir", fresh("spill")]),
        ("checkpoint", lambda: ["--checkpoint", fresh("ckpt.bin"), "--checkpoint-interval",
                                str(modes["checkpoint_interval_states"])]),
    ]
    return [("CHI", [])], [(n, "CHI", f, dict(exp), 0) for n, f in legs]


def run_legs(bench, tally, legs, extra=lambda name: [], cal=None):
    """Runs each leg once (with `extra(name)` appended to its arguments),
    checking it; a fig3-modes leg must also match the serial leg's level
    count. With a list `cal`, the calibration kernel runs just before each
    leg and its times are added to `cal`. Returns the runs in leg order."""
    runs = []
    serial_levels = None
    for name, protocol, args, exp, _ in legs:
        if cal is not None:
            cal += bench.calibrate(PLAN["calibration"]["passes"])
        run = bench.mc(protocol, args() + extra(name))
        if serial_levels is not None:
            exp = dict(exp, levels=serial_levels)
        tally.check(check_mc(run, exp), f"{name} leg")
        if name == "serial":
            serial_levels = (parse_mc_result(run["stdout"]) or {}).get("levels")
        runs.append(run)
    return runs


def host_scale(cal):
    """The reference kernel time over the median of the kernel times `cal`.
    A time measured among them, multiplied by this, reads as at the
    reference host speed."""
    return PLAN["calibration"]["reference_s"] / statistics.median(cal)


def mc_workload(workload, seconds, bench, tally, ref):
    subjects, legs = mc_plan(workload, ref, bench)
    rss = []
    # Probes run round-robin over the subjects, so a slow stretch of the
    # machine lands on all of them alike.
    probe_walls = [[] for _ in subjects]
    for _ in range(PLAN["setup_probes"]):
        for (protocol, base), walls in zip(subjects, probe_walls):
            run = bench.mc(protocol, base + ["--budget", "nodes=1"])
            tally.check(check_probe(run), f"setup probe {protocol}")
            walls.append(run["wall"])
            rss.append(run["rss_mb"])
    setup = [statistics.median(walls) for walls in probe_walls]

    # Only the workloads of single-threaded explorer runs are scaled to the
    # host's speed: plan.json calibration says why.
    cal = [] if workload in PLAN["calibration"]["workloads"] else None
    passes, pass_times = [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_legs(bench, tally, legs, cal=cal))
        pass_times.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        # At least two passes, so a run's median never rests on one pass.
        if len(pass_times) >= 2 and elapsed + statistics.mean(pass_times) > seconds:
            break
    # The host's speed drifts between runs: times are scaled to the
    # reference speed by the calibration kernel run between the legs.
    if cal is not None:
        cal += bench.calibrate(PLAN["calibration"]["passes"])
    scale = 1.0 if cal is None else host_scale(cal)
    runs = [r for p in passes for r in p]
    verdicts = [sum(r["wall"] - setup[leg[4]] for r, leg in zip(p, legs)) * scale
                for p in passes]
    walls = [r["wall"] * scale for r in runs]
    rss += [r["rss_mb"] for r in runs]
    # The runs are of different subjects, up to 15x apart, so the middle one
    # is whichever subject sits in the middle and jumps as they drift: the
    # round trip is the geometric mean over legs of each one's median.
    p50 = statistics.geometric_mean(statistics.median(walls[i::len(legs)])
                                    for i in range(len(legs))) * 1e3
    print(f"# {workload}: {len(passes)} passes, {len(runs)} runs, unscaled verdict "
          f"{statistics.median(verdicts) / scale:.4f} s, host scale {scale:.4f}"
          + ("" if cal is None else
             f" from {len(cal)} kernel runs ({min(cal):.4f}-{max(cal):.4f} s)"))
    return {
        "setup_s": sum(setup) * scale,
        "verdict_s": statistics.median(verdicts),
        "peak_rss_mb": max(rss),
        "rtt_p50_ms": p50,
        "miss_rtt_p50_ms": p50,
        "req_per_s": len(walls) / sum(walls),
    }


def read_metrics_snapshot(path):
    snap = json.loads(Path(path).read_text())
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    hist = snap.get("histograms", {})
    return counters, gauges, hist


def shadow_subject(bench, tally, protocol, args, leg, layers):
    """Shadow BFS of one subject (configured by `args`) plus a run of its
    untraced leg with a metrics snapshot as the explorer reference; adds
    the subject's layer totals to `layers`."""
    sh = bench.tool_json(["shadow", protocol] + args)
    snap = bench.work / "ref-metrics.json"
    run = bench.mc(protocol, leg[2]() + ["--metrics", str(snap)])
    tally.check(check_mc(run, leg[3]), f"{protocol} reference run")
    res = parse_mc_result(run["stdout"]) or {}
    counters, gauges, hist = read_metrics_snapshot(snap)
    problems = []
    if sh["deadlock_depth"] >= 0:
        if str(int(sh["deadlock_depth"])) != res.get("depth"):
            problems.append(f"shadow deadlock depth {sh['deadlock_depth']} != {res.get('depth')}")
        if sh["witness_ok"] != 1:
            problems.append("shadow witness did not replay")
    else:
        for key in ("states", "levels"):
            if str(int(sh[key])) != res.get(key):
                problems.append(f"shadow {key} {sh[key]} != explorer {res.get(key)}")
    if sh["swmr_violations"]:
        problems.append(f"{sh['swmr_violations']} SWMR violations")
    tally.check(problems, f"{protocol} shadow fidelity")
    explore_s = hist.get("explore.level_wall_us", {}).get("sum", 0) / 1e6
    for key in ("wall_s", "decode_s", "expand_s", "encode_s", "canon_s", "intern_s", "swmr_s",
                "replay_s", "expanded", "successors", "key_bytes", "fresh", "arena_bytes",
                "states", "levels"):
        layers[key] = layers.get(key, 0) + sh[key]
    layers["explore_s"] = layers.get("explore_s", 0) + explore_s
    layers["explorer_states"] = layers.get("explorer_states", 0) + int(res.get("states", 0))
    layers["load_factor_pct"] = max(layers.get("load_factor_pct", 0), sh["load_factor_pct"])
    layers["candidates_per_key"] = max(layers.get("candidates_per_key", 0),
                                       sh["candidates_per_key"])
    layers["peak_bytes"] = max(layers.get("peak_bytes", 0), gauges.get("explore.peak_bytes", 0))


def mc_trace(workload, bench, tally, ref):
    subjects, legs = mc_plan(workload, ref, bench)
    m = {}
    layers = {}
    if workload == "mc-serial":
        for (p, base, _), leg in zip(FIG3_SUBJECTS, legs):
            shadow_subject(bench, tally, p, base, leg, layers)
        shadow_subject(bench, tally, "MSI-blocking-cache", SYM_ARGS, legs[-1], layers)
        want = PLAN["references"]["sym_4c"]["group_order"] - 1
        tally.check([] if layers["candidates_per_key"] == want else
                    [f"{layers['candidates_per_key']} candidates per key != {want}"],
                    "symmetry group order")
    else:
        shadow_subject(bench, tally, "CHI", [], legs[0], layers)
        m.update(mode_legs(bench, tally, legs))
    self_s = sum(layers[k] for k in ("decode_s", "expand_s", "encode_s", "canon_s", "intern_s",
                                     "swmr_s", "replay_s"))
    cover = self_s / layers["wall_s"]
    lo, hi = PLAN["trace"]["layer_cover_min"], PLAN["trace"]["layer_cover_max"]
    tally.check([] if lo <= cover <= hi else [f"layer cover {cover:.3f} outside [{lo}, {hi}]"],
                "traced run coverage")
    m.update({
        "mc.rules.expand_s": layers["expand_s"],
        "mc.rules.successors": layers["successors"],
        "mc.rules.successors_per_state": layers["successors"] / max(layers["expanded"], 1),
        "mc.state.encode_s": layers["encode_s"],
        "mc.state.decode_s": layers["decode_s"],
        "mc.state.key_bytes": layers["key_bytes"] / max(layers["successors"], 1),
        "mc.symmetry.canon_s": layers["canon_s"],
        "mc.symmetry.candidates_per_key": layers["candidates_per_key"],
        "mc.intern.probe_s": layers["intern_s"],
        "mc.intern.fresh_ratio": layers["fresh"] / max(layers["successors"], 1),
        "mc.intern.arena_mb": layers["arena_bytes"] / 1e6,
        "mc.intern.load_factor_pct": layers["load_factor_pct"],
        "mc.invariant.swmr_s": layers["swmr_s"],
        "mc.trace.replay_s": layers["replay_s"],
        "mc.explore.states": layers["states"],
        "mc.explore.levels": layers["levels"],
        # The explorer's own throughput: its states over the summed wall of
        # its levels (`explore.level_wall_us`), not the shadow's.
        "mc.explore.states_per_s": layers["explorer_states"] / max(layers["explore_s"], 1e-9),
        "mc.explore.peak_accounted_mb": layers["peak_bytes"] / 1e6,
        "mc.layer_cover": cover,
        "mc.trace_overhead": layers["wall_s"] / max(layers["explore_s"], 1e-9),
    })
    protocols = sorted({p for p, _ in subjects})
    m.update(bench.tool_json(["core-phases"] + protocols))
    return m


def mode_legs(bench, tally, legs):
    """One run of each fig3-modes leg with a metrics snapshot."""
    m = {}

    def snap(name):
        return bench.work / f"{name}-metrics.json"

    runs = dict(zip((leg[0] for leg in legs),
                    run_legs(bench, tally, legs, lambda name: ["--metrics", str(snap(name))])))
    for name, run in runs.items():
        run["snap"] = read_metrics_snapshot(snap(name)) if snap(name).exists() else ({}, {}, {})
    c, g, h = runs["sharded"]["snap"]
    rounds = c.get("explore.procshard.rounds_total", 0)
    restarts = c.get("explore.procshard.restarts_total", 0)
    tally.check([] if restarts == 0 else [f"{restarts} shard restarts"], "procshard restarts")
    m["mc.parallel.wall_s"] = runs["threaded"]["wall"]
    m["mc.parallel.speedup"] = runs["serial"]["wall"] / runs["threaded"]["wall"]
    m["mc.parallel.peak_rss_mb"] = runs["threaded"]["rss_mb"]
    m["mc.procshard.wall_s"] = runs["sharded"]["wall"]
    m["mc.procshard.rounds"] = rounds
    m["mc.procshard.round_ms"] = runs["sharded"]["wall"] * 1e3 / max(rounds, 1)
    m["mc.procshard.restarts"] = restarts
    c, g, h = runs["spill"]["snap"]
    m["mc.spill.wall_s"] = runs["spill"]["wall"]
    m["mc.spill.bytes"] = c.get("explore.spill_bytes", 0)
    m["mc.spill.reads"] = c.get("explore.spill_reads_total", 0)
    m["mc.spill.compress_ratio"] = g.get("explore.compress_ratio", 0) / 100
    c, g, h = runs["checkpoint"]["snap"]
    flush = h.get("explore.checkpoint_flush_us", {})
    m["mc.checkpoint.wall_s"] = runs["checkpoint"]["wall"]
    m["mc.checkpoint.flushes"] = c.get("explore.checkpoint_flushes_total", 0)
    m["mc.checkpoint.flush_ms"] = flush.get("sum", 0) / 1e3 / max(flush.get("count", 0), 1)
    ckpt = bench.work / "ckpt.bin"
    m["mc.checkpoint.bytes"] = ckpt.stat().st_size if ckpt.exists() else 0
    tally.check([] if m["mc.spill.bytes"] > 0 else ["spill leg never spilled"], "spill engaged")
    tally.check([] if m["mc.checkpoint.flushes"] > 0 else ["no checkpoint flush"],
                "checkpoint engaged")
    return m


# ---------------------------------------------------------------- serve-mix

class Daemon:
    """A `vnet serve` process on an ephemeral loopback port."""

    def __init__(self, bench, store):
        caps = PLAN["explorer_caps"]
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [str(bench.vnet), "serve", "--listen", "127.0.0.1:0", "--workers",
             str(caps["serve_workers"]), "--store-dir", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=bench.work,
            start_new_session=True)
        self.timer = threading.Timer(PROCESS_TIMEOUT_S, kill_group, (self.p.pid,))
        self.timer.start()
        line = self.p.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))
        self.ready_s = None

    def request(self, obj):
        with socket.create_connection(self.addr, timeout=60) as s:
            s.sendall((json.dumps(obj) + "\n").encode())
            return json.loads(s.makefile().readline())

    def wait_ready(self):
        resp = self.request({"id": "ready", "cmd": "ping"})
        self.ready_s = time.perf_counter() - self.t0
        return resp

    def stop(self):
        """SIGTERM, then reap; returns the daemon's peak RSS in MB, read
        from its own VmHWM before it drains."""
        hwm_kb = 0
        try:
            with open(f"/proc/{self.p.pid}/status") as f:
                hwm_kb = next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
        try:
            os.kill(self.p.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.p.wait()
        finally:
            self.timer.cancel()
            kill_group(self.p.pid)
            self.p.stdout.close()
        return hwm_kb / 1024


def prefilled_store(bench):
    """A fresh copy of the pre-filled store. The pre-fill does not depend
    on the seed, so it is built once and copied. The cache is keyed by
    the record count and a hash of the `perfbench-tool` binary, which
    links the store code that wrote it: builds of different commits that
    share a build directory never open each other's log."""
    n = PLAN["serve"]["prefill_records"]
    digest = hashlib.sha256(bench.tool.read_bytes()).hexdigest()[:16]
    cache = bench.target / "perfbench-cache" / f"store-{n}-{digest}"
    if not (cache / "results.log").exists():
        tmp = bench.work / "prefill"
        bench.tool_run(["prefill", "--dir", str(tmp), "--records", str(n)])
        cache.parent.mkdir(parents=True, exist_ok=True)
        if cache.exists():
            shutil.rmtree(cache)
        shutil.move(str(tmp), str(cache))
    dest = bench.work / "store"
    shutil.copytree(cache, dest)
    return dest


def check_prefill(metrics, records):
    """The daemon must have opened every pre-filled record and skipped
    none, so set-up is timed on the whole log."""
    reg = metrics.get("registry", {})
    kept = reg.get("gauges", {}).get("store.records")
    skipped = reg.get("counters", {}).get("store.quarantined_total", 0)
    problems = [] if kept == records else [f"store opened {kept} records, pre-filled {records}"]
    if skipped:
        problems.append(f"{skipped} pre-filled frames quarantined")
    return problems


def write_lines(path, items):
    path.write_text("".join(json.dumps(i) + "\n" for i in items))


def run_client(bench, daemon, stream_path, seconds):
    out = bench.work / f"answers-{stream_path.stem}.jsonl"
    caps = PLAN["explorer_caps"]
    run = bench.launch([str(bench.tool), "client", "--addr", f"{daemon.addr[0]}:{daemon.addr[1]}",
                        "--stream", str(stream_path), "--conns", str(caps["client_connections"]),
                        "--seconds", str(seconds), "--out", str(out)])
    if run["exit"] != 0:
        raise RuntimeError("client failed")
    wall = json.loads(run["stdout"].strip().splitlines()[-1])["wall_s"]
    return [json.loads(line) for line in out.read_text().splitlines()], wall


def serve_workload(seconds, bench, tally, ref, seed, trace):
    cfg = PLAN["serve"]
    store = prefilled_store(bench)
    stream_path = bench.work / "stream.jsonl"
    # The stream holds enough requests for the closed loop to run the full
    # `seconds` at up to the rate cap; a faster daemon ends the loop early.
    length = math.ceil(seconds * cfg["stream_rate_cap_per_s"])
    bench.tool_run(["stream", "--seed", str(seed), "--len", str(length), "--miss-pct",
                    str(cfg["miss_pct"]), "--mc-hits", ",".join(cfg["mc_hits"]),
                    "--out", str(stream_path)])
    stream = [json.loads(line) for line in stream_path.read_text().splitlines()]
    m = {}
    if trace:
        layer_store = bench.work / "layer-store"
        shutil.copytree(store, layer_store)
        m.update(bench.tool_json(["serve-layers", "--stream", str(stream_path), "--store",
                                  str(layer_store), "--scratch", str(bench.work / "put-store")]))

    rss = []
    setups = []
    for _ in range(PLAN["serve_setup_probes"]):
        d = Daemon(bench, store)
        try:
            resp = d.wait_ready()
        finally:
            rss.append(d.stop())
        tally.check([] if resp.get("status") == "ok" else [f"ping {resp}"], "setup ping")
        setups.append(d.ready_s)

    d = Daemon(bench, store)
    try:
        tally.check([] if d.wait_ready().get("status") == "ok" else ["ping failed"], "ping")
        tally.check(check_prefill(d.request({"id": "open", "cmd": "metrics"}),
                                  cfg["prefill_records"]), "pre-filled store")
        # Untimed warm-up: every Table I analyze answer and the mc answers
        # the stream repeats, so those requests are store hits in the loop.
        warm = [{"kind": "hit-analyze", "key": p, "req": json.dumps(
                    {"id": f"w{i}", "cmd": "analyze", "protocol": p})}
                for i, p in enumerate(sorted(ref))]
        warm += [{"kind": "hit-mc", "key": p, "req": json.dumps(
                     {"id": f"wm{i}", "cmd": "mc", "protocol": p})}
                 for i, p in enumerate(cfg["mc_hits"])]
        warm_path = bench.work / "warmup.jsonl"
        write_lines(warm_path, warm)
        results, _ = run_client(bench, d, warm_path, 120)
        for what, problems in check_serve(warm, results, ref):
            tally.check(problems, f"warm-up {what}")
        tally.check([] if len(results) == len(warm) else ["warm-up incomplete"], "warm-up")

        results, wall = run_client(bench, d, stream_path, seconds)
        for what, problems in check_serve(stream, results, ref):
            tally.check(problems, what)
        metrics = d.request({"id": "m", "cmd": "metrics"})
    finally:
        rss.append(d.stop())

    rtts = [r["rtt_us"] / 1e3 for r in results]
    cold = [r["rtt_us"] / 1e3 for r in results if stream[r["i"]]["kind"] == "cold"]
    hits = [r["rtt_us"] / 1e3 for r in results if stream[r["i"]]["kind"].startswith("hit")]
    tally.check([] if cold else ["no cold request was answered"], "cold requests")
    tail_v, tail_label = tail(rtts) or (max(rtts), "max")
    print(f"# serve-mix: {len(results)} requests ({len(cold)} cold) in {wall:.2f} s, "
          f"tail {tail_label} of {len(rtts)} samples")
    if trace:
        counters = metrics.get("registry", {}).get("counters", {})
        hist = metrics.get("registry", {}).get("histograms", {})
        hits_n = counters.get("serve.cache_hits_total", 0)
        lookups = hits_n + counters.get("serve.cache_misses_total", 0)
        wall_h = hist.get("serve.request_wall_ms", {})
        m.update({
            "serve.hit_rtt_p50_ms": statistics.median(hits) if hits else 0.0,
            "serve.rtt_p99_ms": tail_v,
            "serve.server_wall_mean_ms": wall_h.get("sum", 0) / max(wall_h.get("count", 0), 1),
            "serve.hit_ratio": hits_n / max(lookups, 1),
            "serve.rejected": metrics.get("counters", {}).get("rejected", 0),
            "serve.cancelled": metrics.get("counters", {}).get("cancelled", 0),
        })
        return m
    return {
        "setup_s": statistics.median(setups),
        "verdict_s": wall / max(len(results), 1) * cfg["window_requests"],
        "peak_rss_mb": max(rss),
        "rtt_p50_ms": statistics.median(rtts),
        "miss_rtt_p50_ms": statistics.median(cold) if cold else 0.0,
        "req_per_s": len(results) / wall,
    }


# ---------------------------------------------------------------- main

def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "--bin", "vnet"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 str(HERE / "tool" / "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def result_line(tally, metrics, units):
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for why in tally.why:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PLAN["default_seed"])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for need in ("Cargo.toml", "crates", "src", "vn_results.csv", "BENCHMARK.json"):
        if not (root / need).exists():
            die(f"{need} not found: run from the root of a vnet checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build")).resolve()
    build(root, target)
    ref = load_reference(root / "vn_results.csv")

    target.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=target))
    bench = Bench(target, work)
    tally = Tally()
    try:
        if args.workload == "serve-mix":
            metrics = serve_workload(args.seconds, bench, tally, ref, args.seed, args.trace)
        elif args.trace:
            metrics = mc_trace(args.workload, bench, tally, ref)
        else:
            metrics = mc_workload(args.workload, args.seconds, bench, tally, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["ok_frac"] = tally.ok_frac()
    # Layers a workload does not engage read zero (see plan.json predictions).
    metrics = {name: float(metrics.get(name, 0.0)) for name in units}
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

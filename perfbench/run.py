#!/usr/bin/env python3
"""End-to-end benchmark of the `nanobound` release binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 45 --trace 0

`run.py` builds `nanobound` from source (`cargo build --release`, into
`$CARGO_TARGET_DIR`, default `.bench_build`), writes the workload's
inputs from `--seed` with the std-only generator in `gen.py`, records
the reference outputs outside all timing, and then measures the
workload for `--seconds` seconds. Every output is checked; a mismatch
is a failed operation and is never timed. The last stdout line is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, defined per
workload (the report above the JSON line prints each under the name
that says what it is):

| metric           | paper            | large_design     | serve_mix         | cluster_mc       |
|------------------|------------------|------------------|-------------------|------------------|
| `setup_s`        | serve start-up   | serve start-up   | serve spawn       | workers spawn    |
| `latency_ms`     | cold pair        | profile (a)      | request, mean     | distributed run  |
| `alt_latency_ms` | warm pair        | MC eps=1e-3 (c)  | request, 5% tail  | zero-worker run  |
| `peak_rss_mb`    | any of the pair  | profile (a)      | serve             | busiest process  |

Each gated time is the statistic of the run's samples that held
stillest over repeated runs on a shared 2-vCPU host, whose speed drifts
by up to a third for seconds to minutes at a time (see `LOW`).
`serve_mix` replays one fixed request sequence in every session, so each
request has one latency per session; its gated latencies are each
request's fastest one over the run, averaged over all requests and over
the 5% slowest of them. The pooled p50, p95 and p99 over at least
`SERVE_MIN_SAMPLES` requests, with the number of samples beyond each,
and the request rate are printed beside them, not gated: between 45-s
windows of one long recording the pooled p50 and the rate moved about
2.5 times as much as the best-case mean, p99 about 2.8 times as much as
the best-case tail. In a closed loop the rate is the outstanding count
over the mean latency, so the latency gate covers it. `cluster_mc`
takes the lower quartile of its few distributed runs and the fastest of
its many short zero-worker runs; patterns/s is printed. Memory and
`setup_s` are medians.

`setup_s` is the time from spawning the workload's long-lived processes
to their ready lines, over `SETUP_SPAWNS` spawns spread across the run.
The one-shot workloads have none of their own; for them it is the
start-up of a stdio `serve` engine with the workload's flags, the same
engine every one-shot command builds.

`BENCHMARK.json` gates `serve_mix` and `cluster_mc` only. `paper` and
`large_design` run and check the same way, but on a shared 2-vCPU host
their run-to-run spread exceeds any allowed bound: the cold `paper` pair
and every `large_design` phase are single commands of 0.1-3 s whose
time follows the host's load over minutes, so no quartile of a few
dozen of them holds still. Every traced run still replays and ledgers
all four.

With `--trace 1` it also builds the per-layer probe
(`perfbench/probe`, the only part that links workspace crates), runs one
untraced pass of every workload for the binary's own counters, and lets
the probe replay every workload in-process with a span around each call
into a crate. The metrics are then the per-layer ledger; the Chrome
trace lands in `.bench_work/trace/`.

All load comes from this one process: one-shot commands run with
`--jobs` = nproc, the serve session keeps nproc requests outstanding,
and the cluster uses nproc workers at `--jobs 1` each.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from itertools import count

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import gen  # noqa: E402

NPROC = max(1, len(os.sched_getaffinity(0)))
WORKLOADS = ("paper", "large_design", "serve_mix", "cluster_mc")
WORK_ROOT = ".bench_work"
COMMAND_TIMEOUT = 170
# Wall-clock budget of one run after its builds: a hung child or session
# ends the run with an error instead of wedging it.
RUN_BUDGET = 175
SETUP_SPAWNS = 100
# serve_mix: latency samples per run, so that at least 10 lie beyond p99.
SERVE_MIN_SAMPLES = 1100

# large_design: Monte-Carlo patterns per phase (b)/(c) run, sized so that
# shard work outweighs the fixed parse/hash/compile cost of a run.
LARGE_MC_PATTERNS = 40960
LARGE_MIN_ROUNDS = 3
CLUSTER_BATCH = 4
CLUSTER_PATTERNS = 65536  # 16 shards of the default chunk: 4 batches, two per worker
PAPER_FILES = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "headline"]


class Failure(Exception):
    """The benchmark itself cannot run (no checkout, build failure)."""


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------

LIVE = []


def stop_all():
    """Kills and reaps every child still running."""
    while LIVE:
        p = LIVE.pop()
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass


def spawn(args, **kw):
    p = subprocess.Popen(args, **kw)
    LIVE.append(p)
    return p


def reap(p):
    """Waits for `p` and returns its peak RSS in MB (from wait4)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    if p in LIVE:
        LIVE.remove(p)
    return usage.ru_maxrss / 1024.0


class Run:
    """One finished one-shot command."""

    def __init__(self, wall, rc, out, err, rss):
        self.wall, self.rc, self.out, self.err, self.rss = wall, rc, out, err, rss


def run(args, work, env=None, timeout=COMMAND_TIMEOUT):
    """Runs a command to completion; stdout/stderr go through files so
    the child never blocks on a pipe and wait4 can report its RSS."""
    out_path = os.path.join(work, "cmd.out")
    err_path = os.path.join(work, "cmd.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        p = spawn(args, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            rss = reap(p)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return Run(wall, p.returncode, stdout, stderr, rss)


def drain(stream):
    threading.Thread(target=lambda: stream.read(), daemon=True).start()


def wait_ready(p, needle):
    """Reads stderr lines until the one containing `needle`; returns it."""
    while True:
        line = p.stderr.readline()
        if not line:
            raise Failure(f"process exited before `{needle}`")
        text = line.decode("utf-8", "replace")
        if needle in text:
            drain(p.stderr)
            return text.strip()


# ---------------------------------------------------------------------
# Statistics and reporting
# ---------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# Which quartile of a row's samples `Report.add` returns as the metric.
# A shared CPU alternates between a fast state and one ~40% slower, with
# a share of slow time that changes from minute to minute, so a median
# of a run's times moves with that share. The fast end of many repeats
# of the same work moves least: the lower quartile of a few 2-s cluster
# runs, the fastest of many 0.2-s ones, each serve request's fastest
# repeat.
LOW, MID = 0, 1


def thousand(value):
    return None if value is None else 1000 * value


def percentile(values, p):
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
    return ordered[k]


class Report:
    """Collects named samples and prints them with their spread."""

    def __init__(self):
        self.rows = []

    def add(self, name, unit, samples, note="", pick=MID):
        """Adds a row; returns the `pick` quartile of `samples`, or None."""
        samples = [float(s) for s in samples]
        if not samples:
            self.rows.append((name, unit, None, note))
            return None
        stats = quartiles(samples)
        self.rows.append((name, unit, stats + (len(samples),), note))
        return stats[pick]

    def fixed(self, name, unit, value, n, note=""):
        """Adds a row of one value derived from `n` samples; returns it."""
        self.rows.append((name, unit, (value,) * 3 + (n,), note))
        return value

    def print(self):
        for name, unit, stats, note in self.rows:
            if stats is None:
                print(f"  {name:34s} {unit:12s} not measured  {note}")
                continue
            q1, med, q3, n = stats
            print(
                f"  {name:34s} {unit:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                f"q3 {q3:<12.6g} n {n:<5d} {note}"
            )


def calib_ns():
    """A fixed integer kernel: ns per iteration, median of five runs.
    It normalises nothing; it only shows host drift between runs."""
    times = []
    for _ in range(5):
        x = 0x9E3779B97F4A7C15
        start = time.perf_counter_ns()
        for _ in range(100_000):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        times.append((time.perf_counter_ns() - start) / 100_000)
    return statistics.median(times)


# ---------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------


def cache_counts(stdout):
    """The `cache DIR: H hits, M misses, W entries written[, E write
    errors ...]` line of a one-shot command, as a dict of counts."""
    for line in stdout.decode().splitlines():
        if line.startswith("cache ") and " hits, " in line:
            body = line.split(": ", 1)[1]
            parts = [p.strip() for p in body.split(",")]
            counts = {
                "hits": int(parts[0].split()[0]),
                "misses": int(parts[1].split()[0]),
                "writes": int(parts[2].split()[0]),
                "write_errors": 0,
            }
            if len(parts) > 3 and "write errors" in parts[3]:
                counts["write_errors"] = int(parts[3].split()[0])
            return counts
    return None


def stats_counts(payload):
    """The serve `stats` payload: shard-cache, program and profile counts."""
    counts = {}
    for line in payload.decode().splitlines():
        words = line.replace(",", "").replace("(", "").replace(")", "").split()
        if line.startswith("cache programs:"):
            # cache programs: C compiled U cones S shared L sliced
            counts["compiled"], counts["shared"], counts["sliced"] = (
                int(words[2]), int(words[6]), int(words[8]))
        elif line.startswith("cache profiles:"):
            # cache profiles: A activity reused M measured S sensitivity reused M measured
            counts["reused"] = int(words[2]) + int(words[7])
            counts["measured"] = int(words[5]) + int(words[10])
        elif line.startswith("cache ") and " hits" in line:
            c = cache_counts(line.encode())
            counts.update(c)
    return counts


def cluster_stats(stderr):
    """The coordinator's `cluster: ...` stats line as a dict of counts."""
    for line in stderr.decode().splitlines():
        if line.startswith("nanobound cluster: ") and " shards, " in line:
            head = line.split(" | ")[0].split(": ", 1)[1]
            words = head.replace(",", "").split()
            return {
                "shards": int(words[0]),
                "cached": int(words[2]),
                "local": int(words[4]),
                "retries": int(words[6]),
                "ejections": int(words[8]),
            }
    return None


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


class Ctx:
    def __init__(self, binary, seed, seconds, work):
        self.binary = binary
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.report = Report()
        self.metrics = {}
        self.notes = []

    def cmd(self, *args):
        return [self.binary, *map(str, args)]

    def check(self, ok, what):
        """Counts one checked operation; returns whether it passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def fresh(self, name):
        d = self.path(name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d


class Setup:
    """`SETUP_SPAWNS` spawn-to-ready times of a workload's long-lived
    processes, taken a few at a time over the whole measuring window, so
    that they see the host as the rest of the run does."""

    def __init__(self, ctx, spawn_ready):
        self.ctx = ctx
        self.spawn_ready = spawn_ready  # () -> seconds
        self.samples = []
        self.start = time.perf_counter()

    def keep_pace(self):
        share = (time.perf_counter() - self.start) / self.ctx.seconds
        while len(self.samples) < min(1.0, share) * SETUP_SPAWNS:
            self.samples.append(self.spawn_ready())

    def finish(self):
        while len(self.samples) < SETUP_SPAWNS:
            self.samples.append(self.spawn_ready())
        return self.samples


def serve_engine_setup(ctx, extra_args):
    """Spawn-to-ready of a stdio serve engine with the workload's flags:
    the start-up every one-shot command of the workload pays."""

    def spawn_ready():
        args = ctx.cmd("serve", *extra_args)
        if "--cache-dir" in extra_args:
            args[args.index("--cache-dir") + 1] = ctx.fresh("setup-cache")
        start = time.perf_counter()
        p = spawn(args, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                  stderr=subprocess.PIPE)
        wait_ready(p, "ready on stdio")
        took = time.perf_counter() - start
        p.stdin.close()
        reap(p)
        return took

    return Setup(ctx, spawn_ready)


def golden_files(root):
    files = {f"{name}.csv": os.path.join(root, "tests", "golden", f"{name}.csv")
             for name in PAPER_FILES}
    for v in ("v1", "v2"):
        files[f"{v}.csv"] = os.path.join(root, "tests", "golden", "validation", f"{v}.csv")
    return {name: open(path, "rb").read() for name, path in files.items()}


def paper_pair(ctx, cache, out, golden, warm):
    """One `figures` + `validate` pair into `out`; returns (wall, rss, ok,
    counts) with the two commands' cache counts summed."""
    wall, rss, ok = 0.0, 0.0, True
    total = {"hits": 0, "misses": 0, "writes": 0, "write_errors": 0}
    for sub in ("figures", "validate"):
        r = run(ctx.cmd(sub, "--out", out, "--cache-dir", cache, "--jobs", NPROC), ctx.work)
        wall += r.wall
        rss = max(rss, r.rss)
        counts = cache_counts(r.out)
        ok &= ctx.check(r.rc == 0 and counts is not None, f"paper {sub} exit {r.rc}")
        if counts:
            for k in total:
                total[k] += counts[k]
            if warm:
                ok &= ctx.check(counts["misses"] == 0, f"warm {sub} reported misses")
    for name, expected in golden.items():
        path = os.path.join(out, name)
        got = open(path, "rb").read() if os.path.exists(path) else None
        ok &= ctx.check(got == expected, f"paper output {name} differs from tests/golden")
    return wall, rss, ok, total


def workload_paper(ctx, root, untraced_once=False):
    golden = golden_files(root)
    setup = serve_engine_setup(ctx, ["--jobs", NPROC, "--cache-dir", "?"])
    cold, warm, rsses = [], [], []
    info = {}
    start = time.perf_counter()
    for cycle in count():
        if cycle and (untraced_once or time.perf_counter() - start >= ctx.seconds):
            break
        setup.keep_pace()
        cache = ctx.fresh("cache")
        c_wall, c_rss, c_ok, info["paper_cold"] = paper_pair(
            ctx, cache, ctx.fresh("cold"), golden, False)
        w_wall, w_rss, w_ok, info["paper_warm"] = paper_pair(
            ctx, cache, ctx.fresh("warm"), golden, True)
        info["wall"] = c_wall + w_wall
        if c_ok and w_ok:
            cold.append(c_wall)
            warm.append(w_wall)
            rsses.append(max(c_rss, w_rss))
    r = ctx.report
    ctx.metrics["setup_s"] = r.add("setup_s", "s", setup.finish(), "stdio serve engine start-up")
    ctx.metrics["latency_ms"] = thousand(r.add("paper_cold_s", "s", cold,
                                               "q1 = latency_ms / 1000", LOW))
    ctx.metrics["alt_latency_ms"] = thousand(r.add("paper_warm_s", "s", warm,
                                                   "q1 = alt_latency_ms / 1000", LOW))
    ctx.metrics["peak_rss_mb"] = r.add("paper_peak_rss_mb", "MB", rsses, "median = peak_rss_mb")
    return info


def write_large(ctx):
    text, gates = gen.design(ctx.seed, 1, gen.LARGE_N)
    path = ctx.path("large.bench")
    with open(path, "w") as f:
        f.write(text)
    return path, gates


def workload_large(ctx, untraced_once=False):
    path, gates = write_large(ctx)
    phases = {
        "a": ["profile", path, "--eps", "0.001", "--eps", "0.01", "--eps", "0.1"],
        "b": ["cluster", path, "--eps", "0.01", "--patterns", LARGE_MC_PATTERNS],
        "c": ["cluster", path, "--eps", "0.001", "--patterns", LARGE_MC_PATTERNS],
    }
    # Reference: the interpreted engine, once per seed, outside timing.
    interp = dict(os.environ, NANOBOUND_ENGINE="interp")
    reference = {}
    for name, args in phases.items():
        r = run(ctx.cmd(*args, "--jobs", NPROC), ctx.work, env=interp)
        if not ctx.check(r.rc == 0, f"interp reference phase {name} exit {r.rc}"):
            raise Failure(r.err.decode()[-400:])
        reference[name] = r.out
        with open(ctx.path(f"large-ref-{name}.out"), "wb") as f:
            f.write(r.out)
    setup = serve_engine_setup(ctx, ["--jobs", NPROC])
    samples = {"a": [], "b": [], "c": []}
    rss = []
    # Whole rounds of the three phases until time is up, at least
    # `LARGE_MIN_ROUNDS` of them.
    start = time.perf_counter()
    for rounds in count():
        if untraced_once and rounds:
            break
        if rounds >= LARGE_MIN_ROUNDS and time.perf_counter() - start >= ctx.seconds:
            break
        for name, args in phases.items():
            r = run(ctx.cmd(*args, "--jobs", NPROC), ctx.work)
            if ctx.check(r.rc == 0 and r.out == reference[name],
                         f"large_design phase {name} differs from the interp run"):
                samples[name].append(r.wall)
                if name == "a":
                    rss.append(r.rss)
            setup.keep_pace()
    r = ctx.report
    ctx.notes.append(f"large design: {gates} gates, {LARGE_MC_PATTERNS} MC patterns per run")
    ctx.metrics["setup_s"] = r.add("setup_s", "s", setup.finish(), "stdio serve engine start-up")
    ctx.metrics["latency_ms"] = thousand(r.add("large_profile_s", "s", samples["a"],
                                               "q1 = latency_ms / 1000", LOW))
    ctx.metrics["peak_rss_mb"] = r.add("large_profile_rss_mb", "MB", rss,
                                       "median = peak_rss_mb")
    r.add("large_mc_e2_pps", "patterns/s", [LARGE_MC_PATTERNS / w for w in samples["b"]])
    r.add("large_mc_e3_pps", "patterns/s", [LARGE_MC_PATTERNS / w for w in samples["c"]])
    ctx.metrics["alt_latency_ms"] = thousand(r.add("large_mc_e3_s", "s", samples["c"],
                                                   "q1 = alt_latency_ms / 1000", LOW))
    return {"wall": sum(v[-1] for v in samples.values() if v)}


# --- serve_mix --------------------------------------------------------


def write_family(ctx):
    members = gen.family(ctx.seed)
    fam = ctx.fresh("family")
    paths = []
    for name, text, _, _ in members:
        path = os.path.join(fam, f"{name}.bench")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    sequence = gen.requests(ctx.seed, paths, members)
    lines = [
        json.dumps({"id": f"r{i}", "workload": w, "args": a}, separators=(",", ":")).encode()
        for i, (w, a) in enumerate(sequence)
    ]
    with open(ctx.path("requests.jsonl"), "wb") as f:
        f.write(b"\n".join(lines) + b"\n")
    return sequence, lines


class Session:
    """A stdio `serve` process driven as a closed loop."""

    def __init__(self, ctx, concurrency):
        self.cache = ctx.fresh("serve-cache")
        start = time.perf_counter()
        self.p = spawn(
            ctx.cmd("serve", "--concurrency", concurrency, "--jobs", 1,
                    "--cache-dir", self.cache),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wait_ready(self.p, "ready on stdio")
        self.setup = time.perf_counter() - start

    def send(self, line):
        self.p.stdin.write(line + b"\n")
        self.p.stdin.flush()

    def frame(self):
        header = self.p.stdout.readline()
        if not header:
            raise Failure("serve closed its stdout mid-session")
        head = json.loads(header)
        payload = self.p.stdout.read(head["bytes"])
        return head["id"], head["status"] == "ok", payload

    def loop(self, lines, outstanding):
        """Sends every line keeping `outstanding` in flight; returns the
        frames and per-request latencies (write to whole frame read)."""
        frames, latencies = [], []
        pending = deque()
        i = 0
        start = time.perf_counter()
        while i < len(lines) or pending:
            while i < len(lines) and len(pending) < outstanding:
                pending.append(time.perf_counter())
                self.send(lines[i])
                i += 1
            frame = self.frame()
            latencies.append(time.perf_counter() - pending.popleft())
            frames.append(frame)
        return frames, latencies, time.perf_counter() - start

    def close_now(self):
        """Ends a session that served nothing; returns its spawn-to-ready."""
        self.p.stdin.close()
        reap(self.p)
        return self.setup

    def close(self):
        self.send(b'{"id":"stats","workload":"stats"}')
        _, _, stats = self.frame()
        self.send(b'{"id":"bye","workload":"shutdown"}')
        self.frame()
        self.p.stdin.close()
        rss = reap(self.p)
        return stats_counts(stats), rss


def serve_reference(ctx, sequence, lines):
    """The `--concurrency 1` session (recorded once per seed) plus one
    one-shot CLI spot check per text payload kind."""
    session = Session(ctx, 1)
    frames, _, _ = session.loop(lines, 1)
    session.close()
    with open(ctx.path("serve-reference.frames"), "wb") as f:
        for (rid, ok, payload), (workload, _) in zip(frames, sequence):
            ctx.check(ok, f"reference frame {rid} ({workload}) is an error")
            head = {"id": rid, "status": "ok" if ok else "error", "bytes": len(payload)}
            f.write(json.dumps(head).encode() + b"\n" + payload)
    checked = set()
    for (workload, args), (_, _, payload) in zip(sequence, frames):
        if workload in checked or workload == "mc_shards":
            continue
        checked.add(workload)
        if workload == "profile":
            argv = ["profile", *args, "--jobs", NPROC]
        elif workload == "bound":
            argv = ["bounds", *args, "--jobs", NPROC]
        elif workload == "lint":
            argv = ["lint", *args]
        else:
            argv = ["figures", "--only", args[0], "--stdout", "--jobs", NPROC]
        r = run(ctx.cmd(*argv), ctx.work)
        ctx.check(r.out == payload, f"serve {workload} payload differs from one-shot CLI")
    return frames


def check_frames(ctx, frames, reference):
    ok = []
    for got, want in zip(frames, reference):
        ok.append(ctx.check(got == want, f"serve frame {want[0]} differs from the serial session"))
    ctx.check(len(frames) == len(reference), "serve session lost frames")
    return ok


def workload_serve(ctx, untraced_once=False):
    sequence, lines = write_family(ctx)
    reference = serve_reference(ctx, sequence, lines)
    setup = Setup(ctx, lambda: Session(ctx, NPROC).close_now())
    latencies, rates, rsses = [], [], []
    per_request = [[] for _ in lines]  # every session's latency of request i
    info = {"kinds": {}}
    counts = {}
    errors = sent = 0
    start = time.perf_counter()
    for sessions in count():
        # Sessions run until time is up and p99 has enough samples above it.
        enough = len(latencies) >= SERVE_MIN_SAMPLES
        if sessions and (untraced_once or (enough and time.perf_counter() - start >= ctx.seconds)):
            break
        session = Session(ctx, NPROC)
        setup.samples.append(session.setup)
        frames, lat, wall = session.loop(lines, NPROC)
        info["wall"] = wall
        info["counts"], rss = session.close()
        for k, v in info["counts"].items():
            counts.setdefault(k, []).append(v)
        rsses.append(rss)
        sent += len(lines)
        good = check_frames(ctx, frames, reference)
        served = []
        for i, ((workload, _), frame, ok, t) in enumerate(zip(sequence, frames, good, lat)):
            if ok and frame[1]:
                served.append(t)
                per_request[i].append(t)
                info["kinds"].setdefault(workload, []).append(t)
            else:
                errors += 1
        latencies += served
        rates.append(sum(good) / wall)
        setup.keep_pace()
    r = ctx.report
    ms = [1000 * t for t in latencies]
    tails = {p: percentile(ms, p) for p in (95, 99)} if ms else {}
    beyond = {p: sum(1 for t in ms if t > v) for p, v in tails.items()}
    if not untraced_once:
        ctx.check(beyond.get(99, 0) >= 10,
                  f"only {beyond.get(99, 0)} samples beyond p99 (need at least 10)")
    ctx.metrics["setup_s"] = r.add("setup_s", "s", setup.finish(), "serve spawn to ready line")
    r.add("serve_p50_ms", "ms", ms, "pooled")
    for p, v in tails.items():
        r.fixed(f"serve_p{p}_ms", "ms", v, len(ms), f"pooled; {beyond[p]} samples beyond")
    # The gated latencies: each request's fastest latency over the run's
    # sessions (see `LOW`), averaged over all requests and over the 5%
    # slowest of them.
    best = sorted(1000 * min(v) for v in per_request if v)
    tail = best[-max(1, len(best) // 20):]
    ctx.metrics["latency_ms"] = r.fixed("serve_best_mean_ms", "ms", statistics.fmean(best),
                                        len(best), "= latency_ms") if best else None
    ctx.metrics["alt_latency_ms"] = r.fixed("serve_best_tail5_ms", "ms", statistics.fmean(tail),
                                            len(tail), "= alt_latency_ms") if best else None
    r.add("serve_rps", "req/s", rates, "per session")
    r.fixed("serve_error_frac", "ratio", errors / max(1, sent), sent, "errors / requests sent")
    ctx.metrics["peak_rss_mb"] = r.add("serve_peak_rss_mb", "MB", rsses, "median = peak_rss_mb")
    for workload, values in sorted(info["kinds"].items()):
        r.add(f"serve_{workload}_ms", "ms", [1000 * t for t in values], "per request kind")
    for k in ("compiled", "shared", "sliced", "reused", "measured", "hits", "misses"):
        r.add(f"serve_stats.{k}", "count", counts.get(k, []), "per session, from `stats`")
    return info


# --- cluster_mc -------------------------------------------------------


def write_cluster(ctx):
    text, gates = gen.design(ctx.seed, 2, gen.CLUSTER_N)
    path = ctx.path("cluster.bench")
    with open(path, "w") as f:
        f.write(text)
    return path, gates


def spawn_workers(ctx):
    """nproc TCP workers; returns (processes, addresses, spawn-to-ready)."""
    start = time.perf_counter()
    workers = [
        spawn(ctx.cmd("serve", "--listen", "127.0.0.1:0", "--jobs", 1),
              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for _ in range(NPROC)
    ]
    addrs = [wait_ready(w, "listening on").rsplit(" ", 1)[1] for w in workers]
    return workers, addrs, time.perf_counter() - start


def stop_workers(workers):
    rss = 0.0
    for w in workers:
        w.kill()
        rss = max(rss, reap(w))
    return rss


def cluster_args(path):
    return ["cluster", path, "--eps", "0.01", "--patterns", CLUSTER_PATTERNS,
            "--batch", CLUSTER_BATCH, "--jobs", 1]


def workload_cluster(ctx, untraced_once=False):
    path, gates = write_cluster(ctx)
    local = run(ctx.cmd(*cluster_args(path)), ctx.work)
    if not ctx.check(local.rc == 0, f"zero-worker reference exit {local.rc}"):
        raise Failure(local.err.decode()[-400:])
    reference = local.out
    with open(ctx.path("cluster-ref.out"), "wb") as f:
        f.write(reference)
    def spawn_ready():
        workers, _, took = spawn_workers(ctx)
        stop_workers(workers)
        return took

    setup = Setup(ctx, spawn_ready)
    workers, addrs, took = spawn_workers(ctx)
    setup.samples.append(took)
    dist, zero, rates, retry = [], [], [], []
    stats = None
    coordinator_rss = 0.0
    start = time.perf_counter()
    for cycle in count():
        if cycle and (untraced_once or time.perf_counter() - start >= ctx.seconds):
            break
        argv = cluster_args(path)
        for a in addrs:
            argv += ["--worker", a]
        r = run(ctx.cmd(*argv), ctx.work)
        stats = cluster_stats(r.err)
        if ctx.check(r.rc == 0 and r.out == reference and stats is not None,
                     "distributed cluster output differs from the zero-worker run"):
            dist.append(r.wall)
            rates.append(CLUSTER_PATTERNS / r.wall)
            batches = -(-stats["shards"] // CLUSTER_BATCH)
            retry.append(stats["retries"] / (stats["retries"] + batches))
            coordinator_rss = max(coordinator_rss, r.rss)
        for _ in range(4):
            z = run(ctx.cmd(*cluster_args(path)), ctx.work)
            if ctx.check(z.rc == 0 and z.out == reference, "zero-worker run is not deterministic"):
                zero.append(z.wall)
        setup.keep_pace()
    worker_rss = stop_workers(workers)
    r = ctx.report
    ctx.notes.append(f"cluster design: {gates} gates, {NPROC} workers, batch {CLUSTER_BATCH}")
    ctx.metrics["setup_s"] = r.add("setup_s", "s", setup.finish(),
                                   "workers spawn to listening lines")
    ctx.metrics["latency_ms"] = thousand(r.add("cluster_run_s", "s", dist,
                                               "q1 = latency_ms / 1000", LOW))
    r.add("cluster_local_run_s", "s", zero, "zero workers")
    ctx.metrics["alt_latency_ms"] = thousand(
        r.fixed("cluster_local_fastest_s", "s", min(zero), len(zero), "= alt_latency_ms / 1000")
        if zero else None)
    r.add("cluster_pps", "patterns/s", rates, "the distributed runs")
    r.add("cluster_retry_frac", "ratio", retry, "retries / (retries + batches)")
    ctx.metrics["peak_rss_mb"] = r.add("cluster_peak_rss_mb", "MB",
                                       [max(worker_rss, coordinator_rss)],
                                       "= peak_rss_mb; max over workers and coordinator")
    return {"counts": stats, "pps": statistics.median(rates) if rates else None,
            "wall": dist[-1] if dist else None}


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------

def build_probe(root, target):
    manifest = os.path.join(HERE, "probe", "Cargo.toml")
    cargo(["build", "--release", "--manifest-path", manifest], root, target)
    return os.path.join(target, "release", "perfbench-probe")


def traced(ctx, root, target, first, layer_units):
    """One untraced pass of every workload for the binary's counters and
    wall times, then the in-process replay of every workload."""
    probe = build_probe(root, target)
    order = [first] + [w for w in WORKLOADS if w != first]
    info = {}
    for w in order:
        if w == "paper":
            info[w] = workload_paper(ctx, root, untraced_once=True)
        elif w == "large_design":
            info[w] = workload_large(ctx, untraced_once=True)
        elif w == "serve_mix":
            info[w] = workload_serve(ctx, untraced_once=True)
        else:
            info[w] = workload_cluster(ctx, untraced_once=True)
    # The untraced passes above reported end-to-end metrics; the traced
    # run reports the per-layer ledger instead.
    untraced_report, ctx.report, ctx.metrics = ctx.report, Report(), {}
    trace_dir = os.path.join(WORK_ROOT, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{first}-seed{ctx.seed}.json")
    r = run([probe, "--work", ctx.work, "--jobs", str(NPROC), "--trace-out", trace_file,
             "--large-patterns", str(LARGE_MC_PATTERNS),
             "--cluster-patterns", str(CLUSTER_PATTERNS),
             "--cluster-batch", str(CLUSTER_BATCH), "--workers", str(NPROC)],
            ctx.work)
    sys.stderr.write(r.err.decode())
    if not ctx.check(r.rc == 0, f"probe exit {r.rc}"):
        raise Failure(r.err.decode()[-800:])
    result = json.loads(r.out.decode().strip().splitlines()[-1])
    ctx.attempted += result["attempted"]
    ctx.failed += result["failed"]
    for note in result.get("unmeasured", []):
        ctx.notes.append(f"unmeasured: {note}")
    layers = dict(result["metrics"])

    paper_cold, paper_warm = info["paper"]["paper_cold"], info["paper"]["paper_warm"]
    s = dict.fromkeys(("hits", "misses", "writes", "write_errors", "compiled", "shared",
                       "sliced", "reused", "measured"), 0) | info["serve_mix"]["counts"]
    for k in ("hits", "misses", "writes"):
        layers[f"cache.{k}.paper_cold"] = paper_cold[k]
        layers[f"cache.{k}.serve"] = s[k]
    layers["cache.hits.paper_warm"] = paper_warm["hits"]
    layers["cache.misses.paper_warm"] = paper_warm["misses"]
    layers["cache.write_errors"] = (paper_cold["write_errors"] + paper_warm["write_errors"]
                                    + s["write_errors"])
    reused = s["shared"] + s["sliced"]
    layers["service.program_hit_frac"] = reused / max(1, s["compiled"] + reused)
    layers["service.profile_reuse_frac"] = s["reused"] / max(1, s["reused"] + s["measured"])
    bound = info["serve_mix"]["kinds"].get("bound")
    if bound and "service.engine_bound_us" in layers:
        layers["service.serve_overhead_us"] = (1e6 * statistics.median(bound)
                                               - layers["service.engine_bound_us"])
    c = info["cluster_mc"]["counts"] or {}
    layers["cluster.retries"] = c.get("retries", 0)
    layers["cluster.ejections"] = c.get("ejections", 0)
    layers["cluster.local_shards"] = c.get("local", 0)
    pps = info["cluster_mc"]["pps"]
    if pps and "cluster.local_pps" in layers:
        layers["cluster.overhead_frac"] = 1.0 - pps / layers["cluster.local_pps"]
    layers["host.calib_ns"] = calib_ns()

    print("untraced passes (one iteration each):")
    untraced_report.print()
    print("replay wall vs untraced wall of one iteration (the cluster replay runs its "
          "workers one after the other):")
    for w in order:
        print(f"  {w:14s} replay {result['replay_s'].get(w, float('nan')):.4f} s   "
              f"untraced {info[w]['wall']:.4f} s")
    for name, unit in layer_units.items():
        if name in layers:
            ctx.metrics[name] = layers[name]
            ctx.report.add(name, unit, [layers[name]])
        else:
            ctx.check(False, f"per-layer metric {name} missing")
            ctx.report.add(name, unit, [], "missing")
    for name in sorted(set(layers) - set(layer_units)):
        ctx.notes.append(f"probe reported an unlisted metric {name}")
    print(f"trace file: {trace_file}")


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------


def cargo(args, root, target):
    """Builds with cargo, then restarts the run's wall-clock budget."""
    signal.alarm(0)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(["cargo", *args], cwd=root, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise Failure("cargo " + " ".join(args) + " failed:\n" + r.stdout.decode()[-2000:])
    signal.alarm(RUN_BUDGET)


def out_of_time(signum, frame):
    raise Failure(f"run exceeded its {RUN_BUDGET} s budget")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, out_of_time)

    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isdir(os.path.join("tests", "golden"))
            and os.path.isfile("BENCHMARK.json")):
        raise Failure("run from the root of a nanobound checkout "
                      "(Cargo.toml, crates/, tests/golden/, BENCHMARK.json)")
    # BENCHMARK.json names every metric a run must report, with its unit.
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cargo(["build", "--release", "-p", "nanobound"], root, target)
    binary = os.path.join(target, "release", "nanobound")

    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    ctx = Ctx(binary, args.seed, args.seconds, work)
    try:
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace}, nproc {NPROC}")
        if args.trace:
            traced(ctx, root, target, args.workload, units)
        elif args.workload == "paper":
            workload_paper(ctx, root)
        elif args.workload == "large_design":
            workload_large(ctx)
        elif args.workload == "serve_mix":
            workload_serve(ctx)
        else:
            workload_cluster(ctx)
        if not args.trace:
            ctx.report.fixed("host.calib_ns", "ns", calib_ns(), 5,
                             "integer kernel; host drift only")
    finally:
        signal.alarm(0)
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name in units:
        value = ctx.metrics.get(name)
        if value is None:
            ctx.check(False, f"metric {name} not measured")
            continue
        metrics[name] = {"value": value, "unit": units[name]}
    ctx.report.print()
    for note in ctx.notes:
        print(f"  note: {note}")
    correct = ctx.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, ctx.attempted),
                      "failed": ctx.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        stop_all()
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

#!/usr/bin/env python3
"""The repository benchmark for the aggregate risk engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload portfolio_report --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The first call builds the program from source (perfbench/CMakeLists.txt:
libare, are_cli and the perfbench tool, into .bench_build/perfbench). A run
makes its inputs from --seed with `are_cli gen-elt` / `gen-yet`, so the
program only ever receives files, then drives the production binaries from
outside:

  portfolio_report    one-shot `are_cli report` on the paper's book shape
  out_of_core_report  one-shot `are_cli report --output sharded`, spilling
  pricing_desk        a resident `are_cli serve` over its AF_UNIX socket,
                      driven by a one-connection session and by open-loop
                      capacity probes (--mix changes the request mix)

With --trace 0 it prints every end-to-end metric of BENCHMARK.json, measured
untraced; with --trace 1 every per-layer metric, from a separate traced run
(spans recorded by the benchmark's own code around calls into each layer's
public functions, plus host ceilings). Every run checks the program's output
against a sequential reference. The last stdout line is the JSON result;
the exit code is nonzero when a correctness check fails.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
CLI = os.path.join(BUILD, "are", "are_cli")
TOOL = os.path.join(BUILD, "perfbench")
NPROC = os.cpu_count() or 1


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Build and process plumbing
# ---------------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "are_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a source checkout: {need} is missing")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target", "are_cli", "perfbench"])
    with open(log_path, "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                with open(log_path) as tail:
                    log("".join(tail.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(step))


def run_timed(args, out_path, err_path):
    """Runs a program to completion; returns (wall s, peak RSS MB, exit code)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, process.returncode


def tool(*args):
    """Runs a perfbench tool subcommand and returns its JSON object."""
    done = subprocess.run([TOOL, *map(str, args)], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def warm_host(config):
    """Spins every core first: after an idle spell this VM runs the first
    ~1 s of compute several times slower."""
    tool("spin", "--seconds", config["warmup_spin_s"])


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples). Fewer than twenty samples leave no such
    percentile at or above the median; the median stands in and says so
    with percentile 50."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def pool_balance(task_count, task_sum_ns, task_max_ns, idle_ns):
    """(task skew, idle share) of one run from the pool counters: the
    longest task over the mean task, and idle time over idle plus task
    time. The task maximum is the registry's lifetime figure, so the run
    must be the first pool work of its process."""
    skew = task_max_ns / (task_sum_ns / task_count) if task_count else 0.0
    idle_share = idle_ns / (idle_ns + task_sum_ns) if idle_ns + task_sum_ns else 0.0
    return skew, idle_share


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[int(span["parent"])] += span["end_s"] - span["start_s"]
    totals = {}
    for i, span in enumerate(spans):
        own = span["end_s"] - span["start_s"] - child[i]
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return totals


class Outcome:
    """Attempted and failed operations plus the facts a run records. Every
    correctness gate is an operation: `record` counts it in `attempted`,
    and a failed one in `failed`. `check` is only for the validity of the
    run itself (a generator that fell behind, no capacity found): it marks
    the run incorrect without counting an operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.facts = {}
        self.notes = []
        self.counts = {}   # samples behind each reported metric

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            if what and len(self.notes) < 10:
                self.notes.append(what)

    def check(self, ok, what):
        if not ok:
            self.correct = False
            self.notes.append(what)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def generate_inputs(cfg, seed, directory):
    """`are_cli gen-elt` per ELT plus `gen-yet`, all seeded from the
    workload seed. Returns (wall seconds, yet path, elt paths)."""
    os.makedirs(directory, exist_ok=True)
    catalog = str(cfg["catalog_size"])
    commands = []
    elts = []
    for i in range(1, cfg["elts"] + 1):
        path = os.path.join(directory, f"book{i:02d}.elt")
        elts.append(path)
        commands.append([CLI, "gen-elt", "--out", path, "--catalog-size", catalog,
                         "--entries", str(cfg["elt_entries"]), "--seed", str(seed * 1000 + i),
                         "--elt-id", str(i)])
    yet = os.path.join(directory, "years.yet")
    commands.append([CLI, "gen-yet", "--out", yet, "--trials", str(cfg["trials"]),
                     "--events", str(cfg["events_per_trial"]), "--model", cfg["count_model"],
                     "--catalog-size", catalog, "--seed", str(seed)])
    start = time.perf_counter()
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(f"{command[1]} failed: {done.stderr.decode().strip()}")
    wall = time.perf_counter() - start
    # Write the inputs back now, so the kernel's writeback of them does not
    # land in the timed phase.
    for path in (yet, *elts):
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
    return wall, yet, elts


def oneshot_setup(cfg, seed, work, config, outcome):
    """Generates the inputs `setup_repeats` times; the copies must be
    byte-identical (same seed, same files). Returns (setup seconds list,
    yet path, elt paths) of the first copy."""
    times = []
    first = None
    for copy in range(config["setup_repeats"]):
        directory = os.path.join(work, f"inputs{copy}")
        wall, yet, elts = generate_inputs(cfg, seed, directory)
        times.append(wall)
        if first is None:
            first = (yet, elts)
            continue
        same = all(filecmp.cmp(a, b, shallow=False)
                   for a, b in zip([first[0], *first[1]], [yet, *elts]))
        outcome.record(same, "input generation is not deterministic for one seed")
        shutil.rmtree(directory)
    return times, first[0], first[1]


# ---------------------------------------------------------------------------
# One-shot workloads: portfolio_report, out_of_core_report
# ---------------------------------------------------------------------------

def oneshot(cfg, seed, seconds, trace, work, config):
    outcome = Outcome()
    setup, yet, elts = oneshot_setup(cfg, seed, work, config, outcome)
    catalog = str(cfg["catalog_size"])
    spill = os.path.join(work, "spill")
    os.makedirs(spill, exist_ok=True)
    sharded = cfg.get("sharded", False)
    shard_args = ["--memory-budget-mb", str(cfg.get("memory_budget_mb", 0)), "--spill-dir", spill]
    # ELTs positional: the CLI keeps only the last of repeated --elt flags.
    report = [CLI, "report", *elts, "--yet", yet, "--catalog-size", catalog]
    if sharded:
        report += ["--output", "sharded", *shard_args]
    reference_args = ["oneshot", *elts, "--yet", yet, "--catalog-size", catalog]
    if sharded:
        reference_args += ["--sharded", *shard_args]

    host = None
    if trace:
        warm_host(config)
        table_mb = cfg["elts"] * cfg["catalog_size"] * 8 / 1e6
        host = tool("host", "--gather-mb", table_mb, "--seconds", 1.5)
        reference_args += ["--trace", "--gather-per-s", host["gather_per_s"],
                           "--read-gbps", host["read_gbps"]]
    reference = tool(*reference_args)
    outcome.record(reference["elts_loaded"] == cfg["elts"],
                   f"reference loaded {reference['elts_loaded']} of {cfg['elts']} ELTs")
    expected = reference["reference_report"]

    warm_host(config)
    walls, rss = [], []
    deadline = time.perf_counter() + (seconds if not trace else 0)
    repeats = config["min_repeats"] if not trace else 3
    out_path, err_path = os.path.join(work, "report.out"), os.path.join(work, "report.err")
    while len(walls) < repeats or time.perf_counter() < deadline:
        wall, peak, code = run_timed(report, out_path, err_path)
        with open(out_path) as handle:
            printed = handle.read()
        outcome.record(code == 0 and printed == expected,
                       f"report exit {code}, stdout {'matches' if printed == expected else 'differs from'} the sequential reference")
        walls.append(wall)
        rss.append(peak)
    with open(err_path) as handle:
        stderr_note = handle.read().strip()

    lookups = reference["occurrences"] * cfg["elts"]
    wall = median(walls)
    outcome.facts.update({
        "engine": reference["engine"] + (" (sharded output)" if sharded else ""),
        "threads": reference["threads"],
        "kauto_extension": reference["kauto_extension"],
        "kauto_note": reference["kauto_note"],
        "cli_note": stderr_note or "(none printed: the parallel engine runs the scalar kernel and does not resolve kAuto)",
        "trials": reference["trials"],
        "occurrences": reference["occurrences"],
        "elts": reference["elts_loaded"],
        "yet_mb": round(reference["yet_mb"], 3),
        "yet_file_mb": round(os.path.getsize(yet) / 1e6, 3),
        "table_mb": round(reference["table_mb"], 3),
        "inputs_page_cache": "warm: written by gen-yet/gen-elt and read by the reference pass just before timing",
        "host_warmup": f"{config['warmup_spin_s']} s spin on all {NPROC} threads before the timed reports",
        "report_samples": len(walls),
    })
    if not trace:
        tail_value, tail_pct, tail_n = tail(walls)
        outcome.facts["delta_tail_rule"] = f"p{tail_pct:.1f} of {tail_n} report runs"
        n = len(walls)
        outcome.counts = {"setup_s": len(setup), "ok_share": outcome.attempted}
        outcome.counts.update({name: n for name in ("lookups_per_s", "peak_rss_mb", "cold_p50_ms",
                                                    "delta_p50_ms", "delta_tail_ms", "capacity_qps")})
        return outcome, {
            "lookups_per_s": lookups / wall,
            "peak_rss_mb": median(rss),
            "ok_share": 1.0 - outcome.failed / max(outcome.attempted, 1),
            "setup_s": median(setup),
            # One-shot has no server and no delta path: a quote and a
            # re-quote are both a full report, so the latency metrics are
            # the report's wall time, and capacity is reports per second.
            "cold_p50_ms": wall * 1e3,
            "delta_p50_ms": wall * 1e3,
            "delta_tail_ms": tail_value * 1e3,
            "capacity_qps": 1.0 / wall,
        }

    outcome.record(reference.get("traced_report_matches") == 1,
                   "traced pass report differs from the sequential reference")
    outcome.record(reference.get("traced_ylt_bit_identical") == 1,
                   "traced pass YLT is not bit-identical to the sequential engine")
    outcome.facts["executed_extension"] = reference["executed_extension"]
    spans = reference["spans"]
    counters = reference["counters"]

    def span_sum(name):
        return sum(s["end_s"] - s["start_s"] for s in spans if s["name"] == name)

    kernel_call = "shard.run_sharded" if sharded else "core.run"
    run_s = span_sum(kernel_call)
    read_yet_s = span_sum("io.read_yet_binary")
    traced_wall = span_sum("report")
    skew, idle_share = pool_balance(counters.get("pool.task_ns.count", 0),
                                    counters.get("pool.task_ns.sum_ns", 0),
                                    counters.get("pool.task_ns.max_ns", 0),
                                    counters.get("pool.idle_ns", 0))
    selfs = self_times(spans)
    metrics = layer_defaults()
    metrics.update({
        "core.run_s": run_s,
        "core.lookups": lookups,
        "core.ns_per_lookup": run_s * 1e9 / lookups,
        "core.gather_ceiling_share": lookups / run_s / host["gather_per_s"],
        "perfmodel.predicted_s": reference["predicted_s"],
        "io.read_yet_s": read_yet_s,
        "io.read_yet_mb_per_s": os.path.getsize(yet) / 1e6 / read_yet_s,
        "io.read_elt_s": span_sum("io.read_elt_binary"),
        "elt.build_s": span_sum("elt.make_lookup"),
        "elt.table_mb": reference["table_mb"],
        "parallel.task_skew": skew,
        "parallel.idle_share": idle_share,
        "metrics.ep_s": span_sum("metrics.ep_curve"),
        "host.gather_per_s": host["gather_per_s"],
        "host.gather_array_mb": host["gather_array_mb"],
        "host.read_gbps": host["read_gbps"],
        "host.read_array_mb": host["read_array_mb"],
        "trace.overhead_s": traced_wall - wall,
        "trace.overhead_share": (traced_wall - wall) / wall,
        "self.bench_s": selfs.get("bench", 0.0),
        "self.io_s": selfs.get("io", 0.0),
        "self.elt_s": selfs.get("elt", 0.0),
        "self.core_s": selfs.get("core", 0.0),
        "self.shard_s": selfs.get("shard", 0.0),
        "self.metrics_s": selfs.get("metrics", 0.0),
    })
    if sharded:
        metrics.update({
            "shard.run_s": run_s,
            "shard.spills": counters.get("shard.spills", 0),
            "shard.faults": counters.get("shard.faults", 0),
            "shard.spill_mb": counters.get("shard.bytes_spilled", 0) / 1e6,
            "shard.fault_mb": counters.get("shard.bytes_faulted", 0) / 1e6,
            "shard.peak_resident_mb": counters.get("shard.peak_resident_bytes", 0) / 1e6,
            "metrics.ep_sharded_s": span_sum("metrics.ep_curve_sharded"),
            "metrics.stats_sharded_s": span_sum("metrics.stats_sharded"),
        })
    outcome.facts["trace"] = (f"traced pass {traced_wall:.3f} s in-process vs untraced `are_cli report` "
                              f"median {wall:.3f} s over {len(walls)} runs")
    return outcome, metrics


# ---------------------------------------------------------------------------
# pricing_desk: a resident `are_cli serve` over its socket
# ---------------------------------------------------------------------------

def round_trip(path, line):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(path)
        conn.sendall((line + "\n").encode())
        data = b""
        while b"\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    return data.split(b"\n", 1)[0].decode()


class Server:
    """One `are_cli serve` process; `start()` returns seconds from spawn to
    the first quote's answer (cold run plus ground-up capture)."""

    def __init__(self, args, sock, work, tag):
        self.args = args
        self.sock = sock
        self.out = open(os.path.join(work, f"serve-{tag}.out"), "wb")
        self.err = open(os.path.join(work, f"serve-{tag}.err"), "wb")
        self.process = None

    def start(self, first_line):
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        start = time.perf_counter()
        self.process = subprocess.Popen(self.args, stdout=self.out, stderr=self.err, cwd=ROOT)
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("serve exited during startup")
            if time.perf_counter() - start > 60:
                raise RuntimeError("serve did not answer within 60 s")
            try:
                response = round_trip(self.sock, first_line)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0005)
        return time.perf_counter() - start, response

    def stop(self):
        """SHUTDOWN, then wait; returns (exit code, peak RSS MB)."""
        if self.process is None:
            return 0, 0.0
        try:
            round_trip(self.sock, "SHUTDOWN")
        except OSError:
            self.process.kill()
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.process.kill()
            time.sleep(0.01)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.out.close()
        self.err.close()
        code, self.process = self.process.returncode, None
        return code, usage.ru_maxrss * 1024 / 1e6

    def kill(self):
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def fmt_terms(terms):
    return " ".join(str(v) for v in terms)


def terms_fields(terms):
    keys = ("occ-retention", "occ-limit", "agg-retention", "agg-limit")
    return " ".join(f"{k}={v}" for k, v in zip(keys, terms))


def quote_line(terms, cold=False):
    suffix = " delta=0 cache=0" if cold else ""
    return f"QUOTE portfolio=book layer=1 {terms_fields(terms)}{suffix}"


def update_line(terms):
    return f"UPDATE portfolio=book layer=1 {terms_fields(terms)}"


class Traffic:
    """The seeded request mix, drawn from shuffled decks that hold its exact
    proportions: delta re-quotes with fresh terms, repeats of earlier terms,
    forced colds and durable UPDATEs.

    A repeat re-quotes terms quoted since the last boundary (an UPDATE or a
    server start), which the cache still holds. The first repeat after a
    boundary re-quotes terms from before it instead, which runs as a delta
    again. A forced cold re-quotes recent terms, from either side of a
    boundary. So the same terms come back as cold, delta and cached, before
    and after UPDATEs, and the agreement check compares them."""

    def __init__(self, seed, mix, min_age):
        self.rng = random.Random(seed)
        self.mix = mix
        self.min_age = min_age
        self.used = set()
        self.quoted = []      # (request index, terms) of quotes the cache may hold
        self.count = 0
        self.boundary = 0     # first request index after the last boundary
        self.crossed = False  # a boundary passed since the last cross-boundary repeat
        self.deck = []

    def fresh(self):
        while True:
            terms = (self.rng.randrange(0, 41) * 25_000, self.rng.randrange(10, 201) * 100_000,
                     self.rng.randrange(0, 51) * 100_000, self.rng.randrange(5, 101) * 1_000_000)
            if terms not in self.used:
                self.used.add(terms)
                return terms

    def new_server(self):
        """A server start is a boundary; returns the terms of its first
        quote, which that quote caches."""
        self.boundary, self.crossed = self.count, True
        terms = self.fresh()
        self.quoted.append((self.count, terms))
        return terms

    def next(self, kind=None):
        if kind is None:
            if not self.deck:
                self.deck = [k for k, count in self.mix.items() for _ in range(count)]
                self.rng.shuffle(self.deck)
            kind = self.deck.pop()
        index = self.count
        self.count += 1
        if kind == "update":
            self.boundary, self.crossed = index + 1, True
            return kind, self.fresh()
        if kind == "cold":
            recent = self.quoted[-20:]
            return kind, (self.rng.choice(recent)[1] if recent else self.fresh())
        if kind == "repeat":
            if self.crossed:
                before = [t for i, t in self.quoted if i < self.boundary]
                if before:
                    self.crossed = False
                    terms = self.rng.choice(before[-20:])
                    self.quoted.append((index, terms))
                    return kind, terms
            else:
                cached = [t for i, t in self.quoted
                          if i >= self.boundary and index - i >= self.min_age]
                if cached:
                    return kind, self.rng.choice(cached[-20:])
            kind = "delta"  # nothing eligible yet
        terms = self.fresh()
        self.quoted.append((index, terms))
        return kind, terms

    def request(self, due_us, kind=None):
        kind, terms = self.next(kind)
        line = update_line(terms) if kind == "update" else quote_line(terms, kind == "cold")
        return {"due_us": due_us, "kind": kind, "terms": terms, "line": line}

    def plan(self, rate, duration):
        """Poisson arrivals at `rate` per second for `duration` seconds."""
        plan, t = [], 0.0
        while True:
            t += self.rng.expovariate(rate)
            if t >= duration:
                return plan
            plan.append(self.request(int(t * 1e6)))


LABELS = [f"{source}{phase}" for phase in ("", " after UPDATE") for source in ("cold", "delta", "cached")]


class Desk:
    def __init__(self, cfg, seed, work, config, outcome):
        self.cfg = cfg
        self.work = work
        self.config = config
        self.outcome = outcome
        self.sock = os.path.relpath(os.path.join(work, "desk.sock"), ROOT)
        self.quotes_by_terms = {}   # terms -> [(label, quotes)] in answer order
        self.traffic = Traffic(seed, cfg["mix_per_deck"], cfg["repeat_min_age"])
        self.servers = 0
        self.updated = False        # the current server has been sent an UPDATE
        self.verified = []          # terms of the verification sequences

    def serve_args(self, yet, elts):
        return [CLI, "serve", *elts, "--yet", yet, "--catalog-size", str(self.cfg["catalog_size"]),
                "--socket", self.sock]

    def record_quote(self, terms, response, kind, expect=None):
        """Counts the request as an operation, failed unless its status is ok
        and, when `expect` is given, its source is that one. Files an ok
        quote under its terms and label for the agreement check. Returns
        (parsed response or None, label)."""
        try:
            parsed = json.loads(response)
        except ValueError:
            parsed = {}
        ok = parsed.get("status") == "ok"
        source = parsed.get("source", "update" if "updated" in parsed else "none")
        label = source + (" after UPDATE" if self.updated else "")
        if ok and expect is not None and source != expect:
            self.outcome.record(False, f"{kind} {fmt_terms(terms)}: source {source}, expected {expect}")
        else:
            self.outcome.record(ok, f"{kind}: {response[:200]}")
        if ok and "quotes" in parsed:
            self.quotes_by_terms.setdefault(fmt_terms(terms), []).append(
                (label, json.dumps(parsed["quotes"], sort_keys=True)))
        if kind == "update":
            self.updated = True
        return (parsed if ok else None), label

    def start(self, args):
        """Spawns a server and times it to its first quote's answer, which
        must be a cold run. Returns (server, seconds, first quote's terms)."""
        server = Server(args, self.sock, self.work, self.servers)
        self.servers += 1
        self.updated = False
        terms = self.traffic.new_server()
        try:
            seconds, response = server.start(quote_line(terms))
        except Exception:
            server.kill()
            raise
        self.record_quote(terms, response, "first quote", expect="cold")
        return server, seconds, terms

    def verify(self, first_terms):
        """Untimed, on a fresh server: one set of fresh terms quoted as
        delta, cached and cold; an UPDATE; the same terms again as delta,
        cached and cold; then the server's first-quote terms (cold before
        the UPDATE) as a delta. Each answer must come from the expected
        source, so the agreement and reference checks always see every
        source on both sides of an UPDATE."""
        terms, update = self.traffic.fresh(), self.traffic.fresh()
        sources = [(quote_line(terms), terms, "delta"), (quote_line(terms), terms, "cached"),
                   (quote_line(terms, cold=True), terms, "cold")]
        steps = [*sources, (update_line(update), update, "update"), *sources,
                 (quote_line(first_terms), first_terms, "delta")]
        self.drive([{"due_us": 0, "kind": "update" if expect == "update" else "verify",
                     "terms": step_terms, "line": line, "expect": expect}
                    for line, step_terms, expect in steps], conns=1)
        self.verified.append(terms)

    def stop(self, server):
        code, peak = server.stop()
        self.outcome.record(code == 0, f"serve exited with {code}")
        return peak

    def drive(self, plan, conns=NPROC):
        """Runs a plan through the client; returns parsed rows. A request's
        latency runs from its due time, or from its send when every request
        is due at once (a closed loop)."""
        plan_path = os.path.join(self.work, "plan.tsv")
        out_path = os.path.join(self.work, "results.tsv")
        with open(plan_path, "w") as handle:
            for request in plan:
                handle.write(f"{request['due_us']}\t{request['line']}\n")
        tool("loadgen", "--socket", self.sock, "--plan", plan_path, "--out", out_path,
             "--conns", conns)
        closed = all(request["due_us"] == 0 for request in plan)
        rows = []
        with open(out_path) as handle:
            for request, line in zip(plan, handle):
                index, due, start, end, late, response = line.rstrip("\n").split("\t", 5)
                parsed, label = self.record_quote(request["terms"], response, request["kind"],
                                                  request.get("expect"))
                rows.append({
                    "kind": request["kind"],
                    "terms": request["terms"],
                    "line": request["line"],
                    "label": label,
                    "latency_ms": (float(end) - float(start if closed else due)) / 1e3,
                    "end_ms": float(end) / 1e3,
                    "rtt_ms": (float(end) - float(start)) / 1e3,
                    "late_ms": float(late) / 1e3,
                    "response": parsed,
                    "bytes": len(response),
                })
        return rows


def by_source(rows, source):
    return [r for r in rows if r["response"] is not None and r["response"].get("source") == source]


def delta_latencies(rows):
    """Delta quotes' latencies; a failed or refused re-quote counts as
    over any limit."""
    values = [r["latency_ms"] for r in by_source(rows, "delta")]
    values += [float("inf") for r in rows
               if r["response"] is None and r["kind"] in ("delta", "repeat")]
    return values


def probe_passes(rows, limit_ms):
    """Within the latency limit, and no growing backlog: the last quarter of
    the requests still waited less than half the limit."""
    tail_value, _, _ = tail(delta_latencies(rows))
    quarter = max(len(rows) // 4, 1)
    last = median([r["latency_ms"] for r in rows[-quarter:]])
    return tail_value <= limit_ms and last <= 0.5 * limit_ms


def measure_capacity(desk, cfg, limit, budget_s):
    """The highest offered rate of the same mix that keeps the delta tail
    within the limit without a growing backlog. The desk's service rate is
    measured first: bursts with every request due at once, which the
    client's connections then work off back to back. Offered rates just
    below it are tried, highest first; the first that passes is capacity.
    Returns (capacity, probes run, forced colds answered per second)."""
    rates, spent = [], 0.0
    for _ in range(cfg["bursts"]):
        burst = [desk.traffic.request(0) for _ in range(cfg["burst_requests"])]
        makespan_s = max(r["end_ms"] for r in desk.drive(burst)) / 1e3
        rates.append(len(burst) / makespan_s)
        spent += makespan_s
    service_rate = median(rates)
    # The served analogue of a one-shot report's lookup rate: forced cold
    # quotes worked off back to back.
    colds = [desk.traffic.request(0, "cold") for _ in range(cfg["cold_burst_requests"])]
    makespan_s = max(r["end_ms"] for r in desk.drive(colds)) / 1e3
    spent += makespan_s
    cold_rate = len(colds) / makespan_s
    probe_s = max((budget_s - spent) / 3, 2.0)
    probes = [f"service rate {service_rate:.1f}/s, median of {len(rates)} bursts of {cfg['burst_requests']}"]
    capacity = None
    for fraction in cfg["capacity_fractions"]:
        rate = fraction * service_rate
        ok = probe_passes(desk.drive(desk.traffic.plan(rate, probe_s)), limit)
        probes.append(f"{rate:.1f}/s for {probe_s:.1f} s: {'pass' if ok else 'fail'}")
        if ok:
            capacity = rate
            break
    desk.outcome.facts["capacity_probes"] = "; ".join(probes)
    desk.outcome.check(capacity is not None, "no offered rate met the latency limit")
    return (capacity if capacity is not None else rate), len(probes) - 1, cold_rate


def pricing_desk(cfg, seed, seconds, trace, work, config):
    outcome = Outcome()
    _, yet, elts = generate_inputs(cfg, seed, os.path.join(work, "inputs"))
    desk = Desk(cfg, seed, work, config, outcome)
    desk.yet_path = yet
    args = desk.serve_args(yet, elts)
    limit = cfg["latency_limit_ms"]
    servers = []
    try:
        # Set-up: spawn until the first quote (cold + capture) is answered.
        # Each set-up server then runs the untimed verification sequence.
        warm_host(config)
        setup = []
        for _ in range(cfg["setup_servers"]):
            server, took, first_terms = desk.start(args)
            servers.append(server)
            setup.append(took)
            desk.verify(first_terms)
            desk.stop(servers.pop())

        if trace:
            # The desk's traffic at the nominal rate, whose client spans the
            # per-layer metrics join to the server's own timing. A phase
            # whose generator fell behind is invalid, not slow: it is run
            # again, and a run that cannot get a valid phase fails.
            fixed_s = max(seconds * cfg["fixed_phase_share"], 2.0)
            for attempt in range(3):
                warm_host(config)
                server, _, _ = desk.start(args)
                servers.append(server)
                rows = desk.drive(desk.traffic.plan(cfg["nominal_qps"], fixed_s))
                desk.stop(servers.pop())
                lateness = sorted(r["late_ms"] for r in rows)
                late = lateness[int(0.99 * (len(lateness) - 1))]
                outcome.facts["client_late_ms"] = (f"p50 {median(lateness):.3f}, p99 {late:.3f}, "
                                                   f"max {lateness[-1]:.3f} (attempt {attempt + 1})")
                if late <= cfg["max_late_p99_ms"]:
                    break
            outcome.check(late <= cfg["max_late_p99_ms"],
                          f"the load generator fell behind (p99 {late:.2f} ms late): run invalid")
            outcome.facts["traffic"] = (
                f"open loop, Poisson arrivals at {cfg['nominal_qps']} quotes/s for {fixed_s:.1f} s, "
                f"at most {NPROC} connections, one connection per request")
        else:
            # One underwriter's session: a single connection re-pricing back
            # to back, each quote timed from send to answer. Open-loop
            # latencies at a light nominal rate moved by a third between
            # runs on this VM (idle vCPUs, colliding colds); the session's
            # by a few percent. Contention is what capacity_qps measures.
            warm_host(config)
            server, _, _ = desk.start(args)
            servers.append(server)
            started = time.perf_counter()
            session = [desk.traffic.request(0) for _ in range(cfg["session_requests"])]
            rows = desk.drive(session, conns=1)
            session_s = time.perf_counter() - started
            peak_rss = desk.stop(servers.pop())
            outcome.facts["traffic"] = (f"closed loop, one connection, {len(session)} requests back to "
                                        f"back in {session_s:.1f} s")

            warm_host(config)
            server, _, _ = desk.start(args)
            servers.append(server)
            capacity, capacity_probes, cold_rate = measure_capacity(desk, cfg, limit,
                                                                    seconds - session_s)
            desk.stop(servers.pop())

        check_desk(desk, cfg, yet, elts, outcome, rows, trace)
    finally:
        for server in servers:
            server.kill()

    colds = [r["latency_ms"] for r in by_source(rows, "cold") if r["kind"] == "cold"]
    deltas = delta_latencies(rows)
    tail_value, tail_pct, tail_n = tail(deltas)
    occurrences = desk.facts["occurrences"]
    outcome.facts.update({
        "engine": "fused (serve default)",
        "threads": desk.facts["threads"],
        "kauto_extension": desk.facts["kauto_extension"],
        "kauto_note": desk.facts["kauto_note"],
        "trials": desk.facts["trials"],
        "occurrences": occurrences,
        "elts": desk.facts["elts_loaded"],
        "yet_mb": round(desk.facts["yet_mb"], 3),
        "table_mb": round(desk.facts["table_mb"], 3),
        "inputs_page_cache": "warm: written by gen-yet/gen-elt just before serve loads them",
        "host_warmup": f"{config['warmup_spin_s']} s spin on all {NPROC} threads before each phase",
        "mix_per_deck": ", ".join(f"{count} {kind}" for kind, count in cfg["mix_per_deck"].items()),
        "samples": f"{len(colds)} cold, {len(deltas)} delta, {len(by_source(rows, 'cached'))} cached, "
                   f"{sum(r['kind'] == 'update' for r in rows)} update",
        "delta_tail_rule": f"p{tail_pct:.2f} of {tail_n} delta quotes",
        "latency_limit_ms": limit,
    })
    if not trace:
        outcome.counts = {"lookups_per_s": cfg["cold_burst_requests"], "peak_rss_mb": 1,
                          "ok_share": outcome.attempted, "setup_s": len(setup),
                          "cold_p50_ms": len(colds), "delta_p50_ms": len(deltas),
                          "delta_tail_ms": len(deltas), "capacity_qps": capacity_probes}
        return outcome, {
            "lookups_per_s": occurrences * cfg["elts"] * cold_rate,
            "peak_rss_mb": peak_rss,
            "ok_share": 1.0 - outcome.failed / max(outcome.attempted, 1),
            "setup_s": median(setup),
            "cold_p50_ms": median(colds),
            "delta_p50_ms": median(deltas),
            "delta_tail_ms": tail_value,
            "capacity_qps": capacity,
        }
    return outcome, desk_layers(desk, cfg, rows, late)


def check_desk(desk, cfg, yet, elts, outcome, rows, trace):
    """Every served quote is an operation of two gates. Agreement: it must
    equal the first quote served for the same terms, whatever the source
    and on either side of an UPDATE. Reference: for a sample of terms, it
    must equal a sequential one-shot price. The sample holds the terms of
    every verification sequence, which always cover cold, delta and cached
    before and after an UPDATE, plus the terms of the first traffic quote
    of each label. With --trace, also the in-process pass over the same
    requests."""
    compared, labels_compared = 0, set()
    for key, served in desk.quotes_by_terms.items():
        first_label, first = served[0]
        for label, quotes in served[1:]:
            outcome.record(quotes == first, f"terms {key}: {label} quote differs from the {first_label} one")
            compared += 1
            labels_compared.update((first_label, label))
    outcome.facts["agreement_checked"] = (
        f"{compared} quotes against the first of their terms; labels {', '.join(sorted(labels_compared))}")

    sample = [fmt_terms(terms) for terms in desk.verified]
    seen = set()
    for row in rows:
        key = fmt_terms(row["terms"])
        if len(seen) == cfg["reference_terms"]:
            break
        if row["response"] is None or "quotes" not in row["response"] or row["label"] in seen or key in sample:
            continue
        seen.add(row["label"])
        sample.append(key)
    terms_path = os.path.join(desk.work, "terms.txt")
    with open(terms_path, "w") as handle:
        handle.write("".join(key + "\n" for key in sample))
    args = ["desk", *elts, "--yet", yet, "--catalog-size", cfg["catalog_size"], "--terms", terms_path]
    if trace:
        warm_host(desk.config)
        host = tool("host", "--gather-mb", cfg["elts"] * cfg["catalog_size"] * 8 / 1e6, "--seconds", 1.5)
        requests_path = os.path.join(desk.work, "requests.txt")
        with open(requests_path, "w") as handle:
            handle.write("".join(row["line"] + "\n" for row in rows[:150]))
        args += ["--trace", "--requests", requests_path,
                 "--gather-per-s", host["gather_per_s"], "--read-gbps", host["read_gbps"]]
        desk.host = host
    reference = tool(*args)
    desk.facts = reference
    outcome.record(reference["elts_loaded"] == cfg["elts"],
                   f"reference loaded {reference['elts_loaded']} of {cfg['elts']} ELTs")
    checked, labels_checked = 0, set()
    for key, expected in zip(sample, reference["reference"]):
        want = json.dumps(json.loads(expected["quotes"]), sort_keys=True)
        for label, quotes in desk.quotes_by_terms.get(key, []):
            outcome.record(quotes == want, f"{label} quote for {key} differs from the sequential run")
            checked += 1
            labels_checked.add(label)
    missing = [label for label in LABELS if label not in labels_checked]
    outcome.record(not missing, f"the reference sample lacks {', '.join(missing)} quotes")
    outcome.facts["reference_checked"] = (
        f"{checked} quotes over {len(sample)} terms; labels {', '.join(sorted(labels_checked))}")


def desk_layers(desk, cfg, rows, late):
    """Per-layer metrics of the traced pricing_desk run: client spans joined
    by request_id to the server's own timing, plus the in-process pass."""
    inproc = desk.facts["in_process"]
    host = desk.host
    metrics = layer_defaults()
    quotes = [r for r in rows if r["response"] is not None and "source" in r["response"]]
    executed = by_source(rows, "cold") + by_source(rows, "delta")
    for source in ("cold", "delta", "cached"):
        picked = by_source(rows, source)
        metrics[f"service.{source}.quote_ms"] = median([r["response"]["wall_seconds"] * 1e3 for r in picked])
        metrics[f"service.{source}.transport_ms"] = median(
            [r["rtt_ms"] - r["response"]["wall_seconds"] * 1e3 for r in picked])
    lookups = desk.facts["occurrences"] * cfg["elts"]
    run_s = inproc["run_cold_ms"] / 1e3
    waits = [r["response"]["admission"]["queue_wait_seconds"] * 1e3 for r in executed]
    # The counter diff in a response is exact only for a quote that
    # overlapped no other request; those colds must show every YET
    # occurrence through the kernel exactly once.
    windows = sorted((r["end_ms"] - r["rtt_ms"], r["end_ms"]) for r in rows)
    isolated = [r for r in by_source(rows, "cold")
                if sum(start < r["end_ms"] and r["end_ms"] - r["rtt_ms"] < end for start, end in windows) == 1]
    for row in isolated:
        counters = row["response"]["telemetry"]["counters"]
        desk.outcome.record(counters.get("kernel.events") == desk.facts["occurrences"],
                            f"{row['response']['request_id']}: counter diff kernel.events "
                            f"{counters.get('kernel.events')} != {desk.facts['occurrences']} occurrences")
    desk.outcome.facts["counter_diff_checked"] = f"{len(isolated)} cold quotes that overlapped no other request"
    skew, idle_share = pool_balance(inproc.get("pool_task_count", 0), inproc.get("pool_task_sum_ns", 0),
                                    inproc.get("pool_task_max_ns", 0), inproc["pool_idle_ns"])
    desk.outcome.facts["pool_balance"] = (f"one cold fused run on a fresh pool in the in-process pass, "
                                          f"{inproc.get('pool_task_count', 0):.0f} tasks")
    overhead_s = inproc["lines_timed_s"] - inproc["lines_bare_s"]
    desk.outcome.facts["trace"] = (f"in-process handle_line over {min(len(rows), 150)} requests: "
                                   f"{inproc['lines_timed_s']:.4f} s timed per call vs "
                                   f"{inproc['lines_bare_s']:.4f} s bare (mean of two passes)")
    delta_rows = by_source(rows, "delta")
    delta_wall = median([r["response"]["wall_seconds"] * 1e3 for r in delta_rows])
    delta_wait = median([r["response"]["admission"]["queue_wait_seconds"] * 1e3 for r in delta_rows])
    metrics.update({
        "core.run_s": run_s,
        "core.lookups": lookups,
        "core.ns_per_lookup": run_s * 1e9 / lookups,
        "core.gather_ceiling_share": lookups / run_s / host["gather_per_s"],
        "perfmodel.predicted_s": desk.facts["predicted_s"],
        "core.cold_ms": inproc["run_cold_ms"],
        "parallel.task_skew": skew,
        "parallel.idle_share": idle_share,
        "core.capture_ms": inproc["capture_ms"],
        "core.replay_ms": inproc["replay_ms"],
        "pricing.price_ms": inproc["price_ms"],
        "io.read_yet_s": desk.facts["read_yet_s"],
        "io.read_yet_mb_per_s": os.path.getsize(desk.yet_path) / 1e6 / desk.facts["read_yet_s"],
        "io.read_elt_s": desk.facts["read_elt_s"],
        "elt.build_s": desk.facts["build_s"],
        "elt.table_mb": desk.facts["table_mb"],
        "service.handle_line_us": inproc.get("handle_line_us.cached", 0.0),
        "service.response_bytes": median([r["bytes"] for r in quotes]),
        "obs.snapshot_us": inproc["snapshot_us"],
        "service.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "service.update_ms": inproc["update_ms"],
        "service.quotes": len(quotes),
        "service.executed_quotes": len(executed),
        "service.cache_hit_share": len(by_source(rows, "cached")) / max(len(quotes), 1),
        "service.replay_share": len(by_source(rows, "delta")) / max(len(executed), 1),
        "host.gather_per_s": host["gather_per_s"],
        "host.gather_array_mb": host["gather_array_mb"],
        "host.read_gbps": host["read_gbps"],
        "host.read_array_mb": host["read_array_mb"],
        "client.late_ms": late,
        "client.open.cold_p50_ms": median([r["latency_ms"] for r in by_source(rows, "cold")]),
        "client.open.delta_p50_ms": median(delta_latencies(rows)),
        "client.open.delta_tail_ms": tail(delta_latencies(rows))[0],
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / inproc["lines_bare_s"],
        # Span tree of one delta quote: client round trip > server wall >
        # admission wait; inside the server, replay (core) and pricing.
        "self.transport_s": metrics["service.delta.transport_ms"] / 1e3,
        "self.service_s": max(delta_wall - delta_wait - inproc["replay_ms"] - inproc["price_ms"], 0.0) / 1e3,
        "self.core_s": inproc["replay_ms"] / 1e3,
        "self.pricing_s": inproc["price_ms"] / 1e3,
    })
    return metrics


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

BENCH = None


def layer_defaults():
    """Every per-layer metric, 0 where the layer does no work on a workload."""
    return {m["name"]: 0.0 for m in BENCH["per_layer"]}


def run_workload(name, seed, seconds, trace, mix=None):
    config = load_json(os.path.join(HERE, "config.json"))
    cfg = config["workloads"][name]
    if mix is not None and "mix_per_deck" in cfg:
        cfg["mix_per_deck"] = mix
    work = os.path.join(RUNS, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if cfg["kind"] == "desk":
            return pricing_desk(cfg, seed, seconds, trace, work, config)
        return oneshot(cfg, seed, seconds, trace, work, config)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(outcome, metrics, wanted):
    body = {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    return json.dumps(body)


def parse_mix(text):
    mix = {}
    for item in text.split(","):
        kind, _, count = item.partition("=")
        if kind not in ("delta", "repeat", "cold", "update") or not count.isdigit():
            raise argparse.ArgumentTypeError(f"bad mix entry {item!r}")
        mix[kind] = int(count)
    return mix


def main():
    global BENCH
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mix", type=parse_mix, default=None,
                        help="pricing_desk request kinds per deck of the traffic, as "
                             "delta=35,repeat=9,cold=4,update=2 (default: config.json); "
                             "for measuring how the figures depend on the assumed mix")
    options = parser.parse_args()
    os.chdir(ROOT)  # the serve socket path is relative to the checkout root
    try:
        bench_path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(bench_path):
            raise BenchError("BENCHMARK.json not found at the checkout root")
        BENCH = load_json(bench_path)
        names = [w["name"] for w in BENCH["workloads"]]
        chosen = names if options.workload == "all" else [options.workload]
        if any(name not in names for name in chosen):
            raise BenchError(f"unknown workload {options.workload!r}; one of {', '.join(names)} or all")
        build()
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2
    seconds = options.seconds if options.seconds is not None else BENCH["run_seconds"]
    wanted = BENCH["per_layer"] if options.trace else BENCH["end_to_end"]
    predictions = load_json(os.path.join(HERE, "config.json"))["per_layer_predictions"]
    all_correct = True
    line = None
    for name in chosen:
        outcome, metrics = run_workload(name, options.seed, seconds, options.trace, options.mix)
        all_correct = all_correct and outcome.correct
        print(f"== {name} (seed {options.seed}, {'traced' if options.trace else 'untraced'})")
        for key, value in outcome.facts.items():
            print(f"   {key}: {value}")
        for note in outcome.notes:
            print(f"   FAILED CHECK: {note}")
        for metric in wanted:
            count = outcome.counts.get(metric["name"])
            note = f"  ({count} samples)" if count else ""
            if options.trace and metric["name"] in predictions:
                moves, where = predictions[metric["name"]]
                note = f"  -> {moves} on {where}"
            print(f"   {metric['name']:32s} {metrics[metric['name']]:>16.6g} {metric['unit']}{note}")
        line = result_line(outcome, metrics, wanted)
    if len(chosen) == 1:
        print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

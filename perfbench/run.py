#!/usr/bin/env python3
"""End-to-end benchmark of the anacin course commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first run builds src/ and the probe in
Release into .bench_build/ (see perfbench/CMakeLists.txt). Every op spawns
the built `anacin` binary, one op in flight (a closed loop with one
client), until --seconds have passed; each op gets fresh seeds derived
from --seed and, where cold, a fresh store. Ops are checked against a path
the repository promises is byte-identical, outside the op's timing.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced ops (global --trace-out/--metrics-out on
every process of the op) and prints the per-layer metrics, a per-layer
table as text and as JSON, and the tracing overhead. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.

--smoke runs one op per workload and mode at a reduced shape and asserts
that every metric named in BENCHMARK.json is printed with its unit and
that no op failed.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
ANACIN = BUILD / "anacin" / "cli" / "anacin"
PROBE = BUILD / "perfbench_probe"
AGENTS = 2
OP_TIMEOUT_S = 100
SWEEP_SETUPS = 3
STORE_SETUPS = 11

# Workload shapes: the full shape is what the numbers are recorded at; the
# smoke shape keeps the same commands small enough for a fast self-test.
SHAPES = {
    "measure_cold": {
        "full": ["--pattern", "amg2013", "--ranks", "32", "--runs", "20"],
        "smoke": ["--pattern", "amg2013", "--ranks", "4", "--runs", "3"],
    },
    # 4 ranks, not 6: at 6 ranks the candidate count (170-360) and with it
    # the op time (1.4-4.9 s) swing so much with the seed that the median
    # of the few ops one run holds is not steady. At 4 ranks an op is
    # ~0.5 s, so a run holds ~25 of them, and it is even more publish-bound.
    "bisect_store": {
        "full": ["--pattern", "amg2013", "--ranks", "4"],
        "smoke": ["--pattern", "amg2013", "--ranks", "3"],
    },
    "sweep_warm": {
        "full": ["--pattern", "amg2013", "--ranks", "16", "--runs", "10", "--step", "10"],
        "smoke": ["--pattern", "amg2013", "--ranks", "4", "--runs", "3", "--step", "50"],
    },
    "sweep_fleet": {
        "full": ["--pattern", "amg2013", "--ranks", "16", "--runs", "10", "--step", "20"],
        "smoke": ["--pattern", "amg2013", "--ranks", "4", "--runs", "3", "--step", "50"],
    },
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Build, guard and provenance
# ---------------------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no src/ tree under {ROOT}: nothing to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      *generator, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "anacin", "perfbench_probe"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def cmake_cache():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith("//"):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def guard_and_provenance():
    """Refuse non-Release and sanitizer builds; describe the build."""
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError(f"refusing to record numbers from a {build_type or 'untyped'} build")
    for key in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE", "CMAKE_EXE_LINKER_FLAGS",
                "ANACIN_SANITIZE"):
        if "sanitize" in cache.get(key, "") or (key == "ANACIN_SANITIZE" and cache.get(key)):
            raise BenchError(f"refusing to record numbers from a sanitizer build ({key})")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.partition("\n")[0]
    commit = ""
    if shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "compiler": version or compiler,
        "build_type": build_type,
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "pool_size": os.cpu_count(),
        "agents": AGENTS,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

LIVE = []
CLEAN_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ANACIN_")}


def spawn(argv, cwd, log_name):
    with open(Path(cwd) / f"{log_name}.log", "w") as log:
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=CLEAN_ENV,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
    LIVE.append(proc)
    return proc


def reap(proc):
    """Block until `proc` ends; (exit code, cpu seconds, peak RSS MB)."""
    cpu_s = rss_mb = 0.0
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu_s, rss_mb = usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    except ChildProcessError:  # already reaped by Popen.poll()
        pass
    LIVE.remove(proc)
    return proc.returncode, cpu_s, rss_mb


def stop_all():
    for proc in list(LIVE):
        proc.kill()
        reap(proc)


def run_quiet(argv, cwd):
    """Spawn, wait, and return (exit code, stdout) for untimed helper runs."""
    done = subprocess.run([str(a) for a in argv], cwd=cwd, env=CLEAN_ENV,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    return done.returncode, done.stdout


def tree_bytes(path):
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def object_files(store):
    """Object files of a store, oldest first (the order the op published them)."""
    files = [p for p in (Path(store) / "objects").glob("*/*") if ".tmp." not in p.name]
    return sorted(files, key=lambda p: (p.stat().st_mtime_ns, p.name))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Op:
    """One timed op: the commands it ran and what it left behind."""

    def __init__(self, index, directory, traced):
        self.index = index
        self.dir = directory
        self.traced = traced
        self.procs = []  # (role, spawn offset in s)
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.disk_bytes = 0
        self.ok = False
        self.error = ""

    def flags(self, role):
        """Global flags of one process; traced ops record spans and counters."""
        if not self.traced:
            return []
        return ["--trace-out", self.dir / f"trace-{role}.json",
                "--metrics-out", self.dir / f"metrics-{role}.json"]

    def run(self, commands, start_after=None):
        """Run `commands` [(role, argv)] as one op and time it end to end.

        `start_after(first_proc, argv)` runs after the first command's spawn
        and returns the second's argv (the fleet's agents need the
        scheduler's port)."""
        timer = None
        procs = []
        try:
            start = time.perf_counter()
            for position, (role, argv) in enumerate(commands):
                if position == 1 and start_after is not None:
                    argv = start_after(procs[0], argv)
                self.procs.append((role, time.perf_counter() - start))
                procs.append(spawn(argv, self.dir, f"log-{role}"))
                if position == 0:
                    timer = threading.Timer(OP_TIMEOUT_S, lambda: [p.kill() for p in procs])
                    timer.start()
            results = [reap(p) for p in procs]
            self.wall_s = time.perf_counter() - start
        finally:
            if timer is not None:
                timer.cancel()
            for proc in procs:
                if proc in LIVE:
                    proc.kill()
                    reap(proc)
        self.cpu_s = sum(cpu for _, cpu, _ in results)
        self.rss_mb = sum(rss for _, _, rss in results)
        failed = [(role, rc) for (role, _), (rc, _, _) in zip(self.procs, results) if rc]
        if failed:
            self.error = f"exit codes {failed}"
        return not failed


class Workload:
    name = ""

    def __init__(self, seed, shape, root):
        self.shape = SHAPES[self.name][shape]
        self.rng = random.Random(f"{self.name}/{seed}")
        self.root = root

    def fresh_seed(self):
        return self.rng.randrange(1, 2**32)

    def setup(self):
        """Median-able set-up times (s). Cold workloads set up an empty store."""
        times = []
        for k in range(STORE_SETUPS):
            start = time.perf_counter()
            rc, _ = run_quiet([ANACIN, "--store", self.root / f"setup-{k}", "cache", "stats"],
                              self.root)
            times.append(time.perf_counter() - start)
            if rc:
                raise BenchError("set-up store creation failed")
        return times

    def op(self, op):
        raise NotImplementedError

    def probe_input(self, op):
        raise NotImplementedError


class WarmRerunCheck(Workload):
    """measure_cold and bisect_store: a cold op on a fresh store, checked by a
    warm re-run on the same store (same --json bytes, zero simulations)."""

    command = ""

    def args(self, op):
        raise NotImplementedError

    def op(self, op):
        op.store = op.dir / "store"
        op.argv = [self.command, *self.args(op)]
        ok = op.run([("cli", [ANACIN, "--store", op.store, *op.flags("cli"), *op.argv,
                              "--json", op.dir / "out.json"])])
        op.disk_bytes = tree_bytes(op.store) + tree_bytes(op.dir / "out.json")
        if not ok:
            return
        check_metrics = op.dir / "check-metrics.json"
        rc, _ = run_quiet([ANACIN, "--store", op.store, "--metrics-out", check_metrics,
                           *op.argv, "--json", op.dir / "check.json"], op.dir)
        if rc:
            op.error = f"warm re-run exited {rc}"
        elif (op.dir / "check.json").read_bytes() != (op.dir / "out.json").read_bytes():
            op.error = "warm re-run --json differs from the cold op's"
        elif json.loads(check_metrics.read_text())["counters"].get("sim.engine.runs", 0):
            op.error = "warm re-run simulated"
        else:
            op.ok = True

    def probe_input(self, op):
        return {"read": op.store, "writes": [(op.store, set())], "journal": None,
                "graph": (self.shape[1], self.shape[3], op.seed)}


class MeasureCold(WarmRerunCheck):
    name = "measure_cold"
    command = "measure"

    def args(self, op):
        op.seed = self.fresh_seed()
        return [*self.shape, "--seed", op.seed]


class BisectStore(WarmRerunCheck):
    name = "bisect_store"
    command = "bisect"

    def args(self, op):
        op.seed = self.fresh_seed()
        replay_seed = self.fresh_seed()
        while replay_seed == op.seed:
            replay_seed = self.fresh_seed()
        return [*self.shape, "--seed", op.seed, "--replay-seed", replay_seed]


class SweepWarm(Workload):
    """Set-up: cold sweeps into fresh stores; ops re-run the same sweep with a
    fresh --journal and --json, checked against the cold sweep's JSON."""

    name = "sweep_warm"

    def setup(self):
        self.seed = self.fresh_seed()
        times = []
        for k in range(SWEEP_SETUPS):
            self.store = self.root / f"store-{k}"
            self.cold_json = self.root / f"cold-{k}.json"
            start = time.perf_counter()
            rc, _ = run_quiet([ANACIN, "--store", self.store, "sweep", *self.shape,
                               "--seed", self.seed, "--json", self.cold_json], self.root)
            times.append(time.perf_counter() - start)
            if rc:
                raise BenchError(f"set-up sweep exited {rc}")
        self.reference = self.cold_json.read_bytes()
        if (self.root / "cold-0.json").read_bytes() != self.reference:
            raise BenchError("two cold set-up sweeps of one seed differ")
        self.objects = {p.parent.name + p.name for p in object_files(self.store)}
        self.store_bytes = tree_bytes(self.store)
        return times

    def op(self, op):
        op.seed = self.seed
        op.journal = op.dir / "journal.jsonl"
        out = op.dir / "out.json"
        ok = op.run([("cli", [ANACIN, "--store", self.store, *op.flags("cli"), "sweep",
                              *self.shape, "--seed", self.seed, "--journal", op.journal,
                              "--json", out])])
        op.disk_bytes = (tree_bytes(self.store) - self.store_bytes + tree_bytes(op.journal)
                         + tree_bytes(out))
        if not ok:
            return
        if out.read_bytes() != self.reference:
            op.error = "warm sweep --json differs from the cold set-up sweep's"
        else:
            op.ok = True

    def probe_input(self, op):
        return {"read": self.store, "writes": [(self.store, self.objects)],
                "journal": op.journal, "graph": None}


class SweepFleet(Workload):
    """A loopback scheduler and two agents, each on a fresh store, checked
    against a warm local sweep over the scheduler's store."""

    name = "sweep_fleet"

    def op(self, op):
        op.seed = self.fresh_seed()
        sweep = ["sweep", *self.shape, "--seed", op.seed]
        port_file = op.dir / "port"
        out = op.dir / "out.json"
        op.stores = [op.dir / "sched"] + [op.dir / f"agent{i}" for i in range(1, AGENTS + 1)]
        commands = [("serve", [ANACIN, "--store", op.stores[0], *op.flags("serve"), "serve",
                               *sweep[1:], "--agents", AGENTS, "--port-file", port_file,
                               "--json", out])]
        for i in range(1, AGENTS + 1):
            role = f"agent{i}"
            commands.append((role, [ANACIN, "--store", op.stores[i], *op.flags(role), "agent",
                                    "--name", role, "--connect"]))

        def with_port(serve, argv):
            deadline = time.perf_counter() + 30
            while not (port_file.exists() and port_file.read_text().strip()):
                if serve.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError("scheduler never announced its port")
                time.sleep(0.001)
            port = port_file.read_text().strip()
            for _, agent_argv in commands[1:]:
                agent_argv.append(f"127.0.0.1:{port}")
            return argv

        try:
            ok = op.run(commands, start_after=with_port)
        except BenchError as error:
            op.error = str(error)
            return
        op.disk_bytes = sum(tree_bytes(s) for s in op.stores) + tree_bytes(out)
        if not ok:
            return
        rc, _ = run_quiet([ANACIN, "--store", op.stores[0], *sweep, "--json",
                           op.dir / "check.json"], op.dir)
        if rc:
            op.error = f"local warm sweep exited {rc}"
        elif (op.dir / "check.json").read_bytes() != out.read_bytes():
            op.error = "fleet --json differs from a warm local sweep's"
        else:
            op.ok = True

    def probe_input(self, op):
        return {"read": op.stores[0], "writes": [(s, set()) for s in op.stores],
                "journal": None, "graph": (self.shape[1], self.shape[3], op.seed)}


WORKLOADS = {w.name: w for w in (MeasureCold, BisectStore, SweepWarm, SweepFleet)}


# ---------------------------------------------------------------------------
# Tracing and the probe
# ---------------------------------------------------------------------------


def probe(*args):
    rc, out = run_quiet([PROBE, *args], ROOT)
    if rc:
        raise BenchError(f"perfbench_probe {args[0]} failed")
    return json.loads(out)


def probe_op(workload, op, scratch):
    """The outside timings of one traced op (store, graph, journal)."""
    spec = workload.probe_input(op)
    read = probe("store-read", spec["read"])
    result = {"open_ms": read["open_ms"], "load_ms_per_object": read["load_ms_per_object"],
              "objects_written": 0, "put_ms": 0.0, "index_writes": 0, "index_kb": 0.0,
              "build_ms": 0.0, "journal_ms": 0.0}
    for k, (store, before) in enumerate(spec["writes"]):
        written = [p for p in object_files(store) if p.parent.name + p.name not in before]
        if not written:
            continue
        listing = scratch / f"written-{k}.txt"
        listing.write_text("".join(f"{p}\n" for p in written))
        target = scratch / f"replay-{k}"
        shutil.rmtree(target, ignore_errors=True)
        replay = probe("store-write", target, listing)
        shutil.rmtree(target, ignore_errors=True)
        result["objects_written"] += replay["objects"]
        result["put_ms"] += replay["put_ms"]
        result["index_writes"] += replay["index_writes"]
        result["index_kb"] = max(result["index_kb"], replay["index_kb"])
    if spec["graph"] is not None:
        result["build_ms"] = probe("graph", *spec["graph"])["build_ms"]
    if spec["journal"] is not None:
        target = scratch / "journal-replay.jsonl"
        target.unlink(missing_ok=True)
        result["journal_ms"] = probe("journal", spec["journal"], target)["journal_ms"]
    return result


def cli_start_ms(scratch):
    times = []
    for _ in range(5):
        start = time.perf_counter()
        run_quiet([ANACIN, "patterns"], scratch)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def traced_split(workload, op, scratch, start_ms):
    processes = []
    for role, offset in op.procs:
        processes.append({
            "role": role,
            "offset_s": offset,
            "trace": json.loads((op.dir / f"trace-{role}.json").read_text()),
            "metrics": json.loads((op.dir / f"metrics-{role}.json").read_text()),
        })
    rounds = 0
    if workload.name == "bisect_store":
        rounds = json.loads((op.dir / "out.json").read_text())["rounds"]
    return layers.attribute({"wall_s": op.wall_s, "processes": processes,
                             "probe": probe_op(workload, op, scratch), "rounds": rounds,
                             "cli_start_ms": start_ms})


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(name, seed, seconds, trace, shape, scratch):
    workload = WORKLOADS[name](seed, shape, scratch)
    setup_times = workload.setup()
    start_ms = cli_start_ms(scratch) if trace else 0.0
    ops, splits = [], []
    deadline = time.perf_counter() + seconds
    while True:
        op = Op(len(ops), scratch / f"op-{len(ops)}", traced=bool(trace) and len(ops) % 2 == 1)
        op.dir.mkdir()
        workload.op(op)
        if op.ok and op.traced:
            splits.append((op.wall_s, *traced_split(workload, op, scratch, start_ms)))
        if not op.ok:
            print(f"op {op.index} failed: {op.error}", file=sys.stderr)
        ops.append(op)
        shutil.rmtree(op.dir)
        modes = {o.traced for o in ops}
        if time.perf_counter() >= deadline and (not trace or len(modes) == 2):
            break
    good = [o for o in ops if o.ok and not o.traced]
    if not good:
        raise BenchError(f"every op of {name} failed")
    failed = sum(not o.ok for o in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    walls = [o.wall_s for o in good]
    summary = {
        "op_s.p50": (statistics.median(walls), "s"),
        "cpu_s.p50": (statistics.median(o.cpu_s for o in good), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in good), "MB"),
        "disk_mb_per_op": (statistics.median(o.disk_bytes for o in good) / 1e6, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    report = [f"{name}: {len(ops)} op(s), {failed} failed (failed_ops="
              f"{failed / len(ops):.3f}), untraced op_s n={len(walls)} "
              f"min={min(walls):.4f} median={statistics.median(walls):.4f} "
              f"max={max(walls):.4f}"]
    if len(walls) >= 100:
        p90 = statistics.quantiles(walls, n=10)[-1]
        report.append(f"op_s.p90 = {p90:.6f} s over {len(walls)} ops")
    if not trace:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
        return result, report
    if not splits:
        raise BenchError(f"every traced op of {name} failed")
    traced_walls = [wall for wall, _, _ in splits]
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    per_layer = {key: statistics.median(m[key] for _, m, _ in splits) for key in splits[0][1]}
    per_layer["trace.overhead_s"] = overhead
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    wall, _, rows = sorted(splits, key=lambda s: s[0])[(len(splits) - 1) // 2]
    report.append(layers.render(name, rows, wall, overhead, len(splits)))
    report.append("layers-json " + json.dumps({"workload": name, "op_wall_s": wall,
                                               "trace_overhead_s": overhead, "rows": rows}))
    return result, report


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Scratch:
    """One temp root inside the checkout, removed (with its processes) at exit."""

    def __enter__(self):
        BUILD.mkdir(exist_ok=True)
        self.path = BUILD / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        return self.path

    def __exit__(self, *exc):
        stop_all()
        shutil.rmtree(self.path, ignore_errors=True)


def smoke():
    """One op per workload and mode at the smoke shape; checks the output."""
    spec = benchmark_spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            with Scratch() as scratch:
                result, report = measure(name, 1, 0, trace, "smoke", scratch)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{name} --trace {trace}: metrics {printed} != {expected[trace]}")
            if result["failed"]:
                problems.append(f"{name} --trace {trace}: {result['failed']} op(s) failed")
            print(f"smoke {name} --trace {trace}: {result['attempted']} op(s), "
                  f"{result['failed']} failed")
    for problem in problems:
        print("smoke FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        provenance = guard_and_provenance()
        if args.smoke:
            return smoke()
        with Scratch() as scratch:
            result, report = measure(args.workload, args.seed, args.seconds, args.trace,
                                     "full", scratch)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print("provenance " + json.dumps({**provenance, "workload": args.workload,
                                      "seed": args.seed, "seconds": args.seconds,
                                      "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

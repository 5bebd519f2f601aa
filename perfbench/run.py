"""The cycloclass benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

Run from the root of a checkout.  The program is copied from src/ into a
directory under perfbench/.work/ and every query runs in a fresh
interpreter started from that copy, so nothing outside perfbench/ is
written.  Passes over the workload's query list repeat, each in a fresh
worker (or, for cli-cold, with a fresh result cache), a fixed number of
times per workload (workloads.PASSES), chosen so that they take about S
seconds at the reference commit; a run that outlasts RUN_LIMIT_S fails.
Every time is scaled to a reference host speed by reference tasks timed
alongside the queries (calibrate.py).
Every answer is checked against perfbench/expected/.  The
last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced passes with --trace 1.
A record of the run goes to perfbench/.work/records/.  See
perfbench/README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SOURCE = ROOT / "src" / "cycloclass"
RUN_LIMIT_S = 170.0
# set-up probes per run at least, spread evenly over the gaps around passes
SETUP_PROBES = 4
# cli-cold starts the reference interpreter between every CLI_CAL_EVERY
# queries; the set-up probes around each pass start it before and after
CLI_CAL_EVERY = 2
PROBE = "import time, cycloclass, cycloclass.cli; print(time.monotonic())"
CLI_ENTRY = "import sys; from cycloclass.cli import main; main()"
WORKER = str(BENCH / "worker.py")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def snapshot_program(tmp):
    """Copy src/cycloclass into the run's own directory and compile it
    there, as an install would, whatever PYTHONDONTWRITEBYTECODE says."""
    target = Path(tmp) / "src"
    shutil.copytree(SOURCE, target / "cycloclass",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if not compileall.compile_dir(target, quiet=1):
        raise SystemExit("the program does not compile")
    return target


def child_env(src, seed):
    """The children's environment: the copied program first on the path,
    no result cache, a hash seed from the workload seed, and no bytecode
    written anywhere."""
    env = dict(os.environ)
    for name in ("CYCLOCLASS_CACHE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED=str(seed % 2 ** 32),
               PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(cmd, env, timeout, out_path):
    """Run cmd with stdout in out_path, waiting at most `timeout` seconds.

    Returns (exit code, or None when it was killed at the timeout; start
    on the monotonic clock; seconds taken; peak RSS in KiB; stderr).  The
    child is reaped with wait4, which gives its own peak RSS.
    """
    err_path = f"{out_path}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if timed_out:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    code = None if timed_out else proc.returncode
    return code, start, elapsed, usage.ru_maxrss, stderr


class Runner:
    """One run of one workload: passes, answer checks and metrics."""

    def __init__(self, name, seed, trace, tmp, src):
        self.name, self.trace = name, trace
        self.tmp = tmp
        self.env = child_env(src, seed)
        self.start = time.monotonic()
        self.queries = workloads.generate(name, seed)
        self.deadline = workloads.DEADLINE_S[name]
        self.expected = workloads.load_expected(name)
        self.pins = checks.load_pins(ROOT)
        self.failures = []
        self.wrong = 0
        self.spawn_cal = []  # [middle instant, s] of reference interpreters
        self.setup_probes = []  # [start instant, s] of set-up probes

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def _path(self, stem):
        fd, path = tempfile.mkstemp(dir=self.tmp, prefix=stem)
        os.close(fd)
        return path

    # -- set-up ------------------------------------------------------------

    def probe(self):
        """Time one set-up: [start instant, s]."""
        out = self._path("probe")
        code, start, _, _, stderr = spawn([sys.executable, "-c", PROBE],
                                          self.env, self.remaining(), out)
        if code != 0:
            raise SystemExit(f"importing cycloclass failed:\n{stderr}")
        with open(out, encoding="utf-8") as handle:
            seconds = float(handle.read()) - start
        return [start, seconds]

    def calibrate_spawn(self):
        """Time one start of the reference interpreter."""
        out = self._path("cal")
        code, start, elapsed, _, stderr = spawn(
            [sys.executable, "-c", calibrate.SPAWN_CODE], self.env,
            self.remaining(), out)
        if code != 0:
            raise SystemExit(f"the reference interpreter failed:\n{stderr}")
        self.spawn_cal.append([start + elapsed / 2, elapsed])

    # -- passes ------------------------------------------------------------

    def worker_pass(self, traced):
        job_dir = tempfile.mkdtemp(dir=self.tmp, prefix="job")
        with open(f"{job_dir}/job.json", "w", encoding="utf-8") as handle:
            json.dump({"queries": self.queries, "deadline_s": self.deadline,
                       "trace": traced,
                       "cold": self.name in workloads.COLD}, handle)
        code, start, _, _, stderr = spawn([sys.executable, WORKER, job_dir],
                                          self.env, self.remaining(),
                                          f"{job_dir}/stdout")
        if code != 0:
            raise SystemExit(f"worker failed (exit {code}):\n{stderr}")
        with open(f"{job_dir}/result.json", encoding="utf-8") as handle:
            result = json.load(handle)
        shutil.rmtree(job_dir)
        outcomes = []
        for query, res in zip(self.queries, result["results"]):
            outcomes.append(self._judge(query, res["status"], res["answer"],
                                        res["latency_s"], res["start"],
                                        res["end"]))
        startup = result["startup"]
        startup["import_s"] = startup["ready"] - start
        pass_result = {"outcomes": outcomes,
                       "calibration": result["calibration"],
                       "reference": "kernel",
                       "peak_rss_kb": result["max_rss_kb"],
                       "processes": [startup]}
        if traced:
            pass_result["traces"] = [result]
        return pass_result

    def cli_pass(self, traced):
        cache_dir = tempfile.mkdtemp(dir=self.tmp, prefix="cache")
        cache = os.path.join(cache_dir, "cache.json")
        outcomes, processes, traces, peak, hits = [], [], [], 0, 0
        for i, argv in enumerate(self.queries):
            if not traced and i and i % CLI_CAL_EVERY == 0:
                self.calibrate_spawn()
            args = ["--cache", cache] + argv
            if traced:
                spans_path = self._path("spans")
                cmd = [sys.executable, WORKER, "--cli", spans_path] + args
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY] + args
            before = _stat(cache)
            out = self._path("stdout")
            code, start, latency, rss, stderr = spawn(
                cmd, self.env, min(self.deadline, self.remaining()), out)
            hits += int(code == 0 and before is not None
                        and _stat(cache) == before)
            peak = max(peak, rss)
            with open(out, "rb") as handle:
                stdout = handle.read()
            if code is None:
                outcomes.append(self._judge(argv, "deadline", None, latency,
                                            start, start + latency))
                continue
            answer = {"stdout": stdout.decode("utf-8", "replace"),
                      "exit": code}
            status = "ok"
            if "Traceback" in stderr or code not in (0, 1, 2, 3):
                status = "error"
                answer["stderr_tail"] = stderr[-300:]
            outcomes.append(self._judge(argv, status, answer, latency,
                                        start, start + latency))
            if traced and os.path.getsize(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    trace = json.load(handle)
                trace["startup"]["import_s"] = \
                    trace["startup"]["ready"] - start
                processes.append(trace["startup"])
                traces.append(trace)
        shutil.rmtree(cache_dir)
        # the run's reference interpreter starts, those after the pass too
        result = {"outcomes": outcomes, "peak_rss_kb": peak,
                  "calibration": self.spawn_cal, "reference": "spawn",
                  "processes": processes, "cache_hits": hits}
        if traced:
            result["traces"] = traces
        return result

    def _judge(self, query, status, answer, latency, start, end):
        """One query's outcome: ok, or failed with the reason.  A wrong
        answer or an unexpected error makes the run incorrect; a missed
        deadline only fails the query."""
        if status == "ok":
            reason = checks.check_answer(query, answer, self.expected,
                                         self.pins)
            if reason:
                status = "wrong"
                self.failures.append({"query": query, "reason": reason})
        else:
            self.failures.append({"query": query, "reason": status,
                                  "detail": answer})
        self.wrong += status in ("wrong", "error")
        if status == "deadline":
            latency = self.deadline
        return {"ok": status == "ok", "status": status, "latency_s": latency,
                "start": start, "end": end}

    def passes(self):
        """The workload's fixed number of passes, with set-up timed before
        each and after the last, so that set-up is sampled across the run.
        With tracing, untraced and traced passes alternate, at least one
        of each, and set-up is not timed.  Every set-up probe lies between
        two starts of the reference interpreter.  Returns (passes, set-up
        times at the reference speed).
        """
        run_pass = self.cli_pass if self.name == "cli-cold" \
            else self.worker_pass
        modes = (False, True) if self.trace else (False,)
        count = max(workloads.PASSES[self.name], len(modes))
        per_gap = -(-SETUP_PROBES // (count + 1))
        done, setup = [], []

        def gap():
            if not self.trace:
                self.calibrate_spawn()
                for _ in range(per_gap):
                    setup.append(self.probe())
                    self.calibrate_spawn()

        for i in range(count):
            gap()
            traced = modes[i % len(modes)]
            done.append((traced, run_pass(traced)))
            if self.remaining() <= 0:
                raise SystemExit(f"the run outlasted {RUN_LIMIT_S:g} s")
        gap()
        self.setup_probes = setup
        setup = [calibrate.scale(s, t, t + s, self.spawn_cal, "spawn")
                 for t, s in setup]
        return done, setup


def _stat(path):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


# -- metrics -----------------------------------------------------------------


def tail_index(n):
    """Index of the highest order statistic with ten samples beyond it."""
    return max(n - 11, 0)


def _wall(result):
    """A pass's wall time: its query times, a missed deadline counting as
    the deadline."""
    return sum(o["latency_s"] for o in result["outcomes"])


def scaled_latencies(result):
    """A pass's query latencies at the reference host speed; a failed
    query is slower than any limit."""
    return [calibrate.scale(o["latency_s"], o["start"], o["end"],
                            result["calibration"], result["reference"])
            if o["ok"] else float("inf") for o in result["outcomes"]]


def end_to_end(untraced, setup_samples, deadline):
    """The end-to-end metrics of the untraced passes.

    Every time is scaled to the reference host speed (calibrate.py).
    Every pass runs the same query list in a fresh interpreter, so a
    query's latency is its median over the run's passes, and `setup_s`
    the median of the set-up probes.  `wall_s` is the sum of the query
    latencies.  A failed query is slower than any limit; in `wall_s` a
    missed deadline counts as the deadline.
    """
    passes = [scaled_latencies(r) for r in untraced]
    latency = [statistics.median(q) for q in zip(*passes)]
    ranked = sorted(latency)
    attempted = sum(len(r["outcomes"]) for r in untraced)
    failed = sum(not o["ok"] for r in untraced for o in r["outcomes"])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(min(t, deadline) for t in latency), "s"),
        "query_p50_s": (min(statistics.median(ranked), deadline), "s"),
        "query_tail_s": (min(ranked[tail_index(len(ranked))], deadline),
                         "s"),
        "ok_frac": (1 - failed / attempted, "1"),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_kb"] / 1024 for r in untraced), "MB"),
    }
    return metrics, failed / attempted


def per_layer(traced, untraced):
    """Per-layer metrics: the median over traced passes of each number."""
    samples = {}
    for result in traced:
        for key, value in layer_numbers(result).items():
            samples.setdefault(key, []).append(value)
    metrics = {key: statistics.median(vals) for key, vals in samples.items()}
    metrics["trace.overhead_s"] = statistics.median(map(_wall, traced)) - \
        statistics.median(map(_wall, untraced))
    return metrics


def layer_numbers(result):
    """The per-layer numbers of one traced pass; zero where not reached."""
    out = dict.fromkeys(layer_units(), 0)
    covered = 0.0
    cache = {}
    for trace in result["traces"]:
        funcs, layers, top = tracer.summarize(trace["spans"])
        covered += top
        for fname, stats in funcs.items():
            out[f"{fname}.calls"] += stats["calls"]
            out[f"{fname}.self_s"] += stats["self_s"]
        for layer, stats in layers.items():
            out[f"{layer}.self_s"] += stats["self_s"]
            out[f"{layer}.failed"] += stats["failed"]
        out["cli.run_s"] += sum(end - start for name, start, end, parent, *_
                                in trace["spans"]
                                if name == "cli.run" and parent < 0)
        for fname, stats in trace["counters"].items():
            for counter, fold, _ in tracer.COUNTERS.get(fname, ()):
                key = f"{fname}.{counter}"
                out[key] = fold((out[key], stats.get(counter, 0)))
        for fname, (hits, misses) in trace["cache"].items():
            old = cache.get(fname, (0, 0))
            cache[fname] = (old[0] + hits, old[1] + misses)
    for fname, (hits, misses) in cache.items():
        out[f"{fname}.hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
    imports = [p["import_s"] for p in result["processes"]]
    if imports:  # empty only when every CLI child missed its deadline
        out["startup.import_s"] = statistics.median(imports)
        out["startup.sympy_import_s"] = statistics.median(
            p["sympy_s"] for p in result["processes"])
    out["startup.self_s"] = sum(imports)
    if "cache_hits" in result:
        # each cli-cold query is a process of its own: start-up is its layer
        covered += sum(imports)
        out["cli.cache_hit_ratio"] = \
            result["cache_hits"] / len(result["outcomes"])
    out["trace.unattributed_s"] = _wall(result) - covered
    return out


def layer_units():
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {}
    for layer, names in tracer.TRACED.items():
        for fname in names:
            units[f"{layer}.{fname}.calls"] = "count"
            units[f"{layer}.{fname}.self_s"] = "s"
    for fname in tracer.CACHED:
        units[f"{fname}.hit_ratio"] = "1"
    for fname, stats in tracer.COUNTERS.items():
        for counter, _, _ in stats:
            units[f"{fname}.{counter}"] = \
                "bits" if counter.endswith("bits") else "count"
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.failed"] = "count"
    units.update({"startup.import_s": "s", "startup.sympy_import_s": "s",
                  "cli.run_s": "s", "cli.cache_hit_ratio": "1",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    return units


# -- the run -----------------------------------------------------------------


def _slowdown(samples, reference):
    if not samples:
        return None
    return statistics.median(s for _, s in samples) / \
        calibrate.REFERENCES[reference][0]


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": sys.version.split()[0],
            "sympy": metadata.version("sympy")}


def source_identity():
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run(args):
    if not (SOURCE / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SOURCE} is missing; "
                         "run from the root of a cycloclass checkout")
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK, prefix="run-")
    try:
        src = snapshot_program(tmp)
        runner = Runner(args.workload, args.seed, args.trace, tmp, src)
        runner.probe()  # untimed: warms the file cache
        done, setup = runner.passes()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    untraced = [r for traced, r in done if not traced]
    traced = [r for traced, r in done if traced]
    attempted = sum(len(r["outcomes"]) for _, r in done)
    failed = sum(not o["ok"] for _, r in done for o in r["outcomes"])
    n = len(runner.queries)
    kernel_cal = [c for r in untraced if r["reference"] == "kernel"
                  for c in r["calibration"]]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "deadline_s": runner.deadline, "query_count": n,
        "queries_sha256": hashlib.sha256(
            json.dumps(runner.queries).encode()).hexdigest(),
        "queries": runner.queries,
        "hash_seed": runner.env["PYTHONHASHSEED"],
        "tail": {"percentile": round(100 * (tail_index(n) + 1) / n, 2)
                 if n else None, "samples_per_pass": n},
        "passes": [{"traced": t, "latencies_s": [
            round(o["latency_s"], 6) if o["ok"] else o["status"]
            for o in r["outcomes"]],
            "intervals": [(o["start"], o["end"]) for o in r["outcomes"]]}
            for t, r in done],
        # [middle instant, s] of every reference task timed in the run,
        # [start instant, s] of every set-up probe
        "calibration": {"kernel": kernel_cal, "spawn": runner.spawn_cal,
                        "setup_probes": runner.setup_probes},
        # median reference-task time over its reference constant: 1.0 is
        # the reference speed, 1.5 a host running 1.5x slower
        "host_slowdown": {
            "kernel": _slowdown(kernel_cal, "kernel"),
            "spawn": _slowdown(runner.spawn_cal, "spawn")},
        "pins": "tests/test_acceptance.py" if runner.pins
        else "unavailable",
        "failures": runner.failures[:50],
        "machine": machine_facts(),
        **source_identity(),
    }
    if args.trace:
        metrics = per_layer(traced, untraced)
        absent = sorted({name for r in traced for t in r["traces"]
                         for name in t["absent"]})
        missing = [f for f in workloads.ENTRY[args.workload]
                   if not metrics[f"{f}.calls"]]
        if missing:
            raise SystemExit("traced run failed: no calls recorded for "
                             + ", ".join(missing))
        record["not_reached"] = [f for f in workloads.REACHED[args.workload]
                                 if not metrics[f"{f}.calls"]
                                 and f not in absent]
        record["absent_from_program"] = absent
        printed = {k: {"value": metrics[k], "unit": unit}
                   for k, unit in layer_units().items()}
    else:
        metrics, failed_frac = end_to_end(untraced, setup, runner.deadline)
        record["failed_frac"] = failed_frac
        printed = {k: {"value": v, "unit": u} for k, (v, u) in
                   metrics.items()}
    record["metrics"] = printed
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = stem.with_suffix(".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if traced:
        # [name, start, end, parent, query, failed] per span, per process
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump([[t["spans"] for t in r["traces"]] for r in traced],
                      handle)
    for key, item in printed.items():
        print(f"{args.workload:13s} {key:44s} {item['value']:.6g} "
              f"{item['unit']}")
    if not args.trace:
        print(f"{args.workload:13s} {'failed_frac':44s} "
              f"{record['failed_frac']:.6g} 1  (= 1 - ok_frac)")
    if record.get("not_reached"):
        print("not reached: " + ", ".join(record["not_reached"]),
              file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": printed}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()

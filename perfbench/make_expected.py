"""Regenerate the stored answers in perfbench/expected/.

    python3 perfbench/make_expected.py WORKLOAD

Run from the root of a checkout of the commit whose answers are to be the
reference (the answers in expected/ come from the commit the benchmark
was added on).  Every query of the workload's population runs once:

- cli-cold: in one interpreter, through ``cycloclass.cli.run`` with
  stdout captured; the stored answer is the stdout text and exit code.
- hminus-range: the population in order in COST_PASSES fresh workers,
  with the program's caches emptied before each query, as the benchmark
  runs it; the stored answer is the worker's answer text and ``seed_s``
  the query's median time over the passes at the reference host speed
  (calibrate.py), which the samples stratify on.
- paper-tables: the fixed list in one worker, in order.

Every query must answer within CAP_S seconds, and every stored answer is
checked against the pins of tests/test_acceptance.py before the file is
written.
"""

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import sys
import tempfile

import calibrate
import checks
import run
import workloads

CAP_S = 60.0
COST_PASSES = 3


def _cli_answers(src, queries):
    os.environ.pop("CYCLOCLASS_CACHE", None)
    sys.path.insert(0, str(src))
    from cycloclass import cli
    out = {}
    for argv in queries:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        out[json.dumps(argv)] = {"answer": {"stdout": buffer.getvalue(),
                                            "exit": code}}
    return out


def _worker_answers(src, queries, tmp, cold, passes):
    env = run.child_env(src, 0)
    out, costs = {}, {}
    for _ in range(passes):
        job_dir = tempfile.mkdtemp(dir=tmp)
        with open(f"{job_dir}/job.json", "w", encoding="utf-8") as handle:
            json.dump({"queries": queries, "deadline_s": CAP_S,
                       "trace": False, "cold": cold}, handle)
        cmd = [sys.executable, run.WORKER, job_dir]
        code, _, _, _, stderr = run.spawn(
            cmd, env, CAP_S * len(queries) + 60, f"{job_dir}/stdout")
        if code != 0:
            raise SystemExit(f"worker failed:\n{stderr}")
        with open(f"{job_dir}/result.json", encoding="utf-8") as handle:
            result = json.load(handle)
        for query, res in zip(queries, result["results"]):
            key = json.dumps(query)
            if res["status"] != "ok":
                raise SystemExit(f"{key}: {res['status']} {res['answer']}")
            if out.setdefault(key, res["answer"]) != res["answer"]:
                raise SystemExit(f"{key}: the answer changed between passes")
            costs.setdefault(key, []).append(calibrate.scale(
                res["latency_s"], res["start"], res["end"],
                result["calibration"], "kernel"))
    for key, cost in costs.items():
        print(key, [round(c, 3) for c in cost], flush=True)
    return {key: {"answer": answer,
                  "seed_s": round(statistics.median(costs[key]), 4)}
            for key, answer in out.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    args = parser.parse_args()

    signal.signal(signal.SIGALRM, run._on_alarm)
    run.WORK.mkdir(exist_ok=True)
    queries = workloads.population(args.workload)
    stored = {}

    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        src = run.snapshot_program(tmp)
        if args.workload == "cli-cold":
            stored.update(_cli_answers(src, queries))
        elif args.workload == "paper-tables":
            stored.update(_worker_answers(src, queries, tmp, False, 1))
        else:
            stored.update(_worker_answers(src, queries, tmp, True,
                                          COST_PASSES))

    pins = checks.load_pins(run.ROOT)
    for key, entry in stored.items():
        answer = entry["answer"]
        if args.workload == "cli-cold" and answer["exit"] != 0:
            raise SystemExit(f"{key} exits {answer['exit']}")
        reason = checks.pin_failure(json.loads(key), answer, pins)
        if reason:
            raise SystemExit(f"{key}: {reason}")
    workloads.EXPECTED.mkdir(exist_ok=True)
    path = workloads.EXPECTED / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"source": run.source_identity(),
                   "cap_s": CAP_S,
                   "queries": dict(sorted(stored.items()))}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

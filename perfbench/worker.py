"""One fresh interpreter for the benchmark, started by run.py.

``worker.py JOB_DIR`` runs the in-process query list in JOB_DIR/job.json
and writes JOB_DIR/result.json.  ``worker.py --cli OUT ARG...`` runs one
traced ``cycloclass`` invocation: stdout and the exit code are the CLI's
own, and the spans go to OUT.

Without tracing, the calibration kernel (calibrate.py) runs before each
query, after the last and, from the interval timer, while each query
runs, so that run.py can scale the query times to a reference host
speed; a query's time excludes the samples taken while it ran.

A job marked "cold" empties every ``lru_cache`` of the program before
each query, untimed, so that a query's cost depends on its inputs alone
and not on the queries before it.

Each query runs under the interval timer.  A query that outlives its
deadline is stopped by ``Deadline`` (a BaseException, so the program's
own ``except Exception`` handlers cannot swallow it) and reported as
such; the list then continues.
"""

import hashlib
import json
import resource
import signal
import sys
import time

from calibrate import KERNEL_BEFORE, SAMPLE_EVERY_S, kernel


class Deadline(BaseException):
    pass


class Sampler:
    """The worker's interval timer: each query's deadline and, when
    sampling, kernel samples every SAMPLE_EVERY_S while the query runs."""

    def __init__(self, sampling):
        self.sampling = sampling
        self.samples = []  # [middle instant, s] of every kernel timed
        self.spent = 0.0  # seconds the current query spent in samples
        self.active = False
        self.deadline_at = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def between(self):
        if self.sampling:
            self.samples.extend(kernel() for _ in range(KERNEL_BEFORE))

    def start(self, deadline):
        self.spent = 0.0
        self.deadline_at = time.monotonic() + deadline
        self.active = True
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, deadline)

    def stop(self):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        if not self.active:
            return
        enter = time.perf_counter()
        if not self.sampling or time.monotonic() >= self.deadline_at:
            self.active = False
            raise Deadline()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - enter


def _import_program(trace):
    startup = {}
    if trace:
        t0 = time.monotonic()
        import sympy  # noqa: F401  (timed on its own: most of start-up)
        startup["sympy_s"] = time.monotonic() - t0
    import cycloclass  # noqa: F401
    import cycloclass.cli  # noqa: F401
    startup["ready"] = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    return startup, tracer


def answer_text(value):
    """The stored form of an answer: str(value), or its digest if long."""
    text = str(value)
    if len(text) <= 400:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _one_or_all(values):
    return values[0] if len(values) == 1 else values


def _evaluate(kind, args):
    from cycloclass.classnumber import hminus
    from cycloclass.involutive import tate
    from cycloclass.ktheory import km_v_module
    from cycloclass.manifoldset import sweep, verify
    from cycloclass.residue import c_bound, vtilde
    if kind == "hminus":
        return _one_or_all([hminus(m) for m in args])
    if kind == "c_bound":
        return _one_or_all([c_bound(m) for m in args])
    if kind == "verify":
        n, *moduli = args
        return _one_or_all([verify(n, m) for m in moduli])
    if kind == "vtilde":
        return vtilde(*args)
    if kind == "tate_km":
        return tate(km_v_module(args[0]), 1)
    if kind == "sweep_deep":
        return sweep(args[0], range(2, 101), deep=True)
    raise ValueError(f"unknown query kind {kind!r}")


def _clear_caches():
    """Empty the lru_caches of the loaded cycloclass modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cycloclass"
                                  or name.startswith("cycloclass.")):
            continue
        for value in vars(module).values():
            if not isinstance(value, type) and hasattr(value, "cache_info"):
                value.cache_clear()


def serve(job_dir):
    with open(f"{job_dir}/job.json", encoding="utf-8") as handle:
        job = json.load(handle)
    startup, tracer = _import_program(job["trace"])
    deadline = job["deadline_s"]
    sampler = Sampler(sampling=tracer is None)
    results = []
    for qid, (kind, *args) in enumerate(job["queries"]):
        if job["cold"]:
            _clear_caches()
        if tracer:
            tracer.begin(qid)
        sampler.between()
        status, text = "ok", None
        start = time.monotonic()
        t0 = time.perf_counter()
        try:
            sampler.start(deadline)
            try:
                value = _evaluate(kind, args)
            finally:
                sampler.stop()
        except Deadline:
            status = "deadline"
        except Exception as err:  # reported as a failed query
            status, text = "error", f"{type(err).__name__}: {err}"
        sampler.stop()
        latency = time.perf_counter() - t0 - sampler.spent
        end = time.monotonic()
        if status == "ok":
            text = answer_text(value)
        results.append({"status": status, "latency_s": latency,
                        "start": start, "end": end, "answer": text})
    sampler.between()
    out = {"startup": startup, "results": results,
           "calibration": sampler.samples,
           "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        out.update(tracer.dump())
    with open(f"{job_dir}/result.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def traced_cli(out_path, argv):
    startup, tracer = _import_program(True)
    tracer.begin(0)
    code = sys.modules["cycloclass.cli"].run(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"startup": startup, **tracer.dump()}, handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    serve(sys.argv[1])

"""Child-process entry of the campaign benchmark.

Installs the benchmark's probes into a fresh interpreter, then hands
``argv`` to the repro command-line interface (``repro.__main__.main``)
unchanged::

    python perfbench/launch.py MODE [--fail-first-job] -- <repro CLI args>

MODE is one of

* ``timer``  - one CPU-time reading around each ``System.run`` call,
  appended to ``$PERFBENCH_OUT/simrun.log`` (``<cores> <seconds>`` per
  line).  This is all an untraced run carries: it is what ``sim_kips``
  divides by;
* ``traced`` - spans around the public calls into each layer, plus a
  ``cProfile`` profiler enabled only inside ``System.run``.  Spans and
  counters stay in memory and are appended to
  ``$PERFBENCH_OUT/spans-<pid>.jsonl`` when the process exits (a pool
  worker writes after each job it runs, since forked workers leave
  through ``os._exit``); profiles go to ``prof-<pid>-<n>.bin``.

``--fail-first-job`` makes every attempt of the first job this process
tree simulates raise, so the campaign records one failed job (the
benchmark's self-test uses it).

Nothing under ``src/`` is modified: the probes wrap attributes at run
time in this process only (forked pool workers inherit them).
"""

from __future__ import annotations

import atexit
import cProfile
import functools
import importlib
import json
import marshal
import os
import sys
import time


def _now() -> float:
    return time.perf_counter()


class Recorder:
    """Per-process span buffer, counters and profiler."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.job: str | None = None
        self.next_id = 0
        self.flushes = 0
        self.profiler = cProfile.Profile()
        self.profiled = False

    def after_fork(self) -> None:
        # A forked pool worker starts empty: what the parent recorded so
        # far is the parent's to write.
        self._reset()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "id": f"{self.pid}:{self.next_id}",
            "parent": (
                f"{self.pid}:{self.stack[-1]}" if self.stack else None
            ),
            "job": self.job,
            "pid": self.pid,
            "start": _now(),
        }
        self.stack.append(self.next_id)
        self.next_id += 1
        return span

    def end(self, span: dict) -> None:
        span["end"] = _now()
        self.stack.pop()
        self.spans.append(span)

    def flush(self) -> None:
        if not self.spans and not self.counters and not self.profiled:
            return
        path = os.path.join(self.out, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": self.counters, "pid": self.pid}) + "\n")
        if self.profiled:
            self.profiler.create_stats()
            name = f"prof-{self.pid}-{self.flushes}.bin"
            with open(os.path.join(self.out, name), "wb") as fh:
                marshal.dump(self.profiler.stats, fh)
            self.profiler = cProfile.Profile()
            self.profiled = False
        self.flushes += 1
        self.spans = []
        self.counters = {}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap(module: str, attr: str, make):
    owner, name = _resolve(module, attr)
    original = getattr(owner, name)
    wrapper = functools.wraps(original)(make(original))
    setattr(owner, name, wrapper)


def _span_wrapper(rec: Recorder, span_name: str, after=None):
    """``make`` for :func:`_wrap`: a span around every call, with an
    optional ``after(span, args, result)`` adding attributes."""

    def make(original):
        def wrapper(*args, **kwargs):
            span = rec.begin(span_name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if after is not None and result is not None:
                    after(span, args, result)
                rec.end(span)

        return wrapper

    return make


def install_timer(out: str) -> None:
    from repro.sim.system import System

    path = os.path.join(out, "simrun.log")
    run = System.run

    @functools.wraps(run)
    def timed_run(self, *args, **kwargs):
        # CPU time of this thread: two pool workers share one CPU, and a
        # worker's wall time would count the other's turns.
        start = time.thread_time()
        try:
            return run(self, *args, **kwargs)
        finally:
            elapsed = time.thread_time() - start
            with open(path, "a") as fh:
                fh.write(f"{len(self.cores)} {elapsed!r}\n")

    System.run = timed_run


def install_tracing(out: str, import_s: float) -> Recorder:
    from repro.campaign import store
    from repro.sim import pool

    rec = Recorder(out)
    os.register_at_fork(after_in_child=rec.after_fork)
    atexit.register(rec.flush)
    span = rec.begin("setup.import")
    span["start"] -= import_s
    rec.end(span)

    def ingest_attrs(span, _args, trace):
        span["requests"] = trace.ingest.requests_read

    def encode_attrs(span, _args, text):
        span["bytes"] = len(text)

    for name, module, attr, after in (
        ("workloads.generate", "repro.workloads.generator", "TraceGenerator.generate", None),
        ("traces.ingest", "repro.traces.source", "TraceRequestSource.materialize", ingest_attrs),
        ("runner.alone", "repro.sim.runner", "ExperimentRunner.alone", None),
        ("system.build", "repro.sim.system", "System.__init__", None),
        ("queue.claim", "repro.campaign.queue", "LeaseQueue.claim_next", None),
        ("queue.complete", "repro.campaign.queue", "LeaseQueue.complete", None),
        # queue.py imported the encoder by name; wrap it where it is called.
        ("serde.encode", "repro.campaign.queue", "result_to_json", encode_attrs),
        ("report.render", "repro.campaign", "campaign_report", None),
    ):
        _wrap(module, attr, _span_wrapper(rec, name, after))
    for method in (
        "register",
        "record_result",
        "record_failure",
        "record_progress",
        "set_manifest",
        "merge_metrics",
    ):
        _wrap("repro.campaign.store", f"ResultStore.{method}", _span_wrapper(rec, "store.commit"))

    def make_run(original):
        def run(self, *args, **kwargs):
            span = rec.begin("system.run")
            span["cores"] = len(self.cores)
            rec.profiled = True
            rec.profiler.enable()
            try:
                return original(self, *args, **kwargs)
            finally:
                rec.profiler.disable()
                scheduler = getattr(self.controller, "scheduler", None)
                batcher = getattr(scheduler, "batcher", None)
                span["batches"] = getattr(batcher, "batches_formed", 0)
                rec.end(span)

        return run

    _wrap("repro.sim.system", "System.run", make_run)

    def make_get(original):
        def get(self, kind, key):
            value = original(self, kind, key)
            rec.count("diskcache.misses" if value is None else "diskcache.hits")
            return value

        return get

    _wrap("repro.sim.diskcache", "DiskCache.get", make_get)

    def make_job(original):
        def run_job(job):
            rec.job = pool.job_chaos_key(job)[:16]
            span = rec.begin("pool.job")
            try:
                return original(job)
            finally:
                rec.end(span)
                rec.job = None
                if os.getpid() != rec.main_pid:
                    rec.flush()

        return run_job

    _wrap("repro.sim.pool", "run_job", make_job)

    from concurrent.futures import ProcessPoolExecutor

    def make_submit(original):
        def submit(self, fn, *args, **kwargs):
            span = {
                "name": "pool.submit",
                "id": f"{rec.pid}:submit{rec.next_id}",
                "parent": None,
                "job": None,
                "pid": rec.pid,
                "start": _now(),
            }
            rec.next_id += 1
            future = original(self, fn, *args, **kwargs)

            def done(_future):
                span["end"] = _now()
                rec.spans.append(span)

            future.add_done_callback(done)
            return future

        return submit

    ProcessPoolExecutor.submit = functools.wraps(ProcessPoolExecutor.submit)(
        make_submit(ProcessPoolExecutor.submit)
    )

    def final_counters():
        rec.count("pool.respawns", pool.POOL_STATS["respawns"])
        rec.count("pool.serial_fallbacks", pool.POOL_STATS["serial_fallbacks"])
        rec.count("store.commit_retries", store.STORE_STATS["commit_retries"])

    # atexit runs last-registered first: fold the totals in before flushing.
    atexit.register(final_counters)
    return rec


def install_failure() -> None:
    from repro.sim import pool

    original = pool.run_job
    doomed: list[str] = []

    @functools.wraps(original)
    def run_job(job):
        key = pool.job_chaos_key(job)
        if not doomed:
            doomed.append(key)
        if key == doomed[0]:
            raise RuntimeError("injected failure (perfbench --fail-first-job)")
        return original(job)

    pool.run_job = run_job


def main(argv: list[str]) -> int:
    mode, *rest = argv
    fail = "--fail-first-job" in rest[: rest.index("--")]
    cli_args = rest[rest.index("--") + 1 :]
    start = _now()
    import repro.__main__ as cli

    import_s = _now() - start
    out = os.environ.get("PERFBENCH_OUT", ".")
    if mode == "timer":
        install_timer(out)
    elif mode == "traced":
        install_tracing(out, import_s)
    else:
        raise SystemExit(f"launch.py: unknown mode {mode!r}")
    if fail:
        install_failure()
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

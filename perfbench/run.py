"""Campaign benchmark: end-to-end wall time and simulator throughput.

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Each run

1. writes the workload's campaign spec, drawn from ``--seed`` (see
   ``design.json``), into a fresh work directory under
   ``.perfbench_work/``;
2. sets up, untimed: byte-compiles the package into a private bytecode
   cache, fills the disk cache for warm-cache workloads, and times
   several fresh-process ``campaign run SPEC --dry-run`` calls
   (``setup_s`` is their median);
3. repeats, for ``--seconds``, a fresh-process ``campaign run SPEC``
   followed by ``campaign report SPEC``, each time with an empty result
   store (and, for cold-cache workloads, an empty disk cache);
4. checks the outputs: no failed job, the same ``campaign export
   --format json`` bytes on every repeat, and one job re-run on the other
   backend and compared with ``repro.sim.verify.compare_results``;
5. prints every metric with its unit, then one JSON line.

The run and all its children are pinned to one CPU, and every child's
time is scaled to a nominal host speed measured on that CPU while the
child runs (see ``SpeedSampler``): ``wall_s``, ``sim_kips`` and
``setup_s`` are nominal-speed figures, so runs taken while other tenants
slow the host compare with runs taken while it is idle.

``--trace 0`` reports the end-to-end metrics, medians over the repeats;
``failed_frac`` and, on ``table4``, ``table4_err`` are printed with them.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics; the traced repeats record spans around the public
calls into each layer and profile ``System.run`` with ``cProfile`` (see
``launch.py``), and one job additionally runs under the strict guard.
The per-run trace artifact is written to ``.perfbench_work/artifacts/``.

Every child process gets a scrubbed environment: inherited ``REPRO_*``
knobs are dropped, and the result store, disk cache and trace directory
point into the run's own work directory.  Any failed check exits 1 and
names the check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import random
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYCACHE = WORK / "pycache"
ARTIFACTS = WORK / "artifacts"
PY = sys.executable

DRY_RUNS = 15  # set-up timings per run; setup_s is their median
MIN_REPEATS = 3  # timed repeats per run, even past --seconds
RUN_BUDGET_S = 170.0  # every child is killed past this point of the run
REFERENCE_LOOPS = 20_000  # iterations of one host-speed reference burst
REFERENCE_NOMINAL_S = 0.0025  # a burst's CPU seconds on an uncontended core
SAMPLE_PERIOD_S = 0.04  # pause between bursts while a child runs


class CheckFailed(Exception):
    """An output check failed; the message names it."""


# -- host speed -----------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.  On a shared host the
    CPUs of a small VM slow down independently of each other, so a speed
    reading is only good for the CPU it was taken on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reference_burst() -> float:
    """CPU seconds of a fixed pure-Python loop (integer arithmetic and
    dict stores, like the interpreter-bound simulator)."""
    start = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
        table[i & 4095] = total
    return time.thread_time() - start


class SpeedSampler:
    """Host speed on this CPU while a child runs.

    Other tenants slow this host by up to 1.7x, for seconds to minutes at
    a time.  A thread of this process runs a :func:`reference_burst` every
    ``SAMPLE_PERIOD_S`` on the CPU the child is pinned to, so it sees the
    same slow-downs as the child at the same moments.  :meth:`factor`
    scales the child's time to a host on which a burst takes
    ``REFERENCE_NOMINAL_S``; runs taken while the host is slow and while
    it is fast then compare.  The bursts take about 6% of the CPU from
    the child, the same share in every run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        self.samples.append(reference_burst())
        while not self.stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(reference_burst())

    def __enter__(self) -> "SpeedSampler":
        self.thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop.set()
        self.thread.join()

    def factor(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)


# -- child processes ------------------------------------------------------------
@dataclass
class Child:
    """Result of one child process: wall seconds, exit code, peak RSS, and
    the :class:`SpeedSampler` factor of its run."""

    seconds: float
    code: int
    maxrss_kb: int
    stdout: str
    stderr: str
    factor: float

    @property
    def nominal_seconds(self) -> float:
        """Wall seconds scaled to the nominal host speed."""
        return self.seconds * self.factor


class Runner:
    """Spawns children in their own process groups, with a run deadline."""

    def __init__(self, deadline: float, base_env: dict[str, str]) -> None:
        self.deadline = deadline
        self.base_env = base_env
        self.live: set[int] = set()

    def run(self, args: list[str], cwd: Path, env: dict[str, str] | None = None, tag: str = "child") -> Child:
        out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
        full_env = dict(self.base_env)
        full_env.update(env or {})
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise CheckFailed(f"time budget: no time left to start {tag}")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                args, cwd=cwd, env=full_env, stdout=out, stderr=err,
                start_new_session=True,
            )
            self.live.add(proc.pid)
            timer = threading.Timer(timeout, self._kill, (proc.pid,))
            timer.start()
            try:
                with SpeedSampler() as speed:
                    # wait4, not wait: its rusage covers the child and every
                    # descendant it reaped (the pool workers).
                    _pid, status, usage = os.wait4(proc.pid, 0)
                    seconds = time.perf_counter() - start
            finally:
                timer.cancel()
                self.live.discard(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._kill(proc.pid)  # any straggler left in the group
        if proc.returncode == -signal.SIGKILL and time.perf_counter() >= self.deadline:
            raise CheckFailed(f"time budget: {tag} was still running at the deadline")
        return Child(seconds, proc.returncode, usage.ru_maxrss, out_path.read_text(), err_path.read_text(),
                     speed.factor())

    def _kill(self, pid: int) -> None:
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def kill_all(self) -> None:
        for pid in list(self.live):
            self._kill(pid)


def scrubbed_env() -> dict[str, str]:
    """The inherited environment minus every knob that changes how repro
    or the interpreter behaves."""
    drop = {"PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE",
            "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE", "PYTHONPROFILEIMPORTTIME",
            "PYTHONTRACEMALLOC", "PYTHONDEVMODE", "PYTHONWARNINGS"}
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in drop
    }
    env["PYTHONPATH"] = str(SRC)
    # Bytecode goes to a private cache, never next to the sources.
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


# -- workloads ------------------------------------------------------------------
def load_design() -> dict:
    return json.loads((HERE / "design.json").read_text())


def seeded_mixes(benchmarks: list[str], cores: int, count: int, seed: int) -> list[list[str]]:
    """``count`` mixes of ``cores`` threads by stratified sampling of
    ``benchmarks`` (ordered by memory intensity): the list is spread over
    the thread slots, cut into one stratum per core, and mix ``i`` takes
    the ``i``-th benchmark of every stratum after a seeded shuffle of
    each.  No mix holds a benchmark twice, and no two mixes hold the
    same benchmarks (the campaign would store their jobs once)."""
    slots = cores * count
    pool = [benchmarks[i * len(benchmarks) // slots] for i in range(slots)]
    strata = [pool[j * count:(j + 1) * count] for j in range(cores)]
    rng = random.Random(seed)
    for _ in range(1000):
        for stratum in strata:
            rng.shuffle(stratum)
        mixes = [[stratum[i] for stratum in strata] for i in range(count)]
        distinct = {frozenset(mix) for mix in mixes}
        if len(distinct) == count and all(len(mix) == cores for mix in distinct):
            return mixes
    raise ValueError(f"no grouping of {slots} slots into {count} distinct mixes")


def workload_spec(design: dict, name: str, seed: int, toy: bool) -> dict:
    """The campaign spec of ``name`` for ``seed`` (placeholders filled)."""
    workload = design["workloads"][name]
    spec = json.loads(json.dumps(workload["spec"]).replace('"$seed"', str(seed)))
    count = workload.get("seeded_mixes")
    if toy:
        spec.update(design["toy"]["spec"])
        spec.update(design["toy"].get(name, {}))
        count = count and design["toy"]["seeded_mixes"]
    if count:
        spec["mixes"] = seeded_mixes(
            design["benchmarks"]["names"], spec["num_cores"][0], count, seed
        )
    return spec


def parse_summary(stdout: str) -> dict[str, int]:
    """The counters of ``campaign NAME: total=.. ran=.. failed=..``."""
    for line in stdout.splitlines():
        if line.startswith("campaign ") and " total=" in line:
            return {
                key: int(value)
                for key, value in (
                    field.split("=") for field in line.split(": ", 1)[1].split()
                )
            }
    return {}


def paper_table4() -> dict:
    """``TABLE4[4]`` of ``repro.experiments.paper_values``, read without
    importing the package (and without writing its bytecode)."""
    path = SRC / "repro" / "experiments" / "paper_values.py"
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TABLE4"][4]


def table4_err(rows: list[dict]) -> float:
    """Mean absolute relative error of each scheduler's FR-FCFS-normalised
    geomean unfairness, weighted and hmean speedup against Table 4."""
    paper = paper_table4()
    by_variant: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        cell = by_variant.setdefault(row["variant"], {"unfairness": [], "wspeedup": [], "hspeedup": []})
        for metric in cell:
            cell[metric].append(row[metric])

    def geomean(values: list[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    model = {v: {m: geomean(vals) for m, vals in cells.items()} for v, cells in by_variant.items()}
    errors = []
    for variant in model:
        if variant == "FR-FCFS" or variant not in paper:
            continue
        for metric in ("unfairness", "wspeedup", "hspeedup"):
            ours = model[variant][metric] / model["FR-FCFS"][metric]
            theirs = paper[variant][metric] / paper["FR-FCFS"][metric]
            errors.append(abs(ours - theirs) / theirs)
    return sum(errors) / len(errors)


# -- one run --------------------------------------------------------------------
class Bench:
    """One run of one workload: set-up, timed repeats, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.design = load_design()
        self.wl = self.design["workloads"][args.workload]
        self.spec = workload_spec(self.design, args.workload, args.seed, args.toy)
        self.work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.runner = Runner(time.perf_counter() + RUN_BUDGET_S, scrubbed_env())
        self.repeats: list[dict] = []
        self.export_hashes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def cli(self, *args: str) -> list[str]:
        return [PY, "-m", "repro", "--backend", self.wl["backend"], *args]

    def launch(self, mode: str, *args: str) -> list[str]:
        extra = ["--fail-first-job"] if self.args.fail_first_job else []
        return [PY, str(HERE / "launch.py"), mode, *extra, "--",
                "--backend", self.wl["backend"], *args]

    def env_for(self, cache: str, out: Path | None = None) -> dict[str, str]:
        # Paths are relative to the child's directory, so the run manifest
        # (which records REPRO_CACHE_DIR and REPRO_CAMPAIGN_DB), and with
        # it the export, is byte-identical on every repeat.
        env = {
            "REPRO_CAMPAIGN_DB": "campaign.sqlite",
            "REPRO_CACHE_DIR": cache,
            "REPRO_TRACE_DIR": "traces",
            "REPRO_JOBS": str(self.wl["jobs"]),
        }
        if out is not None:
            env["PERFBENCH_OUT"] = str(out)
        return env

    def setup(self) -> float:
        self.work.mkdir(parents=True)
        (self.work / "spec.json").write_text(json.dumps(self.spec, indent=1))
        PYCACHE.mkdir(parents=True, exist_ok=True)
        compiled = self.runner.run(
            [PY, "-m", "compileall", "-q", str(SRC / "repro")],
            self.work, tag="compileall",
        )
        if compiled.code != 0:
            raise CheckFailed(f"setup: compileall failed\n{compiled.stdout}{compiled.stderr}")
        dry = self.cli("campaign", "run", "spec.json", "--dry-run")
        env = self.env_for("cache")
        first = self.runner.run(dry, self.work, env, tag="dryrun")
        if first.code != 0:
            raise CheckFailed(f"setup: dry run exited {first.code}\n{first.stderr}")
        times = [self.runner.run(dry, self.work, env, tag="dryrun").nominal_seconds for _ in range(DRY_RUNS)]
        if self.wl["cache"] == "warm":
            fill_dir = self.work / "fill"
            fill_dir.mkdir()
            fill = self.runner.run(
                self.cli("campaign", "run", "../spec.json"), fill_dir,
                self.env_for("../cache"), tag="fill",
            )
            if fill.code != 0:
                raise CheckFailed(f"setup: cache fill exited {fill.code}\n{fill.stderr}")
        return statistics.median(times)

    def repeat(self, mode: str) -> None:
        index = len(self.repeats)
        rep = self.work / f"rep{index}"
        rep.mkdir()
        out = rep / "probe"
        out.mkdir()
        cache = "cache" if self.wl["cache"] == "cold" else "../cache"
        env = self.env_for(cache, out)
        run = self.runner.run(self.launch(mode, "campaign", "run", "../spec.json"), rep, env, tag="run")
        summary = parse_summary(run.stdout)
        if not summary:  # the run died before its summary: count one failure
            summary = {"total": 1, "ran": 0, "failed": 1}
        self.attempted += summary["total"]
        self.failed += summary["failed"]
        if run.code != 0 or summary["failed"] or summary["ran"] != summary["total"]:
            raise CheckFailed(
                f"failed_frac: campaign run exited {run.code} ({summary})\n{run.stderr[-2000:]}"
            )
        report = self.runner.run(self.launch(mode, "campaign", "report", "../spec.json"), rep, env, tag="report")
        if report.code != 0 or not report.stdout.startswith("# Campaign"):
            raise CheckFailed(f"report: campaign report exited {report.code}\n{report.stderr[-2000:]}")
        export = self.runner.run(self.cli("campaign", "export", "../spec.json", "--format", "json"), rep, env, tag="export")
        if export.code != 0:
            raise CheckFailed(f"export: campaign export exited {export.code}\n{export.stderr[-2000:]}")
        self.export_hashes.append(hashlib.sha256(export.stdout.encode()).hexdigest())
        if len(set(self.export_hashes)) != 1:
            raise CheckFailed(
                f"export_hash: repeat {index} exported different bytes "
                f"({self.export_hashes[0][:12]} vs {self.export_hashes[-1][:12]})"
            )
        run_s = shared_run_seconds(out / "simrun.log") if mode == "timer" else None
        nominal_kinstr = summary["total"] * self.spec["num_cores"][0] * self.spec["instructions"] / 1000
        result = {
            "dir": rep,
            "wall_s": run.nominal_seconds + report.nominal_seconds,
            "factor": run.factor,
            "peak_rss_mb": max(run.maxrss_kb, report.maxrss_kb) / 1024,
            "run_s": run_s,
            "sim_kips": nominal_kinstr / (run_s * run.factor) if run_s else None,
            "export": export.stdout,
        }
        self.repeats.append(result)

    def crosscheck(self, strict: bool) -> str:
        other = "python" if self.wl["backend"] == "fast" else "fast"
        args = [PY, str(HERE / "crosscheck.py"), "../spec.json", "campaign.sqlite",
                self.wl["backend"], other, str(self.args.seed)]
        if strict:
            args.append("--strict")
        rep = self.repeats[0]["dir"]
        env = self.env_for("cache")
        env["REPRO_CACHE"] = "0"
        check = self.runner.run(args, rep, env, tag="crosscheck")
        if check.code != 0:
            name = "strict_guard" if strict and "strict guard" in check.stdout else "crosscheck"
            raise CheckFailed(f"{name}: {check.stdout.strip()}\n{check.stderr[-2000:]}")
        return check.stdout.strip()

    def timed_loop(self, modes: list[str]) -> None:
        start = time.perf_counter()
        last = 0.0
        while True:
            for mode in modes:
                self.repeat(mode)
            elapsed = time.perf_counter() - start
            pairs = len(self.repeats) // len(modes)
            enough = pairs >= (1 if len(modes) > 1 else MIN_REPEATS)
            if enough and elapsed + (elapsed - last) > self.args.seconds:
                break
            last = elapsed

    # -- reporting ----------------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """Medians over the repeats."""
        timed = self.repeats
        return {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "sim_kips": statistics.median(r["sim_kips"] for r in timed),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }

    def extras(self) -> dict[str, float]:
        out = {"failed_frac": self.failed / max(1, self.attempted)}
        if self.args.workload == "table4":
            rows = [json.loads(line) for line in self.repeats[0]["export"].splitlines()[1:]]
            out["table4_err"] = table4_err(rows)
        return out


def shared_run_seconds(path: Path) -> float:
    """CPU seconds in ``System.run`` over shared (multi-core) runs."""
    total = 0.0
    if path.exists():
        for line in path.read_text().splitlines():
            cores, seconds = line.split()
            if int(cores) > 1:
                total += float(seconds)
    return total


# -- per-layer attribution -----------------------------------------------------
def read_spans(out: Path) -> tuple[list[dict], dict[str, float]]:
    spans: list[dict] = []
    counters: dict[str, float] = {}
    for path in sorted(out.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "counters" in record:
                for key, value in record["counters"].items():
                    counters[key] = counters.get(key, 0) + value
            else:
                spans.append(record)
    return spans, counters


def layer_of(filename: str, modules: dict[str, list[str]]) -> str:
    normalized = filename.replace(os.sep, "/")
    for layer, patterns in modules.items():
        if any(pattern in normalized for pattern in patterns):
            return layer
    return "other"


def fold_profiles(out: Path, modules: dict[str, list[str]]) -> dict[str, float]:
    """Profiler self time per layer; a builtin's self time goes to its
    callers' layers in proportion to the time each caller spent in it."""
    totals = {layer: 0.0 for layer in modules}
    totals["other"] = 0.0
    for path in sorted(out.glob("prof-*.bin")):
        with open(path, "rb") as fh:
            stats = marshal.load(fh)
        for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
            if filename != "~":
                totals[layer_of(filename, modules)] += tt
                continue
            caller_tt = sum(c[2] for c in callers.values())
            if not callers:
                totals["other"] += tt
                continue
            for (caller_file, _l, _n), c in callers.items():
                weight = c[2] / caller_tt if caller_tt > 0 else 1 / len(callers)
                owner = "other" if caller_file == "~" else layer_of(caller_file, modules)
                totals[owner] += tt * weight
    return totals


def stored_results(db: Path) -> list[dict]:
    with closing(sqlite3.connect(db)) as conn:
        return [json.loads(row[0]) for row in conn.execute(
            "SELECT result_json FROM jobs WHERE status = 'done'")]


def progress_wall(db: Path) -> float:
    with closing(sqlite3.connect(db)) as conn:
        return sum(row[0] or 0.0 for row in conn.execute(
            "SELECT wall_time_s FROM progress WHERE status = 'done'"))


def per_layer(bench: Bench, traced: dict, untraced: dict) -> tuple[dict[str, float], dict]:
    out = traced["dir"] / "probe"
    spans, counters = read_spans(out)
    modules = bench.design["layers"]["modules"]
    profile = fold_profiles(out, modules)
    profile_total = sum(profile.values())

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str, pred=lambda s: True) -> int:
        return sum(1 for s in spans if s["name"] == name and pred(s))

    results = stored_results(traced["dir"] / "campaign.sqlite")
    logical = sum(r["events_processed"] + r["events_elided"] for r in results)
    elided = sum(r["events_elided"] for r in results)
    run_s = untraced["run_s"]
    hits, misses = counters.get("diskcache.hits", 0), counters.get("diskcache.misses", 0)
    job_s = progress_wall(traced["dir"] / "campaign.sqlite")
    submitted = [s for s in spans if s["name"] == "pool.submit"]
    import_spans = [s for s in spans if s["name"] == "setup.import"]
    metrics = {
        "setup.import_s": statistics.median(s["end"] - s["start"] for s in import_spans),
        "workloads.generate_s": total("workloads.generate"),
        "workloads.generate_n": count("workloads.generate"),
        "traces.ingest_s": total("traces.ingest"),
        "traces.requests_n": sum(s.get("requests", 0) for s in spans if s["name"] == "traces.ingest"),
        "runner.alone_s": total("runner.alone"),
        # An alone baseline that was simulated, not read from a cache, is
        # the only 1-core System.run.
        "runner.alone_n": count("system.run", lambda s: s["cores"] == 1),
        "diskcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "system.build_s": total("system.build"),
        "system.run_s": run_s,
        "system.events_logical_n": logical,
        "system.elided_ratio": elided / logical if logical else 0.0,
        "system.ns_per_event": run_s / logical * 1e9 if logical else 0.0,
        "system.min_rebuilds_n": sum(r["min_rebuilds"] for r in results),
        "core.parbs.batches_n": sum(
            s.get("batches", 0) for s in spans if s["name"] == "system.run" and s.get("cores", 1) > 1
        ),
        "store.commit_s": total("store.commit"),
        "store.commit_n": count("store.commit"),
        "store.commit_retries_n": counters.get("store.commit_retries", 0),
        "queue.claim_s": total("queue.claim"),
        "queue.complete_s": total("queue.complete"),
        "serde.encode_s": total("serde.encode"),
        "serde.bytes": sum(s.get("bytes", 0) for s in spans if s["name"] == "serde.encode"),
        "pool.job_s": job_s,
        "pool.wait_s": max(0.0, sum(s["end"] - s["start"] for s in submitted) - job_s) if submitted else 0.0,
        "pool.respawns_n": counters.get("pool.respawns", 0),
        "pool.serial_fallbacks_n": counters.get("pool.serial_fallbacks", 0),
        "report.render_s": total("report.render"),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    for layer in modules:
        metrics[f"{layer}.self_s"] = profile[layer]
        metrics[f"{layer}.share"] = 100 * profile[layer] / profile_total if profile_total else 0.0
    artifact = {
        "workload": bench.args.workload,
        "seed": bench.args.seed,
        "spec": bench.spec,
        "spans": spans,
        "counters": counters,
        "profile_self_s": profile,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    return metrics, artifact


# -- entry point ----------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink the workload to toy size (self-test)")
    parser.add_argument("--fail-first-job", action="store_true",
                        help="inject a failing job (self-test of the failure check)")
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in load_design()["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    pin_to_one_cpu()
    bench = Bench(args)

    def on_signal(signum, _frame):
        bench.runner.kill_all()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    correct = True
    metrics: dict[str, float] = {}
    lines: list[str] = []
    try:
        setup_s = bench.setup()
        if args.trace:
            bench.timed_loop(["timer", "traced"])
            lines.append(bench.crosscheck(strict=True))
            pairs = list(zip(bench.repeats[0::2], bench.repeats[1::2]))
            layer_runs = [per_layer(bench, traced, untraced) for untraced, traced in pairs]
            metrics = {
                name: statistics.median(run[0][name] for run in layer_runs)
                for name in units
            }
            artifact = layer_runs[-1][1]
            artifact["metrics"] = metrics
            ARTIFACTS.mkdir(parents=True, exist_ok=True)
            path = ARTIFACTS / f"trace-{args.workload}-s{args.seed}.json"
            path.write_text(json.dumps(artifact, indent=1, default=str))
            lines.append(f"trace artifact: {path.relative_to(ROOT)}")
            lines.append(
                "trace overhead: "
                f"{metrics['trace.overhead_s']:.3f} s over an untraced wall_s of "
                f"{statistics.median(u['wall_s'] for u, _ in pairs):.3f} s"
            )
        else:
            bench.timed_loop(["timer"])
            lines.append(bench.crosscheck(strict=False))
            lines.append("host speed: median factor "
                         f"{statistics.median(r['factor'] for r in bench.repeats):.3f} (nominal / measured)")
            metrics = bench.end_to_end(setup_s)
        extras = bench.extras()
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        extras = {"failed_frac": bench.failed / max(1, bench.attempted)}
    finally:
        bench.runner.kill_all()
        shutil.rmtree(bench.work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {len(bench.repeats)} repeats, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {extras['failed_frac']:.6g} ratio")
    if "table4_err" in extras:
        print(f"table4_err = {extras['table4_err']:.12g} ratio")
    result = {
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

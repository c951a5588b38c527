"""Simulator-throughput microbenchmark (not a paper artifact).

Measures raw simulation speed — processed events per second and simulated
DRAM cycles per second — on a fixed 4-core workload (the paper's Case
Study I mix) so hot-path optimizations can be compared across commits.
Emits one JSON object so results are machine-diffable::

    PYTHONPATH=src python benchmarks/bench_simrate.py
    PYTHONPATH=src python benchmarks/bench_simrate.py --scheduler FR-FCFS \
        --instructions 50000
    PYTHONPATH=src python benchmarks/bench_simrate.py --backend fast
    PYTHONPATH=src python benchmarks/bench_simrate.py --backend fast --profile

``--backend`` selects the simulation backend (``python`` reference object
model or the ``fast`` flat-array kernel — bit-identical event trajectories,
so the deterministic event/cycle counts must agree).  ``--profile`` wraps
the measured run in :mod:`cProfile` and writes a cumtime-sorted report next
to the baseline JSON.

The committed throughput baseline lives in ``BENCH_simrate.json`` at the
repository root: per-scheduler events/sec and simulated cycles/sec for all
five policies, per backend, plus the fast-backend speedup gate
(``fast_gate``) and the same-run fast/python ratio floors
(``ratio_gate``).  Two maintenance modes operate on it::

    # refresh the baseline (run on the reference machine after perf work)
    PYTHONPATH=src python benchmarks/bench_simrate.py --update-baseline

    # regression gate: fail if any scheduler's events/sec drops more than
    # --tolerance (default 20%) below the committed baseline, the fast
    # backend falls under fast_gate (min_ratio x the frozen reference),
    # or the fast/python ratio measured in this run falls under ratio_gate
    PYTHONPATH=src python benchmarks/bench_simrate.py --check

Baselines are machine-specific; the check is meant to catch large
algorithmic regressions, hence the generous default tolerance.  The
``fast_gate`` reference numbers are different: they are the *frozen*
python-backend throughput of the commit that introduced the fast backend,
a ratchet that ``--update-baseline`` never rewrites — the fast backend
must stay ``min_ratio`` times faster than the simulator it replaced, not
merely faster than last week's build.  The ``ratio_gate`` floors test the
code rather than the machine: both backends run alternately in the one
process (best of ``--repeats``, at least 3), so a slow host slows both
sides of the ratio alike.  ``--backend`` restricts the absolute checks
only; the ratio gate always measures both backends.

Also runs under pytest (``pytest benchmarks/bench_simrate.py``) as a
smoke check that throughput is measurable and sane.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config import baseline_system
from repro.experiments.paper_values import SCHEDULERS
from repro.sim.factory import make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_simrate.json"

# Case Study I (Figure 5): one streaming thread, one high-BLP thread and
# two mid-intensity threads — exercises every scheduler code path.
WORKLOAD = ("libquantum", "mcf", "GemsFDTD", "xalancbmk")

# Fast-backend speedup ratchet.  ``reference`` is the python-backend
# events/sec of the pre-fast-backend build on the reference machine,
# frozen forever; the fast backend must sustain ``min_ratio`` times these
# numbers — per policy, since the policies stress different code paths
# (``min_ratio`` may also be a single number applied to every policy).
# Shared-path optimizations that also speed the python backend raise the
# rolling per-backend baselines above but never loosen this gate.
# Throughput is counted in *logical* events (processed + elided): the
# fast backend coalesces provably no-op bank wakes instead of dispatching
# them, and the logical count is what matches the reference trajectory.
FAST_GATE = {
    "reference": {
        "FR-FCFS": 128361.8,
        "FCFS": 131606.7,
        "NFQ": 117118.1,
        "STFM": 83539.8,
        "PAR-BS": 104806.4,
    },
    # Floors sit ~20% under the best-of-4 ratios measured on the
    # reference machine (FR-FCFS 3.7x, FCFS 3.5x, PAR-BS 3.6x, STFM 3.1x,
    # NFQ 2.9x) so CI noise cannot flake the gate; ratchet them upward as
    # the kernels improve.  The 10x roadmap target needs a compiled
    # arbitration core — see ROADMAP.md.
    "min_ratio": {
        "FR-FCFS": 3.0,
        "FCFS": 2.8,
        "NFQ": 2.3,
        "STFM": 2.4,
        "PAR-BS": 2.9,
    },
}


# Same-run fast/python ratio gate.  Unlike the absolute floors above,
# both backends are measured in this one process, alternating run by
# run, so a slow or contended machine slows both sides alike and the
# ratio tests the code rather than the host.  Floors sit ~20% under the
# median of three best-of-3 ratios measured on a 2-vCPU host at the
# commit before the gate (FR-FCFS 1.80x, FCFS 1.88x, NFQ 1.57x, STFM
# 1.66x, PAR-BS 1.59x); raise them as the fast kernel pulls ahead, never
# lower them to make a run pass.
RATIO_GATE = {
    "min_ratio": {
        "FR-FCFS": 1.44,
        "FCFS": 1.5,
        "NFQ": 1.26,
        "STFM": 1.33,
        "PAR-BS": 1.27,
    },
}


def measure(
    scheduler: str = "PAR-BS",
    instructions: int = 100_000,
    seed: int = 0,
    backend: str = "python",
    profile_path: Path | None = None,
) -> dict:
    """Run the fixed workload once and report throughput numbers.

    With ``profile_path``, the measured run executes under
    :mod:`cProfile` and a cumtime-sorted report is written there (the
    wall-clock numbers then include profiling overhead — use them to read
    *where* time goes, not how much).
    """
    config = baseline_system(len(WORKLOAD))
    # cache_dir=None: measure simulation speed, not cache hits.
    runner = ExperimentRunner(
        config, instructions=instructions, seed=seed, cache_dir=None
    )
    traces = [runner.trace_for(b) for b in WORKLOAD]
    system = System(
        config,
        make_scheduler(scheduler, len(WORKLOAD)),
        traces,
        repeat=True,
        backend=backend,
    )
    if profile_path is not None:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        sim_cycles = system.run()
        profiler.disable()
        wall = time.perf_counter() - start
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(40)
        stats.sort_stats("tottime").print_stats(25)
        profile_path.write_text(stream.getvalue())
    else:
        start = time.perf_counter()
        sim_cycles = system.run()
        wall = time.perf_counter() - start
    # Logical events: what the reference trajectory dispatches.  The fast
    # backend processes fewer (it elides provably no-op bank wakes), so
    # counting logical events keeps ``events`` backend-invariant and makes
    # events/sec measure simulation throughput, not dispatch-loop spin.
    events = system.events_logical
    return {
        "workload": list(WORKLOAD),
        "scheduler": scheduler,
        "backend": backend,
        "instructions_per_thread": instructions,
        "events": events,
        "events_processed": system.events_processed,
        "events_elided": system.events_elided,
        "sim_cycles": sim_cycles,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "sim_cycles_per_sec": sim_cycles / wall if wall > 0 else 0.0,
    }


def run_all(
    instructions: int = 100_000,
    seed: int = 0,
    repeats: int = 3,
    backend: str = "python",
) -> dict[str, dict]:
    """Best-of-``repeats`` measurement for every paper scheduler."""
    results: dict[str, dict] = {}
    for scheduler in SCHEDULERS:
        best: dict | None = None
        for _ in range(repeats):
            result = measure(scheduler, instructions, seed, backend)
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        results[scheduler] = best
    return results


def measure_ratios(
    instructions: int = 100_000,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, dict]:
    """Best-of-``repeats`` events/sec of both backends per policy, measured
    alternately (python, fast, python, fast, ...) in this process, with
    the fast/python ratio of the two bests."""
    results: dict[str, dict] = {}
    for scheduler in SCHEDULERS:
        best = {"python": 0.0, "fast": 0.0}
        for _ in range(repeats):
            for backend in best:
                rate = measure(scheduler, instructions, seed, backend)[
                    "events_per_sec"
                ]
                if rate > best[backend]:
                    best[backend] = rate
        best["ratio"] = best["fast"] / best["python"]
        results[scheduler] = best
    return results


def update_baseline(
    path: Path = BASELINE_PATH,
    instructions: int = 100_000,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Measure every scheduler on both backends and (re)write the committed
    baseline file.  ``fast_gate`` and ``ratio_gate`` are re-emitted
    verbatim from :data:`FAST_GATE` and :data:`RATIO_GATE` — the gates are
    code, not measurement.

    Every refresh also appends one entry to the baseline's ``history``
    array, so the committed file carries the throughput trend across
    refreshes, not just the latest numbers.  Entries are deliberately
    date-less (a wall-clock date would churn diffs and says nothing a
    ``git log`` of the file doesn't): each holds a monotone ``run``
    counter plus the per-policy events/sec of both backends.
    """
    history: list[dict] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = {}
        history = [
            entry
            for entry in previous.get("history", [])
            if isinstance(entry, dict) and "run" in entry
        ]
    next_run = max((entry["run"] for entry in history), default=0) + 1
    payload = {
        "workload": list(WORKLOAD),
        "instructions_per_thread": instructions,
        "seed": seed,
        "repeats": repeats,
        "backends": {},
        "fast_gate": FAST_GATE,
        "ratio_gate": RATIO_GATE,
    }
    history_entry: dict = {"run": next_run}
    for backend in ("python", "fast"):
        results = run_all(instructions, seed, repeats, backend)
        payload["backends"][backend] = {
            "schedulers": {
                name: {
                    "events": r["events"],
                    "sim_cycles": r["sim_cycles"],
                    "events_per_sec": round(r["events_per_sec"], 1),
                    "sim_cycles_per_sec": round(r["sim_cycles_per_sec"], 1),
                }
                for name, r in results.items()
            }
        }
        history_entry[backend] = {
            name: round(r["events_per_sec"], 1) for name, r in results.items()
        }
    history.append(history_entry)
    payload["history"] = history
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_baseline(
    path: Path = BASELINE_PATH,
    tolerance: float = 0.20,
    repeats: int = 3,
    backends: list[str] | None = None,
) -> int:
    """Regression gate against the committed baseline.

    Fails (non-zero return) if any scheduler's measured events/sec falls
    more than ``tolerance`` below its backend's baseline, or — when the
    fast backend is checked — if FR-FCFS/PAR-BS fast throughput falls
    under ``fast_gate`` (``min_ratio`` times the frozen pre-fast-backend
    reference), or if any policy's same-run fast/python ratio falls under
    its ``ratio_gate`` floor.  Simulated event and cycle counts are deterministic, so a
    drift there is reported too — it means behaviour changed and the
    baseline needs a refresh, not that the machine is slow.
    """
    baseline = json.loads(path.read_text())
    selected = backends if backends is not None else list(baseline["backends"])
    failures: list[str] = []
    measured: dict[str, dict[str, dict]] = {}
    for backend in selected:
        ref_schedulers = baseline["backends"][backend]["schedulers"]
        results = run_all(
            baseline["instructions_per_thread"], baseline["seed"], repeats, backend
        )
        measured[backend] = results
        for name, ref in ref_schedulers.items():
            got = results[name]
            floor = ref["events_per_sec"] * (1.0 - tolerance)
            status = "ok"
            if got["events_per_sec"] < floor:
                status = "REGRESSION"
                failures.append(
                    f"{backend}/{name}: {got['events_per_sec']:.0f} events/sec "
                    f"is below {floor:.0f} (baseline {ref['events_per_sec']:.0f} "
                    f"- {tolerance:.0%})"
                )
            print(
                f"{backend:6s} {name:8s} {got['events_per_sec']:>10.0f} "
                f"events/sec (baseline {ref['events_per_sec']:>10.0f})  {status}"
            )
            if got["events"] != ref["events"] or got["sim_cycles"] != ref["sim_cycles"]:
                print(
                    f"{backend:6s} {name:8s} note: simulated work changed "
                    f"(events {ref['events']} -> {got['events']}, cycles "
                    f"{ref['sim_cycles']} -> {got['sim_cycles']}); refresh the "
                    "baseline if intended"
                )
    gate = baseline.get("fast_gate")
    if gate and "fast" in measured:
        min_ratio = gate["min_ratio"]
        for name, reference in gate["reference"].items():
            # Per-policy ratios (dict) with a scalar fallback for older
            # baseline files.
            ratio = (
                min_ratio.get(name, 0.0)
                if isinstance(min_ratio, dict)
                else min_ratio
            )
            floor = reference * ratio
            got = measured["fast"][name]["events_per_sec"]
            status = "ok" if got >= floor else "GATE FAIL"
            print(
                f"gate   {name:8s} {got:>10.0f} events/sec "
                f"(needs {floor:>10.0f} = {ratio:g}x frozen {reference:.0f})  "
                f"{status}"
            )
            if got < floor:
                failures.append(
                    f"fast_gate/{name}: {got:.0f} events/sec is under the "
                    f"{ratio:g}x ratchet ({floor:.0f}, frozen python "
                    f"reference {reference:.0f})"
                )
    ratio_gate = baseline.get("ratio_gate")
    if ratio_gate:
        floors = ratio_gate["min_ratio"]
        ratios = measure_ratios(
            baseline["instructions_per_thread"], baseline["seed"], max(repeats, 3)
        )
        for name, floor in floors.items():
            got = ratios[name]
            status = "ok" if got["ratio"] >= floor else "RATIO FAIL"
            print(
                f"ratio  {name:8s} {got['ratio']:>10.2f}x fast/python "
                f"(fast {got['fast']:.0f}, python {got['python']:.0f} "
                f"events/sec; needs {floor:g}x)  {status}"
            )
            if got["ratio"] < floor:
                failures.append(
                    f"ratio_gate/{name}: fast/python {got['ratio']:.2f}x is "
                    f"under the same-run floor {floor:g}x"
                )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_simrate_smoke() -> None:
    """Throughput is measurable and the run did real work."""
    result = measure(instructions=30_000)
    print()
    print(json.dumps(result, indent=2))
    assert result["events"] > 10_000
    assert result["sim_cycles"] > 10_000
    assert result["events_per_sec"] > 0
    assert result["sim_cycles_per_sec"] > 0


def test_fast_backend_simrate_matches_python() -> None:
    """The fast backend does the same simulated work (bit-identical event
    trajectory), so its deterministic counters must equal the python run's."""
    reference = measure(instructions=30_000, backend="python")
    fast = measure(instructions=30_000, backend="fast")
    assert fast["events"] == reference["events"]
    assert fast["sim_cycles"] == reference["sim_cycles"]


def test_probe_overhead_within_gate() -> None:
    """The disabled observability layer must cost (almost) nothing.

    Every instrumentation site guards on a ``None`` probe, so with tracing
    off the simulation must do exactly the baseline's work (deterministic
    event/cycle counts unchanged) at a throughput inside the committed
    regression gate.  Best-of-3 to shake scheduler-noise out of the wall
    clock, same discipline as ``--check``.
    """
    baseline = json.loads(BASELINE_PATH.read_text())
    ref = baseline["backends"]["python"]["schedulers"]["PAR-BS"]
    instructions = baseline["instructions_per_thread"]
    best: dict | None = None
    for _ in range(3):
        result = measure("PAR-BS", instructions, baseline["seed"])
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    # Probes off ⇒ behaviour bit-identical to the committed baseline.
    assert best["events"] == ref["events"], (
        "event count drifted with tracing disabled — probes are not "
        "zero-overhead no-ops"
    )
    assert best["sim_cycles"] == ref["sim_cycles"]
    # And throughput stays inside the standard 20% regression gate.
    floor = ref["events_per_sec"] * 0.8
    assert best["events_per_sec"] >= floor, (
        f"{best['events_per_sec']:.0f} events/sec under tracing-disabled "
        f"floor {floor:.0f}"
    )


def test_metrics_probe_overhead_within_gate() -> None:
    """The metrics registry must be invisible to the simulation hot path.

    Metrics default *on*, so the committed baseline already includes
    whatever they cost — the enabled run must sit inside the standard
    20% regression gate.  Turning them off may change nothing but the
    probe: every site then holds exactly ``None`` (one ``is not None``
    test, zero added per-event branches), so the deterministic
    event/cycle counts must be bit-identical between the two runs and
    against the committed baseline.
    """
    import os

    from repro.obs.metrics import metrics_from_env, reset_metrics

    baseline = json.loads(BASELINE_PATH.read_text())
    ref = baseline["backends"]["python"]["schedulers"]["PAR-BS"]
    instructions = baseline["instructions_per_thread"]

    def best_of(repeats: int) -> dict:
        best: dict | None = None
        for _ in range(repeats):
            result = measure("PAR-BS", instructions, baseline["seed"])
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        return best

    saved = os.environ.pop("REPRO_METRICS", None)
    try:
        assert metrics_from_env() is not None  # default: on
        enabled = best_of(3)
        os.environ["REPRO_METRICS"] = "0"
        assert metrics_from_env() is None  # probe-or-None: exactly None
        disabled = best_of(3)
    finally:
        if saved is None:
            os.environ.pop("REPRO_METRICS", None)
        else:
            os.environ["REPRO_METRICS"] = saved
        reset_metrics()
    # Off is bit-identical to on, and both match the committed baseline.
    for key in ("events", "events_processed", "events_elided", "sim_cycles"):
        assert disabled[key] == enabled[key], (
            f"{key} drifted when metrics were disabled — a probe is doing "
            "work beyond the None check"
        )
    assert enabled["events"] == ref["events"]
    assert enabled["sim_cycles"] == ref["sim_cycles"]
    # Metrics-enabled throughput stays inside the standard 20% gate.
    floor = ref["events_per_sec"] * 0.8
    assert enabled["events_per_sec"] >= floor, (
        f"{enabled['events_per_sec']:.0f} events/sec under metrics-enabled "
        f"floor {floor:.0f}"
    )


def test_progress_hook_overhead_within_gate() -> None:
    """The work-queue heartbeat hook must be invisible to the hot path.

    Lease heartbeats ride the simulator's existing watchdog checkpoint:
    with no hook installed the added cost is one module-global ``None``
    test every ``_WATCHDOG_CHECK_EVENTS`` processed events, and with a
    hook installed the callback fires at that same checkpoint cadence —
    never per event.  Both runs must do bit-identical simulated work
    (the hook observes, it cannot steer) and stay inside the standard
    20% regression gate; a long enough run must actually fire the hook.
    """
    from repro.sim import pool
    from repro.sim.system import _WATCHDOG_CHECK_EVENTS

    baseline = json.loads(BASELINE_PATH.read_text())
    ref = baseline["backends"]["python"]["schedulers"]["PAR-BS"]
    instructions = baseline["instructions_per_thread"]

    def best_of(repeats: int) -> dict:
        best: dict | None = None
        for _ in range(repeats):
            result = measure("PAR-BS", instructions, baseline["seed"])
            if best is None or result["events_per_sec"] > best["events_per_sec"]:
                best = result
        return best

    unhooked = best_of(3)
    ticks: list[int] = []
    with pool.sim_progress(ticks.append):
        hooked = best_of(3)
    # Hooked and unhooked do identical simulated work, matching baseline.
    for key in ("events", "events_processed", "events_elided", "sim_cycles"):
        assert hooked[key] == unhooked[key], (
            f"{key} drifted with a progress hook installed — the hook is "
            "doing work beyond observing"
        )
    assert unhooked["events"] == ref["events"]
    assert unhooked["sim_cycles"] == ref["sim_cycles"]
    # The callback fires once per watchdog checkpoint, no more.
    assert len(ticks) == 3 * (hooked["events"] // _WATCHDOG_CHECK_EVENTS)
    # Hooked throughput stays inside the standard 20% gate.
    floor = ref["events_per_sec"] * 0.8
    assert hooked["events_per_sec"] >= floor, (
        f"{hooked['events_per_sec']:.0f} events/sec under progress-hook "
        f"floor {floor:.0f}"
    )
    # And a run past the checkpoint interval genuinely heartbeats.
    watchdog_instructions = _WATCHDOG_CHECK_EVENTS
    ticks.clear()
    with pool.sim_progress(ticks.append):
        long_run = measure("PAR-BS", watchdog_instructions, baseline["seed"])
    assert long_run["events"] >= _WATCHDOG_CHECK_EVENTS
    assert ticks, "progress hook never fired past the watchdog interval"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheduler", default="PAR-BS")
    parser.add_argument("--instructions", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument(
        "--backend",
        choices=("python", "fast"),
        default=None,
        help="simulation backend to measure (default: python; with --check, "
        "restricts the absolute gates to one backend instead of checking "
        "both; the ratio gate always runs both)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the measurement under cProfile and write a cumtime-sorted "
        "report next to the baseline JSON (single-measure mode only)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update-baseline",
        action="store_true",
        help="measure all schedulers on both backends and rewrite the "
        "committed baseline (fast_gate stays frozen)",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="fail if events/sec regresses past --tolerance vs the baseline, "
        "the fast backend falls under fast_gate, or the same-run "
        "fast/python ratio falls under ratio_gate",
    )
    args = parser.parse_args(argv)
    if args.profile and (args.update_baseline or args.check):
        parser.error("--profile applies to single-measure mode only")
    if args.update_baseline:
        payload = update_baseline(
            args.baseline, args.instructions, args.seed, args.repeats
        )
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    if args.check:
        backends = [args.backend] if args.backend is not None else None
        return check_baseline(args.baseline, args.tolerance, args.repeats, backends)
    backend = args.backend or "python"
    profile_path = None
    if args.profile:
        safe = args.scheduler.replace("/", "_")
        profile_path = args.baseline.with_name(
            f"BENCH_simrate.{safe}.{backend}.profile.txt"
        )
    result = measure(
        args.scheduler, args.instructions, args.seed, backend, profile_path
    )
    json.dump(result, sys.stdout, indent=2)
    print()
    if profile_path is not None:
        print(f"profile written to {profile_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

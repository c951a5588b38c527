"""Self-test of the campaign benchmark at toy size.

    python3 perfbench/selftest.py

Runs ``run.py --toy`` on every workload, untraced and traced, and checks
that

* every metric named in ``BENCHMARK.json`` is emitted with its unit for
  each workload, and every run reports ``correct``;
* the traced artifacts hold every span name the probes record;
* the per-layer self-time shares of a traced run sum to at most 100%;
* an injected failed job makes the benchmark exit non-zero and name the
  ``failed_frac`` check;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 1 after reporting every failed expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SPAN_NAMES = {
    "setup.import", "workloads.generate", "traces.ingest", "runner.alone",
    "system.build", "system.run", "queue.claim", "queue.complete",
    "serde.encode", "store.commit", "report.render", "pool.job", "pool.submit",
}
LAYERS = ("cpu.core", "dram.ctl", "dram.arb", "core.parbs", "events.loop")


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    spans: set[str] = set()
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(["--workload", workload, "--trace", str(trace), "--toy"])
            result = result_of(proc)
            if proc.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            print(f"ok: {label} ({result['attempted']} jobs)")
            emitted = result["metrics"]
            for metric in declared[kind]:
                got = emitted.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or without unit {metric['unit']}: {got}")
            if trace:
                shares = sum(emitted[f"{layer}.share"]["value"] for layer in LAYERS)
                if not 0 < shares <= 100 + 1e-9:
                    problems.append(f"{label}: layer shares sum to {shares}%")
                artifact = ROOT / ".perfbench_work" / "artifacts" / f"trace-{workload}-s{SEED}.json"
                spans |= {s["name"] for s in json.loads(artifact.read_text())["spans"]}
    if spans and not SPAN_NAMES <= spans:
        problems.append(f"traced artifacts lack spans {sorted(SPAN_NAMES - spans)}")

    proc = bench(["--workload", "table4", "--trace", "0", "--toy", "--fail-first-job"])
    if proc.returncode == 0 or "failed_frac" not in proc.stderr:
        problems.append(f"injected failure: exit {proc.returncode}, stderr {proc.stderr[-500:]!r}")
    else:
        print("ok: an injected failed job exits non-zero and names failed_frac")

    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(["--workload", "table4", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or result_of(proc) is not None:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
        else:
            print("ok: without the sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

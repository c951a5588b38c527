"""Re-run one stored campaign job and compare it with the stored result.

    python perfbench/crosscheck.py SPEC DB BACKEND OTHER INDEX [--strict]

Job ``INDEX`` (modulo the grid size) of the campaign ``SPEC`` is re-run
on the ``OTHER`` backend, with no disk cache, and compared with the
result the campaign stored in ``DB`` by
:func:`repro.sim.verify.compare_results`.  With ``--strict`` the job is
also re-run on ``BACKEND`` under the strict invariant guard
(``REPRO_GUARD=strict``) and compared the same way.  Exits 1 with the
reason on any mismatch or guard violation.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    spec_path, db, backend, other, index = argv[:5]
    strict = "--strict" in argv[5:]

    from repro.campaign import ResultStore, load_spec
    from repro.sim.runner import ExperimentRunner
    from repro.sim.verify import compare_results

    spec = load_spec(spec_path)
    grid = spec.expand()
    job = grid[int(index) % len(grid)]
    with ResultStore(db) as store:
        stored = store.result(job.key)
    if stored is None:
        print(f"crosscheck: job {job.key[:12]} has no stored result")
        return 1

    def rerun(on: str):
        runner = ExperimentRunner(
            job.config(),
            instructions=job.instructions,
            seed=job.seed,
            jobs=1,
            cache_dir=None,
            backend=on,
            trace_files=dict(job.trace_files),
            decoder=job.decoder,
        )
        return runner.run_workload(
            list(job.workload), job.scheduler, **job.kwargs_dict()
        )

    runs = [(other, "")]
    if strict:
        runs.append((backend, "strict"))
    for on, guard in runs:
        os.environ["REPRO_GUARD"] = guard or "off"
        try:
            compare_results(stored, rerun(on))
        except Exception as exc:  # BackendMismatch or InvariantViolation
            label = f"{on} backend" + (" under the strict guard" if guard else "")
            print(f"crosscheck: job {job.key[:12]} on the {label}: {exc}")
            return 1
    print(
        f"crosscheck ok: job {job.key[:12]} ({job.variant}, "
        f"{'+'.join(job.workload)}) on {', '.join(on for on, _ in runs)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

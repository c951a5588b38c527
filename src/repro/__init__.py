"""repro: a reproduction of *Parallelism-Aware Batch Scheduling* (PAR-BS).

Mutlu & Moscibroda, ISCA 2008 — a shared-DRAM scheduler that batches
requests for fairness/starvation-freedom and ranks threads within a batch
(shortest-job-first over per-bank loads) to preserve each thread's
bank-level parallelism.

Quick start::

    from repro import ExperimentRunner, CASE_STUDY_1

    runner = ExperimentRunner()
    results = runner.compare_schedulers(CASE_STUDY_1)
    for name, result in results.items():
        print(name, f"unfairness={result.unfairness:.2f}",
              f"wspeedup={result.weighted_speedup:.2f}")

Package layout:

* :mod:`repro.core` — the paper's contribution (PAR-BS, batching, ranking);
* :mod:`repro.schedulers` — FCFS, FR-FCFS, NFQ and STFM baselines;
* :mod:`repro.dram` — banks, buses, channels, the memory controller;
* :mod:`repro.cpu` / :mod:`repro.cache` — core model and cache hierarchy;
* :mod:`repro.workloads` — Table 3 profiles, trace generator, mixes;
* :mod:`repro.sim` / :mod:`repro.metrics` — runners and paper metrics;
* :mod:`repro.experiments` — drivers reproducing every table and figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first access, so importing one submodule (say
# ``repro.campaign.spec``) does not import the whole simulator.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("CoreConfig", "DramConfig", "SystemConfig", "baseline_system"),
        ".core": ("OPPORTUNISTIC", "ParBsScheduler"),
        ".metrics": ("WorkloadResult", "geomean", "unfairness"),
        ".schedulers": (
            "FcfsScheduler",
            "FrFcfsScheduler",
            "NfqScheduler",
            "StfmScheduler",
        ),
        ".sim": ("SCHEDULER_NAMES", "ExperimentRunner", "System", "make_scheduler"),
        ".workloads": (
            "CASE_STUDY_1",
            "CASE_STUDY_2",
            "CASE_STUDY_3",
            "EIGHT_CORE_MIX",
            "FIG8_SAMPLE_MIXES",
            "SIXTEEN_CORE_MIXES",
            "PROFILES",
            "generate_trace",
            "profile",
            "random_mixes",
        ),
    },
)
__all__.append("__version__")

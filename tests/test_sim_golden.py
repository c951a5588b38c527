"""Pin absolute simulation results from one commit to the next.

``test_fast_backend_bit_identical`` compares the two backends within one
run, so a change to a layer both backends share (the CPU core model, the
schedulers, the metrics) moves both sides in lockstep and passes it.  This
module closes that gap with literal digests: for every scheduler x {4, 8}
cores x seeds {0, 1} on ``tests/test_fastsim.py``'s workloads, on both
backends, the sha256 of every ``WorkloadResult`` field plus each core's
post-run state must equal the value recorded when the digests were
captured.

A change that alters simulated behaviour on purpose must regenerate the
table (``PYTHONPATH=src python -m tests.test_sim_golden`` prints it) and
say why in its change log; a performance change must leave it untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache

import pytest

from repro.config import baseline_system
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from tests.test_fastsim import INSTRUCTIONS, WORKLOADS

BACKENDS = ("python", "fast")

GOLDEN = {
    "FR-FCFS/4/0/python": "e2079702b3c6dceee4bbc056728f0962ba38b11194add68cdfa41faa54ea35f0",
    "FR-FCFS/4/0/fast": "084e29032f077419e33c9f88dde5071044cc0cae6604cc7659557f074da21783",
    "FR-FCFS/4/1/python": "583e5494d9b3469a689026bf6d401dc9d6d3a364b5e6263b9c89667ab082be52",
    "FR-FCFS/4/1/fast": "d84f5bef1f68e4ed1f745197c6d3bf8a4b0ba542a66c4c217bf61090190acba9",
    "FR-FCFS/8/0/python": "21544ffd9976fb504d166ab5f2123b316fcdf8e4bc52999bce30c8b34eb2f6ae",
    "FR-FCFS/8/0/fast": "e642f3cc2042cb126256e239724ad68ade7fac295209d0239a79deec1a6df392",
    "FR-FCFS/8/1/python": "0897c72ecc9a6260af05c9f7f2607359fc72afbd1b772618a1acf3f13795c96a",
    "FR-FCFS/8/1/fast": "d1159a612382299c3d7dfc67f1b94b7c3c762301edb3f75f2c16b4fb19f21205",
    "FCFS/4/0/python": "c366338378f94b024418c23f6cdbcd9736658020e3385a7af98225f12047b06b",
    "FCFS/4/0/fast": "51e86c5d0f407819681d963b701685954c2e8636da1a748773d2aa9809428f0c",
    "FCFS/4/1/python": "3a78c12c1da9f160f8745bb51db5e380d7c4879efb77ae2c510cf69cc3f4991f",
    "FCFS/4/1/fast": "f202968a2b77e5e3688a3b640acb2bf48d8401d2e0c45c5b93a8d247fb80ad5d",
    "FCFS/8/0/python": "38492a7f1106b758ae47731fe6795bf92b935d0602e6b93c740d65ebb924ff75",
    "FCFS/8/0/fast": "367ee369b89aa2f06b2529e0646a2f3217f75b360d0613766348a0483ff1d1b9",
    "FCFS/8/1/python": "d304fa3bcc78eeeb02864e058b6dae8096831843e33fa80c6c4fdce97a7288ce",
    "FCFS/8/1/fast": "adec6e450d4cb149050cd7b3d8aed5daa13456b23fd1b87fb32964537d8339de",
    "NFQ/4/0/python": "e7e92278e1aab595a41e2a293ad840578798271761996068506f1c91c41d7b20",
    "NFQ/4/0/fast": "3df81d670e9430d6e3c8cf2be41c192d4a730cce4377b74083c238f8759e2565",
    "NFQ/4/1/python": "2a1ff8b165a67c2bf575048fafee238e94f5424f50534df2037652801f736afc",
    "NFQ/4/1/fast": "85651c8e48f15c312efb338c2f8235f773077fa905b23d4dad3bacb2ad21da19",
    "NFQ/8/0/python": "afe8104acc175f87a8566d5810804ed9f7dd455e9e72477e59ca895b57556807",
    "NFQ/8/0/fast": "9764e6caeb165c95cd82df99aa1ccebde8820799be0bca93a9cb05a53ba357f7",
    "NFQ/8/1/python": "a35ed97aafaa65d98027f02c51b916f5b92a0c0bf38d35642bdfa40875dc3b8b",
    "NFQ/8/1/fast": "d561d7abb1f24ec2b3167e185ff74b6924fff0b6ed8c1afd78b073e1d9fa6c99",
    "STFM/4/0/python": "65eb198456f42ac97afcebc83206d91f230bac1168c24b220b2e21a164809c6b",
    "STFM/4/0/fast": "08e7e4eb03668b691873e26072553ac9d4d1e7fcdf56825bc2135d527e7e60da",
    "STFM/4/1/python": "b940bc68157d98f68fc55f74a37a2fe2a8bfaf4879ed386122fa9763c5955a9e",
    "STFM/4/1/fast": "47536a7dfb87fcdd3430c5e5a06707d501f83be401027c799ca12ad2a4f80f33",
    "STFM/8/0/python": "5c895c4eb90e8faf58d28c61c1cde5c37fa87589977ffa5b8173a50d9655d915",
    "STFM/8/0/fast": "385d166ee16d6b4cb51c91a14d2d6266e4be420beea4c6ae53e64b1645e2094e",
    "STFM/8/1/python": "92c514e2b83dfcddc6bc59ebfd8126dba16e81fae66aafec9ccaf0900132de30",
    "STFM/8/1/fast": "801ecbd1f670939ee81dd5000829786c81c0125e6f1745d281ac2e92295de21a",
    "PAR-BS/4/0/python": "15a740c0639f7c94d1b34da06ea71af704adbf13a107461ea7fc63de10172564",
    "PAR-BS/4/0/fast": "45c0c46ec18152fb5c246c2e8ed6fb511365e103ceb9d403b2ab31f45900af1a",
    "PAR-BS/4/1/python": "5c4a337f4de8e4a0864b17756b17710798556851c8553a7993cb34158eef9dfb",
    "PAR-BS/4/1/fast": "d03fd205c3b284ee33ad6fae6d73c06c2b8214b79622d44e96ea282b2f3d3646",
    "PAR-BS/8/0/python": "19967dd2483f59889e09a366fb497a1ee3de22990b63311b1de4c4bcc57b9387",
    "PAR-BS/8/0/fast": "7c1e6d86aff2ac9f0a8a9a00b4319b8c6b08a0e9ce1a66d57a95f0281d3da849",
    "PAR-BS/8/1/python": "53dda3c58e0f64374c16a30d5e98d96be014bba8deb9a01b0790e971411750ce",
    "PAR-BS/8/1/fast": "af976577c541b43af1f563dc2691d50ad75d54f3c76f242974d83eb7adba6cca",
}


@lru_cache(maxsize=None)
def _runner(cores: int, seed: int, backend: str) -> ExperimentRunner:
    # One runner per (cores, seed, backend): its alone baselines are shared
    # by the five schedulers' results.
    return ExperimentRunner(
        baseline_system(cores),
        instructions=INSTRUCTIONS,
        seed=seed,
        cache_dir=None,
        backend=backend,
    )


def run_case(scheduler: str, cores: int, seed: int, backend: str):
    """Run one shared workload; return ``(system, result)``."""
    runner = _runner(cores, seed, backend)
    workload = list(WORKLOADS[cores])
    system = System(
        runner.config,
        make_scheduler(scheduler, cores),
        [runner.trace_for(b) for b in workload],
        repeat=True,
        backend=backend,
    )
    cycles = system.run()
    result = runner._collect_result(system, workload, scheduler, cycles, None)
    return system, result


def digest(system: System, result) -> str:
    """sha256 over every result field and each core's post-run state."""
    payload = {
        "result": dataclasses.asdict(result),
        "cores": [
            [
                core.stall_cycles,
                core.instructions_retired,
                core.finish_time,
                core.loads_issued,
            ]
            for core in system.cores
        ],
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


CASES = [
    (scheduler, cores, seed, backend)
    for scheduler in SCHEDULER_NAMES
    for cores in (4, 8)
    for seed in (0, 1)
    for backend in BACKENDS
]


@pytest.mark.parametrize("scheduler,cores,seed,backend", CASES)
def test_results_match_golden(scheduler, cores, seed, backend):
    system, result = run_case(scheduler, cores, seed, backend)
    assert digest(system, result) == GOLDEN[f"{scheduler}/{cores}/{seed}/{backend}"]


if __name__ == "__main__":  # regenerate the table
    for case in CASES:
        scheduler, cores, seed, backend = case
        print(f'    "{scheduler}/{cores}/{seed}/{backend}": '
              f'"{digest(*run_case(*case))}",')

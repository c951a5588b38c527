"""The core integrates lazily; these tests pin that laziness to be exact.

Two properties make skipping re-integration on a data return safe (see
"When the core integrates" in :mod:`repro.cpu.core`):

- the advance loop is *split-invariant*: integrating straight from one
  time to another leaves the same state as stopping at any times in
  between, as long as no event touches the core there.  A seeded property
  test checks this over random traces (dependency-heavy, mixed reads and
  writes) and random core shapes, against a stub memory port that records
  every access;
- deferred returns really happen on the paper's workloads, the same
  number of them on both simulation backends, and ``Core.catch_up`` leaves
  post-run state identical to a run that integrates at every return (the
  traced run of ``test_obs.test_tracing_does_not_change_the_simulation``
  never defers).
"""

from __future__ import annotations

import random

import pytest

from repro.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceEntry
from repro.events import EventQueue
from repro.sim.factory import SCHEDULER_NAMES
from tests.test_sim_golden import run_case


class RecordingPort:
    """Stub memory port: records ``(now, event, address, is_write)`` per
    access and returns read data after a latency drawn, in access order,
    from a seeded generator (so two runs issuing the same accesses see the
    same latencies).  ``event`` is the sequence number of the event that
    issued the access, less ``seq_offset``: it tells an access sent from a
    data return apart from one sent by a wake in the same cycle."""

    def __init__(self, queue: EventQueue, seed: int, seq_offset: int) -> None:
        self.queue = queue
        self.rng = random.Random(seed)
        self.seq_offset = seq_offset
        self.accesses: list[tuple[int, int, int, bool]] = []

    def access(self, thread_id, address, is_write, on_complete):
        queue = self.queue
        self.accesses.append(
            (queue.now, queue.now_seq - self.seq_offset, address, is_write)
        )
        latency = self.rng.choice((1, 2, 5, 40, 200, 350))
        if on_complete is not None:
            self.queue.schedule_in(latency, on_complete, priority=2)


class FastRecordingPort(RecordingPort):
    """The same stub speaking the fast backend's closure-free protocol."""

    def fast_access(self, thread_id, address, is_write, fn, arg):
        self.access(thread_id, address, is_write, lambda: fn(arg))


def random_trace(rng: random.Random) -> Trace:
    entries = []
    for pos in range(rng.randrange(1, 60)):
        depends_on = None
        if pos and rng.random() < 0.5:
            depends_on = rng.randrange(max(0, pos - 8), pos)
        entries.append(
            TraceEntry(
                gap=rng.choice((0, 0, 1, 2, 7, 30, 120)),
                address=rng.randrange(1 << 20) * 64,
                is_write=rng.random() < 0.25,
                depends_on=depends_on,
            )
        )
    return Trace(entries)


class NullProbe:
    """A trace probe that drops its events; attaching one turns the
    deferred data-return path off."""

    def emit(self, *args, **fields) -> None:
        pass


def simulate(seed: int, port_cls, stops: list[int], horizon: int, probe=None):
    """Run one core to ``horizon``; each of ``stops`` is an extra event that
    integrates the core to that time and touches nothing else."""
    rng = random.Random(seed)
    trace = random_trace(rng)
    config = CoreConfig(
        window_size=rng.choice((1, 2, 4, 16, 128)),
        width=rng.choice((1, 2, 3, 4)),
        mshrs=rng.choice((1, 2, 3, 8, 32)),
    )
    queue = EventQueue()
    port = port_cls(queue, seed, seq_offset=len(stops))
    core = Core(
        0, trace, queue, port, config, repeat=rng.random() < 0.8, probe=probe
    )
    for when in stops:
        # Lowest priority: a stop runs after every other event of its
        # cycle, so no event touches the core between it and the next.
        # Scheduled first, the stops shift every other event's sequence
        # number by exactly ``len(stops)``.
        queue.schedule(when, lambda: core._advance(queue.now), priority=9)
    core.start()
    queue.run(until=horizon, max_events=1_000_000)
    core._advance(horizon)
    state = (
        core._t,
        core._retired,
        core._dispatched,
        core.stall_cycles,
        core._pass_count,
        core._trace_pos,
        core.loads_issued,
        core.stores_issued,
        core.mshr_in_use,
    )
    return state, port.accesses, core.deferred_returns


@pytest.mark.parametrize("port_cls", [RecordingPort, FastRecordingPort])
@pytest.mark.parametrize("seed", range(40))
def test_advance_is_split_invariant(seed, port_cls):
    horizon = 3_000
    straight, accesses, _ = simulate(seed, port_cls, [], horizon)
    stops = sorted(random.Random(~seed).sample(range(1, horizon), 60))
    split, split_accesses, _ = simulate(seed, port_cls, stops, horizon)
    assert split == straight
    assert split_accesses == accesses
    assert accesses  # every trace has at least one access
    # And deferring returns at all is invisible: with a probe attached the
    # core integrates at every return.
    eager, eager_accesses, none = simulate(
        seed, port_cls, [], horizon, probe=NullProbe()
    )
    assert none == 0
    assert eager == straight
    assert eager_accesses == accesses


def test_split_invariance_cases_exercise_the_deferred_path():
    deferred = [simulate(seed, RecordingPort, [], 3_000)[2] for seed in range(40)]
    assert sum(1 for d in deferred if d) >= 10


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cores", [4, 8])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_deferred_returns_equal_on_both_backends(scheduler, cores, seed):
    python, _ = run_case(scheduler, cores, seed, "python")
    fast, _ = run_case(scheduler, cores, seed, "fast")
    assert python.deferred_returns > 0
    assert fast.deferred_returns == python.deferred_returns
    assert python.deferred_returns == sum(c.deferred_returns for c in python.cores)

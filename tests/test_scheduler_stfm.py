"""Unit tests for the STFM (stall-time fair) scheduler."""

import pytest

from repro.config import DramConfig, baseline_system
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.events import EventQueue
from repro.schedulers.stfm import StfmScheduler
from repro.sim.system import System

from tests.test_fastsim import _traces


def setup_stfm(num_threads=4, **kwargs):
    queue = EventQueue()
    scheduler = StfmScheduler(num_threads, **kwargs)
    controller = MemoryController(queue, DramConfig(), scheduler, num_threads)
    return queue, controller, scheduler


def req(thread=0, bank=0, row=0, arrival=0):
    r = MemoryRequest(thread_id=thread, address=0, channel=0, bank=bank, row=row)
    r.arrival_time = arrival
    return r


def test_alpha_below_one_rejected():
    with pytest.raises(ValueError):
        StfmScheduler(4, alpha=0.9)


def test_initial_slowdowns_are_one():
    _, _, s = setup_stfm()
    assert s.slowdown(0) == pytest.approx(1.0)


def test_t_shared_accumulates_while_outstanding():
    _, _, s = setup_stfm()
    r = req(thread=0)
    s.on_enqueue(r, now=0)
    s.on_complete(r, now=100)
    assert s._t_shared[0] == pytest.approx(100.0)


def test_t_shared_not_accumulated_while_idle():
    _, _, s = setup_stfm()
    r1 = req(thread=0)
    s.on_enqueue(r1, now=0)
    s.on_complete(r1, now=100)
    r2 = req(thread=0)
    s.on_enqueue(r2, now=500)  # 400 idle cycles must not count
    s.on_complete(r2, now=600)
    assert s._t_shared[0] == pytest.approx(200.0)


def test_interference_raises_slowdown():
    _, _, s = setup_stfm()
    r = req(thread=0)
    s.on_enqueue(r, now=0)
    s._t_interference[0] = 50.0
    s.on_complete(r, now=100)
    assert s.slowdown(0) == pytest.approx(2.0)


def test_weight_scales_perceived_slowdown():
    _, _, s = setup_stfm(weights={0: 4.0})
    r = req(thread=0)
    s.on_enqueue(r, now=0)
    s._t_interference[0] = 50.0
    s.on_complete(r, now=100)
    assert s.slowdown(0) == pytest.approx(1.0 + 1.0 * 4.0)


def test_fair_mode_uses_frfcfs():
    queue, controller, s = setup_stfm()
    controller.channels[0].banks[0].open_row = 7
    hit = req(thread=0, row=7, arrival=9)
    old = req(thread=1, row=2, arrival=0)
    # No interference recorded: unfairness 1 <= alpha -> FR-FCFS rules.
    assert s.select([old, hit], (0, 0), now=10) is hit


def test_unfair_mode_prioritizes_slowest_thread():
    queue, controller, s = setup_stfm(alpha=1.1)
    controller.channels[0].banks[0].open_row = 7
    # Thread 1 is heavily slowed; thread 0 is not.
    for tid, interference in ((0, 0.0), (1, 900.0)):
        r = req(thread=tid)
        s.on_enqueue(r, now=0)
        s._t_interference[tid] = interference
        s.on_complete(r, now=1000)
    hit = req(thread=0, row=7, arrival=9)
    slow = req(thread=1, row=2, arrival=10)
    assert s.select([hit, slow], (0, 0), now=1100) is slow


def test_on_issue_charges_waiting_victims():
    queue, controller, s = setup_stfm()
    aggressor = req(thread=0, bank=0, row=1)
    controller.enqueue(aggressor)  # older: serviced first
    victim = req(thread=1, bank=0, row=2)
    controller.enqueue(victim)  # waits behind the aggressor's access
    queue.run()
    assert s._t_interference[1] > 0.0
    assert s._t_interference[0] == 0.0


def test_bank_parallelism_divides_interference():
    _, _, s = setup_stfm()
    # Thread 1 busy in 4 banks -> divisor 4.
    for bank in range(4):
        s.on_enqueue(req(thread=1, bank=bank), now=0)
    assert s._bank_parallelism(1) == 4


def test_interval_decay_halves_counters():
    _, _, s = setup_stfm(interval_length=1000)
    r = req(thread=0)
    s.on_enqueue(r, now=0)
    s._t_interference[0] = 80.0
    s.on_complete(r, now=100)
    shared_before = s._t_shared[0]
    late = req(thread=0)
    s.on_enqueue(late, now=2000)  # crosses the interval boundary
    assert s._t_shared[0] == pytest.approx(shared_before / 2)
    assert s._t_interference[0] == pytest.approx(40.0)


def test_end_to_end_completes_all():
    queue, controller, s = setup_stfm()
    done = []
    for i in range(16):
        r = req(thread=i % 4, bank=i % 8, row=i)
        r.on_complete = lambda _r: done.append(1)
        controller.enqueue(r)
    queue.run()
    assert len(done) == 16


class _CheckedStfm(StfmScheduler):
    """STFM that, at every read issue, compares the waiting-thread counts
    it keeps itself with the controller's view of the same bank."""

    def __init__(self, num_threads):
        super().__init__(num_threads)
        self.checked = 0

    def on_issue(self, request, now):
        super().on_issue(request, now)
        if request.is_read:
            key = (request.channel, request.bank)
            assert self._waiting[key] == dict(
                self.controller.buffered_read_threads(key)
            ), (now, key)
            self.checked += 1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cores", [4, 8])
@pytest.mark.parametrize("backend", ["python", "fast"])
def test_own_waiting_counts_match_controller(backend, cores, seed):
    """STFM charges interference to the threads it counts as waiting on
    the issuing bank; those counts must equal the controller's buffered
    reads per thread at every issue, on both backends."""
    scheduler = _CheckedStfm(cores)
    system = System(
        baseline_system(cores),
        scheduler,
        list(_traces(cores, seed)),
        repeat=True,
        backend=backend,
    )
    system.run()
    assert scheduler.checked > 1000

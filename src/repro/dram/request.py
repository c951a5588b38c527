"""Memory request objects flowing from cores to the DRAM controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

__all__ = ["RequestType", "MemoryRequest"]

_request_ids = itertools.count()


class RequestType(Enum):
    """Read requests block the issuing core's commit; writes drain lazily."""

    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class MemoryRequest:
    """A single DRAM request (one 64-byte cache line).

    Scheduler-owned fields (``marked``, ``rank``, ``priority_level``,
    ``virtual_finish``) live on the request so that every scheduling policy
    in the paper can be expressed as a sort key over the request buffer,
    mirroring the priority-register implementation of Section 6.  Slotted:
    requests are the most-allocated and most-accessed objects in the
    simulator, and every field is known up front.
    """

    thread_id: int
    address: int
    channel: int
    bank: int
    row: int
    type: RequestType = RequestType.READ
    arrival_time: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # Lifecycle timestamps, filled in by the controller.
    issue_time: int | None = None
    completion_time: int | None = None

    # Scheduler state.
    marked: bool = False
    priority_level: int = 1  # system-software thread priority (1 = highest)
    virtual_finish: float = 0.0  # NFQ virtual finish time

    # Completion callback (set by the core/cache that generated the request).
    on_complete: Callable[["MemoryRequest"], None] | None = None
    # Fast-backend calling convention: when set, the response event calls
    # ``on_complete(on_complete_arg)`` instead of ``on_complete(request)``,
    # letting cores pass a pre-bound (method, payload) pair with no closure.
    on_complete_arg: object | None = field(default=None, compare=False)

    # Position inside the controller's per-bank buffer (maintained by the
    # controller so issued requests can be removed by swap-pop in O(1)).
    buf_pos: int = field(default=-1, compare=False)

    # Filled by the controller at issue time with the bank's AccessOutcome;
    # lets schedulers (e.g. STFM) observe service durations.
    service_outcome: object | None = None

    # Derived once at construction: ``is_read`` is checked on every
    # controller hot path and ``type`` never changes after creation.
    is_read: bool = field(init=False, compare=False)

    # Packed arbitration key, stamped by the fast backend's read index
    # (:class:`~repro.dram.fastsched.FastBankSched`) when it indexes the
    # request and restamped when the scheduler's epoch moves on.  No
    # default, so the constructor never touches it.
    sort_key: object = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.is_read = self.type is RequestType.READ

    @property
    def latency(self) -> int:
        """Arrival-to-completion latency; valid only after completion."""
        if self.completion_time is None:
            raise ValueError("request has not completed")
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(id={self.request_id}, t{self.thread_id}, "
            f"{self.type.value}, ch{self.channel} b{self.bank} r{self.row}, "
            f"arr={self.arrival_time}, marked={self.marked})"
        )

"""Flat arbitration index for the fast backend.

:class:`FastBankSched` is the fast backend's replacement for
:class:`~repro.dram.rqindex.BankReadIndex`.  It keeps the same membership
state (row buckets, size) and the same duck-typed API
(``add``/``remove``/``push``/``ensure``/``peek``/``peek_row``/
``requests``/``thread_counts``/``heap_epoch``), so every reader of the
controller's request buffers — the batcher's marking walk, the guard's
conservation audit, scan-mode and verify-mode arbitration, custom
``select_indexed`` overrides — works against either structure unchanged.
It holds only what an arbitration decision reads:

* **Packed integer sort keys, on the request** — instead of per-request
  key *tuples* compared element-wise inside heaps, each policy encodes
  its priority as one integer (:meth:`Scheduler.pack_key
  <repro.schedulers.base.Scheduler.pack_key>`), stamped on the request's
  ``sort_key`` slot beside the scheduler fields it is built from.
  Because request ids are allocated at construction and requests are
  enqueued immediately, ``request_id`` order is ``(arrival_time,
  request_id)`` order, so the age component packs as the raw id in the
  low :data:`AGE_BITS` bits; policy fields (PAR-BS marked/priority/rank
  bits, STFM's boosted-thread bit, NFQ's IEEE-754 virtual-finish-time
  pattern) stack above it.  Comparing two packed keys is a single
  C-level int compare, and the prefix-comparison rule of
  ``select_indexed`` becomes a right-shift
  (:attr:`Scheduler.pack_prefix_shift`) instead of a tuple slice.

* **Cached minima instead of heaps** — per row bucket the index caches
  the request with the smallest key, and per bank the global minimum.
  ``select()`` is then an O(1) read of two cached requests (the open
  row's best and the bank best).  Inserts update the cached minima by
  comparison; removal is an exact swap-pop of the row bucket (no
  lazy-deletion churn) with an O(bucket) rebuild (:func:`min_key`) only
  when the removed request *was* a cached minimum.

* **Epoch-tagged lazy invalidation** — same protocol as the heaps: keys
  are valid for the scheduler epoch in ``heap_epoch``; a batch boundary
  or STFM fairness-mode flip bumps the scheduler's ``index_epoch`` and
  :meth:`ensure` restamps every buffered request on the bank's next
  arbitration, an O(bank-occupancy) repack with no heapify.  A push that
  finds the epoch stale stamps nothing and drops its row's cached
  minimum at once, so no removal can rebuild that row's minimum from an
  unstamped request before the repack.

Schedulers that define ``index_key`` but not ``pack_key`` still work:
the index stamps the tuple keys instead (minima and comparisons behave
identically; only the constant factor is worse).  Keys of either kind
end in the unique ``request_id``, so minima are strict.

Per-thread buffered-read counts are not maintained: STFM, the one policy
that reads them per issue, keeps its own, and :attr:`thread_counts`
derives them from the buckets for the guard and the stall report.

The age field reserves :data:`AGE_BITS` bits for the raw request id,
which overflows into the policy fields only after ``2**40`` requests in
one process — weeks of continuous simulation; far beyond any run this
repo performs.  ``tests/test_fastsched.py`` fuzzes this index against
``BankReadIndex`` op-for-op and pins the golden command streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..schedulers.base import Scheduler

__all__ = ["AGE_BITS", "FastBankSched", "min_key"]

# Low bits of every packed key: the raw (process-global, monotone)
# request id, which orders identically to (arrival_time, request_id).
AGE_BITS = 40


def min_key(requests) -> MemoryRequest | None:
    """The request with the smallest stamped ``sort_key`` (None if there
    is none).  A plain loop: ``min(requests, key=...)`` parses its keyword
    argument on every call, which costs more than scanning the few
    requests a bank buffers."""
    best = None
    for request in requests:
        key = request.sort_key
        if best is None or key < best_key:
            best = request
            best_key = key
    return best


class FastBankSched:
    """Buffered reads of one (channel, bank): row buckets plus cached
    minimum-key requests.

    Membership (``rows``/``size``) is always exact; the requests'
    ``sort_key`` stamps and the cached minima are valid for the scheduler
    epoch in ``heap_epoch`` (name kept for :class:`BankReadIndex`
    compatibility) and rebuilt on demand by :meth:`ensure`.
    ``row_best``/``best`` hold requests; ``peek_row``/``peek`` return
    ``(key, request)`` entries like the heap-backed index.
    """

    __slots__ = ("rows", "size", "row_best", "best", "heap_epoch", "min_rebuilds")

    def __init__(self) -> None:
        # row -> requests holding that row; removal is swap-pop via
        # ``request.buf_pos`` (same contract as BankReadIndex).
        self.rows: dict[int, list[MemoryRequest]] = {}
        self.size = 0
        # row -> minimum-key request of the bucket; bank-wide minimum.
        self.row_best: dict[int, MemoryRequest] = {}
        self.best: MemoryRequest | None = None
        self.heap_epoch = -1  # epoch the keys were stamped for
        # How often a removal evicted a cached bucket minimum and forced
        # an O(bucket) rebuild — the index's only non-O(1) removal path,
        # surfaced on WorkloadResult for the observability plane.
        self.min_rebuilds = 0

    @property
    def thread_counts(self) -> dict[int, int]:
        """Buffered reads per thread, derived from the buckets (a fresh
        dict per call; only the strict guard and stall reports read it)."""
        counts: dict[int, int] = {}
        for bucket in self.rows.values():
            for request in bucket:
                tid = request.thread_id
                counts[tid] = counts.get(tid, 0) + 1
        return counts

    # -- membership --------------------------------------------------------
    def add(self, request: MemoryRequest) -> None:
        """Insert ``request`` into its row bucket (minima unaffected; call
        :meth:`push` once the scheduler has stamped its priority fields)."""
        bucket = self.rows.get(request.row)
        if bucket is None:
            bucket = self.rows[request.row] = []
        request.buf_pos = len(bucket)
        bucket.append(request)
        self.size += 1

    def remove(self, request: MemoryRequest) -> None:
        """Swap-pop ``request`` out of its row bucket in O(1), rebuilding a
        cached minimum only if the removed request held it."""
        row = request.row
        rows = self.rows
        bucket = rows[row]
        pos = request.buf_pos
        last = bucket.pop()
        if last is not request:
            bucket[pos] = last
            last.buf_pos = pos
        request.buf_pos = -1
        self.size -= 1
        row_best = self.row_best
        if not bucket:
            del rows[row]
            row_best.pop(row, None)
        elif row_best.get(row) is request:
            self.min_rebuilds += 1
            row_best[row] = min_key(bucket)
        if self.best is request:
            self.best = min_key(row_best.values())

    def requests(self) -> Iterator[MemoryRequest]:
        """Iterate every buffered request (row buckets, arbitrary order)."""
        for bucket in self.rows.values():
            yield from bucket

    # -- key maintenance ---------------------------------------------------
    def push(self, request: MemoryRequest, scheduler: "Scheduler") -> None:
        """Stamp a newly buffered request's key under the scheduler's
        current epoch and bubble the cached minima.  If the keys are
        already stale, stamp nothing and drop the row's cached minimum —
        the next :meth:`ensure` rebuilds it from membership."""
        row = request.row
        if self.heap_epoch != scheduler.index_epoch:
            self.row_best.pop(row, None)
            return
        keyfn = scheduler.pack_key
        if keyfn is None:
            keyfn = scheduler.index_key
        k = request.sort_key = keyfn(request)
        rb = self.row_best.get(row)
        if rb is None or k < rb.sort_key:
            self.row_best[row] = request
            best = self.best
            if best is None or k < best.sort_key:
                self.best = request

    def ensure(self, scheduler: "Scheduler") -> None:
        """Restamp every buffered request if the scheduler's epoch moved on
        — one O(occupancy) pass that packs the keys and takes the minima,
        no heapify."""
        if self.heap_epoch == scheduler.index_epoch:
            return
        keyfn = scheduler.pack_key
        if keyfn is None:
            keyfn = scheduler.index_key
        row_best: dict[int, MemoryRequest] = {}
        best = None
        for row, bucket in self.rows.items():
            low = None
            for request in bucket:
                key = request.sort_key = keyfn(request)
                if low is None or key < low_key:
                    low = request
                    low_key = key
            row_best[row] = low
            if best is None or low_key < best_key:
                best = low
                best_key = low_key
        self.row_best = row_best
        self.best = best
        self.heap_epoch = scheduler.index_epoch

    # -- queries -----------------------------------------------------------
    def peek(self) -> tuple | None:
        """Minimum-key ``(key, request)`` over the whole bank, or None if
        empty."""
        best = self.best
        return None if best is None else (best.sort_key, best)

    def peek_row(self, row: int) -> tuple | None:
        """Minimum-key ``(key, request)`` among requests targeting
        ``row``."""
        best = self.row_best.get(row)
        return None if best is None else (best.sort_key, best)

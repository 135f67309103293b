"""Columnar uop streams: generate a trajectory once, replay it per cohort.

Workload sources have no pipeline feedback: ``build_pipeline`` guarantees a
thread's uop stream is a pure function of (workload, context id, seed,
machine, thermal time base).  The lock-step batch engine exploits that
purity twice over — lanes sharing a trajectory share one pipeline, and
*pipelines* sharing a trajectory (the root cohort and every cohort split
off it, or sibling trajectory groups that reuse a workload/seed pair)
share one **generated stream**.

:class:`SharedStream` wraps a scalar source and materializes its output as
packed static-field rows (plain tuples, in :data:`~repro.pipeline.uop.Uop`
constructor order) the first time any reader reaches that index.
:class:`StreamCursor` is a :class:`~repro.pipeline.source.UopSource` view
over a shared stream: it re-hydrates fresh :class:`Uop` objects per
pipeline (scheduling fields are mutable, so uops are never shared), forks
in O(1) at a cohort split, and registers itself so the stream can trim
rows every live reader has passed — memory stays proportional to the
*spread* between the slowest and fastest cohort, not to trajectory length.

The replay contract is byte-exact by construction: generation itself runs
the real scalar source (same RNG draws, same branch-predictor updates,
same executor steps, in the same order), and the pipeline only ever
observes a source through ``peek_pc``/``next_uop``, both of which the
cursor reproduces verbatim — including the peek-at-halt case, where the
scalar ``ProgramSource`` reports the halt instruction's pc from ``peek_pc``
*before* ``next_uop`` returns ``None`` (the core I-cache-accesses that pc;
dropping it would skew access counts).

:class:`StreamBank` is the registry of streams a process can reuse, keyed
by the full stream identity (:func:`stream_key`).  The batch kernel builds
one per call and trims behind its cohorts; the serial tier and each pool
worker keep one across the specs they run, so a spec whose stream another
spec of the same work list also needs replays rows instead of regenerating
them.
"""

from __future__ import annotations

from ..workloads.registry import make_source
from .uop import Uop

#: Rows generated per refill; amortizes the ensure() call overhead without
#: running far ahead of the slowest pipeline.
_CHUNK = 4096

#: Keep at least this many dead rows before compacting, so trims are O(1)
#: amortized instead of O(rows) per call.
_TRIM_SLACK = 8192

#: Rows a reusing bank retains between runs.  A row costs ~230 B (CPython
#: 3.11, x86-64), so this caps a process's retained streams near 140 MB —
#: room for the heat-stroke pair's two streams at the 4000x time scale.
#: Whole streams are evicted, least recently used first.
RETAINED_ROWS = 600_000


class SharedStream:
    """One workload trajectory, generated lazily and shared by cursors.

    ``rows[i - base]`` holds uop ``i``'s static fields as a tuple in
    ``Uop.__init__`` positional order (minus the thread id, which the
    cursor supplies).  ``halted_at`` is the stream length once the source
    halts; ``halt_peek_pc`` is what ``peek_pc`` reports at that index
    (-1, or the halt instruction's pc for program sources).
    """

    __slots__ = (
        "source",
        "rows",
        "pcs",
        "base",
        "halted_at",
        "halt_peek_pc",
        "cursors",
        "generated",
    )

    def __init__(self, source) -> None:
        self.source = source
        self.rows: list[tuple] = []
        #: peek_pc per row — generation records the *peeked* pc separately
        #: from ``uop.pc`` so replay cannot drift even if a source ever
        #: distinguished the two.
        self.pcs: list[int] = []
        self.base = 0
        self.halted_at: int | None = None
        self.halt_peek_pc = -1
        self.cursors: list[StreamCursor] = []
        self.generated = 0

    def ensure(self, index: int) -> None:
        """Generate rows until ``index`` exists or the source halts."""
        while self.halted_at is None and self.base + len(self.rows) <= index:
            self._generate(_CHUNK)

    def _generate(self, count: int) -> None:
        source = self.source
        peek_pc = source.peek_pc
        next_uop = source.next_uop
        rows_append = self.rows.append
        pcs_append = self.pcs.append
        for _ in range(count):
            pc = peek_pc()
            if pc < 0:
                self.halted_at = self.base + len(self.rows)
                self.halt_peek_pc = -1
                return
            uop = next_uop()
            if uop is None:
                # Program sources discover the halt one step late: peek
                # reported the halt instruction's pc, next refused it.
                self.halted_at = self.base + len(self.rows)
                self.halt_peek_pc = pc
                return
            rows_append(
                (
                    uop.pc,
                    uop.opclass,
                    uop.dest,
                    uop.srcs,
                    uop.address,
                    uop.taken,
                    uop.mispredict,
                )
            )
            pcs_append(pc)
            self.generated += 1

    def trim(self) -> None:
        """Drop rows every registered cursor has already consumed."""
        cursors = self.cursors
        if cursors:
            low = min(cursor.index for cursor in cursors)
        elif self.halted_at is not None:
            low = self.base + len(self.rows)
        else:
            return
        dead = low - self.base
        if dead >= _TRIM_SLACK or (dead > 0 and not cursors):
            del self.rows[:dead]
            del self.pcs[:dead]
            self.base = low


class StreamCursor:
    """A pipeline-facing view over a :class:`SharedStream`.

    Satisfies the :class:`~repro.pipeline.source.UopSource` protocol
    structurally (it is a Protocol, not a base class).

    Each pipeline (root cohort or split-off child) owns its cursors;
    ``fork`` hands a child cohort an O(1) continuation at the same stream
    position, replacing the deep copy of a live generator the scalar
    engine would otherwise pay for.
    """

    __slots__ = ("stream", "thread_id", "index", "halt_consumed")

    def __init__(
        self,
        stream: SharedStream,
        thread_id: int,
        index: int = 0,
        halt_consumed: bool = False,
    ):
        self.stream = stream
        self.thread_id = thread_id
        self.index = index
        #: a ProgramSource peeks the halt instruction's pc only until the
        #: refusing ``next_uop`` steps its executor; afterwards it peeks -1.
        #: The cursor mirrors that one-way edge per reader.
        self.halt_consumed = halt_consumed
        stream.cursors.append(self)

    def peek_pc(self) -> int:
        stream = self.stream
        index = self.index
        if stream.base + len(stream.rows) <= index:
            if stream.halted_at is None:
                stream.ensure(index)
        halted_at = stream.halted_at
        if halted_at is not None and index >= halted_at:
            return -1 if self.halt_consumed else stream.halt_peek_pc
        return stream.pcs[index - stream.base]

    def next_uop(self) -> Uop | None:
        stream = self.stream
        index = self.index
        if stream.base + len(stream.rows) <= index:
            if stream.halted_at is None:
                stream.ensure(index)
        halted_at = stream.halted_at
        if halted_at is not None and index >= halted_at:
            self.halt_consumed = True
            return None
        self.index = index + 1
        return Uop(self.thread_id, *stream.rows[index - stream.base])

    def prefill(self, hierarchy) -> None:
        """Warm the caches exactly as the wrapped scalar source would.

        Prefill only reads the source's static program/profile data, so
        delegating to the shared source is safe to repeat once per root
        pipeline; forked pipelines inherit warm caches and never re-call.
        """
        prefill = getattr(self.stream.source, "prefill", None)
        if prefill is not None:
            prefill(hierarchy)

    def fork(self) -> "StreamCursor":
        return StreamCursor(
            self.stream, self.thread_id, self.index, self.halt_consumed
        )

    def release(self) -> None:
        """Unregister from the stream so trimming can pass this position."""
        try:
            self.stream.cursors.remove(self)
        except ValueError:
            pass


def release_cursors(core) -> None:
    """Unregister a finished pipeline's cursors so streams can trim."""
    for thread in core.threads:
        release = getattr(thread.source, "release", None)
        if release is not None:
            release()


def stream_key(name: str, thread_id: int, config) -> tuple:
    """The full identity of one thread's uop stream under ``config``.

    ``build_pipeline`` guarantees a stream is a pure function of these
    inputs: workload, hardware context, seed, machine, and the thermal time
    base (``time_scale``/``frequency_hz``, which the malicious variants
    convert their burst lengths through).
    """
    thermal = config.thermal
    return (
        name,
        thread_id,
        config.seed,
        config.machine,
        thermal.time_scale,
        thermal.frequency_hz,
    )


class StreamBank:
    """Shared uop streams a process can reuse, keyed by :func:`stream_key`.

    Sources are built through the real scalar
    :func:`~repro.workloads.registry.make_source`, so generation replays
    the exact crc32-salted RNG streams and executor steps of a live run.

    Two ways to use a bank:

    * the lock-step batch kernel takes a :meth:`cursor` per root pipeline
      and trims behind finished cohorts (:meth:`trim`), within one call;
    * the serial tier and each pool worker keep one bank across the specs
      they run.  :meth:`source` hands out a cursor for the keys listed in
      ``reusable`` and a live source for every other, and :meth:`release`
      ends a run: it unregisters the run's cursors, counts the rows they
      replayed, and evicts whole streams, least recently used first, until
      at most :data:`RETAINED_ROWS` rows remain.  Such a bank never trims:
      a later spec may need a longer prefix, and generation resumes from
      the live source each stream still holds.

    A bank is confined to one thread at a time.  A run abandoned by a
    watchdog may still be writing to its bank, so callers replace the bank
    after any failed attempt.
    """

    def __init__(self, reusable: frozenset = frozenset()) -> None:
        #: stream keys this bank serves from shared streams via source()
        self.reusable = reusable
        #: insertion order is recency order: least recently used first
        self._streams: dict[tuple, SharedStream] = {}
        #: rows each open cursor could replay: the stream's length when
        #: the cursor was handed out
        self._open: dict[StreamCursor, int] = {}
        self._evicted_generated = 0
        self.rows_replayed = 0
        self._taken = (0, 0)

    def cursor(self, name: str, tid: int, config) -> StreamCursor:
        """A fresh cursor at position 0 of the ``(name, tid, config)`` stream."""
        key = stream_key(name, tid, config)
        stream = self._streams.pop(key, None)
        if stream is None:
            stream = SharedStream(
                make_source(
                    name, tid, config.machine, config.thermal, seed=config.seed
                )
            )
        self._streams[key] = stream
        return StreamCursor(stream, tid)

    def source(self, name: str, tid: int, config):
        """A cursor if the stream is reusable here, else a live source."""
        if stream_key(name, tid, config) not in self.reusable:
            return make_source(
                name, tid, config.machine, config.thermal, seed=config.seed
            )
        cursor = self.cursor(name, tid, config)
        stream = cursor.stream
        self._open[cursor] = stream.base + len(stream.rows)
        return cursor

    def release(self, core) -> None:
        """End ``core``'s run: free its cursors, book replays, evict."""
        for thread in core.threads:
            source = thread.source
            if isinstance(source, StreamCursor) and source in self._open:
                available = self._open.pop(source)
                self.rows_replayed += min(source.index, available)
        release_cursors(core)
        retained = self.rows_retained
        for key, stream in list(self._streams.items()):
            if retained <= RETAINED_ROWS:
                break
            if stream.cursors:
                continue
            retained -= len(stream.rows)
            self._evicted_generated += stream.generated
            del self._streams[key]

    def trim(self) -> None:
        """Compact every stream behind its slowest live cursor."""
        for stream in self._streams.values():
            stream.trim()

    def take_counts(self) -> tuple[int, int]:
        """``(rows generated, rows replayed)`` since the previous call."""
        now = (self.rows_generated, self.rows_replayed)
        delta = (now[0] - self._taken[0], now[1] - self._taken[1])
        self._taken = now
        return delta

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    @property
    def rows_generated(self) -> int:
        return self._evicted_generated + sum(
            stream.generated for stream in self._streams.values()
        )

    @property
    def rows_retained(self) -> int:
        return sum(len(stream.rows) for stream in self._streams.values())

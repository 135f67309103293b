"""The fused cycle loop: chunking-independence, conservation, and raises.

:meth:`SMTCore.run_cycles` keeps the clock, the window/LSQ occupancy and
the ready list in locals and writes them back when it returns.  These
property tests pin what that design must preserve:

* any chunking of the same cycles is one execution — ``run_cycles(a)`` then
  ``run_cycles(b)``, ``run_cycles(a + b)``, and ``a + b`` calls to
  ``step()`` leave byte-identical state;
* the occupancy bookkeeping is conserved after every call (the model has
  no wrong path, so every fetched uop is committed, in the ROB, or in the
  fetch queue);
* a source that raises mid-fetch leaves the core consistent at the cycle
  that raised.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import scaled_config
from repro.sim.simulator import build_pipeline

PAIRS = (
    ("gcc", "swim"),
    ("gzip", "variant2"),
    ("mcf", "eon"),
    ("variant1", "gzip"),
    ("art", "variant3"),
    ("gzip", "idle"),
)

#: every scalar ThreadContext field (counters, gates-as-flags, run state)
THREAD_FIELDS = (
    "icount",
    "sedated",
    "paused",
    "throttle_modulus",
    "fetch_blocked_until",
    "halted",
    "fetched",
    "committed",
    "mem_ops_in_flight",
    "last_fetch_line",
    "cycles_normal",
    "cycles_cooling",
    "cycles_sedated",
    "cycles_mem_blocked",
    "seq_counter",
)


def tiny_config(seed: int, **machine):
    config = scaled_config(time_scale=20_000.0, quantum_cycles=6_000, seed=seed)
    return dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, **machine)
    )


knobs = st.fixed_dictionaries(
    {
        "pair": st.sampled_from(PAIRS),
        "seed": st.integers(0, 2**16),
        "fetch_policy": st.sampled_from(("icount", "round_robin")),
        "ruu_partitioned": st.booleans(),
        "squash_on_l2_miss": st.booleans(),
        "throttle": st.tuples(st.integers(0, 1), st.integers(0, 5)),
        "sedated": st.sampled_from((None, 0, 1)),
        "paused": st.sampled_from((None, 0, 1)),
    }
)


def make_core(draw: dict):
    config = tiny_config(
        draw["seed"],
        fetch_policy=draw["fetch_policy"],
        ruu_partitioned=draw["ruu_partitioned"],
        squash_on_l2_miss=draw["squash_on_l2_miss"],
    )
    core = build_pipeline(config, list(draw["pair"]))
    tid, modulus = draw["throttle"]
    core.set_throttled(tid, modulus)
    if draw["sedated"] is not None:
        core.set_sedated(draw["sedated"], True)
    if draw["paused"] is not None:
        core.set_paused(draw["paused"], True)
    return core


def _seqs(uops) -> list[tuple[int, int]]:
    return [(uop.thread, uop.seq) for uop in uops]


def snapshot(core) -> tuple:
    """Everything observable about a core, as plain comparable values."""
    hierarchy = core.hierarchy
    return (
        core.cycle,
        core.window_used,
        core.lsq_used,
        core.perf_idle_skipped,
        [list(counts) for counts in core.access_counts],
        [
            (
                [getattr(thread, name) for name in THREAD_FIELDS],
                _seqs(thread.rob),
                [(ready, uop.seq) for ready, uop in thread.fetch_queue],
                None if thread.miss_block is None else thread.miss_block.seq,
                None
                if thread.mispredict_gate is None
                else thread.mispredict_gate.seq,
            )
            for thread in core.threads
        ],
        _seqs(core.ready),
        sorted((when, _seqs(uops)) for when, uops in core._wheel.items()),
        (
            hierarchy.icache_accesses,
            hierarchy.dcache_accesses,
            hierarchy.l2_accesses,
            [
                (cache.hits, cache.misses)
                for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
            ],
        ),
    )


def assert_conserved(core) -> None:
    """Occupancy bookkeeping matches the structures it counts."""
    threads = core.threads
    assert core.window_used == sum(len(thread.rob) for thread in threads)
    mem_in_robs = sum(uop.is_mem for thread in threads for uop in thread.rob)
    assert core.lsq_used == sum(t.mem_ops_in_flight for t in threads)
    assert core.lsq_used == mem_in_robs
    for thread in threads:
        in_flight = len(thread.rob) + len(thread.fetch_queue)
        assert thread.fetched == thread.committed + in_flight
        assert thread.icount == thread.fetched - thread.committed
    # The ready list is exactly the dispatched, unissued, dependence-free
    # uops, each once.
    live = [
        uop
        for thread in threads
        for uop in thread.rob
        if uop.in_window and uop.deps == 0 and not uop.issued
    ]
    assert sorted(map(id, core.ready)) == sorted(map(id, live))


@given(knobs, st.integers(0, 400), st.integers(1, 400))
@settings(max_examples=25, deadline=None)
def test_any_chunking_is_one_execution(draw, a, b):
    split, whole, stepped = (make_core(draw) for _ in range(3))
    split.run_cycles(a)
    assert_conserved(split)
    split.run_cycles(b)
    assert_conserved(split)
    whole.run_cycles(a + b)
    assert_conserved(whole)
    for _ in range(a + b):
        stepped.step()
        assert_conserved(stepped)
    assert snapshot(split) == snapshot(whole) == snapshot(stepped)
    assert whole.cycle == a + b


class RaisingSource:
    """A uop source that raises on its ``fail_at``-th ``next_uop`` call."""

    def __init__(self, inner, fail_at: int) -> None:
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    def peek_pc(self) -> int:
        return self.inner.peek_pc()

    def next_uop(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("source failed")
        return self.inner.next_uop()


@given(knobs, st.integers(1, 2000))
@settings(max_examples=20, deadline=None)
def test_state_survives_a_raise_mid_loop(draw, fail_at):
    # Thread 0 (never idle in PAIRS) is not sedated, paused or throttled
    # here, so it keeps fetching.
    draw = dict(draw, sedated=None, paused=None, throttle=(1, draw["throttle"][1]))
    failing, reference = make_core(draw), make_core(draw)
    failing.threads[0].source = RaisingSource(failing.threads[0].source, fail_at)
    counter = RaisingSource(reference.threads[0].source, fail_at=0)
    reference.threads[0].source = counter
    # Step the reference until thread 0 has made fail_at calls: the cycle
    # that makes the fail_at-th call is the one the failing core raises in.
    raise_cycle = None
    while raise_cycle is None and reference.cycle < 20_000:
        before = reference.cycle
        reference.step()
        if counter.calls >= fail_at:
            raise_cycle = before
    assume(raise_cycle is not None)
    with pytest.raises(RuntimeError, match="source failed"):
        failing.run_cycles(20_000)
    assert failing.cycle == raise_cycle
    assert_conserved(failing)

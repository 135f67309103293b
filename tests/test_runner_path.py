"""One runner path: run_many and durable campaigns share dispatch and publish.

Two things are pinned here:

* lanes of a durable campaign report the tier that really served them
  (``cache``/``batch``/``serial``/``pool``, with cohort tags on batch
  lanes), exactly as ``run_many`` lanes do;
* a table-driven chaos matrix crosses every
  :class:`~repro.faults.plan.WorkerFaultPlan` fault with every entry point
  — ``run_many`` serial, ``run_many`` on a 2-wide pool, and ``run_durable``
  followed by ``resume_campaign`` — and checks each cell's outcome: the
  canonical JSON of a direct simulation of the same spec, or the named
  :class:`~repro.sim.RunFailure` kind.
"""

from __future__ import annotations

import functools

import pytest

from repro.config import scaled_config
from repro.faults import FaultPlan, WorkerFaultPlan
from repro.sim import (
    RunFailure,
    RunSpec,
    derive_campaign_id,
    results_to_canonical_json,
    resume_campaign,
    run_durable,
    run_many,
    run_workloads,
    spec_fingerprint,
)
from repro.telemetry import EventType, TelemetrySession


def tiny_config(policy: str = "stop_and_go", **kwargs):
    kwargs.setdefault("time_scale", 20_000.0)
    kwargs.setdefault("quantum_cycles", 3_000)
    return scaled_config(**kwargs).with_policy(policy)


def lane_events(session: TelemetrySession) -> list:
    return [e for e in session.events() if e.type is EventType.LANE_COMPLETE]


class TestDurableLaneTiers:
    def test_durable_lanes_report_their_real_tier(self, tmp_path):
        config = tiny_config(time_scale=8_000.0, quantum_cycles=8_000, seed=71)
        specs = [  # one lock-step group: same trajectory, two policies
            RunSpec(("gzip", "variant2"), config.with_policy("sedation")),
            RunSpec(("gzip", "variant2"), config.with_policy("stop_and_go")),
        ]
        session = TelemetrySession()
        run_durable(specs, cache_dir=tmp_path, jobs=1, telemetry=session)
        lanes = lane_events(session)
        assert [e.data["source"] for e in lanes] == ["batch", "batch"]
        assert all("cohort" in e.data and "cohorts" in e.data for e in lanes)

        again = TelemetrySession()
        run_durable(specs, campaign_id="warm", cache_dir=tmp_path, jobs=1,
                    telemetry=again)
        assert [e.data["source"] for e in lane_events(again)] == [
            "cache", "cache"
        ]

    def test_resumed_lanes_keep_journal_and_report_tiers(self, tmp_path):
        specs = [
            RunSpec(("gcc", "swim"), tiny_config(seed=72)),
            RunSpec(
                ("gzip", "mcf"),
                tiny_config(seed=72).with_faults(
                    FaultPlan(seed=72, worker=WorkerFaultPlan(interrupt_attempts=1))
                ),
            ),
        ]
        first = TelemetrySession()
        partial = run_durable(
            specs, cache_dir=tmp_path, jobs=1, raise_on_error=False,
            telemetry=first,
        )
        assert [getattr(r, "kind", "ok") for r in partial] == ["ok", "interrupted"]
        assert [e.data["source"] for e in lane_events(first)] == [
            "serial", "drained"
        ]
        session = TelemetrySession()
        campaign = derive_campaign_id([spec_fingerprint(s) for s in specs])
        resume_campaign(campaign, cache_dir=tmp_path, jobs=1, telemetry=session)
        assert [e.data["source"] for e in lane_events(session)] == [
            "journal", "serial"
        ]


# -- the chaos matrix ---------------------------------------------------------

#: Wall seconds per attempt in the hang row; a healthy tiny run takes ~0.2 s.
TIMEOUT_S = 1.5

#: fault row -> (WorkerFaultPlan fields, retries, timeout, expected kind of
#: the faulted spec per entry point; "ok" means byte-identical to a direct
#: simulation of the same spec).
FAULTS = {
    "fail": (
        {"fail_attempts": 1}, 1, None,
        {"serial": "ok", "pool": "ok", "durable": "ok"},
    ),
    "hang": (
        {"hang_attempts": 1, "hang_seconds": 2 * TIMEOUT_S}, 0, TIMEOUT_S,
        {"serial": "timeout", "pool": "timeout", "durable": "timeout"},
    ),
    "crash": (
        {"crash_attempts": 1}, 0, None,
        {"serial": "error", "pool": "error", "durable": "error"},
    ),
    "interrupt": (
        {"interrupt_attempts": 1}, 0, None,
        {"serial": "interrupted", "pool": "interrupted", "durable": "ok"},
    ),
}

ENTRIES = ("serial", "pool", "durable")


def run_entry(entry: str, specs, tmp_path, retries: int, timeout):
    """Drive ``specs`` through one entry point; partial results, never raises."""
    if entry != "durable":
        return run_many(
            specs, jobs=1 if entry == "serial" else 2, cache_dir=tmp_path,
            retries=retries, timeout=timeout, raise_on_error=False,
        )
    run_durable(
        specs, cache_dir=tmp_path, jobs=1, retries=retries, timeout=timeout,
        raise_on_error=False,
    )
    campaign = derive_campaign_id([spec_fingerprint(s) for s in specs])
    return resume_campaign(
        campaign, cache_dir=tmp_path, jobs=1, raise_on_error=False
    )


@functools.cache
def canonical(spec: RunSpec) -> str:
    """A direct simulation of ``spec``, past every runner tier and chaos hook."""
    result = run_workloads(
        spec.config, list(spec.workloads), quantum_cycles=spec.quantum_cycles
    )
    return results_to_canonical_json([result])


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_chaos_matrix(fault, entry, tmp_path):
    fields, retries, timeout, expected = FAULTS[fault]
    # A fault seed per cell keeps every cell's fingerprint distinct: the
    # interrupt hook fires once per process per fingerprint, and no cell
    # may see another's cache or journal.
    cell = 100 + 10 * sorted(FAULTS).index(fault) + ENTRIES.index(entry)
    healthy = RunSpec(("gcc", "swim"), tiny_config())
    faulted = RunSpec(
        ("gzip", "mcf"),
        tiny_config().with_faults(
            FaultPlan(seed=cell, worker=WorkerFaultPlan(**fields))
        ),
    )
    # The healthy spec goes first, so every entry point finishes it before
    # the faulted one can interrupt the batch.
    results = run_entry(entry, [healthy, faulted], tmp_path, retries, timeout)

    assert results_to_canonical_json(results[:1]) == canonical(healthy)
    want = expected[entry]
    if want == "ok":
        assert results_to_canonical_json(results[1:]) == canonical(faulted)
    else:
        assert isinstance(results[1], RunFailure)
        assert results[1].kind == want

"""Shared µop streams across the specs one process runs.

The serial tier and each pool worker keep one
:class:`~repro.pipeline.banks.StreamBank` and build every spec whose stream
key another spec of the same work list also needs on the bank's cursors.
The contract is the batch kernel's: a replayed run is byte-identical to a
one-shot run on live sources, whatever prefix of the stream an earlier run
left behind.
"""

from __future__ import annotations

import threading

import pytest

import repro.pipeline.banks as banks
from repro.config import scaled_config
from repro.faults import FaultPlan, SensorFaultPlan, WorkerFaultPlan
from repro.pipeline.banks import StreamBank, stream_key
from repro.sim import RunResult, RunSpec, run_durable, run_many
from repro.sim import parallel
from repro.sim.durable import results_to_canonical_json
from repro.sim.parallel import RUNNER_METRICS, _repeated_stream_keys
from repro.sim.simulator import run_workloads
from repro.telemetry import TelemetrySession, stream_narrative
from repro.workloads import intermittent_plan
from repro.workloads.registry import workload_names

SHORT, LONG = 400, 2_000


def tiny_config(policy: str = "stop_and_go", **kwargs):
    kwargs.setdefault("time_scale", 20_000.0)
    kwargs.setdefault("quantum_cycles", 3_000)
    return scaled_config(**kwargs).with_policy(policy)


def canonical(result) -> str:
    return results_to_canonical_json([result])


def bank_for(specs) -> StreamBank:
    """A bank serving every stream of ``specs`` from shared streams."""
    return StreamBank(
        frozenset(
            stream_key(name, tid, config)
            for workloads, config in specs
            for tid, name in enumerate(workloads)
        )
    )


def counter(name: str) -> int:
    return RUNNER_METRICS.counters.get(name, 0)


class TestReplayIdentity:
    @pytest.mark.parametrize("name", workload_names() + ["idle"])
    def test_prefix_lengths_in_either_order(self, name, monkeypatch):
        # Small refills make the short run leave a prefix the long run
        # must extend for every workload, low-IPC ones included; chunking
        # is not part of the contract, so results may not change.
        monkeypatch.setattr(banks, "_CHUNK", 64)
        config = tiny_config()
        workloads = [name, "idle"]  # thread 1 exercises the halt-peek edge
        one_shot = {
            quantum: canonical(
                run_workloads(config, workloads, quantum_cycles=quantum)
            )
            for quantum in (SHORT, LONG)
        }

        bank = bank_for([(workloads, config)])
        short = run_workloads(config, workloads, quantum_cycles=SHORT, bank=bank)
        generated, _ = bank.take_counts()
        longer = run_workloads(config, workloads, quantum_cycles=LONG, bank=bank)
        resumed, replayed = bank.take_counts()
        assert canonical(short) == one_shot[SHORT]
        assert canonical(longer) == one_shot[LONG]
        if name != "idle":  # idle halts at once: nothing to generate
            assert resumed > 0 and replayed > 0

        bank = bank_for([(workloads, config)])
        longer = run_workloads(config, workloads, quantum_cycles=LONG, bank=bank)
        bank.take_counts()
        short = run_workloads(config, workloads, quantum_cycles=SHORT, bank=bank)
        assert bank.take_counts()[0] == 0  # a pure prefix replay
        assert canonical(longer) == one_shot[LONG]
        assert canonical(short) == one_shot[SHORT]

    def test_time_base_separates_variant_streams(self):
        # variant2 sizes its bursts through the thermal time base: the old
        # (name, tid, seed) key would hand both configs one stream.
        fast = tiny_config(time_scale=20_000.0)
        slow = tiny_config(time_scale=10_000.0, quantum_cycles=3_000)
        workloads = ["gzip", "variant2"]
        assert fast.seed == slow.seed
        assert stream_key("variant2", 1, fast) != stream_key("variant2", 1, slow)
        bank = bank_for([(workloads, fast), (workloads, slow)])
        results = [
            run_workloads(config, workloads, bank=bank) for config in (fast, slow)
        ]
        assert bank.stream_count == 4
        for config, result in zip((fast, slow), results, strict=True):
            assert canonical(result) == canonical(run_workloads(config, workloads))


class TestBudget:
    def test_retained_rows_stay_within_budget_evicting_lru(self, monkeypatch):
        # Stream lengths at this size with 512-row refills: gcc 512,
        # swim 2048, gzip 1536 (idle generates none).
        monkeypatch.setattr(banks, "_CHUNK", 512)
        monkeypatch.setattr(banks, "RETAINED_ROWS", 2_560)
        config = tiny_config(quantum_cycles=600)
        order = ["gcc", "swim", "gcc", "gzip"]
        bank = bank_for([([name, "idle"], config) for name in order])
        for name in order:
            run_workloads(config, [name, "idle"], bank=bank)
            assert bank.rows_retained <= banks.RETAINED_ROWS
        # gcc was used after swim, so swim is the one evicted for gzip
        assert list(bank._streams) == [
            stream_key("gcc", 0, config),
            stream_key("gzip", 0, config),
            stream_key("idle", 1, config),
        ]

    def test_run_releases_its_cursors(self):
        config = tiny_config()
        workloads = ["gcc", "swim"]
        bank = bank_for([(workloads, config)])
        for _ in range(3):
            run_workloads(config, workloads, bank=bank)
        assert bank.stream_count == 2
        assert all(not stream.cursors for stream in bank._streams.values())


class TestTierRouting:
    def test_only_repeated_keys_are_reusable(self):
        config = tiny_config()
        work = [
            ("a", RunSpec(("gzip", "variant2"), config)),
            ("b", RunSpec(("gzip", "variant2"), config.with_policy("sedation"))),
            ("c", RunSpec(("gzip", "idle"), config)),
        ]
        assert _repeated_stream_keys(work) == {
            stream_key("gzip", 0, config),
            stream_key("variant2", 1, config),
        }
        assert _repeated_stream_keys(work[2:]) == frozenset()

    def test_one_shot_specs_book_no_stream_rows(self):
        config = tiny_config()
        specs = [RunSpec(("gcc", "swim"), config), RunSpec(("gzip", "mcf"), config)]
        before = counter("runner.stream_rows_generated")
        run_many(specs, jobs=1, cache=False, batch=False)
        assert counter("runner.stream_rows_generated") == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reuse_is_booked_in_the_parent(self, jobs):
        config = tiny_config()
        specs = [
            RunSpec(("gzip", "variant2"), config.with_policy(policy))
            for policy in ("stop_and_go", "sedation", "dvfs", "ideal")
        ]
        generated = counter("runner.stream_rows_generated")
        replayed = counter("runner.stream_rows_replayed")
        results = run_many(specs, jobs=jobs, cache=False, batch=False)
        # Four specs on at most two workers: some process runs two of them.
        assert counter("runner.stream_rows_generated") > generated
        assert counter("runner.stream_rows_replayed") > replayed
        for spec, result in zip(specs, results, strict=True):
            assert canonical(result) == canonical(
                run_workloads(spec.config, list(spec.workloads))
            )

    def test_narrative_reports_the_reuse_ratio(self):
        assert stream_narrative({}) == []
        assert stream_narrative(
            {
                "runner.stream_rows_generated": 100,
                "runner.stream_rows_replayed": 300,
            }
        ) == ["75% of shared-stream rows replayed (300 replayed, 100 generated)"]


class TestWatchdogRace:
    def test_abandoned_attempt_cannot_touch_the_retry_bank(self, monkeypatch):
        # The hung first attempt wakes after its watchdog gave up and runs
        # its whole simulation while the retry and the next specs replay
        # the same streams.  It must write to a bank nobody else reads.
        calls: list[tuple[str, int, StreamBank, threading.Thread]] = []
        execute_attempt = parallel._execute_attempt

        def recording(spec, attempt, bank=None):
            calls.append(
                (spec.config.dtm_policy, attempt, bank, threading.current_thread())
            )
            return execute_attempt(spec, attempt, bank)

        monkeypatch.setattr(parallel, "_execute_attempt", recording)
        config = tiny_config("sedation", quantum_cycles=6_000)
        hung = config.with_faults(
            FaultPlan(worker=WorkerFaultPlan(hang_attempts=1, hang_seconds=3.1))
        )
        specs = [
            RunSpec(("gzip", "variant2"), hung),
            RunSpec(("gzip", "variant2"), config.with_policy("stop_and_go")),
            RunSpec(("gzip", "variant2"), config.with_policy("dvfs")),
        ]
        timeouts = counter("runner.attempt_timeout")
        faulted = run_many(
            specs, jobs=1, cache=False, batch=False, timeout=3.0, retries=1
        )
        for *_, thread in calls:
            thread.join(30.0)  # let the orphan finish before comparing
        assert counter("runner.attempt_timeout") == timeouts + 1
        (orphan, *rest) = calls
        assert orphan[:2] == ("sedation", 0)
        assert [(policy, attempt) for policy, attempt, *_ in rest] == [
            ("sedation", 1), ("stop_and_go", 0), ("dvfs", 0),
        ]
        assert all(bank is rest[0][2] for _, _, bank, _ in rest)
        assert orphan[2] is not rest[0][2]
        clean = [
            run_workloads(
                config.with_policy(spec.config.dtm_policy), ["gzip", "variant2"]
            )
            for spec in specs
        ]
        assert results_to_canonical_json(faulted) == results_to_canonical_json(clean)


class TestFaultGridTiers:
    def test_durable_pool_serial_and_one_shot_agree(self, tmp_path):
        sedation = tiny_config("sedation")
        specs = []
        for intermittent in (False, True):
            for rate in (0.0, 0.3):
                plan = FaultPlan(
                    seed=7,
                    sensor=SensorFaultPlan(mode="dropout", rate=rate) if rate else None,
                    attacker=(
                        intermittent_plan(sedation.thermal) if intermittent else None
                    ),
                )
                config = sedation.with_faults(
                    plan if plan.any_runtime_faults else None
                )
                specs.append(RunSpec(("gzip", "variant2"), config, telemetry=True))
        durable = run_durable(specs, cache_dir=tmp_path / "durable", jobs=2)
        serial = run_many(specs, jobs=1, cache=False)
        one_shot = [
            run_workloads(
                spec.config, list(spec.workloads), telemetry=TelemetrySession()
            )
            for spec in specs
        ]
        assert all(isinstance(result, RunResult) for result in durable)
        expected = results_to_canonical_json(one_shot)
        assert results_to_canonical_json(durable) == expected
        assert results_to_canonical_json(serial) == expected

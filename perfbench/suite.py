"""The benchmark's workloads: generated specs, a cold pass and a warm pass.

Every workload is a closed loop: the benchmark process issues its next call
only after the last one returns.  Inputs are a pure function of the benchmark seed.
The seed picks the simulation seed of the seed-dependent specs and the
fault-injection seed of the fault grid.  The seed-independent specs run at
the repo's canonical simulation seed and have pinned digests
(:mod:`check`).  gzip+variant2 under sedation is one of them and is in all
three workloads.

* ``scalar_attack`` — Fig. 5's gzip row (solo, variant2 under stop-and-go,
  variant2 under sedation) plus the quiet gcc+swim pair, one
  ``run_workloads`` call each: sharing factor 1, no runner, no cache.  The
  warm pass re-issues the sedation run; the scalar path keeps no result
  cache, so it simulates again.
* ``policy_sweep`` — two §5.7 quiet pairs and the heat-stroke pair across
  all six DTM policies through ``ExperimentRunner.pair_many``, plus gzip's
  solo baseline, cold on an empty result cache.  The warm pass replays the
  same calls from fresh runners on the same cache directory.
* ``fault_campaign`` — gzip+variant2 under sedation × sensor dropout
  {0, 10%, 30%} × continuous/intermittent attacker, plus gzip solo and
  gzip+variant2 under stop-and-go as the grid's references, every spec
  with telemetry on, through ``run_durable`` on a pool no wider than
  ``nproc``.  The warm pass runs the same specs as a new campaign on the
  same cache directory.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from repro.config import scaled_config
from repro.faults import FaultPlan, SensorFaultPlan
from repro.sim import ExperimentRunner, RunSpec, run_durable, run_workloads
from repro.sim.simulator import build_pipeline
from repro.workloads import intermittent_plan

#: Benchmark size: thermal time compressed 4000×, which makes the OS
#: quantum 125k cycles.  Each run is one quantum from reset.
TIME_SCALE = 4000.0
#: The repo's default simulation seed; seed-independent specs use it.
CANONICAL_SEED = 42
POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")
QUIET_PAIRS = (("gcc", "swim"), ("gzip", "mcf"))
ATTACK = ("gzip", "variant2")
SOLO = ("gzip", "idle")
DROPOUT_RATES = (0.0, 0.1, 0.3)
#: Fig. 5 of the paper: variant2 under stop-and-go cuts SPEC IPC by 88.2 %
#: on average against the solo run.
PAPER_V2_STOP_AND_GO_LOSS_PCT = 88.2


@dataclass(frozen=True)
class Item:
    """One spec of a workload; ``pin`` names its digest in ``check.PINNED``."""

    label: str
    spec: RunSpec
    pin: str | None = None


def derive_seeds(seed: int) -> tuple[int, int]:
    """(simulation seed, fault seed) for a benchmark seed."""
    rng = random.Random(seed)
    return rng.randrange(1, 2**31 - 1), rng.randrange(0, 2**31 - 1)


def pool_width() -> int:
    """Worker processes for the durable campaign: at most 2, at most nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Workload:
    name = ""
    #: warm passes timed together, and groups a run makes at least (and
    #: exactly, when traced); the metric is the median over groups
    warm_group = 1
    warm_groups = 1
    #: True when the warm pass simulates instead of reading a cache
    warm_simulates = False

    def __init__(
        self,
        seed: int,
        scratch: Path,
        time_scale: float = TIME_SCALE,
        quantum_cycles: int | None = None,
    ) -> None:
        self.seed = seed
        self.sim_seed, self.fault_seed = derive_seeds(seed)
        self.scratch = scratch
        self.base = scaled_config(time_scale, quantum_cycles, seed=self.sim_seed)
        self.canonical = scaled_config(time_scale, quantum_cycles, seed=CANONICAL_SEED)
        #: digests are pinned at the benchmark size only
        self.pinned = time_scale == TIME_SCALE and quantum_cycles is None
        self.items = self.build_items()
        self.cache_dir: Path | None = None
        self._dirs = 0

    def item(self, workloads, config, policy, telemetry=False) -> Item:
        config = config.with_policy(policy)
        name = "+".join(workloads)
        pin = None
        if self.pinned and config.seed == CANONICAL_SEED and config.faults is None:
            pin = f"{name}|{policy}"
        label = f"{name}|{policy}|seed{config.seed}"
        if config.faults is not None:
            label += f"|faults{config.faults.seed}"
            sensor = config.faults.sensor
            label += f"|drop{sensor.rate if sensor else 0.0}"
            label += f"|int{int(config.faults.attacker is not None)}"
        return Item(label, RunSpec(tuple(workloads), config, telemetry=telemetry), pin)

    def setup(self) -> None:
        """Make the first pipeline: sources seeded, caches prefilled."""
        first = self.items[0].spec
        build_pipeline(first.config, list(first.workloads))

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def fig5_gap_pts(self, results: dict[str, object]) -> float:
        """|gzip's IPC loss under variant2 + stop-and-go vs solo − 88.2|."""
        solo = results[self.solo_label].threads[0].ipc
        attacked = results[self.attack_label].threads[0].ipc
        loss_pct = 100.0 * (1.0 - attacked / solo)
        return abs(loss_pct - PAPER_V2_STOP_AND_GO_LOSS_PCT)

    def build_items(self) -> list[Item]:
        raise NotImplementedError

    def cold(self) -> list[tuple[Item, object]]:
        raise NotImplementedError

    def warm(self) -> list[tuple[Item, object]]:
        raise NotImplementedError


class ScalarAttack(Workload):
    name = "scalar_attack"
    warm_groups = 2
    warm_simulates = True

    def build_items(self) -> list[Item]:
        solo = self.item(SOLO, self.base, "stop_and_go")
        attack = self.item(ATTACK, self.base, "stop_and_go")
        self.anchor = self.item(ATTACK, self.canonical, "sedation")
        quiet = self.item(("gcc", "swim"), self.base, "stop_and_go")
        self.solo_label, self.attack_label = solo.label, attack.label
        return [solo, attack, self.anchor, quiet]

    def _run(self, items: list[Item]) -> list[tuple[Item, object]]:
        return [
            (item, run_workloads(item.spec.config, list(item.spec.workloads)))
            for item in items
        ]

    def cold(self):
        return self._run(self.items)

    def warm(self):
        return self._run([self.anchor])


class PolicySweep(Workload):
    name = "policy_sweep"
    warm_group = 40
    warm_groups = 10

    def build_items(self) -> list[Item]:
        items = [
            self.item(pair, self.base, policy)
            for pair in QUIET_PAIRS
            for policy in POLICIES
        ]
        items += [self.item(ATTACK, self.canonical, policy) for policy in POLICIES]
        solo = self.item(SOLO, self.canonical, "stop_and_go")
        self.solo_label = solo.label
        self.attack_label = self.item(ATTACK, self.canonical, "stop_and_go").label
        return items + [solo]

    def _sweep(self, cache_dir: Path):
        quiet = ExperimentRunner(self.base, cache_dir=cache_dir).pair_many(
            QUIET_PAIRS, POLICIES
        )
        canonical = ExperimentRunner(self.canonical, cache_dir=cache_dir)
        acting = canonical.pair_many([ATTACK], POLICIES)
        solo = canonical.solo(SOLO[0], policy="stop_and_go")
        ordered = [quiet[(a, b, p)] for (a, b) in QUIET_PAIRS for p in POLICIES]
        ordered += [acting[(*ATTACK, p)] for p in POLICIES]
        ordered.append(solo)
        return list(zip(self.items, ordered, strict=True))

    def cold(self):
        self.cache_dir = self.fresh_dir("sweep")
        return self._sweep(self.cache_dir)

    def warm(self):
        return self._sweep(self.cache_dir)


class FaultCampaign(Workload):
    name = "fault_campaign"
    warm_group = 15
    warm_groups = 10
    warm_campaigns = 0

    def build_items(self) -> list[Item]:
        sedation = self.canonical.with_policy("sedation")
        items = []
        for intermittent in (False, True):
            for rate in DROPOUT_RATES:
                plan = FaultPlan(
                    seed=self.fault_seed,
                    sensor=SensorFaultPlan(mode="dropout", rate=rate) if rate else None,
                    attacker=intermittent_plan(sedation.thermal) if intermittent else None,
                )
                config = sedation.with_faults(plan if plan.any_runtime_faults else None)
                items.append(self.item(ATTACK, config, "sedation", telemetry=True))
        solo = self.item(SOLO, self.canonical, "stop_and_go", telemetry=True)
        attack = self.item(ATTACK, self.canonical, "stop_and_go", telemetry=True)
        self.solo_label, self.attack_label = solo.label, attack.label
        return items + [solo, attack]

    def _campaign(self, campaign_id: str | None):
        results = run_durable(
            [item.spec for item in self.items],
            campaign_id=campaign_id,
            cache_dir=self.cache_dir,
            jobs=pool_width(),
            raise_on_error=False,
        )
        return list(zip(self.items, results, strict=True))

    def cold(self):
        self.cache_dir = self.fresh_dir("campaign")
        return self._campaign(None)

    def warm(self):
        self.warm_campaigns += 1
        return self._campaign(f"warm-{self.warm_campaigns}")


WORKLOADS = {cls.name: cls for cls in (ScalarAttack, PolicySweep, FaultCampaign)}


def pinned_items() -> list[Item]:
    """Every pinned spec of the three workloads, once each."""
    seen: dict[str, Item] = {}
    for cls in WORKLOADS.values():
        for item in cls(0, Path(".")).items:
            if item.pin is not None:
                seen.setdefault(item.pin, item)
    return list(seen.values())

"""Output check: pinned digests and per-result invariants.

A result fails the check when

* it is a ``RunFailure`` (the runner gave up on the spec);
* an invariant breaks: the run covers exactly one quantum, and every
  thread's normal + cooling + sedated cycles equal its cycles;
* its spec is seed-independent (pinned) and its canonical digest differs
  from :data:`PINNED`.

The digest hashes the canonical result JSON (``results_to_canonical_json``)
with host wall time zeroed and the telemetry snapshot dropped, so the same
spec run scalar, in the batch kernel, or in a pool worker with telemetry
on hashes the same.  gzip+variant2 under sedation is in all three
workloads and holds the three tiers to one digest.

Run ``python3 perfbench/check.py`` (with ``src`` on ``PYTHONPATH``) to
recompute the pinned digests on the scalar path; they change only when
the model's results change.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.sim import RunFailure, RunResult, results_to_canonical_json

#: Canonical digests of the seed-independent specs at the benchmark size
#: (time scale 4000, 125k-cycle quantum, simulation seed 42).
PINNED = {
    "gzip+idle|stop_and_go": (
        "bb19713bc795d0e3f3d8ce397e9a57dea8fc12cb5817efda9d71ad4edac017e6"
    ),
    "gzip+variant2|ideal": (
        "9a16814907438a6bf261a9171e7a03ef22a068cdddc15afe905f47d5756154e3"
    ),
    "gzip+variant2|stop_and_go": (
        "f66ef97f0f64cd78efd0036730d01ef734ab8d94d987bac5c415ed61bb5572cd"
    ),
    "gzip+variant2|dvfs": (
        "af0d49b489b90461b2b12ab74b480ed982d994ca300d20ce318d6cccd7477b80"
    ),
    "gzip+variant2|ttdfs": (
        "29a15cdafc4bd955a2a557398c19337f3b70b4a9e2c32232a8023a63dd6f0190"
    ),
    "gzip+variant2|fetch_gating": (
        "b7bbd54bd7c1701fb378e10f9097c41a33f52bef868582514dc3b3b1c746c804"
    ),
    "gzip+variant2|sedation": (
        "0d42f7362aa94c1c32a3f6ddbfbb81001d907d8c5aeba793cec8b9cd18620c89"
    ),
}


def digest(result: RunResult) -> str:
    canonical = results_to_canonical_json(
        [dataclasses.replace(result, telemetry=None)]
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def problems(item, result) -> list[str]:
    """Every reason ``result`` fails the check for ``item`` (empty = ok)."""
    if isinstance(result, RunFailure):
        return [f"{item.label}: {result.kind}: {result.error}"]
    found = []
    spec = item.spec
    quantum = (
        spec.config.quantum_cycles
        if spec.quantum_cycles is None
        else spec.quantum_cycles
    )
    if result.cycles != quantum:
        found.append(f"{item.label}: {result.cycles} cycles, quantum {quantum}")
    for thread in result.threads:
        covered = thread.cycles_normal + thread.cycles_cooling + thread.cycles_sedated
        if thread.cycles != result.cycles or covered != thread.cycles:
            found.append(
                f"{item.label}: thread {thread.thread} covers {covered} of "
                f"{thread.cycles} cycles (run {result.cycles})"
            )
    if item.pin is not None:
        expected = PINNED.get(item.pin)
        actual = digest(result)
        if actual != expected:
            found.append(
                f"{item.label}: digest {actual[:16]} != pinned "
                f"{(expected or 'missing')[:16]}"
            )
    return found


def _print_pins() -> None:
    from repro.sim import run_workloads

    from suite import pinned_items

    for item in pinned_items():
        result = run_workloads(item.spec.config, list(item.spec.workloads))
        print(f'    "{item.pin}": "{digest(result)}",', flush=True)


if __name__ == "__main__":
    _print_pins()

"""Event-log analysis: filtering, episode extraction, and narratives.

These helpers power ``repro events`` and the telemetry tests.  They consume
plain event iterables, so they work identically on a live session's ring
buffer and on a JSONL log reloaded from disk — the §5 narratives (threshold
cross → sedate the top-EWMA thread → release) are reconstructible from a
saved log alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..blocks import block_name
from .events import NARRATIVE_TYPES, Event, EventType


def iter_filtered(
    events: Iterable[Event],
    types: set[EventType] | None = None,
    thread: int | None = None,
    block: int | None = None,
    since: int | None = None,
    until: int | None = None,
) -> Iterator[Event]:
    """Lazily select events by type / thread / block / cycle window.

    A generator so campaign-scale logs can flow straight into the
    streaming reducers (:mod:`repro.telemetry.reducers`) without ever
    materializing the stream.
    """
    for event in events:
        if types is not None and event.type not in types:
            continue
        if thread is not None and event.thread != thread:
            continue
        if block is not None and event.block != block:
            continue
        if since is not None and event.cycle < since:
            continue
        if until is not None and event.cycle > until:
            continue
        yield event


def filter_events(
    events: Iterable[Event],
    types: set[EventType] | None = None,
    thread: int | None = None,
    block: int | None = None,
    since: int | None = None,
    until: int | None = None,
) -> list[Event]:
    """Select events by type / thread / block / cycle window."""
    return list(iter_filtered(events, types, thread, block, since, until))


def counts_by_type(events: Iterable[Event]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.type.value] = counts.get(event.type.value, 0) + 1
    return dict(sorted(counts.items()))


#: Event types produced by :mod:`repro.faults` injectors.
FAULT_EVENT_TYPES = frozenset({
    EventType.FAULT_SENSOR,
    EventType.FAULT_SAMPLER,
    EventType.FAULT_ACTUATOR,
    EventType.ATTACKER_PHASE,
})


def fault_injection_counts(events: Iterable[Event]) -> dict[str, int]:
    """Per-type counts of injected-fault events (empty for a clean run).

    Sampler and actuator faults are split by kind/outcome (``miss`` vs
    ``late``, ``dropped`` vs ``delayed``) since the distinction is the whole
    point of those fault models.
    """
    counts: dict[str, int] = {}
    for event in events:
        if event.type not in FAULT_EVENT_TYPES:
            continue
        name = event.type.value
        data = event.data or {}
        qualifier = data.get("kind") or data.get("outcome")
        if qualifier:
            name = f"{name}.{qualifier}"
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def sedation_episodes(events: Iterable[Event]) -> list[dict]:
    """SEDATE→RELEASE episodes, in sedation order.

    An episode still open at the end of the log has ``release_cycle=None``.
    """
    episodes: list[dict] = []
    open_by_key: dict[tuple, dict] = {}
    for event in events:
        if event.type is EventType.SEDATE:
            episode = {
                "thread": event.thread,
                "block": event.block,
                "sedate_cycle": event.cycle,
                "sedate_temperature_k": event.value,
                "release_cycle": None,
                "release_temperature_k": None,
            }
            episodes.append(episode)
            open_by_key.setdefault((event.thread, event.block), episode)
        elif event.type is EventType.RELEASE:
            episode = open_by_key.pop((event.thread, event.block), None)
            if episode is not None:
                episode["release_cycle"] = event.cycle
                episode["release_temperature_k"] = event.value
    return episodes


def stall_episodes(events: Iterable[Event]) -> list[dict]:
    """STOPGO_ENGAGE→DISENGAGE episodes (global stalls), in order."""
    episodes: list[dict] = []
    current: dict | None = None
    for event in events:
        if event.type is EventType.STOPGO_ENGAGE and current is None:
            current = {
                "engage_cycle": event.cycle,
                "disengage_cycle": None,
                "engage_temperature_k": event.value,
                "safety_net": bool((event.data or {}).get("safety_net")),
            }
            episodes.append(current)
        elif event.type is EventType.STOPGO_DISENGAGE and current is not None:
            current["disengage_cycle"] = event.cycle
            current = None
    return episodes


def narrative_line(event: Event) -> str:
    """The one human-readable line for a single narrative event."""
    where = block_name(event.block) if event.block is not None else "chip"
    temp = f" T={event.value:.2f}K" if event.value is not None else ""
    data = event.data or {}
    if event.type is EventType.THRESHOLD_CROSS:
        detail = f"{data.get('threshold', '?')} {data.get('direction', '?')}"
    elif event.type in (EventType.SEDATE, EventType.RELEASE):
        detail = f"thread {event.thread}"
        ewma = data.get("ewma")
        if ewma is not None:
            detail += f" (ewma {ewma:.2f})"
    elif event.type is EventType.DVFS_STEP:
        detail = (
            f"slowdown {data.get('slowdown')} via "
            f"{data.get('mechanism', 'dvfs')}"
        )
    elif event.type is EventType.STOPGO_ENGAGE and data.get("safety_net"):
        detail = "safety net"
    elif event.type is EventType.FAULT_ACTUATOR:
        detail = (
            f"{data.get('action', '?')} {data.get('outcome', '?')} "
            f"(thread {event.thread})"
        )
    elif event.type is EventType.ATTACKER_PHASE:
        detail = f"thread {event.thread} {data.get('phase', '?')}"
    elif event.type is EventType.LANE_COMPLETE:
        detail = (
            f"lane {data.get('lane', '?')} via {data.get('source', '?')}: "
            f"{data.get('workloads', '?')} [{data.get('policy', '?')}]"
        )
        ipc = data.get("ipc")
        if ipc is not None:
            detail += f" ipc {ipc:.3f}"
    elif event.type is EventType.CAMPAIGN_ROLLUP:
        detail = (
            f"{data.get('runs', '?')} runs -> "
            f"rollup {str(data.get('key', '?'))[:12]}"
        )
    elif event.type is EventType.CAMPAIGN_LEASE:
        detail = (
            f"spec {str(data.get('fingerprint', '?'))[:12]} leased by "
            f"pid {data.get('pid', '?')} (wave {data.get('wave', '?')})"
        )
    elif event.type is EventType.CAMPAIGN_RESUME:
        detail = (
            f"campaign {data.get('campaign', '?')} resumed: "
            f"{data.get('completed', '?')} done, "
            f"{data.get('pending', '?')} pending, "
            f"{data.get('reclaimed', '?')} leases reclaimed"
        )
    elif event.type is EventType.BREAKER_OPEN:
        detail = (
            f"family {data.get('family', '?')} tripped open after "
            f"{data.get('attempts', '?')} attempt(s)"
        )
    else:
        detail = ""
    return (
        f"[cycle {event.cycle:>8}] {event.type.value:<18} {where:<8} "
        f"{detail}{temp}".rstrip()
    )


def narrative(events: Iterable[Event]) -> list[str]:
    """One human-readable line per narrative event, in log order."""
    return [
        narrative_line(event)
        for event in events
        if event.type in NARRATIVE_TYPES
    ]


def batch_narrative(counters: dict[str, int]) -> list[str]:
    """Human-readable lines describing the lock-step batch tier's shape.

    ``counters`` is a flat counter mapping (e.g. ``RUNNER_METRICS.counters``
    from :mod:`repro.sim.parallel`) using the ``runner.batch_*`` keys.
    Returns no lines when the batch tier never ran — callers can append
    the section unconditionally.
    """
    lanes = counters.get("runner.batch_lanes", 0)
    if not lanes:
        return []
    groups = counters.get("runner.batch_groups", 0)
    completed = counters.get("runner.batch_completed", 0)
    deferred = counters.get("runner.batch_deferred", 0)
    cohorts = counters.get("runner.batch_cohorts", 0)
    splits = counters.get("runner.batch_splits", 0)
    errors = counters.get("runner.batch_errors", 0)
    lines = [
        f"{lanes} lanes in {groups} lock-step groups -> {cohorts} cohorts "
        f"({splits} divergence splits)",
        f"retention {completed / lanes:.0%}: {completed} lanes completed "
        f"in-batch, {deferred} deferred to the scalar path",
    ]
    if errors:
        lines.append(f"{errors} group errors fell back to the scalar path")
    return lines


def stream_narrative(counters: dict[str, int]) -> list[str]:
    """The reuse ratio of the serial and pool tiers' shared µop streams.

    Reads ``runner.stream_rows_generated``/``runner.stream_rows_replayed``
    from the same counter mapping as :func:`batch_narrative`; empty when no
    spec of this process ran on a shared stream.
    """
    generated = counters.get("runner.stream_rows_generated", 0)
    replayed = counters.get("runner.stream_rows_replayed", 0)
    if not generated and not replayed:
        return []
    return [
        f"{replayed / (generated + replayed):.0%} of shared-stream rows "
        f"replayed ({replayed} replayed, {generated} generated)"
    ]


def durable_narrative(counters: dict[str, int]) -> list[str]:
    """Human-readable lines describing durable-campaign recovery activity.

    ``counters`` is the same flat counter mapping ``batch_narrative``
    consumes (``RUNNER_METRICS.counters``), read here for the
    ``runner.campaign_*`` / ``runner.breaker_*`` keys written by
    :mod:`repro.sim.durable`.  Empty when no journal-backed campaign ran
    in this process, so the section never perturbs plain-run summaries.
    """
    lines = []
    resumes = counters.get("runner.campaign_resumes", 0)
    if resumes:
        verified = counters.get("runner.campaign_verified", 0)
        missing = counters.get("runner.campaign_reverify_missing", 0)
        lines.append(
            f"{resumes} campaign resume(s): {verified} cached result(s) "
            f"verified, {missing} re-dispatched after cache divergence"
        )
    reclaimed = counters.get("runner.campaign_reclaimed", 0)
    if reclaimed:
        lines.append(
            f"{reclaimed} orphaned lease(s) reclaimed from dead or "
            f"stale pids"
        )
    trips = counters.get("runner.breaker_trips", 0)
    skipped = counters.get("runner.breaker_skipped", 0)
    if trips or skipped:
        lines.append(
            f"circuit breaker: {trips} family(ies) tripped open, "
            f"{skipped} spec(s) skipped while open"
        )
    drained = counters.get("runner.campaign_drained", 0)
    if drained:
        lines.append(
            f"{drained} campaign(s) drained to a resumable seal "
            f"(`repro campaign resume` continues them)"
        )
    return lines


def sedation_episode_line(episode: dict) -> str:
    """The summary line for one SEDATE→RELEASE episode."""
    end = episode["release_cycle"]
    span = (
        f"{episode['sedate_cycle']}..{end} "
        f"({end - episode['sedate_cycle']} cycles)"
        if end is not None
        else f"{episode['sedate_cycle']}.. (open)"
    )
    release_t = episode["release_temperature_k"]
    released = (
        f", released at {release_t:.2f}K" if release_t is not None else ""
    )
    return (
        f"thread {episode['thread']} at "
        f"{block_name(episode['block'])}: {span}, sedated at "
        f"{episode['sedate_temperature_k']:.2f}K{released}"
    )


def stall_episode_line(episode: dict) -> str:
    """The summary line for one global-stall episode."""
    end = episode["disengage_cycle"]
    span = (
        f"{episode['engage_cycle']}..{end} "
        f"({end - episode['engage_cycle']} cycles)"
        if end is not None
        else f"{episode['engage_cycle']}.. (open)"
    )
    net = " [safety net]" if episode["safety_net"] else ""
    return f"{span}{net}"


def ring_narrative(ring: dict | None) -> list[str]:
    """Lines narrating ring drops / capture suppression, if any occurred.

    ``ring`` is the bus accounting (``emitted``/``dropped``/``capacity``
    plus optional ``suppressed``) from a session snapshot or a columnar
    log's metadata.  Empty when nothing was lost, so the section never
    perturbs a clean log's summary — drop-free summaries stay byte-stable
    across formats (JSONL logs carry no ring stats at all).
    """
    if not ring:
        return []
    lines = []
    dropped = ring.get("dropped", 0)
    if dropped:
        capacity = ring.get("capacity")
        sized = f" (ring capacity {capacity})" if capacity else ""
        lines.append(
            f"{dropped} of {ring.get('emitted', '?')} emitted events "
            f"dropped from the ring{sized}; raise capacity or attach a "
            f"sink (docs/telemetry.md)"
        )
    suppressed = ring.get("suppressed", 0)
    if suppressed:
        lines.append(
            f"{suppressed} events suppressed by the capture config "
            f"before recording"
        )
    return lines


def summarize(
    events: Iterable[Event],
    batch_counters: dict[str, int] | None = None,
    ring: dict | None = None,
) -> str:
    """Counts, episodes, and the narrative — the ``--summary`` report.

    ``batch_counters``, when provided (and the batch tier actually ran),
    adds a "batch execution" section describing how the runs behind the
    log were scheduled: lock-step groups, cohort splits, lane retention.
    ``ring`` (bus accounting) adds a "ring buffer" section when events
    were dropped or suppressed.
    """
    events = list(events)
    lines = ["event counts:"]
    for name, count in counts_by_type(events).items():
        lines.append(f"  {name:<18} {count}")
    ring_lines = ring_narrative(ring)
    if ring_lines:
        lines.append("ring buffer:")
        lines.extend("  " + line for line in ring_lines)
    sedations = sedation_episodes(events)
    if sedations:
        lines.append("sedation episodes:")
        for episode in sedations:
            lines.append("  " + sedation_episode_line(episode))
    injected = fault_injection_counts(events)
    if injected:
        lines.append("fault injection:")
        for name, count in injected.items():
            lines.append(f"  {name:<18} {count}")
    stalls = stall_episodes(events)
    if stalls:
        lines.append("global stalls:")
        for episode in stalls:
            lines.append("  " + stall_episode_line(episode))
    if batch_counters:
        batch_lines = batch_narrative(batch_counters)
        if batch_lines:
            lines.append("batch execution:")
            lines.extend("  " + line for line in batch_lines)
        durable_lines = durable_narrative(batch_counters)
        if durable_lines:
            lines.append("campaign recovery:")
            lines.extend("  " + line for line in durable_lines)
    story = narrative(events)
    if story:
        lines.append("narrative:")
        lines.extend("  " + line for line in story)
    return "\n".join(lines)

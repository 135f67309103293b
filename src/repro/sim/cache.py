"""The on-disk run cache: the one module that knows its format.

A finished spec is stored as ``<cache_dir>/<fingerprint>.json`` holding
``{"kind": "run" | "campaign", "result": ..., "fingerprint": ...,
"workloads": [...]}``, keyed by
:func:`~repro.sim.parallel.spec_fingerprint`.  Writes go through a
``<key>.json.<pid>.tmp`` file and ``os.replace``: atomic, so no reader
ever sees half an entry, but not fsynced — a power cut can at worst leave
an empty or torn entry, which the reader quarantines and re-simulates.

An entry that exists but cannot be decoded is never treated as a plain
miss: it is moved to ``<cache_dir>/quarantine/`` and counted in
:data:`RUNNER_METRICS` (docs/robustness.md §3).  Tmp files stranded by
dead writers are swept by a pid-liveness probe.  :func:`cache_stats` and
:func:`quarantine_entries` are the read-only views behind ``repro cache``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..telemetry.metrics import MetricsRegistry
from .campaign import CampaignResult, QuantumRecord
from .results import result_from_dict, result_to_dict
from .rollup import ROLLUP_DIR
from .stats import RunResult

#: Process-wide counters for the batch runner and the cache: quarantined
#: entries, retries, timeouts, pool breaks, final failures, and the µop
#: stream rows the serial and pool tiers generated into or replayed from a
#: shared stream (``runner.stream_rows_generated``/``_replayed``).  A
#: process concern, not a simulation result, so it lives here rather than
#: on any per-run telemetry session.
RUNNER_METRICS = MetricsRegistry()

#: Subdirectory of the cache that receives corrupt entries.
QUARANTINE_DIR = "quarantine"


def campaign_to_dict(campaign: CampaignResult) -> dict:
    return {
        "workloads": list(campaign.workloads),
        "policy": campaign.policy,
        "quanta": [
            {
                "index": record.index,
                "committed": list(record.committed),
                "ipc": list(record.ipc),
                "emergencies": record.emergencies,
                "sedations": record.sedations,
            }
            for record in campaign.quanta
        ],
        "final": result_to_dict(campaign.final),
    }


def campaign_from_dict(payload: dict) -> CampaignResult:
    return CampaignResult(
        workloads=tuple(payload["workloads"]),
        policy=payload["policy"],
        quanta=tuple(
            QuantumRecord(
                index=record["index"],
                committed=tuple(record["committed"]),
                ipc=tuple(record["ipc"]),
                emergencies=record["emergencies"],
                sedations=record["sedations"],
            )
            for record in payload["quanta"]
        ),
        final=result_from_dict(payload["final"]),
    )


def entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def decode(path: Path, key: str) -> RunResult | CampaignResult | str:
    """Read one entry: its result, or the reason it is rejected.

    The reason is ``"missing"`` (nothing was ever stored), ``"unreadable"``
    (not JSON), ``"fingerprint_mismatch"`` (the stored key is not ``key``)
    or ``"bad_shape"`` (JSON whose shape no longer matches the result
    format — a stale or mangled entry).
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return "missing"
    except (OSError, ValueError):
        return "unreadable"
    try:
        if payload.get("fingerprint") != key:
            return "fingerprint_mismatch"
        if payload["kind"] == "campaign":
            return campaign_from_dict(payload["result"])
        return result_from_dict(payload["result"])
    except Exception:
        return "bad_shape"


def quarantine(cache_dir: Path, path: Path, reason: str) -> None:
    """Move one unreadable cache entry aside and count it.

    Quarantined files keep their name under ``<cache_dir>/quarantine/`` so
    a human (or a bug report) can inspect exactly what was on disk; the
    entry becomes a plain miss and is re-simulated.  Never raises — cache
    hygiene must not take down a campaign.
    """
    target = cache_dir / QUARANTINE_DIR
    try:
        target.mkdir(parents=True, exist_ok=True)
        os.replace(path, target / path.name)
    except OSError:
        return
    RUNNER_METRICS.inc("cache.quarantined")
    RUNNER_METRICS.inc(f"cache.quarantined.{reason}")


def load_entry(cache_dir: Path | None, key: str) -> RunResult | CampaignResult | None:
    """The cached result for ``key``, or None; corrupt entries are quarantined."""
    if cache_dir is None:
        return None
    path = entry_path(cache_dir, key)
    entry = decode(path, key)
    if not isinstance(entry, str):
        return entry
    if entry != "missing":
        quarantine(cache_dir, path, entry)
    return None


def store_entry(
    cache_dir: Path | None,
    key: str,
    spec,
    result: RunResult | CampaignResult,
) -> None:
    """Publish ``spec``'s result under ``key`` (tmp + ``os.replace``, no fsync)."""
    if cache_dir is None:
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, CampaignResult):
        body: dict = {"kind": "campaign", "result": campaign_to_dict(result)}
    else:
        body = {"kind": "run", "result": result_to_dict(result)}
    body["fingerprint"] = key
    body["workloads"] = list(spec.workloads)
    path = entry_path(cache_dir, key)
    # Concurrent writers (parallel pytest sessions) race benignly — both
    # write identical bytes and os.replace is atomic.  The finally clause
    # keeps a failed write (ENOSPC, a signal between write_text and
    # replace) from stranding the tmp file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(body, separators=(",", ":")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknowable pids count as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def sweep_stale_tmp(cache_dir: Path) -> int:
    """Remove ``*.tmp`` files stranded by dead writers; returns the count.

    Tmp names embed the writer's pid (``<key>.json.<pid>.tmp``); a tmp file
    whose pid is no longer alive can never be published and is deleted.
    Live writers' files are left alone — no wall-clock ageing involved.
    """
    removed = 0
    for tmp in sorted(cache_dir.glob("*.json.*.tmp")):
        try:
            pid = int(tmp.suffixes[-2].lstrip("."))
        except (ValueError, IndexError):
            continue
        if pid_alive(pid):
            continue
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            continue
    if removed:
        RUNNER_METRICS.inc("cache.stale_tmp_removed", removed)
    return removed


# -- inspection (the `repro cache` verb) -------------------------------------


def quarantine_entries(cache_dir: str | Path) -> list[dict]:
    """Every quarantined cache entry with its re-derived reason.

    An entry that would load cleanly now (e.g. a racing writer won) reads
    ``"recovered"``.
    """
    directory = Path(cache_dir) / QUARANTINE_DIR
    if not directory.is_dir():
        return []
    entries: list[dict] = []
    for path in sorted(directory.glob("*.json")):
        entry = decode(path, path.stem)
        entries.append(
            {
                "file": path.name,
                "bytes": path.stat().st_size,
                "reason": entry if isinstance(entry, str) else "recovered",
            }
        )
    return entries


def cache_stats(cache_dir: str | Path) -> dict:
    """Aggregate statistics for one cache directory.

    Powers ``repro cache``: entry counts and bytes by kind, the result
    format versions present, rollup/journal/quarantine/tmp tallies.
    Purely a reader — never mutates, quarantines, or sweeps.
    """
    from .durable import JOURNAL_DIR

    directory = Path(cache_dir)
    stats = {
        "cache_dir": str(directory),
        "entries": 0,
        "bytes": 0,
        "kinds": {},
        "format_versions": {},
        "unreadable": 0,
        "stale_tmp": 0,
        "rollups": 0,
        "campaigns": 0,
        "quarantined": 0,
    }
    if not directory.is_dir():
        return stats
    for path in sorted(directory.glob("*.json")):
        stats["entries"] += 1
        stats["bytes"] += path.stat().st_size
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            stats["unreadable"] += 1
            continue
        kind = str(payload.get("kind", "?"))
        stats["kinds"][kind] = stats["kinds"].get(kind, 0) + 1
        version = str(
            (payload.get("result") or {}).get("format_version", "?")
        )
        stats["format_versions"][version] = (
            stats["format_versions"].get(version, 0) + 1
        )
    stats["stale_tmp"] = len(list(directory.glob("*.json.*.tmp")))
    stats["rollups"] = len(list((directory / ROLLUP_DIR).glob("*.json")))
    journal_root = directory / JOURNAL_DIR
    if journal_root.is_dir():
        stats["campaigns"] = sum(
            1 for p in journal_root.iterdir() if p.is_dir()
        )
    stats["quarantined"] = len(quarantine_entries(directory))
    return stats

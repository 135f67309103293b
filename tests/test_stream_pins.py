"""Pinned µop stream content for every workload source.

End-to-end digests (perfbench, the goldens) only see streams through a whole
simulation.  These pins hash the streams themselves: the first rows of every
SPEC profile at two seeds on both hardware contexts, and every malicious
kernel plus ``idle`` on both contexts at two time scales.  A generator or
executor rewrite that reorders one RNG draw, or changes one architectural
effect, changes a digest here and names the workload it broke.

Each row is the source's ``peek_pc()`` followed by the seven static ``Uop``
fields.  Synthetic digests also cover the final RNG state (so an extra or a
missing draw shows even when the rows agree); program digests cover the
branch and mispredict counts, the executor's final PC, registers and data
memory.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import scaled_config
from repro.workloads import MALICIOUS_VARIANTS, SPEC_PROFILES, make_source

ROWS = 20_000
#: long enough for variant2/variant3 to leave their burst and run the
#: conflict-miss loads (variant2's burst alone is ~30k µops)
PROGRAM_ROWS = 40_000
SEEDS = (42, 3)
THREADS = (0, 1)
TIME_SCALES = (4000.0, 20000.0)


def _rows(source, count: int) -> list:
    rows = []
    for _ in range(count):
        peek = source.peek_pc()
        uop = source.next_uop()
        if uop is None:
            rows.append((peek, None))
            break
        rows.append((
            peek, uop.thread, uop.pc, uop.opclass, uop.dest, uop.srcs,
            uop.address, uop.taken, uop.mispredict,
        ))
    return rows


def _digest(parts: list) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:24]


def spec_digest(name: str) -> str:
    config = scaled_config()
    parts = []
    for seed in SEEDS:
        for thread in THREADS:
            source = make_source(name, thread, config.machine, config.thermal, seed)
            parts.append(_rows(source, ROWS))
            parts.append(source._rng.getstate())
    return _digest(parts)


def program_digest(name: str, time_scale: float) -> str:
    config = scaled_config(time_scale=time_scale)
    parts = []
    for thread in THREADS:
        source = make_source(name, thread, config.machine, config.thermal)
        parts.append(_rows(source, PROGRAM_ROWS))
        executor = source.executor
        parts.append((
            source.branches, source.mispredicts, executor.pc, executor.halted,
            executor.instructions_executed, executor.registers,
            sorted(executor.memory.items()),
        ))
    return _digest(parts)


SPEC_DIGESTS = {
    "ammp": "a0bc3ca183e7c89f1b68ed89",
    "applu": "52eb15aaf2c8ce0b8740943c",
    "apsi": "391e73cd24f6d4de3c6368c5",
    "art": "726dc9684d04c25848163e14",
    "bzip2": "30797eafe7f321bc8e40c215",
    "crafty": "712feb88c0a135702b0cc205",
    "eon": "eaf31ab957690b9a21f69497",
    "equake": "6c8a3dd9f22a808c8a37df0c",
    "gap": "de60baec1f6a543dea112a63",
    "gcc": "06a045a28cbbdff6a52c6e26",
    "gzip": "66ff845c5e731328c5190d27",
    "lucas": "bdc6b80cd0f71982be7ed2b8",
    "mcf": "1e207121f6cacf71991e7f34",
    "mesa": "e77a0242b5fafe8861f4cdcb",
    "mgrid": "d0528e27c44fb71c6bc474a8",
    "parser": "150758edea34681272ed7bd3",
    "perlbmk": "12c03325f94fe65a9d1c958a",
    "swim": "cae3c3c31972f783b23eb6b5",
    "twolf": "9e76b67d56d9e1f1c0e8d554",
    "vortex": "5be210b085de4f63c9cee73c",
    "vpr": "40ceeff5a90d4f3c95117ac6",
    "wupwise": "dad8b103017f422ab9d791af",
}

PROGRAM_DIGESTS = {
    ("variant1", 4000.0): "ae01113eee38e4163dc1b1da",
    ("variant1", 20000.0): "ae01113eee38e4163dc1b1da",
    ("variant2", 4000.0): "5f4dc12c214a5df7eaeebbfb",
    ("variant2", 20000.0): "5f4dc12c214a5df7eaeebbfb",
    ("variant3", 4000.0): "30520294e5b8300ec87c8d07",
    ("variant3", 20000.0): "bcc0f364dc7ca749581d3b03",
    ("fp_flood", 4000.0): "03d9e7ad214e70f412fdb85f",
    ("fp_flood", 20000.0): "03d9e7ad214e70f412fdb85f",
    ("idle", 4000.0): "2f453b81fbb3d2b8db571b2a",
    ("idle", 20000.0): "2f453b81fbb3d2b8db571b2a",
}


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_spec_stream_pinned(name):
    assert spec_digest(name) == SPEC_DIGESTS[name], (
        f"{name}: synthetic µop stream changed (rows, draw order or RNG state)"
    )


@pytest.mark.parametrize("time_scale", TIME_SCALES)
@pytest.mark.parametrize("name", (*MALICIOUS_VARIANTS, "idle"))
def test_program_stream_pinned(name, time_scale):
    assert program_digest(name, time_scale) == PROGRAM_DIGESTS[(name, time_scale)], (
        f"{name} @ time scale {time_scale:g}: program µop stream or "
        "architectural state changed"
    )


def test_every_workload_is_pinned():
    assert set(SPEC_DIGESTS) == set(SPEC_PROFILES)
    assert {name for name, _ in PROGRAM_DIGESTS} == {*MALICIOUS_VARIANTS, "idle"}

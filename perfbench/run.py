"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload scalar_attack --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it reads the
simulator from the checkout's ``src`` and refuses to run without it.  The
workload runs in a fresh interpreter (``worker.py``), so one workload's
imports and memory never reach another's numbers.  ``setup_s`` is the
median time from starting a fresh interpreter to the workload being ready,
over several interpreters started one after another.  Times are reference
seconds (``speedclock.py``): wall time rescaled to a fixed host speed.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
with the ``end_to_end`` metrics of ``BENCHMARK.json`` for ``--trace 0`` and
its ``per_layer`` metrics for ``--trace 1``.  A fuller record (environment,
every setup sample, extra figures) is written under ``.perfbench/results``,
and a traced run's spans under ``.perfbench/trace``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedclock import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("scalar_attack", "policy_sweep", "fault_campaign")
#: fresh interpreters timed to READY besides the run's own worker
SETUP_PROBES = 6
#: the worker must finish well inside the 180 s a run may take
WORKER_TIMEOUT_S = 165.0


def start(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        start_new_session=True,
    )


def stop(proc: subprocess.Popen) -> None:
    """Kill the worker and its pool processes (one process group); reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def wait_ready(proc: subprocess.Popen, deadline: float) -> float:
    """``perf_counter`` reading when the worker prints READY."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("worker did not get ready in time")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if not readable:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited before it was ready")
        if line.strip() == b"READY":
            return time.perf_counter()


def finish(proc: subprocess.Popen, deadline: float) -> bytes:
    """The rest of the worker's stdout; raises unless it exits 0."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker exited {proc.returncode}: {err.decode()[-2000:]}"
            )
        sys.stderr.write(err.decode())
        return out
    finally:
        stop(proc)


def measure(argv: list[str], deadline: float) -> tuple[list[float], bytes]:
    """Set-up samples (reference seconds) and the measuring worker's output.

    Each probe interpreter, and then the measuring worker, is timed from
    its start to READY on a :class:`SpeedClock`; the clock stops before the
    measurement so it takes no time from the workload.
    """
    samples = []
    with SpeedClock() as clock:
        for index in range(SETUP_PROBES + 1):
            last = index == SETUP_PROBES
            started = time.perf_counter()
            proc = start(argv if last else [*argv, "--setup-only"])
            try:
                samples.append(clock.seconds(started, wait_ready(proc, deadline)))
            except BaseException:
                stop(proc)
                raise
            if not last:
                finish(proc, deadline)
    return samples, finish(proc, deadline)


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    scratch = OUT / "work" / f"{args.workload}-{os.getpid()}"
    trace_out = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
    argv_worker = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--scratch", str(scratch), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--trace-out", str(trace_out),
    ]
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setup_samples, out = measure(argv_worker, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [line for line in out.decode().splitlines() if line.startswith("RESULT ")]
    if not lines:
        print("worker printed no result", file=sys.stderr)
        return 1
    payload = json.loads(lines[-1][len("RESULT "):])
    measured = dict(payload["metrics"], setup_s=statistics.median(setup_samples))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    env = dict(
        payload["env"],
        seed=args.seed,
        nproc=len(os.sched_getaffinity(0)),
        commit=commit(),
        source_sha256=source_sha256(),
    )
    record = dict(
        result,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        env=env,
        setup_samples_s=setup_samples,
        all_metrics=measured,
    )
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("# env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

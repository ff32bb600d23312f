"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload smt_solve --seed 1 --seconds 30 --trace 0

The workloads, metrics, units and bounds are declared in
``BENCHMARK.json`` at the repository root; ``perfbench/DESIGN.md`` says
why each was chosen.  This process only orchestrates: the measured work
runs in ``worker.py`` subprocesses, on the one CPU this process pins
itself to.  With ``--trace 0`` set-up is sampled by :data:`SETUP_SAMPLES`
set-up-only workers before the measured one, and ``setup_s`` is their
median; each sample is the time from starting the worker to its
``READY`` line, scaled to the host's nominal speed by reference runs
right before the start and right after the worker's exit (see
``hostspeed``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failures to run at all exit
non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import at_nominal_speed, pin_to_one_cpu, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5

#: Slack on top of ``--seconds`` for set-up, output checks and shutdown.
WORKER_SLACK_S = 100.0


class WorkerError(RuntimeError):
    pass


class _Lines:
    """A worker's stdout lines, read by a thread so waits can time out."""

    def __init__(self, process: subprocess.Popen) -> None:
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(process.stdout,),
                                        daemon=True)
        self._thread.start()

    def _pump(self, stream) -> None:
        for line in stream:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def next(self, deadline: float) -> str:
        try:
            line = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise WorkerError("worker timed out") from None
        if line is None:
            raise WorkerError("worker exited before reporting")
        return line

    def join(self) -> None:
        self._thread.join(timeout=5.0)


def run_worker(args, extra, deadline: float):
    """Start one worker; returns its outcome, or with ``--setup-only`` the
    set-up seconds at nominal speed."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    for spec in args.inject:
        command += ["--inject", spec]
    before = reference_seconds()
    started = time.perf_counter()
    # Its own process group, so a timed-out worker is killed together with
    # the server it may have started.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    lines = _Lines(process)
    try:
        while lines.next(deadline) != "READY":
            pass
        setup = time.perf_counter() - started
        outcome = None
        if "--setup-only" not in extra:
            line = lines.next(deadline)
            while not line.startswith("{"):
                line = lines.next(deadline)
            outcome = json.loads(line)
        if process.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise WorkerError(f"worker exited with code {process.returncode}")
        if outcome is not None:
            return outcome
        # The worker has exited, so the CPU is this process's again.
        return at_nominal_speed(setup, before, reference_seconds())
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        lines.join()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", action="append", default=[],
                        help="slow a layer down, e.g. solve:1.0 (sensitivity check)")
    args = parser.parse_args()
    # Terminating the orchestrator unwinds it, so its workers get killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # One CPU for everything: the reference runs that scale a timed call
    # must run where the call ran.  The workers inherit it, and so does an
    # ``http_mix`` server: that loop is closed, so client and server never
    # compute at once, and each request is spared the cross-CPU wake-ups
    # whose latency on a shared VM host swings from tens of microseconds
    # to milliseconds with the other tenants' load.
    pin_to_one_cpu()

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + WORKER_SLACK_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline)
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        outcome = run_worker(args, [], deadline)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    measured = dict(outcome["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for message in outcome["errors"][:20]:
        print(f"failed: {message}", file=sys.stderr)
    correct = outcome["failed"] == 0 and outcome["consistent"] and (
        args.trace or all(m["value"] > 0 for m in metrics.values()))
    print(json.dumps({"correct": bool(correct), "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The ``http_mix`` workload: one client against a real server process.

A fresh ``python -m repro.server --workers 1`` runs on a fresh store for
every worker.  One :class:`ReproClient` sends requests in a closed loop:
submit, long-poll the result, decode it.  The round trip of those three
calls, scaled to the host's nominal speed by reference runs right before
and after it (see ``hostspeed``), is the request latency.  Output checks,
and in a traced run the job status reads and wire timings, happen
between requests and outside the round trips.

The requests run until their round trips add up to ``--seconds`` (in a
traced run, until the loop has run that long) and the fixed prefix
(:func:`inputs.http_prefix` requests, every suite pair once as a miss)
is done.  The deterministic metrics, and the server's peak
RSS, are taken over that prefix, so they do not depend on how many
requests a run completes.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List

from hostspeed import at_nominal_speed, reference_seconds
from inproc import MAX_UNATTRIBUTED_SHARE, PASSES, distinct_block_ratio, p90
from inputs import generated_qasm, http_prefix, http_schedule
from oracle import Oracle, objective_nats
from spans import WIRE_SPANS, Spans, time_wire, totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def _client_class():
    from repro.server.client import ReproClient

    class BodySizeClient(ReproClient):
        """Remembers the size of the last response body it decoded."""

        last_body_bytes = 0

        def _decode(self, raw: bytes):
            self.last_body_bytes = len(raw)
            return ReproClient._decode(raw)

    return BodySizeClient


class _Pairs:
    """Local view of each distinct pair: parsed circuit, target, options."""

    def __init__(self) -> None:
        self._known: Dict[str, Dict[str, object]] = {}

    def get(self, pair) -> Dict[str, object]:
        from repro.golden.runner import golden_options
        from repro.hardware import spin_qubit_target
        from repro.interop import circuit_from_qasm

        if pair.label not in self._known:
            circuit = circuit_from_qasm(pair.qasm, name=pair.label)
            width = max(2, circuit.num_qubits)
            self._known[pair.label] = {
                "circuit": circuit,
                "target": spin_qubit_target(width),
                "wire_target": {"num_qubits": width, "durations": "D0"},
                "options": golden_options(pair.technique),
            }
        return self._known[pair.label]


class Session:
    """Server process, client and request loop of one worker."""

    def __init__(self, seed: int, work: str, injections: List[str]) -> None:
        self.seed = seed
        self.injections = injections
        self.store_dir = os.path.join(work, f"store-{os.getpid()}")
        self.log_path = os.path.join(work, f"server-{os.getpid()}.log")
        self.server = None
        self.client = None
        self.pairs = _Pairs()

    # -- lifecycle --------------------------------------------------------
    def setup(self) -> None:
        self.schedule = http_schedule(self.seed)
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        for spec in self.injections:
            command += ["--inject", spec]
        command += ["--", "--port", "0", "--workers", "1", "--store", self.store_dir]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                           stderr=log, text=True)
        line = self.server.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split("listening on ", 1)[1].split()[0]
        self.client = _client_class()(url, timeout=REQUEST_TIMEOUT_S, retries=0)
        self.client.wait_until_ready(timeout=BOOT_TIMEOUT_S)
        warm = self.pairs.get(_WarmUp())
        self.client.compile(_WarmUp.qasm, warm["wire_target"], "direct",
                            timeout=REQUEST_TIMEOUT_S, **warm["options"])

    def close(self) -> None:
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    self.server.kill()
            self.server.wait()
            self.server.stdout.close()
            if self.server.returncode not in (0, -signal.SIGTERM):
                with open(self.log_path, encoding="utf-8") as log:
                    sys.stderr.write(log.read()[-2000:])
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.rmtree(self.store_dir + "-copy", ignore_errors=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)

    def server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("server VmHWM not found")

    def store_puts(self) -> int:
        return int(self.client.metrics()["service"]["l2"]["puts"])

    # -- the loop -----------------------------------------------------------
    def run(self, seconds: float, trace: bool, spans_path: str) -> Dict[str, object]:
        from repro.core.adapter import AdaptationResult

        oracle = Oracle()
        spans = Spans()
        span = spans.span if trace else (lambda name: contextlib.nullcontext())
        traced = _Traced() if trace else None
        latencies: List[float] = []
        errors: List[str] = []
        suite_misses: Dict[str, Dict[str, float]] = {}
        prefix = http_prefix()
        hits_in_prefix = 0
        prefix_rss_mb = 0.0
        attempted = failed = 0
        busy = 0.0
        loop_started = time.perf_counter()
        puts_before = self.store_puts() if trace else 0
        for pair, repeat in self.schedule:
            if attempted == prefix and not prefix_rss_mb:
                prefix_rss_mb = self.server_peak_rss_mb()
                if traced is not None:
                    traced.puts = self.store_puts() - puts_before
            # A traced request does more than a round trip, so a traced run
            # stops on the loop's wall time.
            spent = time.perf_counter() - loop_started if trace else busy
            if spent >= seconds and attempted >= prefix:
                break
            local = self.pairs.get(pair)
            attempted += 1
            first = spans.mark()
            before = reference_seconds()
            try:
                with span("op"):
                    started = time.perf_counter()
                    with span("client.submit"):
                        job = self.client.submit(pair.qasm, local["wire_target"],
                                                 pair.technique, **local["options"])
                    with span("client.result"):
                        payload = self.client.result_payload(
                            job.job_id, timeout=REQUEST_TIMEOUT_S)
                    with span("client.decode"):
                        result = AdaptationResult.from_dict(payload["result"])
                    elapsed = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                failed += 1
                busy += time.perf_counter() - started
                errors.append(f"{pair.label}: {type(error).__name__}: {error}")
                continue
            body_bytes = self.client.last_body_bytes
            busy += elapsed
            latencies.append(at_nominal_speed(elapsed, before, reference_seconds()))
            reason = oracle.check(pair.label, local["circuit"], local["target"],
                                  result.adapted_circuit)
            if reason is not None:
                failed += 1
                errors.append(f"{pair.label}: {reason}")
            in_prefix = attempted <= prefix
            hit = bool(result.report is not None and result.report.cache_hit)
            if in_prefix:
                hits_in_prefix += hit
            miss_of_suite = pair.from_suite and not repeat and in_prefix
            if miss_of_suite:
                suite_misses[pair.label] = {
                    "objective": objective_nats(pair.technique, result.cost),
                    "kib": body_bytes / 1024.0,
                }
            if traced is not None:
                text = time_wire(spans, result)
                traced.op(self.client, job.job_id, spans.since(first), elapsed, result,
                          text, local if miss_of_suite else None, hit)
        if traced is not None:
            metrics = traced.metrics(self, hits_in_prefix / prefix)
            spans.write(spans_path)
            errors.extend(traced.inconsistent)
        else:
            metrics = {
                "throughput_per_s": len(latencies) / sum(latencies),
                "latency_s_geomean": math.exp(statistics.fmean(
                    math.log(value) for value in latencies)),
                "latency_s_p50": statistics.median(latencies),
                "latency_s_p90": p90(latencies),
                "peak_rss_mb": prefix_rss_mb,
                "objective_nats_mean": statistics.fmean(
                    v["objective"] for v in suite_misses.values()),
                "result_kib_mean": statistics.fmean(v["kib"] for v in suite_misses.values()),
            }
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "consistent": not (traced and traced.inconsistent), "metrics": metrics}


class _WarmUp:
    """The set-up request: a circuit no workload request uses."""

    label = "warm_up:direct"
    technique = "direct"
    qasm = generated_qasm("clifford", 3, seed=0)


class _Traced:
    """Per-layer numbers of a traced ``http_mix`` run."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = defaultdict(float)
        self.ops = 0
        self.misses = 0
        self.stage_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, Dict[str, float]] = {}
        self.entries: List[tuple] = []
        self.puts = 0
        self.unattributed: List[float] = []
        self.inconsistent: List[str] = []

    def op(self, client, job_id, records, elapsed, result, text, local, hit) -> None:
        from repro.core.preprocessing import preprocess
        from repro.pipeline.passes import route_if_needed

        spent = totals(records)
        status = client.job_status(job_id)
        timing = status.get("timing", {})
        queue_wait = float(timing.get("queue_wait_seconds", 0.0))
        run = float(timing.get("run_seconds", 0.0))
        self.ops += 1
        sums = self.sums
        for name in ("client.submit", "client.result", "client.decode"):
            sums[name] += spent[name]
        sums["service.queue_wait"] += queue_wait
        sums["service.run"] += run
        sums["server.edge"] += spent["client.submit"] + spent["client.result"] - queue_wait - run
        sums["op"] += spent["op"]
        sums["bare"] += elapsed
        self.unattributed.append(1.0 - (spent["client.submit"] + spent["client.result"]
                                        + spent["client.decode"]) / spent["op"])
        for name in WIRE_SPANS:
            sums[name] += spent[name]
        if local is None or hit:
            return
        # A first-time compile of a suite pair: its report describes this run.
        report = status.get("report") or {}
        stages = {stage["name"]: stage for stage in report.get("stages", [])}
        self.misses += 1
        for name in PASSES:
            self.stage_seconds[name] += float(stages.get(name, {}).get("seconds", 0.0))
        counter = {name: stage.get("counters", {}) for name, stage in stages.items()}
        routed = route_if_needed(local["circuit"], local["target"])
        self.counts[job_id] = {
            "solve.chosen": float(counter.get("solve", {}).get("chosen", 0.0)),
            "rules.blocks": float(counter.get("preprocess", {}).get("blocks", 0.0)),
            "rules.candidates": float(counter.get("evaluate_rules", {}).get("candidates", 0.0)),
            "rules.distinct_block_ratio": distinct_block_ratio(
                preprocess(routed, local["target"])),
            "merge_1q.gates_removed": float(
                counter.get("apply", {}).get("gates_out", 0.0)
                - counter.get("merge_1q", {}).get("gates_out", 0.0)),
            "circuit.gates_out": float(len(result.adapted_circuit)),
            "wire.result_kib": len(text) / 1024.0,
        }
        self.entries.append((local, result))

    def metrics(self, session: Session, l1_hit_ratio: float) -> Dict[str, float]:
        from repro.api.fingerprints import cache_key
        from repro.service.store import PersistentResultStore

        ops = self.ops
        metrics = {
            "client.submit_s": self.sums["client.submit"] / ops,
            "client.result_s": self.sums["client.result"] / ops,
            "client.decode_s": self.sums["client.decode"] / ops,
            "service.queue_wait_s": self.sums["service.queue_wait"] / ops,
            "service.run_s": self.sums["service.run"] / ops,
            "server.edge_s": self.sums["server.edge"] / ops,
            "cache.l1_hit_ratio": l1_hit_ratio,
            "store.puts": float(self.puts),
            "trace.overhead_share": (self.sums["op"] - self.sums["bare"]) / self.sums["bare"],
            "trace.unattributed_share": statistics.fmean(self.unattributed),
        }
        median_share = statistics.median(self.unattributed)
        if median_share > MAX_UNATTRIBUTED_SHARE:
            self.inconsistent.append(
                f"client spans leave {median_share:.1%} of the median request "
                f"uncovered (limit {MAX_UNATTRIBUTED_SHARE:.0%})")
        for name in WIRE_SPANS:
            metrics[name + "_s"] = self.sums[name] / ops
        stage_total = sum(self.stage_seconds.values())
        for name in PASSES:
            metrics[f"pass.{name}.s"] = self.stage_seconds[name] / self.misses
        for name in ("evaluate_rules", "solve", "merge_1q"):
            metrics[f"pass.{name}.share"] = self.stage_seconds[name] / stage_total
        for key in next(iter(self.counts.values())):
            metrics[key] = statistics.fmean(c[key] for c in self.counts.values())
        # The store, timed from outside on this run's own entries: reads
        # from the server's store, writes into a copy next to it.
        served = PersistentResultStore(session.store_dir)
        copy = PersistentResultStore(session.store_dir + "-copy")
        get_seconds = put_seconds = 0.0
        for local, result in self.entries:
            key = cache_key(local["circuit"], local["target"], result.technique,
                            local["options"])
            started = time.perf_counter()
            stored = served.get(key)
            got_at = time.perf_counter()
            copy.put(key, result)
            put_at = time.perf_counter()
            if stored is None:
                raise RuntimeError(f"store has no entry for {result.technique} result")
            get_seconds += got_at - started
            put_seconds += put_at - got_at
        metrics["store.get_s"] = get_seconds / len(self.entries)
        metrics["store.put_s"] = put_seconds / len(self.entries)
        return metrics

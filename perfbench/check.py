"""Checks of the benchmark itself (not run by the benchmark command).

    python3 perfbench/check.py spread --workload smt_solve --seeds 1-10
    python3 perfbench/check.py repeat --workload http_mix --seed 3 --other-seed 4
    python3 perfbench/check.py sensitivity --seeds 1-3

``spread`` runs one seed after another and prints, per end-to-end metric,
the median and the quartile spread (Q3 - Q1) / median next to the bound.
``repeat`` runs a seed twice (untraced and traced) and compares the
deterministic metrics, then a second seed to show the inputs change.
``sensitivity`` runs the workloads with and without each injected delay
(see ``inject.py``) and prints how far each metric moved, against its
bound, on the workload predicted to move and on the bypass workloads.  Results go to
standard output as tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer counts that must repeat exactly for a seed (rates excluded).
EXACT_PER_LAYER_PREFIXES = ("sat.", "smt.", "omt.", "rules.", "cache.")

#: Which workloads each injection must move, and which must stay in bound.
INJECTIONS = {
    "solve": (("smt_solve",), ("suite_sweep",)),
    "evaluate_rules": (("suite_sweep",), ("http_mix",)),
    "merge_1q": (("suite_sweep",), ("smt_solve",)),
    "to_dict": (("http_mix",), ("smt_solve", "suite_sweep")),
}

#: Injected extra share of each layer's own time: large enough that the
#: predicted metric must cross its bound if the layer matters as predicted.
INJECTED_SHARES = {"solve": 1.0, "evaluate_rules": 1.0, "merge_1q": 2.0, "to_dict": 8.0}

#: The end-to-end metric each injection is predicted to move.
PREDICTED = {
    "solve": "latency_s_geomean",
    "evaluate_rules": "latency_s_geomean",
    "merge_1q": "latency_s_geomean",
    "to_dict": "latency_s_p50",
}


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload, seed, trace=0, injections=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(manifest()["run_seconds"]),
               "--trace", str(trace)]
    for spec in injections:
        command += ["--inject", spec]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=900)
    if completed.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(command)}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: {' '.join(command)}\n{completed.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def seeds_of(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values):
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, (quartiles[2] - quartiles[0]) / middle


def cmd_spread(args):
    runs = [run_once(args.workload, seed) for seed in seeds_of(args.seeds)]
    print(f"{args.workload}: {len(runs)} seeds {args.seeds}")
    for metric in manifest()["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        middle, share = spread(values)
        flag = "" if share < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"  {metric['name']:<22} median {middle:.6g}  spread {share:.3f}  "
              f"bound {metric['bound']}{flag}")
        print("    " + " ".join(f"{value:.4g}" for value in values))


def input_labels(workload, seed):
    """Labels of the operations a seed generates (to show seeds differ)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    if workload == "http_mix":
        schedule = inputs.http_schedule(seed)
        return [next(schedule)[0].label for _ in range(2 * inputs.http_prefix())]
    cells = inputs.smt_cells(seed) if workload == "smt_solve" else inputs.sweep_cells(seed)
    return [cell.label for cell in cells]


def cmd_repeat(args):
    labels = input_labels(args.workload, args.seed)
    other_labels = input_labels(args.workload, args.other_seed)
    changed = sum(a != b for a, b in zip(labels, other_labels))
    print(f"{args.workload}: seeds {args.seed} and {args.other_seed} differ in "
          f"{changed} of {len(labels)} generated operations")
    first, second = run_once(args.workload, args.seed), run_once(args.workload, args.seed)
    traced = [run_once(args.workload, args.seed, 1) for _ in range(2)]
    other = run_once(args.workload, args.other_seed)
    same = first["objective_nats_mean"] == second["objective_nats_mean"]
    print(f"{args.workload} seed {args.seed}: objective_nats_mean repeats: {same} "
          f"({first['objective_nats_mean']!r}); seed {args.other_seed}: "
          f"{other['objective_nats_mean']!r}")
    print(f"  result_kib_mean {first['result_kib_mean']!r} / {second['result_kib_mean']!r}"
          f"; seed {args.other_seed}: {other['result_kib_mean']!r}")
    for name in ("throughput_per_s", "latency_s_geomean"):
        print(f"  cost class: {name} {first[name]:.4g} / {second[name]:.4g}; "
              f"seed {args.other_seed}: {other[name]:.4g}")
    for name in sorted(traced[0]):
        if name.startswith(EXACT_PER_LAYER_PREFIXES) and not name.endswith("_per_s"):
            values = (traced[0][name], traced[1][name])
            print(f"  {name:<28} {'same' if values[0] == values[1] else 'DIFFERS'} "
                  f"{values[0]!r}")


def cmd_sensitivity(args):
    bounds = {m["name"]: m for m in manifest()["end_to_end"]}
    workloads = sorted({w for groups in INJECTIONS.values() for group in groups
                        for w in group})
    # Base and injected runs alternate per seed, so slow drift of the host
    # hits both sides alike.
    runs = {}
    for seed in seeds_of(args.seeds):
        for workload in workloads:
            runs.setdefault((workload, None), []).append(run_once(workload, seed))
            for name, share in INJECTED_SHARES.items():
                if workload in INJECTIONS[name][0] + INJECTIONS[name][1]:
                    runs.setdefault((workload, name), []).append(
                        run_once(workload, seed, injections=[f"{name}:{share}"]))
    for name, share in INJECTED_SHARES.items():
        moved, bypass = INJECTIONS[name]
        for workload in moved + bypass:
            role = "predicted" if workload in moved else "bypass"
            print(f"{name}:{share} on {workload} ({role}):")
            for metric, spec in bounds.items():
                if metric == "setup_s":
                    continue
                before = statistics.median(r[metric] for r in runs[(workload, None)])
                after = statistics.median(r[metric] for r in runs[(workload, name)])
                worse = (after - before) / before * (1 if spec["better"] == "lower" else -1)
                mark = "PAST BOUND" if worse > spec["bound"] else "within"
                star = " <- predicted" if workload in moved and metric == PREDICTED[name] else ""
                print(f"  {metric:<22} {before:.6g} -> {after:.6g}  worse by {worse:+.1%} "
                      f"(bound {spec['bound']:.0%}) {mark}{star}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("spread")
    one.add_argument("--workload", required=True)
    one.add_argument("--seeds", default="1-10")
    two = sub.add_parser("repeat")
    two.add_argument("--workload", required=True)
    two.add_argument("--seed", type=int, default=1)
    two.add_argument("--other-seed", type=int, default=2)
    three = sub.add_parser("sensitivity")
    three.add_argument("--seeds", default="1-3")
    args = parser.parse_args()
    {"spread": cmd_spread, "repeat": cmd_repeat, "sensitivity": cmd_sensitivity}[args.command](args)


if __name__ == "__main__":
    main()

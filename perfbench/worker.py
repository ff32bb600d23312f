"""One measured process of the benchmark (started by ``run.py``).

It sets up (imports, inputs, warm-up; for ``http_mix`` also the server),
prints ``READY``, runs the timed loop and prints one JSON line with
``attempted``, ``failed``, ``errors``, ``consistent`` and ``metrics``.
With ``--setup-only`` it stops after ``READY``, which is how ``run.py``
takes extra set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["smt_solve", "suite_sweep", "http_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", action="append", default=[])
    args = parser.parse_args()
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")

    import inject

    for spec in args.inject:
        inject.install(spec)

    if args.workload == "http_mix":
        import http_mix

        session = http_mix.Session(args.seed, WORK, args.inject)
        try:
            session.setup()
            print("READY", flush=True)
            if args.setup_only:
                return 0
            outcome = session.run(args.seconds, bool(args.trace), spans_path)
        finally:
            session.close()
    else:
        import inproc

        cells = inproc.build_cells(args.workload, args.seed)
        inproc.warm_up(cells)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        outcome = inproc.run(cells, args.seed, args.seconds, bool(args.trace), spans_path)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

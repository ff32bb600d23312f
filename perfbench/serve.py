"""Start ``python -m repro.server`` with optional delay injection.

    python3 perfbench/serve.py [--inject TARGET:SHARE ...] -- SERVER ARGS

Without ``--inject`` this is exactly the server's own command line; the
sensitivity check uses the flag to slow a layer inside the server process.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    injections = []
    while argv and argv[0] == "--inject":
        injections.append(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    import inject

    for spec in injections:
        inject.install(spec)
    from repro.server.__main__ import main as serve

    return serve(argv)


if __name__ == "__main__":
    raise SystemExit(main())

"""Child interpreter for cli.cold_op_s: time one op cold, then warm.

    python3 bench/cold_op.py '<argv as a JSON list>'

Prints {"cold_s": ..., "warm_s": ...}: the first call of
``lattice_flows.cli.main(argv)`` after import, and the median of the calls
that follow.  Exits 1 if any call fails.
"""

import contextlib
import io
import json
import statistics
import sys
from time import perf_counter

WARM_REPEATS = 3


def once(main, argv) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = main(argv)
        wall = perf_counter() - t0
    if rc != 0:
        sys.exit(f"op exited {rc}: {argv[:4]}")
    return wall


def main() -> None:
    argv = json.loads(sys.argv[1])
    from lattice_flows.cli import main as cli_main

    cold = once(cli_main, argv)
    warm = statistics.median(once(cli_main, argv) for _ in range(WARM_REPEATS))
    print(json.dumps({"cold_s": cold, "warm_s": warm}))


if __name__ == "__main__":
    main()

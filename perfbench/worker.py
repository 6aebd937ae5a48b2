"""Worker: one fresh interpreter that sets bpalgebra up and runs one job.

    python3 perfbench/worker.py <checkout>/src < job.json

The job is ``{"ops": [...], "trace": false}``.  The worker writes one JSON
object on stdout: the set-up time, and from operations.py each operation's
time, verdict, output digest and calibration, the peak RSS and, when
tracing, the spans.
"""

# Only sys and time load before set-up is timed: whatever bpalgebra imports
# counts in setup_s, as it does for a `bpalg` call.
import sys
import time


def setup(src: str):
    """Import bpalgebra from ``src`` and load its golden tables.

    Returns the package and the seconds taken.
    """
    start = time.perf_counter()
    sys.path.insert(0, src)
    import bpalgebra.cli
    from bpalgebra import tables

    for load in (tables.golden_tables, tables.golden_zhu, tables.golden_states, tables.golden_classify):
        load()
    return bpalgebra, time.perf_counter() - start


if __name__ == "__main__":
    bp, setup_s = setup(sys.argv[1])
    import json

    import operations

    out = operations.run(bp, sys.argv[1], json.load(sys.stdin))
    sys.stdout.write(json.dumps({"setup_s": setup_s, **out}))

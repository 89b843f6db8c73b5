"""Two-party private inference benchmark of mpcadapter.

    python3 inferbench/run.py --workload paper-inproc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One closed-loop client sends requests back to back: a request is one
two-party session carrying the workload's inputs, and the next starts
when the previous one returns.  Each phase begins with set-up (input
generation and encoding, child start and TCP connect where used, one
untimed warm-up request), then times requests for the phase's seconds.

``--trace 0`` sets up ``SETUPS`` times (setup_s is their median), times
requests with tracing off and reports the end-to-end metrics, measured at
party 0, the feature holder.  ``--trace 1`` runs half the time untraced,
then half traced with spans from ``spans.Tracer`` around the library's
layers, and reports per-layer metrics of both parties plus the tracing
overhead.  Both check every output after timing (``checks.py``).

The run confines itself and the party-1 child to one CPU, and itself to
one malloc arena, before numpy loads; it times a request by the CPU time
of both parties.  On one CPU the parties never wait with the CPU idle,
so that CPU time is the request's time on a dedicated core.  Wall time
also counts the time a shared host gives other tenants; it is reported
beside, not gated.

Stdout holds a readable report and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` (counted in inputs) and
``metrics``.  The full result and the spans go to ``inferbench/out/``.
"""

import ctypes
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
M_ARENA_MAX = -8  # glibc mallopt parameter


def one_arena():
    """Let every thread allocate from one glibc malloc arena.  With a
    thread per party on one CPU, per-thread arenas fragment differently
    from run to run: the peak RSS of paper-inproc runs read either about
    101 or about 118 MB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt:
        mallopt(M_ARENA_MAX, 1)


def library_present() -> bool:
    """True if ``mpcadapter`` imports from this checkout's ``src``."""
    if not (SRC / "mpcadapter" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import mpcadapter
    return Path(mpcadapter.__file__).resolve().is_relative_to(SRC)


if __name__ == "__main__":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    one_arena()
    if not library_present():
        sys.exit(f"error: mpcadapter source not found under {SRC}; "
                 "run from the root of a full checkout")
    import bench
    bench.main()

"""Party 1 (the weight holder) of a ``paper-tcp`` session, in its own process.

Started by ``sessions.TcpSession``: connects to party 0, then serves
requests until party 0 closes the connection at a request boundary, or
until a request fails on either side.  The first request is the warm-up.
Prints one JSON line: party 1's meter and CPU seconds per completed
request, the error that ended a failed request, its peak RSS and, with
``--trace``, its per-layer metrics; the spans go to the ``--trace`` file.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpcadapter import nn, runtime  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CONNECT_TIMEOUT_S = 30.0


def connect(port):
    """Connect to party 0, retrying until it listens."""
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            return runtime.tcp_channel(1, "127.0.0.1", port)
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        with tracer.party(1) if tracer else contextlib.nullcontext():
            weights = workloads.make_weights(wl.config, args.seed)
            channel = connect(args.port)

        meters, cpu_s, error = [], [], None
        index = -1
        while True:
            snap = channel.meter.snapshot()
            cpu0 = time.process_time()
            mark = tracer.mark() if tracer else 0
            protocol = nn.inference_party(1, wl.config,
                                          workloads.request_seed(args.seed, index),
                                          weights=weights)
            try:
                protocol(channel)
            except (runtime.ChannelError, OSError) as e:
                if channel.meter.snapshot() != snap:
                    error = repr(e)  # party 0 failed or vanished mid-request
                elif tracer:
                    # Party 0 closed the connection between requests.
                    tracer.discard_since(mark)
                break
            except Exception as e:
                error = repr(e)
                channel.abort(f"party 1: {e!r}")
                break
            meters.append(channel.meter.since(snap))
            cpu_s.append(time.process_time() - cpu0)
            index += 1
            if tracer:
                tracer.scope = "request"
        channel.end.close()
    finally:
        if tracer:
            tracer.uninstall()

    report = {"meters": meters, "cpu_s": cpu_s, "error": error,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        totals = spans.aggregate(tracer.spans())
        report["layers"] = spans.party_metrics(totals, 1, max(1, len(meters) - 1))
        report["runtime_errors"] = spans.party_errors(totals, 1)
        tracer.write(args.trace, {"workload": wl.name, "seed": args.seed,
                                   "process": "party 1"})
    print(json.dumps(report))


if __name__ == "__main__":
    main()

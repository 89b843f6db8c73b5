"""Phases, metrics and report of the benchmark; ``run.py`` is the entry point."""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mpcadapter import costmodel, kernels, runtime

import checks
import sessions
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")

E2E_UNITS = {"request_cpu_s_p50": "s", "request_cpu_s_tail": "s",
             "wan_s_p50": "s", "lan_s_p50": "s",
             "rounds_per_request": "count", "bytes_per_input": "B",
             "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """(value, percentile): the highest order statistic with at least
    TAIL_BEYOND samples above it, or the upper median if that one lies
    below it."""
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND, len(s) // 2 + 1)
    return s[k - 1], 100.0 * k / len(s)


def git_commit():
    """HEAD commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(wl, seed):
    backend = getattr(kernels, "backend", None)
    return {
        "commit": git_commit(),
        "workload": wl.name,
        "seed": seed,
        "config": vars(wl.config) | {"inputs_per_request": wl.inputs_per_request},
        "transport": ("one loopback TCP connection to a child process"
                      if wl.transport == "tcp" else "in-process channel pair")
                     + " on one CPU",
        "kernels_backend": backend() if callable(backend) else "n/a",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# phases

def run_phase(wl, seed, seconds, setups, tracer=None, p1_trace=None):
    """Set up ``setups`` times, keep the last session, then time requests.

    Returns a dict with the set-up times, the timed requests, the timed
    seconds and the child reports (TCP only).  A request's ``cpu_s`` is
    the CPU time both parties spent on it: this process's, plus the
    child's on TCP.
    """
    def as_party(pid):
        return tracer.party(pid) if tracer else contextlib.nullcontext()

    session, children, setup_s = None, [], []
    for _ in range(setups):
        if session:
            children.append(session.close())
        if tracer:
            tracer.scope = spans.SETUP
        t0 = time.perf_counter()
        with as_party(0):
            pool = workloads.make_pool(wl, seed)
        if wl.transport == "tcp":
            with as_party(0):
                session = sessions.TcpSession(wl, seed, p1_trace)
        else:
            with as_party(1):
                weights = workloads.make_weights(wl.config, seed)
            session = sessions.InProcSession(wl, weights)
        try:
            session.request(workloads.request_seed(seed, -1), pool[0])
        except BaseException:
            with contextlib.suppress(Exception):
                session.close()
            raise
        setup_s.append(time.perf_counter() - t0)

    if tracer:
        tracer.scope = "request"
    requests = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        i = len(requests)
        req = {"batch": i % len(pool), "error": None, "result": None}
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            req["result"], req["m0"], req["m1"] = session.request(
                workloads.request_seed(seed, i), pool[req["batch"]])
        except Exception as e:  # noqa: BLE001 - a failed request is counted
            req["error"] = repr(e)
        t1 = time.perf_counter()
        req["wall_s"], req["cpu_s"] = t1 - t0, time.process_time() - cpu0
        requests.append(req)
        if t1 >= deadline or (req["error"] and wl.transport == "tcp"):
            break
    timed_s = time.perf_counter() - start
    children.append(session.close())
    if wl.transport == "tcp":
        child = children[-1]  # its first meter and CPU time are the warm-up's
        for req, m1, cpu1 in zip(requests, child["meters"][1:], child["cpu_s"][1:]):
            req["m1"] = m1
            req["cpu_s"] += cpu1
    return {"setup_s": setup_s, "requests": requests, "timed_s": timed_s,
            "children": children, "pool": pool}


def end_to_end(wl, phase):
    """End-to-end metrics of a phase and the facts needed to read them."""
    def meter(snap):
        m = runtime.CommMeter()
        m.rounds, m.bytes_sent = snap
        return m

    ok = [r for r in phase["requests"] if r["error"] is None]
    if not ok:
        raise RuntimeError("every timed request raised: "
                           + phase["requests"][0]["error"])
    walls = [r["wall_s"] for r in ok]
    cpus = [r["cpu_s"] for r in ok]
    merged = [runtime.merge_meters(meter(r["m0"]), meter(r["m1"])) for r in ok]
    k = wl.inputs_per_request
    tail_s, tail_pct = tail(cpus)
    metrics = {
        "request_cpu_s_p50": statistics.median(cpus),
        "request_cpu_s_tail": tail_s,
        "wan_s_p50": statistics.median(
            c + runtime.simulate_latency(m, runtime.WAN) for c, m in zip(cpus, merged)),
        "lan_s_p50": statistics.median(
            c + runtime.simulate_latency(m, runtime.LAN) for c, m in zip(cpus, merged)),
        "rounds_per_request": statistics.median(m.rounds for m in merged),
        "bytes_per_input": statistics.median(m.total_bytes for m in merged) / k,
        "setup_s": statistics.median(phase["setup_s"]),
    }
    facts = {"tail_percentile": tail_pct, "requests": len(phase["requests"]),
             "requests_ok": len(ok), "timed_s": phase["timed_s"],
             "inputs_per_cpu_s": k * len(ok) / sum(cpus),
             "wall request_s_p50": statistics.median(walls),
             "wall request_s_tail": tail(walls)[0],
             "wall inputs_per_s": k * len(ok) / phase["timed_s"],
             "cpu_share": sum(cpus) / sum(walls),
             "setup_s_all": phase["setup_s"],
             "request_walls_s": [r["wall_s"] for r in phase["requests"]],
             "request_cpus_s": [r["cpu_s"] for r in phase["requests"]]}
    return metrics, facts


def costmodel_rows(wl, metrics):
    """Engine bytes and modeled WAN time against the published cost model."""
    k = wl.inputs_per_request
    return {
        "costmodel.bytes_ratio":
            metrics["bytes_per_input"] / (costmodel.estimate_comm_gb(wl.config) * 1e9),
        "costmodel.wan_ratio":
            metrics["wan_s_p50"] / k / costmodel.estimate_latency(wl.config)[2],
    }


def peak_rss_mb(phase):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = max((c.get("peak_rss_kb", 0) for c in phase["children"]), default=0)
    return (own + child) / 1024.0


def check(wl, seed, phases):
    """Run the output check over the timed requests of every phase."""
    weights = workloads.make_weights(wl.config, seed)
    refs = checks.references(wl.config, weights, phases[0]["pool"])
    return checks.account([r for p in phases for r in p["requests"]], refs, wl)


# ---------------------------------------------------------------------------
# runs

def run_untraced(wl, seed, seconds):
    phase = run_phase(wl, seed, seconds, SETUPS)
    metrics, facts = end_to_end(wl, phase)
    metrics["peak_rss_mb"] = peak_rss_mb(phase)  # before the reference work
    counts = check(wl, seed, [phase])
    return ({m: (v, E2E_UNITS[m]) for m, v in metrics.items()}, counts,
            facts | costmodel_rows(wl, metrics))


def run_traced(wl, seed, seconds):
    OUT.mkdir(exist_ok=True)
    untraced = run_phase(wl, seed, seconds / 2, 1)
    base, _ = end_to_end(wl, untraced)
    p1_trace = OUT / f"trace-{wl.name}.party1.json" if wl.transport == "tcp" else None
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, seed, seconds / 2, 1, tracer=tracer,
                           p1_trace=p1_trace)
    finally:
        tracer.uninstall()
    with_trace, facts = end_to_end(wl, traced)
    counts = check(wl, seed, [untraced, traced])

    n = len(traced["requests"])
    totals = spans.aggregate(tracer.spans())
    layers = {"p0": spans.party_metrics(totals, 0, n)}
    errors = {"p0": spans.party_errors(totals, 0)}
    if wl.transport == "tcp":
        layers["p1"] = traced["children"][-1]["layers"]
        errors["p1"] = traced["children"][-1]["runtime_errors"]
    else:
        layers["p1"] = spans.party_metrics(totals, 1, n)
        errors["p1"] = spans.party_errors(totals, 1)
    tracer.write(OUT / f"trace-{wl.name}.json",
                 {"workload": wl.name, "seed": seed, "process": "benchmark"})

    metrics = {f"{p}.{m}": (v, spans.unit_of(m))
               for p, values in layers.items() for m, v in values.items()}
    metrics["trace.overhead"] = (with_trace["request_cpu_s_p50"]
                                 / base["request_cpu_s_p50"], "ratio")
    metrics.update({m: (v, "ratio") for m, v in costmodel_rows(wl, base).items()})
    facts |= {"untraced_request_cpu_s_p50": base["request_cpu_s_p50"],
              "traced_request_cpu_s_p50": with_trace["request_cpu_s_p50"],
              "traced_requests": n,
              "runtime.errors": errors}
    return metrics, counts, facts


def report_lines(meta, metrics, counts, facts, tol):
    k = meta["config"]["inputs_per_request"]
    att = max(counts["attempted"], 1)
    lines = [f"# workload {meta['workload']}  seed {meta['seed']}  "
             f"commit {meta['commit']}",
             f"# {meta['transport']}; kernels {meta['kernels_backend']}, "
             f"numpy {meta['numpy']}, python {meta['python']}, "
             f"nproc {meta['nproc']} ({meta['cpus_usable']} usable), "
             f"thread env {meta['thread_env']}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:36s} {value:.6g} {unit}")
    lines += [
        f"{'error_rate':36s} {counts['failed'] / att:.6g} ratio "
        f"({counts['failed']} of {counts['attempted']} inputs failed: "
        f"{counts['raised']} raised, {counts['ledger']} off the ledger, "
        f"{counts['twin']} off the fixed-point twin by > {tol:.3g})",
        f"{'ref_argmax_agree':36s} {counts['ref_argmax_agree'] / att:.6g} ratio",
        f"{'ref_within_tol':36s} {counts['ref_within_tol'] / att:.6g} ratio "
        f"(max-abs logit error <= 1e-2 vs float64)",
    ]
    lines += [f"# {key}: {value}" for key, value in facts.items()
              if key not in ("request_walls_s", "request_cpus_s")]
    lines += [f"# failed: request {f['request']} input {f['input']} "
              f"{f['reason']} {f['detail']}" for f in counts["failures"][:5]]
    lines.append(f"# {k} input(s) per request; failure counts are inputs")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    metrics, counts, facts = run(wl, args.seed, args.seconds)

    meta = metadata(wl, args.seed)
    tol = checks.twin_tolerance(wl)
    OUT.mkdir(exist_ok=True)
    full = {"meta": meta, "trace": args.trace, "seconds": args.seconds,
            "twin_tolerance": tol, "counts": counts, "facts": facts,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))
    for line in report_lines(meta, metrics, counts, facts, tol):
        print(line)
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": full["metrics"]}))


"""Runs one workload in this fresh process and prints its raw results as JSON.

Started by run.py with ``src`` on PYTHONPATH.  A closed loop: one caller, one
thread, each query sent after the previous one returns.  The same query list
is repeated in passes while the time budget lasts.  Untraced runs time one
fresh-process set-up probe (setup_probe.py) after each pass, so the probes
are spread over the run, and top them up to SETUP_PROBES at the end.  With
``--trace 1`` the passes alternate untraced and traced, so the tracing
overhead is measured on the same inputs; spans of the first traced pass are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

SETUP_PROBES = 7
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def probe_setup():
    out = subprocess.run([sys.executable, str(PROBE)], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(queries, tracer):
    latencies, lines, failures = [], [], []
    failed = 0
    start = time.perf_counter()
    for qid, (label, fn) in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        t0 = time.perf_counter()
        try:
            ok, out = fn()
        except Exception as e:  # a query that raises is a failed query
            ok, out = False, [f"raised {type(e).__name__}: {e}"]
            detail = traceback.format_exc(limit=4)
        else:
            detail = f"wrong answer: {out[:3]}"
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{label}: {detail}")
        lines.append(label)
        lines.extend(out)
    if tracer is not None:
        tracer.query = None
    seconds = time.perf_counter() - start
    text = "".join(line + "\n" for line in lines).encode("utf-8")
    return {
        "seconds": seconds,
        "latencies": latencies,
        "attempted": len(queries),
        "failed": failed,
        "failures": failures,
        "digest": hashlib.sha256(text).hexdigest(),
        "lines": len(lines),
    }


def trace_summary(tracer, npasses):
    """Per-layer totals, divided by the number of traced passes."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls / npasses
        out[f"{name}.self_s"] = st.self_s / npasses
        out[f"{name}.cache_hit_ratio"] = st.hits / st.calls if st.calls else 0.0
        for key, val in st.sizes.items():
            out[f"{name}.{key}"] = val if key.startswith("max_") else val / npasses
    for name, count in tracer.counters.items():
        out[name] = count / npasses
    out["trace.spans"] = tracer.span_total / npasses
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    tracer = Tracer() if args.trace else None
    passes, probes = [], []
    if not args.trace:
        probe_setup()  # warm-up: writes the byte-code caches
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        queries = wl.pass_queries()
        if traced:
            tracer.install()
        try:
            res = run_pass(queries, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                tracer.record_spans = False
        res["traced"] = traced
        passes.append(res)
        if not args.trace:
            probes.append(probe_setup())
        # stop when the next pass of the same kind would overrun the budget
        need = 2 if args.trace else 1
        nxt = bool(args.trace) and len(passes) % 2 == 1
        same = [p["seconds"] for p in passes if p["traced"] == nxt]
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed + same[-1] > args.seconds:
            break
    while not args.trace and len(probes) < SETUP_PROBES:
        probes.append(probe_setup())

    result = {"passes": passes, "setup_probes": probes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        ntraced = sum(1 for p in passes if p["traced"])
        summary = trace_summary(tracer, ntraced)
        in_queries = sum(sum(p["latencies"]) for p in passes if p["traced"])
        summary["query.self_s"] = (in_queries - tracer.top_level_s) / ntraced
        plain = [p["seconds"] for p in passes if not p["traced"]]
        traced_s = [p["seconds"] for p in passes if p["traced"]]
        summary["trace.run_s"] = statistics.median(traced_s)
        summary["trace.untraced_run_s"] = statistics.median(plain)
        summary["trace.overhead_ratio"] = (summary["trace.run_s"]
                                           / summary["trace.untraced_run_s"])
        result["trace"] = summary
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_written"] = len(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""diffcech benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload nerve-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The workload runs in a fresh child process (child.py), one query
at a time.  Report lines go to stdout; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The full record (metadata, digests, every metric) is also written to
``.perfbench/results/``.  The exit code is 0 when every answer was right,
1 when some answer was wrong, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

RUN_LIMIT_S = 170         # the whole run ends within this, or it fails

WORKLOADS = ["nerve-cli", "quotient-solve", "cochain-stream"]

END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("run_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

LAYERS = ["presentation.tuples", "presentation.build", "presentation.affine_of",
          "cech.boundary_matrix", "coeff.snf", "linalg.rref", "linalg.rank",
          "funclass.compose_affine", "funclass.affine_compose",
          "cech.crossed_value", "cech.crossed_single", "cech.cohomology",
          "cech.coboundary", "cech.is_cocycle", "cech.classes_equal",
          "cech.pullback_cochain", "grpcoh.h1_group",
          "grpcoh.crossed_from_cocycle", "grpcoh.cocycle_from_crossed",
          "average.trivializing_homotopy", "bundle.bundle_from_cocycle",
          "bundle.cocycle_from_bundle", "bundle.is_trivializable",
          "bundle.isomorphic", "bundle.pullback_bundle", "serialize.load",
          "serialize.from_dict", "serialize.dump", "cli.run"]

# extra per-layer metrics beyond calls and self_s, with their units
_EXTRA = {
    "presentation.tuples": [("out_count", "count"), ("examined", "count"),
                            ("cache_hit_ratio", "ratio")],
    "presentation.affine_of": [("cache_hit_ratio", "ratio")],
    "cech.boundary_matrix": [("entries", "count")],
    "coeff.snf": [("entries", "count"), ("max_dim", "count")],
    "linalg.rref": [("entries", "count")],
    "funclass.compose_affine": [("terms_in", "count")],
    "cech.crossed_single": [("cache_hit_ratio", "ratio")],
    "serialize.load": [("bytes", "bytes")],
    "serialize.dump": [("bytes", "bytes")],
}
_NO_SELF = {"linalg.rank", "cech.crossed_single"}


def per_layer_names():
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.calls", "count"))
        if layer not in _NO_SELF:
            names.append((f"{layer}.self_s", "s"))
        names.extend((f"{layer}.{key}", unit) for key, unit in _EXTRA.get(layer, []))
    names += [("coeff.scalar.add_calls", "count"),
              ("coeff.scalar.mul_calls", "count"),
              ("coeff.scalar.div_calls", "count"),
              ("query.self_s", "s"),
              ("trace.spans", "count"),
              ("trace.run_s", "s"),
              ("trace.untraced_run_s", "s"),
              ("trace.overhead_ratio", "ratio")]
    return names


PER_LAYER = per_layer_names()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("DIFFCECH_SEED", None)
    return env


# -- run metadata (recorded, never gated on) --------------------------------

def calibrate():
    """Median time of a fixed stdlib Fraction loop, to spot a slow machine."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 20001):
            acc = Fraction(i % 97, 7) * Fraction(3, i % 13 + 1) + acc % 5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata():
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_fraction_s": calibrate(),
    }


# -- measurements -------------------------------------------------------------

def nearest_rank(sorted_vals, pct):
    idx = max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n queries beyond it."""
    return max(50, min(99, math.floor(100 - 1000 / n)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-test")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "diffcech" / "__init__.py").is_file():
        fail(f"no diffcech sources under {SRC}; run from a source checkout")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    meta = metadata()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    spans_file = OUT / "trace" / f"{tag}.spans.jsonl"

    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir),
           "--spans", str(spans_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"workload process failed with exit code {proc.returncode}:\n"
             f"{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    passes = raw["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # every pass repeats the same inputs, so every pass must print the same
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and len(digests) == 1

    report = [f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} size={args.size}"]
    report += [f"meta {k}={v}" for k, v in meta.items()]
    metrics = {}
    if args.trace:
        trace = raw["trace"]
        for name, unit in PER_LAYER:
            metrics[name] = {"value": trace.get(name, 0.0), "unit": unit}
        traced = [p for p in passes if p["traced"]]
        selfs = sorted(((trace[f"{layer}.self_s"], layer) for layer in LAYERS
                        if f"{layer}.self_s" in trace), reverse=True)
        for sec, layer in selfs[:8]:
            report.append(f"profile {layer} self_s={sec:.4g} "
                          f"share={sec / trace['trace.run_s']:.3f}")
        note = (f"per traced pass, {len(traced)} traced and "
                f"{len(passes) - len(traced)} untraced passes; "
                f"{raw['spans_written']} spans in {spans_file.relative_to(ROOT)}")
    else:
        # every pass repeats the same inputs, and host interference only adds
        # time, so each query counts with its fastest pass
        best = [min(p["latencies"][i] for p in passes)
                for i in range(len(passes[0]["latencies"]))]
        lat = sorted(best)
        pct = tail_percentile(len(lat))
        metrics["setup_s"] = statistics.median(raw["setup_probes"])
        metrics["run_s"] = sum(best)
        metrics["query_p50_ms"] = statistics.median(lat) * 1e3
        tail = nearest_rank(lat, pct)
        metrics["query_tail_ms"] = tail * 1e3
        metrics["peak_rss_mb"] = raw["peak_rss_kb"] / 1024
        units = dict(END_TO_END)
        metrics = {name: {"value": metrics[name], "unit": units[name]}
                   for name, _ in END_TO_END}
        note = (f"setup_s: median of {len(raw['setup_probes'])} fresh "
                f"processes spread over the run; each of {len(lat)} queries "
                f"timed by its fastest of {len(passes)} passes; run_s: their "
                f"sum; query_tail_ms: p{pct}, "
                f"{sum(1 for x in lat if x > tail)} queries beyond")
    for name, m in metrics.items():
        report.append(f"metric {name} {m['value']:.6g} {m['unit']}")
    report.append(f"note {note}")
    report.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    report.append(f"output_sha256 {passes[0]['digest']} "
                  f"(pass 0, {passes[0]['lines']} report lines; "
                  + ("all passes agree)" if len(digests) == 1
                     else f"passes DISAGREE: {len(digests)} digests)"))
    for p in passes:
        for f in p["failures"]:
            report.append(f"failure {f}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "meta": meta, "metrics": metrics, "attempted": attempted,
              "failed": failed, "output_sha256": passes[0]["digest"],
              "passes": [{k: v for k, v in p.items() if k != "latencies"}
                         for p in passes]}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for line in report:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

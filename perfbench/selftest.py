"""Seconds-long self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that each run is correct, that the metric names and units it
prints are exactly those BENCHMARK.json declares, and that the two runs of
one seed print the same output digest.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    digest = next((m.group(1) for ln in lines
                   if (m := re.match(r"output_sha256 ([0-9a-f]{64})", ln))), None)
    return json.loads(lines[-1]), digest, ""


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        digests = []
        for trace in (0, 1):
            result, digest, err = run(name, trace)
            if result is None:
                problems.append(f"{name} trace={trace}: {err}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                problems.append(f"{name} trace={trace}: metric names or units "
                                f"differ; missing {missing}, extra {extra}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: incorrect result")
            digests.append(digest)
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} queries, digest {str(digest)[:16]}")
        if len(digests) == 2 and (None in digests or digests[0] != digests[1]):
            problems.append(f"{name}: output digest differs between runs "
                            f"of one seed: {digests}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

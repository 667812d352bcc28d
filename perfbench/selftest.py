#!/usr/bin/env python3
"""The benchmark's own test.

Runs the small size of every workload in BENCHMARK.json, untraced and
traced, and checks that each run's result object names exactly the
end-to-end (or per-layer) metrics of BENCHMARK.json, each with its unit,
and that every oracle passed. Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                                   "--trace", str(trace), "--size", "small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = "%s trace=%d" % (w["name"], trace)
            try:
                r = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print("FAIL %s: no result (exit %d)\n%s" % (label, out.returncode, out.stderr[-2000:]))
                bad += 1
                continue
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            problems = []
            if out.returncode != 0:
                problems.append("exit %d" % out.returncode)
            if units != expected[trace]:
                problems.append("metrics differ from BENCHMARK.json: %s"
                                % sorted(set(units.items()) ^ set(expected[trace].items())))
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("oracle failures: %d of %d" % (r["failed"], r["attempted"]))
            print("%s %s%s" % ("FAIL" if problems else "ok  ", label,
                               ": " + "; ".join(problems) if problems else ""))
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

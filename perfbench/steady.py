"""Steadiness check: two alternating sets of runs of the same code.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json it runs the benchmark command 20
times, one process at a time, alternating set A (seeds 1..10) and set B
(seeds 101..110), and alternating which set goes first. It prints each
end-to-end metric's median and quartiles per set, the quartile spread
as a share of the median, and how far set B's median lies from set A's,
beside the metric's bound. It exits with 1 if a run fails an operation
or a check, if a spread other than that of setup_s exceeds its bound,
or if the two medians differ by more than the bound in either direction.
Raw results go to .perfbench/steady/.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "report": lines[:-1]}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": RUNS, "results": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = (1 if name == "A" else 101) + i
                sets[name].append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
        record["results"][workload] = sets
        print(f"\n{workload}: {RUNS} runs per set")
        for name in ("A", "B"):
            att = [r["attempted"] for r in sets[name]]
            fail = [r["failed"] for r in sets[name]]
            wrong = sum(not r["correct"] for r in sets[name])
            print(f"  set {name}: attempted {sum(att)}, failed {sum(fail)}, incorrect runs {wrong}")
            ok &= wrong == 0 and sum(fail) == 0
        for metric, bound in bounds.items():
            cols = []
            for name in ("A", "B"):
                cols.append(spread([r["metrics"][metric]["value"] for r in sets[name]]))
            shift = cols[1][0] / cols[0][0] - 1.0
            steady = abs(shift) <= bound and (metric == "setup_s" or max(c[3] for c in cols) <= bound)
            ok &= steady
            print(f"  {metric:12s} bound {bound:.2f} | "
                  + " | ".join(f"{n} median {c[0]:.4f} [q1 {c[1]:.4f}, q3 {c[2]:.4f}] spread {c[3]:.3f}"
                               for n, c in zip("AB", cols))
                  + f" | B/A - 1 = {shift:+.3f} {'ok' if steady else 'OUT OF BOUND'}")
    out = os.path.join(ROOT, ".perfbench", "steady")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run full sets of bench_e2e and write a results bundle.

    python3 bench_e2e/sweep.py [--out FILE]

Run from the repository root. Builds like run.py, then runs every workload
of BENCHMARK.json once per seed (seeds 0..9), as two independent sets with
workloads interleaved seed by seed, then one traced run per workload
(seed 0). Each run lasts BENCHMARK.json's run_seconds. The bundle holds
{"sets": {"set1": [runs], "set2": [runs], "traced": [runs]}}; every run
is the document `bench_e2e --out` writes. The table printed at the end gives,
per set and end-to-end metric, the median and the spread (interquartile
range / median) against the metric's bound, and how far the last set's
median moved from the first's. Compare sets with bench_diff.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_diff  # noqa: E402
import run  # noqa: E402

SEEDS = 10  # bench_diff's gain rule needs 10 seed-paired runs
SETS = 2


def one_run(binary: Path, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    out = run.build_dir() / f"sweep-{workload}-{seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if traced:
        cmd += ["--trace", str(run.build_dir() / f"trace-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, env=run.bench_env(), stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"sweep.py: {workload} seed {seed} exited {proc.returncode}")
    doc = json.loads(out.read_text())
    out.unlink()
    print(f"  {workload:<16} seed {seed:<3} {json.dumps(proc.stdout.splitlines()[-1])[:150]}",
          flush=True)
    return doc


def report(bench: dict, sets: dict) -> None:
    names = [n for n in sets if n != "traced"]
    print(f"\n{'workload':<16} {'metric':<15} {'set':<5} {'median':>11} "
          f"{'spread':>7} {'bound/3':>8} {'drift':>7}")
    for w in (x["name"] for x in bench["workloads"]):
        for metric in bench["end_to_end"]:
            first = None
            for name in names:
                cell = bench_diff.cells(sets[name]).get((w, metric["name"]), {})
                values = list(cell.values())
                if not values:
                    continue
                med = statistics.median(values)
                first = med if first is None else first
                drift = bench_diff.worse_share(first, med, metric["better"])
                print(f"{w:<16} {metric['name']:<15} {name:<5} {med:>11.4f} "
                      f"{bench_diff.spread(values):>7.1%} {metric['bound'] / 3:>8.1%} "
                      f"{drift:>+7.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(run.build_dir() / "BENCH_e2e.json"))
    args = parser.parse_args()

    bench = bench_diff.load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    binary = run.build()
    sets = {}
    for s in range(1, SETS + 1):
        print(f"set{s}:", flush=True)
        sets[f"set{s}"] = [one_run(binary, w, seed, seconds, False)
                           for seed in range(SEEDS) for w in workloads]
    print("traced:", flush=True)
    sets["traced"] = [one_run(binary, w, 0, seconds, True) for w in workloads]
    Path(args.out).write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    report(bench, sets)
    print(f"\nbundle: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two sets of bench_e2e results cell by cell (workload x metric).

    python3 bench_e2e/bench_diff.py BASE CHANGE

BASE and CHANGE each name a set of run documents (written by
`bench_e2e --out`): a directory of them, one such file, or one set of a
results bundle written by sweep.py, as `bundle.json#set`. Only the
end-to-end metrics of the repository's BENCHMARK.json are compared, with
its bounds:

  regression  the change's median is worse than the base's by more than
              the bound;
  unresolved  the run-to-run spread (interquartile range / median) of
              either side exceeds the bound, and not every change run beats
              every base run;
  gain        at least 10 runs pair up by seed, the change wins at least 9
              in 10 pairs (ties count for neither), and the medians differ
              by more than the base's interquartile range;
  ok          none of the above.

Exit code 1 when any cell is a regression or unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(spec: str) -> list:
    """Run documents of one set; see the module docstring for `spec`."""
    path, _, set_name = spec.partition("#")
    p = Path(path)
    if p.is_dir():
        return [json.loads(f.read_text()) for f in sorted(p.glob("*.json"))]
    doc = json.loads(p.read_text())
    if set_name:
        return doc["sets"][set_name]
    return [doc]


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def cells(runs: list) -> dict:
    """{(workload, metric): {seed: value}} over untraced runs."""
    out = {}
    for run in runs:
        if run.get("traced"):
            continue
        for name, cell in run["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = cell["value"]
    return out


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_share(base: float, change: float, better: str) -> float:
    """How much worse `change` is than `base`, as a share of `base`."""
    delta = (change - base) if better == "lower" else (base - change)
    return delta / base if base else 0.0


def judge(base: dict, change: dict, metric: dict) -> tuple:
    b = list(base.values())
    c = list(change.values())
    bmed, cmed = statistics.median(b), statistics.median(c)
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    worse = worse_share(bmed, cmed, metric["better"])

    def beats(x, y):
        return x < y if lower else x > y

    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for bv, cv in pairs if beats(cv, bv))
    b_iqr = 0.0
    if len(b) >= 2:
        q1, _, q3 = statistics.quantiles(b, n=4)
        b_iqr = q3 - q1
    sp = max(spread(b), spread(c))
    if sp > bound and not all(beats(cv, bv) for cv in c for bv in b):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(cmed - bmed) > b_iqr):
        verdict = "gain"
    else:
        verdict = "ok"
    return verdict, bmed, cmed, worse, sp, f"{wins}/{len(pairs)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    bench = load_benchmark()
    base, change = cells(load_runs(args.base)), cells(load_runs(args.change))
    workloads = [w["name"] for w in bench["workloads"]]
    header = (f"{'workload':<16} {'metric':<15} {'base':>11} {'change':>11} "
              f"{'worse':>8} {'bound':>6} {'spread':>7} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    bad = 0
    for w in workloads:
        for metric in bench["end_to_end"]:
            key = (w, metric["name"])
            if key not in base or key not in change:
                print(f"{w:<16} {metric['name']:<15} {'missing':>11}")
                bad += 1
                continue
            verdict, bmed, cmed, worse, sp, wins = judge(base[key], change[key], metric)
            bad += verdict in ("regression", "unresolved")
            print(f"{w:<16} {metric['name']:<15} {bmed:>11.4f} {cmed:>11.4f} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%} {sp:>7.1%} {wins:>6}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare benchmark result sets, or check that one set is steady.

    python3 bench/compare.py RESULTS_DIR
    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

A result set is a directory of ``<workload>-seed<n>-trace<t>.json`` files
as ``bench/run.py`` writes them to ``bench/out/``.  Only untraced
(``trace0``) results are read; bounds come from ``BENCHMARK.json``.

With one directory, each row is a workload x end-to-end metric with its
median, quartiles and spread (interquartile range over median); the
spread should stay below a third of the metric's bound.

With two, runs are paired by seed.  Each row shows both medians and
quartiles, the change's win fraction over the pairs (ties count for
neither side) and a verdict:

* ``REGRESSION``  change median worse than parent median by more than the bound
* ``unresolved``  either side's spread exceeds the bound, and the runs overlap
* ``gain``        change wins >= 90% of pairs and the medians differ by more
                  than the parent's interquartile range
* ``same``        none of the above
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    """{workload: {metric: {seed: value}}} from a directory of results."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs = out.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            runs.setdefault(name, {})[record["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def steadiness(results, spec) -> int:
    print(f"{'workload':12s} {'metric':18s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    wide = 0
    for workload, metrics in sorted(results.items()):
        for name, m in spec.items():
            values = list(metrics.get(name, {}).values())
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else (" wide" if s <= m["bound"] else " WIDE")
            wide += flag == " WIDE"
            print(f"{workload:12s} {name:18s} {len(values):3d} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {s:7.3f} {m['bound']:6.2f}{flag}")
    return 1 if wide else 0


def verdict(parent, change, m) -> tuple[float, str]:
    """Win fraction of the change over seed-paired runs, and the verdict."""
    higher = m["better"] == "higher"
    sign = 1.0 if higher else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    win = wins / len(seeds) if seeds else float("nan")
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if worse > m["bound"]:
        return win, "REGRESSION"
    if max(spread(p_vals), spread(c_vals)) > m["bound"] and not all_better:
        return win, "unresolved"
    if win >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return win, "gain"
    return win, "same"


def compare(parent, change, spec) -> int:
    print(f"{'workload':12s} {'metric':18s} {'pairs':>5s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'win':>5s}  verdict")
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        for name, m in spec.items():
            p = parent.get(workload, {}).get(name, {})
            c = change.get(workload, {}).get(name, {})
            if not p or not c:
                print(f"{workload:12s} {name:18s} missing on one side")
                continue
            win, v = verdict(p, c, m)
            regressions += v == "REGRESSION"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"{workload:12s} {name:18s} {len(set(p) & set(c)):5d} "
                  f"{pq[1]:12.5g} [{pq[0]:10.5g}, {pq[2]:10.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:10.5g}, {cq[2]:10.5g}] {win:5.2f}  {v}")
    return 1 if regressions else 0


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sets = [load(d) for d in argv]
    if not all(sets):
        print("error: no *-trace0.json results found", file=sys.stderr)
        return 2
    return steadiness(sets[0], spec) if len(sets) == 1 else compare(*sets, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

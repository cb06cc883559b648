#!/usr/bin/env python3
"""Compare two sets of svcbench runs, or summarise the spread of one set.

    python3 svcbench/compare.py PARENT_DIR CHANGE_DIR
    python3 svcbench/compare.py --spread RUNS_DIR

Each directory holds one file per run: the captured stdout of
`svcbench/run.py ... --trace 0`. The workload and seed come from the run's
`config` line, the metrics and the failed/attempted counts from its last line
(the JSON result). Runs of the two sets are paired by (workload, seed).

For every workload x end-to-end metric of BENCHMARK.json the comparison
prints each side's median and quartiles, the share of pairs the change wins
(ties count for neither side), and a verdict (choosing-metrics guide, s. 8):

  improved    the change wins >= 90% of pairs and the medians differ, in the
              better direction, by more than the parent's quartile spread;
  unresolved  the parent's own quartile spread is wider than the metric's
              bound, and not every change run beats every parent run;
  worse       the change median is worse than the parent's by more than the
              bound (a share of the parent median);
  unchanged   otherwise.

A gain does not count when more requests fail: if the change's paired runs
fail a larger share of their attempted requests than the parent's, every
improved or unchanged verdict of that workload reads "worse (failures)".
Each workload's failure shares are printed on a `failed` row.
"""
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_RE = re.compile(r"^config\s+workload=(\S+)\s+seed=(\d+)")


def load_runs(directory):
    """{(workload, seed): {"metrics", "attempted", "failed"}} for every run
    file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line.rstrip("\n") for line in f if line.strip()]
        key = None
        for line in lines:
            m = CONFIG_RE.match(line)
            if m:
                key = (m.group(1), int(m.group(2)))
                break
        if key is None or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        if result.get("correct") is not True:
            continue
        runs[key] = {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"],
            "failed": result["failed"],
        }
    return runs


def fail_share(runs, keys):
    attempted = sum(runs[k]["attempted"] for k in keys)
    return sum(runs[k]["failed"] for k in keys) / attempted if attempted else 0.0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_dir, change_dir, spec):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-12s %-16s %28s %28s %6s  %s"
          % ("workload", "metric", "parent q1/median/q3",
             "change q1/median/q3", "wins", "verdict"))
    for workload in workloads:
        keys = sorted(k for k in parent if k[0] == workload and k in change)
        parent_fail, change_fail = fail_share(parent, keys), fail_share(change, keys)
        more_failures = change_fail > parent_fail
        if keys:
            print("%-12s %-16s %28.6f %28.6f %6s  %s"
                  % (workload, "failed", parent_fail, change_fail, "",
                     "worse" if more_failures else "not more"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [parent[k]["metrics"][name] for k in keys]
            cv = [change[k]["metrics"][name] for k in keys]
            if not pv:
                print("%-12s %-16s no paired runs" % (workload, name))
                continue
            lower = metric["better"] == "lower"
            bound = metric["bound"]
            better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
            wins = sum(1 for c, p in zip(cv, pv) if better(c, p))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            spread = p3 - p1
            worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
            if (wins >= 0.9 * len(pv) and better(cm, pm)
                    and abs(cm - pm) > spread):
                text = "improved"
            elif spread / pm > bound and not all(
                    better(c, p) for c in cv for p in pv):
                text = "unresolved"
            elif worse_by > bound:
                text = "worse"
            else:
                text = "unchanged"
            if more_failures and text in ("improved", "unchanged"):
                text = "worse (failures)"
            print("%-12s %-16s %9.4g/%8.4g/%9.4g %9.4g/%8.4g/%9.4g %3d/%-2d  %s"
                  % (workload, name, p1, pm, p3, c1, cm, c3, wins, len(pv),
                     text))


def spread(runs_dir, spec):
    runs = load_runs(runs_dir)
    print("%-12s %-16s %4s %12s %12s %12s %9s %7s"
          % ("workload", "metric", "n", "q1", "median", "q3", "iqr/med",
             "bound"))
    for w in spec["workloads"]:
        keys = sorted(k for k in runs if k[0] == w["name"])
        for metric in spec["end_to_end"]:
            values = [runs[k]["metrics"][metric["name"]] for k in keys]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            print("%-12s %-16s %4d %12.6g %12.6g %12.6g %9.4f %7.2f"
                  % (w["name"], metric["name"], len(values), q1, med, q3,
                     (q3 - q1) / med if med else float("inf"),
                     metric["bound"]))


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if len(argv) == 2 and argv[0] == "--spread":
        spread(argv[1], spec)
    elif len(argv) == 2:
        compare(argv[0], argv[1], spec)
    else:
        sys.exit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

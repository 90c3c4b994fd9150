#!/usr/bin/env python3
"""Self-agreement of the benchmark: two sets of runs of the same code.

    python3 perfbench/agree.py [--runs 10] [--workloads a,b] [--out FILE]
    python3 perfbench/agree.py --compare A.json B.json

The first form runs set A and set B, `--runs` untraced runs of
`run_seconds` each per workload with seeds 1..runs, as back-to-back pairs
whose order alternates (A then B, then B then A, ...). For every workload
and metric it prints each set's median, quartiles and spread (the quartile
distance as a share of the median) and how far B's median lies from A's,
against the metric's bound from BENCHMARK.json. `--out` saves the runs. The second form compares two saved
files, for example one taken at a parent commit and one at a change.

Results carry the host facts (available_parallelism, nproc) of the run that
produced them. Results taken at different core counts are never compared:
the script stops instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    """One untraced benchmark run: host facts, values and units by metric
    name, and whether its output checks passed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"agree: {' '.join(cmd)} failed (exit {proc.returncode})")
    host = next(l["host"] for l in lines if "host" in l)
    values, units = {}, {}
    for line in lines:
        for key in ("detail", "metrics"):
            for name, m in line.get(key, {}).items():
                values[name] = m["value"]
                units[name] = m["unit"]
    return {"workload": workload, "seed": seed, "host": host, "values": values,
            "units": units, "correct": lines[-1].get("correct") is True}


def same_host(runs):
    hosts = {json.dumps(r["host"], sort_keys=True) for r in runs}
    if len(hosts) > 1:
        sys.exit(f"agree: results come from different hosts {sorted(hosts)}; "
                 "results taken at different core counts are not compared")


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(a_runs, b_runs, spec):
    same_host(a_runs + b_runs)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("host:", a_runs[0]["host"])
    print(f"{'workload':<14} {'metric':<36} {'unit':<10} {'A median':>12} {'A q1':>12} "
          f"{'A q3':>12} {'A sprd':>7} {'B median':>12} {'B sprd':>7} {'B vs A':>7} "
          f"{'bound':>6}  verdict")
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        if not a or not b:
            continue
        names = [n for n in a[0]["values"] if all(n in r["values"] for r in a + b)]
        for name in names:
            av = [r["values"][name] for r in a]
            bv = [r["values"][name] for r in b]
            amed, aq1, aq3, asp = summary(av)
            bmed, _, _, bsp = summary(bv)
            m = bounds.get(name, {})
            worse = (bmed - amed) / amed if amed else 0.0
            if m.get("better") == "higher":
                worse = -worse
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                spread_ok = name == "setup_s" or max(asp, bsp) <= bound
                good = spread_ok and worse <= bound
                ok &= good
                verdict = "ok" if good else "OUT OF BOUND"
                if good and name != "setup_s" and max(asp, bsp) > bound / 3:
                    verdict = "ok (spread above a third of the bound)"
            print(f"{workload:<14} {name:<36} {a[0]['units'][name]:<10} {amed:>12.5g} "
                  f"{aq1:>12.5g} {aq3:>12.5g} {asp:>7.3f} {bmed:>12.5g} {bsp:>7.3f} "
                  f"{worse:>+7.3f} {m.get('bound', float('nan')):>6.2f}  {verdict}")
    failed = [r for r in a_runs + b_runs if not r["correct"]]
    if failed:
        ok = False
        print(f"{len(failed)} runs reported incorrect output")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                saved = json.load(f)
            sets.append(saved["a"] + saved["b"])
        return 0 if report(sets[0], sets[1], spec) else 1

    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    a_runs, b_runs = [], []
    for workload in workloads:
        for i in range(args.runs):
            seed = i + 1
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                run = run_once(workload, seed, seconds)
                (a_runs if side == "a" else b_runs).append(run)
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in run["values"].items()), file=sys.stderr)
            same_host(a_runs + b_runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"a": a_runs, "b": b_runs}, f, indent=1)
    return 0 if report(a_runs, b_runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())

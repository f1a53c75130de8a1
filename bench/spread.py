#!/usr/bin/env python3
"""Same-code spread of every end-to-end metric, measured the way the driver
measures it: BENCHMARK.json's command once per seed on each workload, then the
distance between the first and third quartile of each metric's values as a
share of their median. Run from the repository root:

    python3 bench/spread.py [runs-per-workload] [first-seed]

Every spread should stay below a third of the metric's bound."""
import json, statistics, subprocess, sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
worst = {}
for w in spec["workloads"]:
    values = {}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        worst[name] = max(worst.get(name, 0), spread)
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{w['name']:17s} {name:16s} median {med:12.6g}  spread {100*spread:5.2f}%  bound {100*bounds[name]:4.1f}%{flag}", flush=True)
print()
for name, s in worst.items():
    print(f"worst {name:16s} {100*s:5.2f}% of a {100*bounds[name]:4.1f}% bound")

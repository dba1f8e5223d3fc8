"""Summarize benchmark runs into one result file.

    python3 bench/collect.py LABEL

Reads every run record in bench/out/ (written by bench/run.py) and writes
bench/results/BENCH_<LABEL>.json: per workload, each end-to-end metric's
values over the untraced runs with their median and quartiles, and each
per-layer metric's values over the traced runs.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def collect(records):
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"end_to_end": {}, "per_layer": {},
                                             "seeds": {"trace0": [], "trace1": []},
                                             "failed": 0, "attempted": 0})
        kind = "per_layer" if rec["stem"].endswith("trace1") else "end_to_end"
        w["seeds"]["trace1" if kind == "per_layer" else "trace0"].append(rec["env"]["seed"])
        w["failed"] += rec["failed"]
        w["attempted"] += rec["attempted"]
        for name, m in rec["metrics"].items():
            w[kind].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in out.values():
        for name, m in w["end_to_end"].items():
            m.update(summarize(m.pop("values")))
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in sorted((BENCH / "out").glob("*-trace[01].json")):
        if path.name.startswith("spans-"):
            continue
        rec = json.loads(path.read_text())
        rec["stem"] = path.stem
        records.append(rec)
    if not records:
        print("no run records in bench/out/", file=sys.stderr)
        return 1
    env = {k: v for k, v in records[0]["env"].items() if k != "seed"}
    result = {"label": argv[0], "env": env,
              "seconds": records[0]["seconds"], "workloads": collect(records)}
    dest = BENCH / "results" / f"BENCH_{argv[0]}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {dest} from {len(records)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

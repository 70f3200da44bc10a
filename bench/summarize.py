"""Summarise benchmark results across runs: median, quartiles and spread.

    python3 bench/summarize.py [RESULT.json ...]    (default: bench/out/*-trace*.json)

Groups the result files that run.py writes by (workload, trace) and prints,
for each metric, the number of runs, the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
With --baseline LABEL it prints the same as one labelled JSON entry, with
the metadata of the first run, for the list in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths):
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups.setdefault((record["meta"]["workload"], record["meta"]["trace"]), []).append(record)
    table = {}
    for (workload, trace), records in sorted(groups.items()):
        metrics = {}
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        table[f"{workload}/trace{trace}"] = {
            "runs": len(records),
            "seeds": sorted(r["meta"]["seed"] for r in records),
            "all_correct": all(r["correct"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": metrics,
        }
    return groups, table


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--baseline", metavar="LABEL", help="print one labelled baseline entry")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(OUT.glob("*-trace[01].json"))
    groups, table = summarize(paths)
    if args.baseline:
        meta = dict(next(iter(groups.values()))[0]["meta"])
        for key in ("workload", "seed", "trace"):
            meta.pop(key)
        print(json.dumps({"label": args.baseline, "meta": meta, "results": table},
                         indent=1, sort_keys=True))
        return
    for group, row in table.items():
        print(f"{group}: {row['runs']} runs, seeds {row['seeds']}, "
              f"failed {row['failed']}/{row['attempted']} ops")
        for name, m in row["metrics"].items():
            print(f"  {name:36s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} {m['unit']}")


if __name__ == "__main__":
    main()

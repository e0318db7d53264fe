"""Collect benchmark results into one BENCH_<label>.json.

    python3 benchmarks/summarize.py --label 78efa80 --seeds 101-110

Reads .bench_work/results/ (written by run.py), takes per workload the
median and quartiles of every end-to-end metric over the given seeds, keeps
each traced run's per-layer metrics and layer shares, and prints the spread
of each metric, (q3 - q1) / median, against the bound BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(".bench_work/results")
# Layer totals that together cover a traced pass: kernel time plus each
# other layer's time outside the kernel.
LAYER_TIMES = {
    "kernel": "kernel.eigh.s",
    "models": "models.build.s",
    "linalg": "linalg.gate.s",
    "spectra": "spectra.self_s",
    "berry": "berry.self_s",
    "surfaces": "surfaces.self_s",
    "output": "output.write.s",
    "cli": "cli.self_s",
}


def parse_seeds(text: str) -> set:
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2,5")
    parser.add_argument("--out", default=None, help="default benchmarks/baselines/BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    records = [r for r in records if r["env"]["seed"] in seeds]
    doc = {"label": args.label, "seeds": sorted(seeds), "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        untraced = [r for r in records if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1]
        entry = {"runs": len(untraced), "failed_checks": sum(r["failed"] for r in records
                                                             if r["workload"] == name)}
        if untraced:
            doc.setdefault("env", untraced[0]["env"])
            entry["end_to_end"] = {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in untraced]
                s = spread(values) if len(values) >= 2 else {"median": values[0], "n": 1}
                s["unit"] = m["unit"]
                entry["end_to_end"][m["name"]] = s
                flag = ""
                if "spread" in s and m["name"] != "setup_s" and s["spread"] >= m["bound"] / 3:
                    flag, ok = "  <-- spread >= bound/3", False
                print(f"{name:14s} {m['name']:12s} median {s['median']:12.5g} {m['unit']:5s} "
                      f"spread {s.get('spread', float('nan')):.4f} (bound {m['bound']}){flag}")
        if traced:
            per_layer = {k: v["value"] for k, v in traced[-1]["metrics"].items()}
            wall = per_layer["trace.wall_s"]
            shares = {layer: per_layer[key] / wall for layer, key in LAYER_TIMES.items()}
            entry["traced"] = {"seed": traced[-1]["env"]["seed"], "per_layer": per_layer,
                               "layer_share_of_trace_wall": shares}
            top = max(shares, key=shares.get)
            print(f"{name:14s} traced: largest layer {top} ({shares[top]:.1%}), "
                  f"kernel calls {per_layer['kernel.eigh.calls']}")
        doc["workloads"][name] = entry
    out = Path(args.out or Path(__file__).resolve().parent / "baselines" / f"BENCH_{args.label}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

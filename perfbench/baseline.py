"""Run every workload on a range of seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload this makes one untraced run per seed and one traced run on
the first seed, all with BENCHMARK.json's ``run_seconds``.  Per end-to-end
metric it reports the median and quartiles of the per-run values and their
spread, (q3 - q1) / median, next to the metric's bound, and the same for the
raw, unpaced times; the traced run gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import RAW  # noqa: E402
from perfbench.workloads import OUT_DIR  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out: dict = {"seeds": args.seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, raw = [], []
        for seed in args.seeds:
            res = bench(workload, seed, seconds, 0)
            runs.append(res)
            record = json.loads((ROOT / OUT_DIR / f"result-{workload}-seed{seed}-trace0.json").read_text())
            raw.append({name: record["stats"][name]["median"] for name in RAW})
            print(workload, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}),
                  flush=True)
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / med, "bound": bound, "values": values,
            }
            print(f"{workload} {name}: median {med:.5g} spread {(q3 - q1) / med:.3f} "
                  f"(bound {bound})", flush=True)
        entry["raw"] = {}
        for name in RAW:
            values = [r[name] for r in raw]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["raw"][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                  "spread": (q3 - q1) / med, "values": values}
            print(f"{workload} {name} (raw): median {med:.5g} spread {(q3 - q1) / med:.3f}",
                  flush=True)
        traced = bench(workload, args.seeds[0], seconds, 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
        record = ROOT / OUT_DIR / f"result-{workload}-seed{args.seeds[0]}-trace1.json"
        out["machine"] = json.loads(record.read_text())["machine"]
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

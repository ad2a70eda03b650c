"""Benchmark runner: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 10 --trace 0

One client runs the workload's operations one at a time, each round in a
fresh ``perfbench.child`` process, until ``--seconds`` have passed (at least
one round).  A few set-up-only processes measure ``setup_s`` as well.  With
``--trace 1`` untraced and traced rounds alternate, and the per-layer
metrics come from the traced ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric's median,
quartiles and sample count, ``fail_frac`` and the machine.  The full record
goes to ``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tracer as tracing  # noqa: E402
from perfbench.workloads import OUT_DIR, WORKLOADS, census_preflight, gate  # noqa: E402

SETUP_PROBES = 5
# a bare interpreter launch up to the end of its numpy import, about two
# thirds of set-up, takes this long at reference speed; each set-up probe is
# paced by one such launch timed right before it
REF_LAUNCH_S = 0.2
# a run ends well inside the 180 s a benchmark run may take
HARD_LIMIT_S = 165.0

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
# the same times as measured, before pacing; printed and recorded, but not
# metrics, because the machine's drift spreads them past any bound
RAW = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for t in tracing.TARGETS:
        units[f"{t.name}.calls"] = "count"
        if not t.count_only:
            units[f"{t.name}.self_s"] = "s"
        for suffix, _ in t.counts:
            units[f"{t.name}.{suffix}"] = "count"
    units["decomp.split_yield"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def summary(values: list[float]) -> dict:
    """Median, first and third quartile and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


# -- machine --------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its own
    ``*_get_num_threads`` entry point."""
    import numpy  # noqa: F401  (loads the library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy

    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


# -- rounds ---------------------------------------------------------------


def spawn(job: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run one child; (result or None, its set-up seconds, error text)."""
    launch = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child"],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, 0.0, f"run process timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, 0.0, f"run process exited {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout)
    return result, result["ready"] - launch, ""


def launch_reference() -> float:
    """Seconds from launching a bare interpreter to the end of its
    ``import numpy``, read on both sides as a child's set-up is."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(time.clock_gettime(time.CLOCK_MONOTONIC))"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return float(proc.stdout) - start


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    from stringalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def round_sum(result: dict, key: str = "wall_s") -> float:
    """A round's figure: ``key`` summed over its operations."""
    return sum(o[key] for o in result["ops"])


def measure(rounds: list[dict], setups: list[tuple[float, float]], trace: bool):
    """(stats, units, absent targets, inclusive span seconds) of a run: the
    end-to-end metrics and raw times over its untraced rounds, or with
    ``trace`` the per-layer metrics over its traced ones.  No stats without
    a completed round of each kind."""
    plain = [r["result"] for r in rounds if not r["traced"]]
    traced = [r["result"] for r in rounds if r["traced"]]
    if not plain or (trace and not traced):
        return {}, {}, [], {}
    walls = [round_sum(r) for r in plain]
    if not trace:
        stats = {
            "wall_ref_s": summary([round_sum(r, "wall_ref_s") for r in plain]),
            "setup_s": summary([paced for _, paced in setups]),
            "cpu_ref_s": summary([round_sum(r, "cpu_ref_s") for r in plain]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
            "wall_s": summary(walls),
            "cpu_s": summary([round_sum(r, "cpu_s") for r in plain]),
            "setup_raw_s": summary([raw for raw, _ in setups]),
        }
        return stats, {**END_TO_END, **RAW}, [], {}
    stats = {name: summary([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    plain_wall = statistics.median(walls)
    overhead = (statistics.median(round_sum(r) for r in traced) - plain_wall) / plain_wall
    stats["trace.overhead_frac"] = summary([overhead])
    return stats, per_layer_units(), traced[0]["absent"], traced[0]["inclusive_s"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = monotonic()
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    ops = WORKLOADS[workload](ROOT, seed)
    if workload == "census":
        problems = census_preflight(ops, in_process_cli)
        if problems:
            raise SystemExit("census inputs failed the preflight:\n" + "\n".join(problems))
    inputs = sorted({p for op in ops for p in op.inputs})
    setups = []  # (raw, paced) seconds of each probe
    for _ in range(SETUP_PROBES):
        ref_launch = launch_reference()
        res, setup, err = spawn({"root": str(ROOT), "inputs": inputs, "ops": [], "trace": False},
                                HARD_LIMIT_S)
        if res is None:
            raise SystemExit(err)
        setups.append((setup, setup * REF_LAUNCH_S / ref_launch))

    rounds: list[dict] = []  # {"traced": bool, "result": child result}
    reference: list[str | None] = [None] * len(ops)
    attempted = failed = 0
    failures: list[str] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        job = {
            "root": str(ROOT), "inputs": inputs, "ops": [op.argv for op in ops], "trace": traced,
            "spans_path": f"{OUT_DIR}/spans-{workload}-seed{seed}.jsonl.gz" if traced else None,
        }
        res, _, err = spawn(job, max(1.0, HARD_LIMIT_S - (monotonic() - start)))
        attempted += len(ops)
        if res is None:
            failed += len(ops)
            failures.append(f"round {len(rounds)}: {err}")
            break
        for k, (op, r) in enumerate(zip(ops, res["ops"])):
            problems = gate(op, r["code"], r["stdout"], r["error"])
            if reference[k] is None:
                reference[k] = r["stdout"]
            elif r["stdout"] != reference[k]:
                problems.append("stdout differs from the first round at the same seed")
            if problems:
                failed += 1
                failures.append(f"round {len(rounds)} {op.label}: " + "; ".join(problems))
        rounds.append({"traced": traced, "result": res})
        elapsed = monotonic() - start
        round_s = elapsed / len(rounds)
        enough = elapsed >= seconds and (not trace or len(rounds) >= 2)
        if enough or elapsed + round_s > HARD_LIMIT_S:
            break

    stats, units, absent, inclusive = measure(rounds, setups, trace)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "ops_per_round": len(ops),
        "attempted": attempted, "failed": failed, "failures": failures,
        "absent": absent, "units": units, "stats": stats, "inclusive_s": inclusive,
        "elapsed_s": monotonic() - start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stringalg" / "cli.py").is_file():
        print(f"error: no stringalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_info()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["machine"] = machine
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print("machine: " + json.dumps(machine))
    if record["absent"]:
        print("absent trace targets: " + ", ".join(record["absent"]))
    for name, seconds in sorted(record["inclusive_s"].items(), key=lambda kv: -kv[1]):
        print(f"{args.workload} inclusive {name} = {seconds:.6g} s")
    for metric, s in record["stats"].items():
        print(f"{args.workload} {metric} = {s['median']:.6g} {record['units'][metric]} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{args.workload} fail_frac = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    print(json.dumps({
        "correct": record["failed"] == 0 and bool(record["stats"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m: {"value": s["median"], "unit": record["units"][m]}
            for m, s in record["stats"].items() if m not in RAW
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

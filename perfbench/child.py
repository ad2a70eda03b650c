"""One run process: set up, then call ``stringalg.cli.main`` once per operation.

Started by ``run.py`` as ``python -m perfbench.child`` from the repository
root with a JSON job on stdin; prints one JSON result on stdout.  Set-up --
interpreter start, the numpy and stringalg imports and loading every input
presentation -- ends at ``ready``, a CLOCK_MONOTONIC reading the parent
compares with its own reading taken just before the launch.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_ops(cli, ops: list[list[str]], tracer=None) -> list[dict]:
    """Run each operation; an untraced one under a ``Pacer``, which adds its
    time at reference speed (``wall_ref_s``, ``cpu_ref_s``)."""
    # imported after ``ready``: building the pacer's data is not set-up
    from perfbench.pace import Pacer

    out = []
    for i, argv in enumerate(ops):
        buf = io.StringIO()
        code, error = None, None
        pacer = Pacer() if tracer is None else contextlib.nullcontext()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), pacer:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.run = i
                    code = tracer.span("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
        except Exception as exc:  # any other exception is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        record = {"code": code, "error": error, "stdout": buf.getvalue(), "wall_s": wall, "cpu_s": cpu}
        if tracer is None:
            # the samples' own time is left out
            record.update(wall_s=pacer.wall_s, cpu_s=pacer.cpu_s, wall_ref_s=pacer.wall_ref_s,
                          cpu_ref_s=pacer.cpu_ref_s, pace_samples=len(pacer.samples))
        out.append(record)
    return out


def main() -> None:
    job = json.load(sys.stdin)
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401  (part of set-up, as for any stringalg user)
    from stringalg import cli
    from stringalg.presentation import load_presentation

    for path in job["inputs"]:
        load_presentation(root / path)
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if job["ops"]:
        tracer = None
        if job["trace"]:
            from perfbench.tracer import Tracer, inclusive_times, summarize

            tracer = Tracer()
            tracer.install()
        result["ops"] = run_ops(cli, job["ops"], tracer)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = summarize(tracer)
            result["inclusive_s"] = inclusive_times(tracer.spans)
            result["absent"] = tracer.absent
            with gzip.open(root / job["spans_path"], "wt") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run]) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

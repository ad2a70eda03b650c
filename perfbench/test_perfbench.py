"""Tests of the benchmark's own parts: the input generator, the tracer's
self-time arithmetic and patching, the correctness gate, and the metric
names promised in BENCHMARK.json."""

from __future__ import annotations

import json
import random
import signal
import time
from pathlib import Path

import pytest

from perfbench import census_gen, pace, run, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_census_generator_is_deterministic_per_seed():
    a = census_gen.census_inputs(7, 8, 0.3, 5000)
    assert a == census_gen.census_inputs(7, 8, 0.3, 5000)
    assert a != census_gen.census_inputs(8, 8, 0.3, 5000)
    assert [name for name, _ in a] == [f"typeA{k:02d}.sba" for k in range(len(a))]


def test_census_generator_emits_type_a_string_presentations():
    from stringalg.artheory import catalog_for
    from stringalg.presentation import parse_presentation, validate_axioms

    for seed in range(20):
        text, weight = census_gen.type_a_presentation(random.Random(seed), 6, 0.5)
        p = parse_presentation(text)
        assert len(p.quiver.vertices) == 6 and len(p.quiver.arrows) == 5
        assert all(len(r) == 2 for r in p.relations)
        assert validate_axioms(p).is_string
        # the weight counts the catalog the program itself builds
        cat = catalog_for(p)
        modules = len(cat.entries)
        assert weight == modules * sum(e.rep.total_dim for e in cat.entries) + census_gen.PER_CALL_WEIGHT


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, run=0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is counted once
        _span("c", 9.0, 12.0, 0),  # runs past the parent: clipped to 9..10
        _span("a", 1.5, 2.0, 1),  # grandchild: charged to a, not to root
        _span("d", 20.0, 21.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 3.0, 0.5, 1.0])
    # the nested "a" lies inside the outer one and is not counted again
    assert tracer.inclusive_times(spans) == pytest.approx(
        {"root": 10.0, "a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0})


def test_summarize_adds_calls_self_time_and_counters():
    t = tracer.Tracer()
    t.spans = [_span("linalg.rref", 0.0, 2.0, -1), _span("linalg.rref", 0.5, 1.0, 0)]
    t.counters = {"linalg.matrix_new.calls": 3}
    out = tracer.summarize(t, targets=(
        tracer.Target("linalg.rref", "stringalg.linalg", "Matrix.rref"),
    ))
    assert out == {"linalg.rref.calls": 2, "linalg.rref.self_s": 2.0,
                   "linalg.matrix_new.calls": 3}


def test_tracer_patches_every_alias_site_and_restores_them():
    from stringalg import artheory, cli, decomp, homalg, linalg, verify
    from stringalg.presentation import parse_presentation
    from stringalg.reps import simple

    original = homalg.hom_basis
    matmul = linalg.Matrix.__matmul__
    sites = tracer.alias_sites(original)
    assert {"stringalg", "stringalg.homalg", "stringalg.verify", "stringalg.decomp",
            "stringalg.artheory"} <= {mod.__name__ for mod, _ in sites}
    assert (cli, "middle_census") in tracer.alias_sites(homalg.middle_census)

    t = tracer.Tracer()
    t.install()
    try:
        for mod, key in sites:
            assert getattr(mod, key) is not original
        assert linalg.Matrix.__matmul__ is not matmul
        p = parse_presentation("vertices: 1 2\narrow: a 1 2\n")
        assert len(verify.hom_basis(simple(p, "1"), simple(p, "1"))) == 1
    finally:
        t.uninstall()
    for mod, key in sites:
        assert getattr(mod, key) is original
    assert linalg.Matrix.__matmul__ is matmul
    assert artheory.hom_basis is original and decomp.hom_basis is original
    assert t.absent == []
    out = tracer.summarize(t)
    assert out["homalg.hom_basis.calls"] == 1
    assert out["homalg.intertwiner_verify.calls"] == 1
    assert out["linalg.matrix_new.calls"] >= 1


def test_tracer_reports_a_missing_target_as_absent():
    t = tracer.Tracer()
    gone = (tracer.Target("linalg.gone", "stringalg.linalg", "no_such_function"),
            tracer.Target("linalg.gone_method", "stringalg.linalg", "Matrix.no_such_method"),
            tracer.Target("nomodule.fn", "stringalg.no_such_module", "fn"))
    t.install(gone)
    t.uninstall()
    assert t.absent == ["linalg.gone", "linalg.gone_method", "nomodule.fn"]
    assert tracer.summarize(t, gone) == {}


def _witness_stdout(summands=11, dim=132):
    lines = ["format=stringalg.v1", "command=witness", "seed=1", "p=11", "q=23",
             "u=a b", "v=a b", f"dim_middle={dim}", f"summands={summands}"]
    lines += [f"summand {k}: dimvec=(12)" for k in range(summands)]
    return "\n".join(lines) + "\n"


def test_gate_counts_a_corrupted_output_as_a_failure():
    (op,) = workloads.witness(ROOT, 1)
    assert workloads.gate(op, 0, _witness_stdout()) == []
    assert workloads.gate(op, 0, _witness_stdout(summands=10)) != []
    assert workloads.gate(op, 0, _witness_stdout(dim=120)) != []
    assert workloads.gate(op, 1, _witness_stdout()) != []
    assert workloads.gate(op, 0, "garbage\n") != []
    assert workloads.gate(op, None, "", error="VerificationError: boom") != []


def test_gate_rejects_a_census_violation(tmp_path):
    ops = workloads.census(tmp_path, 3)
    good = ("format=stringalg.v1\ncommand=verify-main-theorem\nseed=3\nmax_dim=8\n"
            "pairs_with_extensions=1\nverdict=PASS\next(M(a1), M(e(1))) dim=1 middles={1:1}\n")
    assert workloads.gate(ops[0], 0, good) == []
    bad = good + "VIOLATION: middle with 3 summands for (M(a1), M(e(1)))\n"
    assert workloads.gate(ops[0], 0, bad) != []


def test_pacer_scales_each_stretch_by_the_speed_on_either_side():
    p = pace.Pacer()
    r = pace.REF_S
    # (start, end, CPU start, CPU end) of three reference samples.  Wall
    # clock: at reference speed, at reference speed, then at half speed.
    # CPU clock: always at reference speed, and the process ran for only
    # half of each stretch between samples.
    p.samples = [(0.0, r, 0.0, r), (1.0, 1.0 + r, 0.5, 0.5 + r), (2.0, 2.0 + 2 * r, 1.0, 1.0 + r)]
    assert p.wall_s == pytest.approx(2 * (1.0 - r))
    assert p.wall_ref_s == pytest.approx((1.0 - r) * 1.0 + (1.0 - r) * 0.75)
    assert p.cpu_s == pytest.approx(2 * (0.5 - r))
    assert p.cpu_ref_s == pytest.approx(2 * (0.5 - r))


def test_pacer_samples_while_the_block_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer(period=0.03) as p:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.samples) >= 3  # entry, at least one tick, exit
    assert 0.0 < p.wall_s < 0.2 and p.wall_ref_s > 0.0 and p.cpu_ref_s > 0.0


def test_structured_parser_stops_at_free_lines():
    items, lines = workloads.parse_structured("format=x\ncount=2\nM=M(e(1)) N=y\na b\n")
    assert items == {"format": "x", "count": "2"}
    assert lines == ["M=M(e(1)) N=y", "a b"]


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_degeneration_seeds_never_overlap_between_benchmark_seeds():
    def cli_seeds(seed):
        return [op.argv[op.argv.index("--seed") + 1] for op in workloads.degeneration(ROOT, seed)]

    assert cli_seeds(1) == ["2", "3"]
    assert cli_seeds(2) == ["4", "5"]

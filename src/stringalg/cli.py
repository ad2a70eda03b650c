"""Command line front end.

Exit codes: 0 for success or a verified property, 1 for a mathematical
failure (axioms violated, a census line with too many summands, an
accounting mismatch), 2 for usage or input errors, 3 when a construction
certificate fails to verify (a VerificationError, which is a bug).

Output formats: "text" for humans, "structured" for stable key=value lines,
"json" for one JSON document.  All three start with a format tag and are
byte-identical across runs for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .artheory import ar_sequence, catalog_for, enumerate_indecomposables
from .classify import build_witness, classify, find_witness_triple
from .errors import ParseError, StringAlgError, VerificationError
from .homalg import ext1_dim, hom_dim, middle_census, projective_cover
from .presentation import Presentation, load_presentation
from .reps import Representation, load_module_literal, string_module
from .verify import axiom_summary, degeneration_scan, middle_term_scan
from .words import format_walk, parse_word, word_texts

FORMAT_TAG = "stringalg.v1"


class Report:
    """Ordered key/value pairs plus free-form lines, emitted in any format."""

    def __init__(self, command: str):
        self.command = command
        self.items: list[tuple[str, object]] = []
        self.lines: list[str] = []

    def add(self, key: str, value):
        self.items.append((key, value))

    def line(self, text: str):
        self.lines.append(text)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            doc = {"format": FORMAT_TAG, "command": self.command}
            doc.update({k: v for k, v in self.items})
            if self.lines:
                doc["lines"] = self.lines
            return json.dumps(doc, indent=2, sort_keys=False) + "\n"
        out = []
        if fmt == "structured":
            out.append(f"format={FORMAT_TAG}")
            out.append(f"command={self.command}")
            for k, v in self.items:
                out.append(f"{k}={v}")
            out.extend(self.lines)
        else:
            for k, v in self.items:
                out.append(f"{k}: {v}")
            out.extend(self.lines)
        return "\n".join(out) + "\n"


def _load(args) -> Presentation:
    field, q = getattr(args, "field", None), getattr(args, "q", None)
    if field is not None and q is not None and field != q:
        raise StringAlgError(f"--field {field} and --q {q} give different field orders")
    p = load_presentation(args.presentation)
    order = q if q is not None else field
    return p if order is None else p.with_field(order)


def _module_spec(p: Presentation, spec: str) -> Representation:
    if spec.startswith("@"):
        return load_module_literal(p, spec[1:])
    return string_module(p, parse_word(p, spec))


def cmd_validate(args) -> int:
    p = _load(args)
    ok, lines = axiom_summary(p)
    rep = Report("validate")
    rep.add("presentation", args.presentation)
    rep.add("string", "yes" if ok else "no")
    for l in lines:
        rep.line(l)
    print(rep.emit(args.format), end="")
    return 0 if ok else 1


def cmd_words(args) -> int:
    p = _load(args)
    texts = word_texts(p, args.max_len)
    rep = Report("words")
    rep.add("max_len", args.max_len)
    rep.add("count", len(texts))
    rep.lines.extend(texts)
    print(rep.emit(args.format), end="")
    return 0


def cmd_classify(args) -> int:
    p = _load(args)
    cert = classify(p)
    rep = Report("classify")
    rep.add("verdict", cert.verdict)
    if cert.band_witness is not None:
        rep.add("band", format_walk(cert.band_witness))
    if cert.generator_pair is not None:
        g1, g2 = cert.generator_pair
        rep.add("generator_1", format_walk(g1))
        rep.add("generator_2", format_walk(g2))
    if args.bound is not None:
        rep.add("bound", args.bound)
    rep.add("automaton_states", cert.automaton_states)
    print(rep.emit(args.format), end="")
    return 0


def cmd_modules(args) -> int:
    p = _load(args)
    rep = Report("modules")
    entries = enumerate_indecomposables(p, args.max_dim)
    projectives = catalog_for(p).projectives
    rep.add("max_dim", args.max_dim)
    rep.add("count", len(entries))
    for e in entries:
        dv = ",".join(str(e.rep.dim(v)) for v in p.quiver.vertices)
        flag = " projective" if e.index in projectives else ""
        rep.line(f"M({format_walk(e.word)}) dimvec=({dv}){flag}")
    print(rep.emit(args.format), end="")
    return 0


def cmd_hom(args) -> int:
    p = _load(args)
    m = _module_spec(p, getattr(args, "from"))
    n = _module_spec(p, args.to)
    rep = Report("hom")
    rep.add("hom_dim", hom_dim(m, n))
    print(rep.emit(args.format), end="")
    return 0


def cmd_ext(args) -> int:
    p = _load(args)
    m = _module_spec(p, getattr(args, "from"))
    n = _module_spec(p, args.to)
    rep = Report("ext")
    rep.add("ext1_dim", ext1_dim(m, n))
    print(rep.emit(args.format), end="")
    return 0


def cmd_middle_census(args) -> int:
    p = _load(args)
    if p.field_order > 7:
        raise StringAlgError("census command caps the field order at 7")
    m = _module_spec(p, getattr(args, "from"))
    n = _module_spec(p, args.to)
    # at most three extension dimensions: the lines of P(F_q^3)
    q = p.field_order
    cap = (q**3 - 1) // (q - 1)
    census = middle_census(projective_cover(m), n, hom_dim(m, n), max_lines=cap, seed=args.seed)
    rep = Report("middle-census")
    rep.add("ext_dim", census.ext_dim)
    rep.add("lines", len(census.lines))
    for line in census.lines:
        coeffs = ",".join(str(c) for c in line.coeffs)
        dv = ",".join(str(d) for d in line.dimvec)
        rep.line(f"line=({coeffs}) summands={line.summands} middle_dimvec=({dv})")
    rep.line("histogram: " + " ".join(f"{k}:{v}" for k, v in census.histogram.items()))
    print(rep.emit(args.format), end="")
    return 0


def cmd_ar(args) -> int:
    p = _load(args)
    w = parse_word(p, args.word)
    seq = ar_sequence(p, w)
    rep = Report("ar")
    rep.add("target", format_walk(seq.target_word))
    rep.add("tau", format_walk(seq.tau_word))
    rep.add("middle", " + ".join(format_walk(mw) for mw in seq.middle_words))
    rep.add("middle_summands", seq.middle_summand_count)
    rep.add("defect_identity", "verified")  # ar_sequence raises unless it holds
    print(rep.emit(args.format), end="")
    return 0


def cmd_degeneration(args) -> int:
    p = _load(args)
    report = degeneration_scan(p, args.max_dim)
    rep = Report("degeneration")
    rep.add("seed", args.seed)
    rep.add("modules", report.module_count)
    rep.add("pairs", report.pair_count)
    rep.add("verdict", "PASS" if report.ok else "FAIL")
    for row in report.rows:
        if not row.hom_leq and not args.all_pairs:
            continue
        delta = row.delta_formula if row.delta_formula is not None else "-"
        rep.line(
            f"M={row.left_label} N={row.right_label} hom_leq={str(row.hom_leq).lower()} "
            f"|M|={row.left_count} |N|={row.right_count} delta_formula={delta}"
        )
    print(rep.emit(args.format), end="")
    return 0 if report.ok else 1


def cmd_witness(args) -> int:
    p = _load(args)
    triple = find_witness_triple(p, search_len=args.search_len)
    if triple is None:
        raise StringAlgError("no witness triple found within the search bound")
    result = build_witness(p, triple, args.p)
    rep = Report("witness")
    rep.add("seed", args.seed)
    rep.add("p", result.prime_p)
    rep.add("q", result.field_order)
    rep.add("u", format_walk(result.u))
    rep.add("v", format_walk(result.v))
    rep.add("dim_middle", result.middle.total_dim)
    rep.add("summands", result.summand_count)
    for k, dv in enumerate(result.summand_dimvecs):
        rep.line(f"summand {k}: dimvec=({','.join(str(d) for d in dv)})")
    print(rep.emit(args.format), end="")
    return 0


def cmd_verify_main_theorem(args) -> int:
    p = _load(args)
    extra = [load_module_literal(p, path) for path in args.module or []]
    report = middle_term_scan(
        p,
        args.max_dim,
        seed=args.seed,
        allow_non_string=args.allow_non_string,
        extra_modules=extra,
    )
    rep = Report("verify-main-theorem")
    rep.add("seed", args.seed)
    rep.add("max_dim", args.max_dim)
    rep.add("pairs_with_extensions", report.pair_count)
    rep.add("verdict", "PASS" if report.ok else "FAIL")
    for f in report.findings:
        hist = " ".join(f"{k}:{v}" for k, v in sorted(f.histogram.items()))
        rep.line(
            f"ext({f.left_label}, {f.right_label}) dim={f.ext_dim} middles={{{hist}}}"
        )
    for f in report.violations:
        rep.line(f"VIOLATION: middle with {f.worst} summands for ({f.left_label}, {f.right_label})")
    print(rep.emit(args.format), end="")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stringalg",
        description="Exact-arithmetic workbench for string algebras.",
    )
    parser.add_argument("--field", type=int, help="override the coefficient field order")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    parser.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; every command runs serially"
    )
    parser.add_argument(
        "--format", choices=("text", "structured", "json"), default="text"
    )
    parser.add_argument(
        "--allow-non-string",
        action="store_true",
        help="run scans on non-string presentations over a simples/projectives/literals catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("presentation")
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, help="check the string axioms and finite dimensionality")

    sp = add("words", cmd_words, help="enumerate words up to a length bound")
    sp.add_argument("--max-len", type=int, default=4, dest="max_len")

    sp = add("classify", cmd_classify, help="representation type with evidence")
    sp.add_argument("--bound", type=int, help="accepted and echoed; the verdict is exact")

    sp = add("modules", cmd_modules, help="list the indecomposables up to a dimension bound")
    sp.add_argument("--max-dim", type=int, default=8, dest="max_dim")

    for name, fn in (("hom", cmd_hom), ("ext", cmd_ext), ("middle-census", cmd_middle_census)):
        sp = add(name, fn, help=f"{name} between two modules")
        sp.add_argument("--from", required=True, help="word in CLI syntax, or @literal-file")
        sp.add_argument("--to", required=True, help="word in CLI syntax, or @literal-file")

    sp = add("ar", cmd_ar, help="almost-split sequence ending at a string module")
    sp.add_argument("--word", required=True)

    sp = add("degeneration", cmd_degeneration, help="hom-order and summand-count scan")
    sp.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    sp.add_argument("--all-pairs", action="store_true", help="also list pairs without hom_leq")

    sp = add("witness", cmd_witness, help="many-summand extension over a non-domestic algebra")
    sp.add_argument("--p", type=int, required=True, help="odd prime, at least 11")
    sp.add_argument("--q", type=int, help="field order, 1 mod 2p")
    sp.add_argument("--search-len", type=int, default=6, dest="search_len")

    sp = add("verify-main-theorem", cmd_verify_main_theorem,
             help="census over all indecomposable pairs; fails on a middle with more than two summands")
    sp.add_argument("--max-dim", type=int, default=4, dest="max_dim")
    sp.add_argument(
        "--module", action="append",
        help="extra literal module file (repeatable); needs --allow-non-string",
    )

    return parser


# the least value of each bound at which a verdict still says something
_BOUND_FLOORS = {"max_dim": 1, "bound": 1, "search_len": 1, "max_len": 0}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, floor in _BOUND_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < floor:
            parser.error(f"--{name.replace('_', '-')} must be at least {floor}, got {value}")
    if getattr(args, "module", None) and not args.allow_non_string:
        # string scans run over the catalog of words, which has no place for literals
        parser.error("--module needs --allow-non-string")
    try:
        return args.fn(args)
    except VerificationError as err:
        print(f"error: a construction certificate failed to verify: {err}", file=sys.stderr)
        return 3
    except (ParseError, StringAlgError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

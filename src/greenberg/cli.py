"""Command-line front end: single verifications, table sweeps, cache admin.

Exit codes: 0 for terminated/trivial outcomes, 2 when a run is unresolved
at the level cap or when ``cache inspect --verify-cache`` finds a sampled
record that disagrees with its recomputation, 1 for usage errors and for
a table sweep in which a verification raised (the failing radicand is
named on stderr).  The csv
and json formats are byte-identical across runs with the same
configuration; timings appear only in the human-readable markdown output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from greenberg.cyclo_logs import compute_record, load_records
from greenberg.finite_field import factorize
from greenberg.group_ring import MAX_LEVEL, canonical_generators, poly_str
from greenberg.quadratic import character_kernel, is_squarefree
from greenberg.verify import RunConfig, VerificationReport, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ERROR = 1      # a verification raised in a table sweep
EXIT_UNRESOLVED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--primes", type=int, default=15,
                   help="auxiliary primes per level, at least 2 (default 15)")
    p.add_argument("--max-level", type=int, default=13,
                   help=f"give up past this level, 1 to {MAX_LEVEL} (default 13)")
    p.add_argument("--adaptive", action="store_true",
                   help="add primes until five in a row change nothing")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="log-record cache directory (env GREENBERG_CACHE)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel verifications for range sweeps, at least 1 (default 1)")
    p.set_defaults(parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenberg",
                     description="Certify 2-class-tower stabilization for Q(sqrt(f))")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a single radicand")
    pv.add_argument("--f", type=int, required=True)
    _add_run_options(pv)

    pt = sub.add_parser("table", help="sweep a radicand range and tabulate")
    pt.add_argument("--min", type=int, required=True)
    pt.add_argument("--max", type=int, required=True)
    _add_run_options(pt)

    pc = sub.add_parser("cache", help="inspect or clear the record cache")
    pc.add_argument("action", choices=("inspect", "clear"))
    pc.add_argument("--cache-dir", type=Path, default=None)
    pc.add_argument("--verify-cache", action="store_true",
                    help="recompute a 10%% sample and compare bit for bit")
    return parser


def _config(args) -> RunConfig:
    """The run settings; settings RunConfig rejects, and --jobs below 1,
    are usage errors."""
    if args.jobs < 1:
        args.parser.error(f"jobs={args.jobs}: a run needs at least one worker")
    try:
        return RunConfig(primes=args.primes, max_level=args.max_level,
                         adaptive=args.adaptive, cache_dir=args.cache_dir)
    except ValueError as exc:
        args.parser.error(str(exc))


def _reduction_hint(f: int) -> str:
    if f < 1:
        return "radicands must be positive"
    s = 1
    for p, e in factorize(f).items():
        if e % 2:
            s *= p
    if s % 2 == 0 and s // 2 >= 3:
        return (f"Q(sqrt({f})) has the 2-tower of Q(sqrt({s // 2})): "
                f"even and non-squarefree radicands reduce; try --f {s // 2}")
    if s % 2 == 1 and s >= 3 and s != f:
        return f"Q(sqrt({f})) = Q(sqrt({s})): try --f {s}"
    return "the field is Q or has the rationals' own 2-tower; nothing to verify"


# ---------------------------------------------------------------------------
# rendering

def _criterion_label(rep: VerificationReport) -> str:
    return {None: "", "cardinality": "cardinality bound",
            "norm_annihilation": "norm-element annihilation",
            "trivial": "trivial (odd class number, 2 not split)"}[rep.criterion]


def _gens_strings(rep: VerificationReport) -> list[str]:
    if rep.criterion == "trivial":
        return ["1"]
    if rep.reported is None:
        return []
    return [poly_str(g) for g in rep.reported.generators]


def report_markdown(rep: VerificationReport) -> str:
    out = io.StringIO()
    info = rep.info
    print(f"# Q(sqrt({rep.f})): 2-class-tower certificate", file=out)
    print(file=out)
    print(f"- gate: {rep.gate} (f = {rep.f % 8} mod 8, h = {info.h}, "
          f"narrow h = {info.h_narrow}, unit norm = {info.unit_norm:+d}, m0 = {info.m0})",
          file=out)
    if rep.criterion == "trivial":
        print("- A_0 is trivial and 2 does not split: every level is trivial.", file=out)
        print("- J = (1), n0 = 0, N = 2^0", file=out)
        return out.getvalue()
    if not rep.resolved:
        print(f"- UNRESOLVED: no termination criterion fired through level "
              f"{rep.levels[-1].n if rep.levels else 0}.", file=out)
    else:
        bound = "" if rep.stable_exact else "<= "
        print(f"- terminated at level m = {rep.m} ({_criterion_label(rep)})", file=out)
        print(f"- stable from level {bound}{rep.stable_from}", file=out)
        print(f"- J = {rep.reported}", file=out)
        print(f"- n0 = {rep.n0}", file=out)
        print(f"- N = 2^{rep.log2_index}", file=out)
        if rep.down_projection_ok is not None:
            print(f"- down-projection consistency: "
                  f"{'ok' if rep.down_projection_ok else 'NOT CONTAINED (diagnostic)'}",
                  file=out)
    print(file=out)
    print("| n | J_n | log2 index | primes | tail no-ops | time (s) |", file=out)
    print("|---|-----|------------|--------|-------------|----------|", file=out)
    for lv in rep.levels:
        gens = canonical_generators(lv.ideal)
        print(f"| {lv.n} | {gens} | {lv.log2_index} | {len(lv.primes_used)} "
              f"| {lv.stabilized_after} | {lv.seconds:.2f} |", file=out)
    return out.getvalue()


CSV_COLUMNS = ["f", "mod8_class", "gate", "m", "criterion", "n0", "log2_index",
               "generators"]


def _csv_row(rep: VerificationReport) -> list:
    return [rep.f, rep.f % 8, rep.gate,
            "" if rep.m is None else rep.m,
            rep.criterion or "",
            "" if rep.n0 is None else rep.n0,
            "" if rep.log2_index is None else rep.log2_index,
            ";".join(_gens_strings(rep))]


def reports_csv(reps: list[VerificationReport]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rep in reps:
        w.writerow(_csv_row(rep))
    return out.getvalue()


def report_dict(rep: VerificationReport) -> dict:
    info = rep.info
    d = {
        "f": rep.f,
        "mod8_class": rep.f % 8,
        "gate": rep.gate,
        "class_number": info.h,
        "narrow_class_number": info.h_narrow,
        "unit_norm": info.unit_norm,
        "m0": info.m0,
        "m": rep.m,
        "criterion": rep.criterion,
        "stable_from": rep.stable_from,
        "stable_exact": rep.stable_exact,
        "n0": rep.n0,
        "log2_index": rep.log2_index,
        "generators": _gens_strings(rep),
        "down_projection_ok": rep.down_projection_ok,
        "levels": [
            {
                "n": lv.n,
                "log2_index": lv.log2_index,
                "primes_used": list(lv.primes_used),
                "stabilized_after": lv.stabilized_after,
                "generators": [poly_str(g) for g in canonical_generators(lv.ideal).generators],
                "howell": {
                    "spec": {"d": lv.ideal.spec.d, "n": lv.ideal.spec.n,
                             "divided": lv.ideal.spec.divided},
                    "relation": [int(x) for x in lv.ideal.ring.relation],
                    "pivots": [list(p) for p in lv.ideal.pivots],
                    "rows": [[int(x) for x in row] for row in lv.ideal.rows],
                },
            }
            for lv in rep.levels
        ],
    }
    return d


def reports_json(reps: list[VerificationReport]) -> str:
    payload = [report_dict(r) for r in reps]
    return json.dumps(payload[0] if len(payload) == 1 else payload,
                      indent=2, sort_keys=True) + "\n"


def _mod8_section(f: int) -> str:
    return {1: "f = 1 mod 8", 5: "f = 5 mod 8"}.get(f % 8, "f = 3, 7 mod 8")


def table_markdown(reps: list[VerificationReport]) -> str:
    out = io.StringIO()
    resolved = [r for r in reps if r.resolved and r.criterion != "trivial"]
    trivial = [r for r in reps if r.criterion == "trivial"]
    unresolved = [r for r in reps if not r.resolved]
    for section in ("f = 3, 7 mod 8", "f = 5 mod 8", "f = 1 mod 8"):
        rows: dict[tuple, dict] = {}
        for r in resolved:
            if _mod8_section(r.f) != section:
                continue
            key = tuple(tuple(g) for g in r.reported.generators)
            row = rows.setdefault(key, {"J": str(r.reported), "n0": r.n0,
                                        "N": r.log2_index, "fs": []})
            row["fs"].append(r.f)
        if not rows:
            continue
        print(f"## {section}", file=out)
        print(file=out)
        print("| J | n0 | N | f |", file=out)
        print("|---|----|---|---|", file=out)
        for row in sorted(rows.values(), key=lambda x: (x["n0"], x["N"], x["J"])):
            fs = ", ".join(str(f) for f in sorted(row["fs"]))
            print(f"| {row['J']} | {row['n0']} | 2^{row['N']} | {fs} |", file=out)
        print(file=out)
    if trivial:
        print("## trivially stable (odd class number, 2 not split)", file=out)
        print(file=out)
        print(", ".join(str(r.f) for r in sorted(trivial, key=lambda r: r.f)), file=out)
        print(file=out)
    if unresolved:
        print("## unresolved at the level cap", file=out)
        print(file=out)
        print(", ".join(str(r.f) for r in sorted(unresolved, key=lambda r: r.f)), file=out)
        print(file=out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# commands

def cmd_verify(args) -> int:
    f = args.f
    if f < 3 or f % 2 == 0 or not is_squarefree(f):
        print(f"error: f={f} is not an odd squarefree integer >= 3; {_reduction_hint(f)}",
              file=sys.stderr)
        return EXIT_USAGE
    rep = verify(f, _config(args))
    _emit([rep], args.format)
    return EXIT_OK if rep.resolved else EXIT_UNRESOLVED


def cmd_table(args) -> int:
    cfg = _config(args)
    # an empty range is legitimate: empty table, exit 0
    fs, skipped = [], []
    for f in range(max(args.min, 3), args.max + 1):
        if f % 2 == 1 and is_squarefree(f):
            fs.append(f)
        else:
            skipped.append(f)
    if skipped:
        print(f"note: skipped {len(skipped)} even/non-squarefree radicands "
              f"(their 2-towers coincide with odd squarefree ones: "
              f"Q(sqrt(2f)) shares the tower of Q(sqrt(f))): "
              f"{', '.join(str(s) for s in skipped[:20])}"
              f"{' ...' if len(skipped) > 20 else ''}", file=sys.stderr)
    # a forking pool starts all of its workers at the first submit, so it
    # gets no more of them than there are radicands
    workers = min(args.jobs, len(fs))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        calls = [(f, pool.submit(verify, f, cfg).result if pool else partial(verify, f, cfg))
                 for f in fs]
        reps = []
        for f, call in calls:
            try:
                reps.append(call())
            except Exception as exc:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                print(f"error: f={f}: {exc}", file=sys.stderr)
                return EXIT_ERROR
    reps.sort(key=lambda r: r.f)
    if args.format == "md":
        sys.stdout.write(table_markdown(reps))
    else:
        _emit(reps, args.format)
    return EXIT_OK if all(r.resolved for r in reps) else EXIT_UNRESOLVED


def _emit(reps: list[VerificationReport], fmt: str) -> None:
    if fmt == "md":
        for rep in reps:
            sys.stdout.write(report_markdown(rep))
    elif fmt == "csv":
        sys.stdout.write(reports_csv(reps))
    else:
        sys.stdout.write(reports_json(reps))


def cmd_cache(args) -> int:
    from greenberg.cyclo_logs import default_cache_dir
    cache_dir = args.cache_dir or default_cache_dir()
    if cache_dir is None:
        print("error: no cache directory (use --cache-dir or GREENBERG_CACHE)",
              file=sys.stderr)
        return EXIT_USAGE
    cache_dir = Path(cache_dir)
    entries = sorted(cache_dir.glob("logs_*_*.txt"))
    if args.action == "clear":
        for p in entries:
            p.unlink()
        print(f"cleared {len(entries)} cache files from {cache_dir}")
        return EXIT_OK
    total = 0
    for p in entries:
        try:
            _, f_s, n_s = p.stem.split("_")
            f, n = int(f_s), int(n_s)
        except ValueError:
            print(f"{p.name}: unrecognized cache file name, skipped")
            continue
        records, warnings = load_records(cache_dir, f, n)
        for w in warnings:
            print(f"warning: {w}")
        print(f"f={f} n={n}: {len(records)} records ({p.name})")
        total += len(records)
        if args.verify_cache and records:
            kernel = character_kernel(f)
            sample = sorted(records)[::10] or sorted(records)[:1]
            for r in sample:
                if compute_record(f, n, r, kernel) != records[r]:
                    print(f"MISMATCH: f={f} n={n} r={r} cache disagrees with recomputation")
                    return EXIT_UNRESOLVED
            print(f"  verified {len(sample)} sampled records bit-identical")
    print(f"{total} records in {len(entries)} files")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "table": cmd_table, "cache": cmd_cache}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Certificate benchmark: times fixed workloads and checks every answer.

Usage (from the repository root):

    python3 bench/run.py --workload deep1605 --seed 1 --seconds 20 --trace 0

Certify-and-render passes repeat, each in a fresh interpreter, until
``--seconds`` have elapsed (at least one pass); each pass is followed by
render-only interpreters that render the pass's reports again.  Timings are
medians over passes and over render samples.  Set-up is timed in every one
of these interpreters (``import greenberg``) and, on the warm workload, by
filling the log-record cache twice: once before the passes, for them, and
once after.  With ``--trace 1`` the run makes one untraced and one traced
pass and reports the per-layer metrics of the traced one.  Every
certificate is compared with the pinned answers in ``answers.json``; any
difference makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A machine record and
the per-level trace breakdown are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS
from workloads import PRIMES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RENDERS = (1, 2.0)           # least renders per certificate, and least render seconds
                             # per interpreter, so that the short renders of sweep600
                             # repeat; a deep1605 render takes about 3 s and runs once
RENDER_STEPS = 6             # render-only interpreters after each pass: a render
                             # sample's speed varies more between interpreters than
                             # within one, so samples come from separate interpreters
RUN_LIMIT_S = 170.0          # a run must end well inside 180 s


class HarnessError(RuntimeError):
    pass


def gens_key(gens) -> list[str]:
    if isinstance(gens, str):
        gens = gens.replace(";", ",").split(",")
    return [g.replace(" ", "") for g in gens]


def check_pins(answers: dict) -> list[str]:
    """Disagreements between the pinned certificates and the published values."""
    pinned, published = answers["pinned"], answers["published"]
    problems = []
    for f, (gens, n0, log2) in published["rows"].items():
        cert = pinned.get(f)
        if cert is None:
            continue
        got = (gens_key(cert["generators"]), cert["n0"], cert["log2_index"])
        if got != (gens_key(gens), n0, log2):
            problems.append(f"f={f}: pinned {got} != published {(gens, n0, log2)}")
    for f, ladder in published["ladders"].items():
        cert = pinned[f]
        want = [ladder[str(n)][1] for n in range(1, len(ladder) + 1)]
        if cert["ladder"] != want:
            problems.append(f"f={f}: pinned ladder {cert['ladder']} != published {want}")
        if gens_key(cert["generators"]) != gens_key(ladder[str(len(ladder))][0]):
            problems.append(f"f={f}: pinned generators differ from the published top level")
    return problems


def score(passes: list[dict], radicands: list[int], pinned: dict) -> tuple[int, int]:
    """(attempted, failed): a radicand fails when it raised or its certificate
    differs from the pinned one."""
    attempted = failed = 0
    for p in passes:
        for f in radicands:
            attempted += 1
            got = p["certificates"].get(str(f))
            if got != pinned[str(f)]:
                failed += 1
                print(f"certificate mismatch for f={f}: {got}", file=sys.stderr)
    return attempted, failed


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GREENBERG_CACHE", None)     # an inherited cache would turn a cold run warm
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def _run_worker(job: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit reached")
    job = {"root": str(ROOT), "primes": PRIMES, "cache_dir": None, "trace": False, **job}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{job['mode']} step timed out") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{job['mode']} step failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg()), "commit": commit}


def end_to_end(setup_s: float, passes: list[dict], renders: list[dict]) -> dict:
    latencies = sorted(t for p in passes for t in p["latencies"])
    return {
        "setup_s": setup_s,
        "certify_s": statistics.median(p["certify_s"] for p in passes),
        "render_s": statistics.median(r["render_s"] for r in passes + renders),
        "radicand_p50_s": statistics.median(latencies),
        "radicand_p95_s": latencies[math.ceil(0.95 * len(latencies)) - 1],   # nearest rank
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
        "json_bytes": passes[0]["json_bytes"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    t = traced["trace"]
    totals, counters = t["totals"], t["counters"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    inserts = calls("group_ring.HowellIdeal.insert")
    requested = counters.get("cyclo_logs.records_requested", 0)
    misses = calls("cyclo_logs.compute_record")
    out = {
        "group_ring.howell_form.calls": calls("group_ring.howell_form"),
        "group_ring.howell_form.s": incl("group_ring.howell_form"),
        "group_ring.howell_form.cells": counters.get("group_ring.howell_form.cells", 0),
        "group_ring.howell_form.max_bytes":
            counters.get("group_ring.howell_form.max_bytes", 0),
        "group_ring.red_table_bytes": counters.get("group_ring.red_table_bytes", 0),
        "group_ring.HowellIdeal.insert.calls": inserts,
        "group_ring.HowellIdeal.insert.self_s": own("group_ring.HowellIdeal.insert"),
        "group_ring.HowellIdeal.insert.grew_ratio":
            counters.get("group_ring.HowellIdeal.insert.grew", 0) / inserts if inserts else 0.0,
        "cyclo_logs.cache_hit_ratio": 1 - misses / requested if requested else 0.0,
        "cyclo_logs.cache_bytes_read": counters.get("cyclo_logs.cache_bytes_read", 0),
        "cyclo_logs.cache_bytes_written": counters.get("cyclo_logs.cache_bytes_written", 0),
        "cyclo_logs.log_poly_eta.fp2_mults":
            counters.get("cyclo_logs.log_poly_eta.fp2_mults", 0),
        "verify.levels": calls("verify.run_level"),
        "trace.certify_s": traced["certify_s"],
        "trace.overhead_s": traced["certify_s"] - untraced["certify_s"],
        "trace.unattributed_s": t["unattributed_s"],
    }
    for name in ("group_ring.HowellIdeal.reduce_vec", "group_ring.poly_mul_mod",
                 "group_ring.canonical_generators.verify",
                 "group_ring.canonical_generators.cli", "cyclo_logs.log_poly_eta",
                 "cyclo_logs.find_split_primes", "cyclo_logs.compute_record",
                 "finite_field.build_field_context", "finite_field.dlog_two_power"):
        out[f"{name}.calls"] = calls(name)
    for name in ("group_ring.HowellIdeal.reduce_vec", "group_ring.poly_mul_mod",
                 "group_ring.canonical_generators.verify",
                 "group_ring.canonical_generators.cli", "group_ring.to_T_basis",
                 "cyclo_logs.log_scalar_delta", "cyclo_logs.find_split_primes",
                 "cyclo_logs.get_records", "cyclo_logs.load_records",
                 "cyclo_logs.store_records", "finite_field.build_field_context",
                 "finite_field.dlog_two_power", "quadratic.class_number",
                 "quadratic.character_kernel", "verify.check_termination",
                 "verify.n0_sweep", "cli.report_markdown", "cli.reports_json",
                 "cli.reports_csv"):
        out[f"{name}.s"] = incl(name)
    for name in ("cyclo_logs.log_poly_eta", "cyclo_logs.log_poly_beta", "verify.run_level"):
        out[f"{name}.self_s"] = own(name)
    return out


def breakdown_table(trace: dict, certify_s: float) -> str:
    """Per-level x per-layer self seconds of the traced pass.

    The first two columns are inclusive seconds of the two heaviest
    functions; the layer columns are self seconds.  Over the level rows the
    layer columns plus the unattributed remainder add up to certify_s.
    """
    heads = ("group_ring.howell_form", "cyclo_logs.log_poly_eta")
    rows = trace["breakdown"]
    order = sorted(rows, key=lambda s: (s == "render", int(s[1:]) if s[1:].isdigit() else 0))
    lines = ["scope   " + "".join(f"{h.split('.')[-1] + '.s':>16}" for h in heads)
             + "".join(f"{x + '.self':>18}" for x in LAYERS)]
    for scope in order:
        row = rows[scope]
        lines.append(f"{scope:<8}" + "".join(f"{row.get(h, 0.0):16.3f}" for h in heads)
                     + "".join(f"{row.get(x, 0.0):18.3f}" for x in LAYERS))
    attributed = sum(row.get(x, 0.0) for scope, row in rows.items() if scope != "render"
                     for x in LAYERS)
    lines.append(f"certify: {attributed:.3f} s in layers + {trace['unattributed_s']:.3f} s "
                 f"unattributed = {certify_s:.3f} s traced")
    return "\n".join(lines)


def run(args) -> tuple[dict, int, int, bool]:
    spec = WORKLOADS[args.workload]
    answers = json.loads((BENCH / "answers.json").read_text())
    problems = check_pins(answers)
    if problems:
        raise HarnessError("pinned answers disagree with the published values:\n"
                           + "\n".join(problems))
    radicands = list(spec["radicands"])
    random.Random(args.seed).shuffle(radicands)
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    cache_dir = str(work / "cache") if spec["warm"] else None
    fills, passes, renders = [], [], []
    try:
        if cache_dir:
            levels = {str(f): len(answers["pinned"][str(f)]["ladder"]) for f in radicands}
            fill = {"mode": "fill", "cache_dir": cache_dir, "levels": levels}
            fills.append(_run_worker(fill, deadline))

        job = {"mode": "pass", "radicands": radicands, "cache_dir": cache_dir,
               "renders": (1, 0.0) if args.trace else RENDERS}
        if args.trace:
            passes.append(_run_worker(job, deadline))
            passes.append(_run_worker({**job, "trace": True}, deadline))
        else:
            dump = str(work / "reports.pkl")
            t0 = time.monotonic()
            while not passes or time.monotonic() - t0 < args.seconds:
                started = time.monotonic()
                passes.append(_run_worker({**job, "dump": dump}, deadline))
                renders += [_run_worker({"mode": "render", "dump": dump, "renders": RENDERS},
                                        deadline) for _ in range(RENDER_STEPS)]
                if deadline - time.monotonic() < 2 * (time.monotonic() - started):
                    break
            if cache_dir:
                fills.append(_run_worker({**fill, "cache_dir": str(work / "cache2")}, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import_s = [r["import_s"] for r in fills + passes + renders]
    setup_s = statistics.median(import_s)
    if fills:
        setup_s += statistics.median(r["fill_s"] for r in fills)

    attempted, failed = score(passes, radicands, answers["pinned"])
    consistent = (all(p["csv"] == passes[0]["csv"] for p in passes) and
                  all(r["json_bytes"] == passes[0]["json_bytes"] for r in passes + renders))
    if not consistent:
        print("certificates are not byte-identical across passes", file=sys.stderr)
    if args.trace:
        trace = passes[1]["trace"]
        if not trace["unpatched"]:
            consistent = False
            print("the tracer left greenberg patched", file=sys.stderr)
        metrics = per_layer(passes[1], passes[0])
        print(breakdown_table(trace, passes[1]["certify_s"]))
        details = {"breakdown": trace["breakdown"], "spans": trace["spans"],
                   "counters": trace["counters"], "unattributed_s": trace["unattributed_s"]}
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(details, indent=1) + "\n")
    else:
        metrics = end_to_end(setup_s, passes, renders)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "numpy": passes[0]["numpy"], "machine": _machine(), "metrics": metrics,
              "setup": {"import_s": import_s, "fill_s": [r["fill_s"] for r in fills],
                        "setup_s": setup_s},
              "passes": [{k: p[k] for k in ("certify_s", "render_s", "maxrss_mb", "latencies")}
                         for p in passes],
              "renders_s": [r["render_s"] for r in renders], "radicands": radicands}
    print("machine: " + json.dumps({"numpy": record["numpy"], **record["machine"]}))
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return metrics, attempted, failed, consistent and failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "greenberg" / "__init__.py").is_file():
        print(f"no greenberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    # a terminated run still stops its worker and removes its temporary cache
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, attempted, failed, correct = run(args)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

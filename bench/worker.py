"""One benchmark step in a fresh interpreter; run.py starts it.

Usage: ``python3 bench/worker.py '<json job>'``.  Every step first times
``import greenberg`` (a set-up sample).  The job's ``mode`` is

* ``fill``:   time filling the log-record cache for the radicands' levels;
* ``pass``:   certify the radicands one by one, rendering each certificate
  right after it is certified, and pickle the reports to ``dump``; with
  ``trace`` set, the layers are timed by the outside-in tracer;
* ``render``: load the reports a pass pickled and render them again.

``renders`` gives the least number of renders per certificate and the least
render seconds per step, so that short renders repeat.  The last line of
standard output is one JSON object with the results.  Running in a fresh
process keeps the in-process spec caches cold, makes the peak resident set
size belong to this step alone, and gives every render sample its own
process: the speed of this shared host differs between processes.
"""

from __future__ import annotations

import importlib
import json
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _import_greenberg(root: Path) -> float:
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import greenberg
    import greenberg.cli  # noqa: F401
    dt = time.perf_counter() - t0
    if not Path(greenberg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"greenberg was imported from {greenberg.__file__}, not {src}")
    return dt


def _fill(job: dict) -> dict:
    from greenberg.cyclo_logs import find_split_primes, get_records
    from greenberg.quadratic import character_kernel

    t0 = time.perf_counter()
    for f, levels in job["levels"].items():
        kernel = character_kernel(int(f))
        for n in range(1, levels + 1):
            primes = find_split_primes(int(f), n, job["primes"])
            get_records(int(f), n, primes, kernel, cache_dir=job["cache_dir"])
    return {"fill_s": time.perf_counter() - t0}


def certificate(rep) -> dict:
    from greenberg.group_ring import poly_str

    gens = [] if rep.reported is None else [poly_str(g) for g in rep.reported.generators]
    return {"m": rep.m, "criterion": rep.criterion, "n0": rep.n0,
            "log2_index": rep.log2_index, "generators": gens,
            "ladder": [lv.log2_index for lv in rep.levels]}


def _render(rep, per_certificate_s: float, min_renders: int, cli) -> tuple[float, int]:
    """Median seconds to render one certificate as markdown and json, and
    the size of its json."""
    samples = []
    while len(samples) < min_renders or sum(samples) < per_certificate_s:
        t0 = time.perf_counter()
        cli.report_markdown(rep)
        json_text = cli.reports_json([rep])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(json_text.encode())


def _pass(job: dict) -> dict:
    from greenberg.verify import RunConfig
    verify_mod = importlib.import_module("greenberg.verify")   # shadowed by the function
    cli = importlib.import_module("greenberg.cli")

    tr = None
    if job["trace"]:
        import tracer as tracing
        before = tracing.snapshot()
        tr = tracing.Tracer()
        tr.install()

    config = RunConfig(primes=job["primes"], cache_dir=job["cache_dir"])
    clock = time.perf_counter
    min_renders, render_seconds = job["renders"]
    per_certificate_s = render_seconds / len(job["radicands"])
    reps, certs, latencies = [], {}, []
    render_s = json_bytes = 0
    try:
        for f in job["radicands"]:
            if tr:
                tr.scope = "L0"
            t0 = clock()
            try:
                rep = verify_mod.verify(f, config)
            except Exception:                      # counted as a failed radicand
                latencies.append(clock() - t0)
                certs[str(f)] = {"error": traceback.format_exc(limit=3)}
                continue
            latencies.append(clock() - t0)
            reps.append(rep)
            certs[str(f)] = certificate(rep)

            # render right away, so that render samples spread over the pass
            if tr:
                tr.scope = "render"
            seconds, size = _render(rep, per_certificate_s, min_renders, cli)
            render_s += seconds
            json_bytes += size
        certify_s = sum(latencies)
        csv_text = cli.reports_csv(reps)
    finally:
        if tr:
            tr.uninstall()
    if job.get("dump"):
        Path(job["dump"]).write_bytes(pickle.dumps(reps))

    out = {"latencies": latencies, "certify_s": certify_s, "render_s": render_s,
           "json_bytes": json_bytes,
           "csv": csv_text, "certificates": certs,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr:
        # self times of the certify phase plus this remainder make certify_s
        spans_s = sum(v[2] for key, v in tr.spans.items() if key[0] != "render")
        out["trace"] = {
            "totals": tr.totals(), "counters": tr.counters,
            "breakdown": tr.breakdown(),
            "spans": [[*key, *val] for key, val in sorted(tr.spans.items())],
            "unattributed_s": certify_s - spans_s,
            "unpatched": tracing.is_unpatched(before),
        }
    return out


def _render_again(job: dict) -> dict:
    cli = importlib.import_module("greenberg.cli")
    reps = pickle.loads(Path(job["dump"]).read_bytes())
    min_renders, render_seconds = job["renders"]
    samples = [_render(rep, render_seconds / max(len(reps), 1), min_renders, cli)
               for rep in reps]
    return {"render_s": sum(s for s, _ in samples), "json_bytes": sum(b for _, b in samples)}


def main() -> None:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    import_s = _import_greenberg(root)
    import numpy
    result = {"import_s": import_s, "numpy": numpy.__version__}
    step = {"fill": _fill, "pass": _pass, "render": _render_again}[job["mode"]]
    result.update(step(job))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Harness self-check on the smoke workload (f = 949 and 2397, seconds).

Usage (from the repository root):

    python3 bench/selfcheck.py

Checks that
1. run.py emits every metric BENCHMARK.json declares, by name and unit, in
   both modes, and exits 0 with ``correct`` true;
2. traced and untraced passes give byte-identical csv certificates;
3. the tracer leaves ``greenberg`` unpatched afterwards;
4. the answer gate fires: a changed pinned certificate fails both the score
   and the cross-check against the published values.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

from run import BENCH, ROOT, check_pins, score
from workloads import PRIMES, WORKLOADS
import worker

RADICANDS = WORKLOADS["smoke"]["radicands"]


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
                               "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
              f"smoke run with --trace {trace} is correct")
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "result line has exactly the four keys")
        got = {name: m["unit"] for name, m in result["metrics"].items()
               if isinstance(m["value"], (int, float))}
        want = {m["name"]: m["unit"] for m in declared[kind]}
        check(got == want, f"every {kind} metric is emitted with its unit")

    worker._import_greenberg(ROOT)
    import tracer
    before = tracer.snapshot()
    job = {"radicands": RADICANDS, "primes": PRIMES, "cache_dir": None, "renders": (1, 0.0)}
    plain = worker._pass({**job, "trace": False})
    traced = worker._pass({**job, "trace": True})
    check(plain["csv"] == traced["csv"], "traced and untraced csv are byte-identical")
    check(traced["trace"]["unpatched"] and tracer.is_unpatched(before),
          "greenberg is unpatched after tracing")

    answers = json.loads((BENCH / "answers.json").read_text())
    check(score([plain], RADICANDS, answers["pinned"]) == (len(RADICANDS), 0),
          "smoke certificates match the pinned answers")
    bad = copy.deepcopy(answers)
    bad["pinned"]["949"]["n0"] += 1
    check(score([plain], RADICANDS, bad["pinned"])[1] == 1,
          "a changed pinned certificate is counted as a failure")
    check(bool(check_pins(bad)), "a changed pinned certificate fails the published cross-check")


if __name__ == "__main__":
    main()

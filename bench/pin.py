"""Regenerate the pinned certificates in answers.json.

Usage (from the repository root, about a minute and a half):

    python3 bench/pin.py

Certifies every radicand of every workload with the benchmark's
configuration, writes the certificates under ``pinned`` and cross-checks
them against the ``published`` section: the published f = 5 mod 8 rows, the
f = 1605 and 2397 rows and the f = 6817 level ladder, whose per-level
generators are compared here as well.  Run it only when the answers are
meant to change; the benchmark fails whenever a certificate differs from
the pinned one.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import BENCH, ROOT, gens_key, check_pins
from workloads import PRIMES, WORKLOADS

os.environ.pop("GREENBERG_CACHE", None)   # RunConfig(cache_dir=None) would read it
sys.path.insert(0, str(ROOT / "src"))

from greenberg.group_ring import canonical_generators, poly_str  # noqa: E402
from greenberg.verify import RunConfig, verify  # noqa: E402
from worker import certificate  # noqa: E402


def main() -> int:
    path = BENCH / "answers.json"
    answers = json.loads(path.read_text())
    radicands = sorted({f for w in WORKLOADS.values() for f in w["radicands"]})
    config = RunConfig(primes=PRIMES, cache_dir=None)
    pinned, problems = {}, []
    for f in radicands:
        rep = verify(f, config)
        pinned[str(f)] = certificate(rep)
        ladder = answers["published"]["ladders"].get(str(f))
        for lv in rep.levels if ladder else ():
            gens = [poly_str(g) for g in canonical_generators(lv.ideal).generators]
            if gens_key(gens) != gens_key(ladder[str(lv.n)][0]):
                problems.append(f"f={f}, level {lv.n}: {gens} != {ladder[str(lv.n)][0]}")
    answers["pinned"] = pinned
    problems += check_pins(answers)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())

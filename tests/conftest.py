import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return random.Random(0x5eed)


# small odd squarefree radicands >= 3, handy for randomized sweeps
SMALL_RADICANDS = [3, 5, 7, 11, 13, 15, 17, 19, 21, 23, 29, 31, 33, 35, 37,
                   39, 41, 43, 47, 51, 53, 55, 57, 59]


@pytest.fixture(params=["int64", "float-corrected", "python-int"])
def arithmetic_branch(request, monkeypatch):
    """Send every residue vector down one arithmetic branch, whatever r is:
    the branch follows r against the two limits, so lowering them reroutes
    small primes."""
    from greenberg import finite_field
    if request.param != "int64":
        monkeypatch.setattr(finite_field, "_NUMPY_LIMIT", 0)
    if request.param == "python-int":
        monkeypatch.setattr(finite_field, "_FLOAT_LIMIT", 0)
    return request.param


@pytest.fixture
def small_radicands():
    return list(SMALL_RADICANDS)


def _runnable(limit):
    """Radicands the algorithm actually runs on (the eta products are only
    rational over F_r under the standing class-number hypothesis)."""
    from greenberg.quadratic import GATE_TRIVIAL, class_number, is_squarefree
    out = []
    for f in range(3, limit, 2):
        if not is_squarefree(f):
            continue
        if class_number(f).gate != GATE_TRIVIAL:
            out.append(f)
    return out


@pytest.fixture(scope="session")
def runnable_radicands():
    return _runnable(90)


@pytest.fixture(scope="session")
def published_reports():
    """verify() reports of the published rows every level of which the
    tests walk: 323 (3 mod 4), 949 (5 mod 8), 1605 (ten levels) and 6817
    (split, the divided presentation)."""
    from greenberg.verify import verify
    return {f: verify(f) for f in (323, 949, 1605, 6817)}

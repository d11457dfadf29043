"""Completeness regression against the published f = 5 mod 8 results.

The reference table lists, for every f = 5 mod 8 with even class number,
the stable ideal J, the level n0, and the index N.  These sweeps check
both directions: every even-h radicand in range must appear with exactly
the published (J, n0, N), and no other radicand may qualify.
"""

import pytest

from greenberg.group_ring import HowellIdeal
from greenberg.quadratic import class_number, is_squarefree
from greenberg.verify import RunConfig, verify
from oracles import mutual_membership, parse_poly

# published rows below 2000: f -> (generators, n0, log2 N)
PUBLISHED_5MOD8 = {
    85: ("2,T^2", 2, 2),
    165: ("4,2T,T^2", 2, 3),
    205: ("4,2T,T^2", 2, 3),
    221: ("4,2T,T^2", 2, 3),
    285: ("4,2T,T^2", 2, 3),
    357: ("4,2T^2,T^4+2T", 3, 6),
    365: ("2,T^2", 2, 2),
    429: ("4,2T,T^2", 2, 3),
    445: ("4,2T,T^2", 2, 3),
    485: ("2,T^2", 2, 2),
    493: ("2,T^2", 2, 2),
    533: ("4,2T,T^2+2", 2, 3),
    565: ("2,T^3", 2, 3),
    629: ("2,T^2", 2, 2),
    645: ("8,2T+4,T^2+4", 2, 4),
    685: ("4,2T,T^2+2", 2, 3),
    741: ("4,2T,T^2", 2, 3),
    805: ("8,2T^2+4,T^3+6T", 3, 7),
    861: ("4,2T,T^3", 2, 4),
    885: ("4,2T,T^2", 2, 3),
    901: ("4,2T,T^2", 2, 3),
    949: ("2,T^2", 2, 2),
    957: ("8,2T+4,T^2+4", 2, 4),
    965: ("2,T^2", 2, 2),
    1005: ("8,2T+4,T^2+4", 2, 4),
    1037: ("2,T^2", 2, 2),
    1045: ("8,2T,T^2", 3, 4),
    1085: ("4,2T^2,T^3+2T", 2, 5),
    1157: ("2,T^2", 2, 2),
    1165: ("2,T^2", 2, 2),
    1173: ("4,2T^2,T^4+2T", 3, 6),
    1189: ("8,4T,T^2+2T+6", 2, 5),
    1205: ("8,2T+4,T^2+4", 2, 4),
    1221: ("32,2T+8,T^2+16", 5, 6),
    1245: ("128,2T+92,T^2+60", 6, 8),
    1261: ("2,T^2", 2, 2),
    1285: ("2,T^3", 2, 3),
    1309: ("4,2T^2,T^4+2T", 3, 6),
    1365: ("8,4T,2T^2,T^3", 3, 6),
    1405: ("4,2T,T^2", 2, 3),
    1469: ("8,2T^2+4,T^3+6T", 3, 7),
    1517: ("4,2T,T^2", 2, 3),
    1533: ("4,2T,T^3", 2, 4),
    1565: ("4,T^2+2T+2", 2, 4),
    1581: ("4,2T,T^5", 3, 6),
    1605: ("1024,2T+316,T^2+636", 9, 11),
    1645: ("4,2T,T^3", 2, 4),
    1653: ("64,2T+52,T^2+28", 4, 7),
    1677: ("8,2T,T^2", 3, 4),
    1685: ("4,T^4+2T^3+2", 3, 8),
    1717: ("4,2T,T^2", 2, 3),
    1749: ("4,2T,T^2", 2, 3),
    1765: ("2,T^3", 2, 3),
    1781: ("8,4T,T^2+2T+6", 2, 5),
    1853: ("2,T^2", 2, 2),
    1869: ("4,2T,T^3", 2, 4),
    1885: ("8,4T,T^2", 3, 5),
    1965: ("4,2T,T^2", 2, 3),
}


def _sweep(lo, hi):
    qualifying = []
    for f in range(lo + (5 - lo) % 8 if lo % 8 != 5 else lo, hi, 8):
        if not is_squarefree(f):
            continue
        if class_number(f).h % 2 == 0:
            qualifying.append(f)
    expected = {f for f in PUBLISHED_5MOD8 if lo <= f < hi}
    assert set(qualifying) == expected, "even-h population disagrees with the table"
    for f in qualifying:
        text, n0, log2 = PUBLISHED_5MOD8[f]
        rep = verify(f, RunConfig(primes=15))
        assert rep.resolved, f
        assert rep.n0 == n0, f
        assert rep.log2_index == log2, f
        final = rep.levels[-1].ideal
        want = HowellIdeal.from_generators(final.spec,
                                           [parse_poly(p) for p in text.split(",")])
        assert mutual_membership(final, want), f


def test_every_5mod8_row_below_1000():
    _sweep(5, 1000)


@pytest.mark.slow
def test_every_5mod8_row_1000_to_2000():
    _sweep(1000, 2000)


# structurally rich published rows: multi-term generators, larger indices
COMPLEX_ROWS = {
    2397: ("8,2T^4+4T+4,T^5+6T^2+6T", 4, 13),
    2829: ("8,4T,2T^2+4,T^3+2T+4", 2, 6),
    5397: ("4,2T^3,T^5+2T^2+2T", 3, 8),
    7413: ("4,2T^4,T^5+2T", 3, 9),
    9485: ("8,2T^2+4T+4,T^3+6T+4", 2, 7),
}


def test_complex_published_rows():
    for f, (text, n0, log2) in COMPLEX_ROWS.items():
        rep = verify(f, RunConfig(primes=15))
        assert rep.resolved and rep.n0 == n0 and rep.log2_index == log2, f
        final = rep.levels[-1].ideal
        want = HowellIdeal.from_generators(final.spec,
                                           [parse_poly(p) for p in text.split(",")])
        assert mutual_membership(final, want), f


@pytest.mark.slow
def test_every_radicand_below_600_resolves():
    """The certification terminates for every odd squarefree f < 600,
    across all three congruence classes, with coherent report invariants."""
    for f in range(3, 600, 2):
        if not is_squarefree(f):
            continue
        rep = verify(f, RunConfig(primes=15))
        assert rep.resolved, f
        if rep.criterion == "trivial":
            assert rep.levels == []
            continue
        assert 1 <= rep.m <= 13, f
        assert rep.n0 <= rep.m, f
        assert rep.log2_index == rep.reported.log2_index, f
        assert rep.stable_from == rep.m - 1, f

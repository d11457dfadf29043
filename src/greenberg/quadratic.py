"""Arithmetic invariants of F = Q(sqrt(f)): characters, class number, gate.

Everything here is exact integer arithmetic.  One walk of the cycles of
reduced indefinite binary quadratic forms under the reduction operator
gives both the narrow class number (the number of cycles) and the norm of
the fundamental unit (-1 exactly when the principal cycle holds a form
with leading coefficient -1), hence the class number.  The quadratic
character is the Jacobi symbol (a|f).  The analytic class number formula
is deliberately not used here; it serves as an independent oracle in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from greenberg.finite_field import factorize

GATE_RUN_SPLIT = "run_split"
GATE_RUN_NONSPLIT = "run_nonsplit"
GATE_TRIVIAL = "trivially_stable"


def is_squarefree(m: int) -> bool:
    return all(e == 1 for e in factorize(m).values())


def _require_valid_radicand(f: int) -> None:
    if f < 3 or f % 2 == 0 or not is_squarefree(f):
        raise ValueError(f"radicand must be an odd squarefree integer >= 3, got {f}")


@dataclass(frozen=True)
class KernelSet:
    """Residues a mod f with chi(a) = +1, for chi the quadratic character
    attached to sqrt(f) (f = 1 mod 4) or sqrt(-f) (f = 3 mod 4)."""

    f: int
    sign_case: str            # "chi_f" or "chi_minus_f"
    residues: tuple[int, ...]

    def __contains__(self, a: int) -> bool:
        return a % self.f in self._set

    @cached_property
    def _set(self) -> frozenset[int]:
        return frozenset(self.residues)


def character_kernel(f: int) -> KernelSet:
    """Kernel of the quadratic character cutting out the relevant subfield
    of Q(zeta_f); it indexes the conjugates in every eta-product.

    The character is the Kronecker symbol of the discriminant f or -f,
    whichever is 1 mod 4; by reciprocity it equals the Jacobi symbol (a|f),
    which is 0 on residues not prime to f.  That symbol is the product of
    the Legendre symbols (a|p) over the primes p | f, each read from the
    table of squares mod p.
    """
    _require_valid_radicand(f)
    case = "chi_f" if f % 4 == 1 else "chi_minus_f"
    a = np.arange(f, dtype=np.int64)
    chi = np.ones(f, dtype=np.int64)
    phi = 1
    for p in factorize(f):
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[a[:p] ** 2 % p] = 1
        legendre[0] = 0
        chi *= legendre[a % p]
        phi *= p - 1
    residues = tuple(np.flatnonzero(chi == 1).tolist())
    assert len(residues) == phi // 2, "kernel must have index 2 in (Z/f)^x"
    return KernelSet(f=f, sign_case=case, residues=residues)


def _divisors(m: int) -> list[int]:
    out = [1]
    for p, e in factorize(m).items():
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced indefinite forms (a, b, c) of discriminant D > 0."""
    s = isqrt(D)
    forms = []
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        M = (D - b * b) // 4
        for aa in _divisors(M):
            # sqrt(D) - b < 2|a| < sqrt(D) + b, tested exactly by squaring
            if (2 * aa + b) ** 2 > D and (2 * aa - b < 0 or (2 * aa - b) ** 2 < D):
                forms.append((aa, b, -(M // aa)))
                forms.append((-aa, b, M // aa))
    return forms


def _rho(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """Reduction operator; permutes the reduced forms, cycles = narrow classes."""
    _, b, c = form
    ac = abs(c)
    t = (-b) % (2 * ac)
    r = s - ((s - t) % (2 * ac))
    return (c, r, (r * r - D) // (4 * c))


def form_cycles(D: int) -> list[list[tuple[int, int, int]]]:
    """The cycles of the reduced forms of discriminant D under reduction,
    one per narrow class."""
    remaining = set(reduced_forms(D))
    s = isqrt(D)
    cycles = []
    while remaining:
        cycle = [min(remaining)]
        remaining.remove(cycle[0])
        g = _rho(cycle[0], D, s)
        while g != cycle[0]:
            assert g in remaining, "reduction left the reduced-form set"
            remaining.remove(g)
            cycle.append(g)
            g = _rho(g, D, s)
        cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class QuadFieldInfo:
    """Class-number data for Q(sqrt(f)) plus the derived gate classification.

    m0 is the 2-valuation of the order of the base-level unit-index module:
    v2(h) for f = 1 mod 4 and v2(h) - 1 for f = 3 mod 4 (where h must be
    even for the algorithm to run at all).
    """

    f: int
    h: int
    h_narrow: int
    unit_norm: int
    m0: int
    gate: str


def _gate(f: int, h: int) -> str:
    """Which of the two algorithm variants runs for f, if any.

    2 splits in Q(sqrt(f)) exactly when f = 1 mod 8; otherwise an odd class
    number already forces the whole tower trivial.
    """
    if f % 8 == 1:
        return GATE_RUN_SPLIT
    return GATE_RUN_NONSPLIT if h % 2 == 0 else GATE_TRIVIAL


def class_number(f: int) -> QuadFieldInfo:
    """Class number of Q(sqrt(f)) by form-cycle counting, with the gate.

    h_narrow counts reduction cycles.  The fundamental unit has norm -1
    exactly when the principal form represents -1, that is, when the
    principal cycle (the one through a = 1) holds a form with a = -1; the
    unit norm converts to the wide class number.
    """
    _require_valid_radicand(f)
    D = f if f % 4 == 1 else 4 * f
    cycles = form_cycles(D)
    h_narrow = len(cycles)
    principal = next(c for c in cycles if any(a == 1 for a, _, _ in c))
    unit_norm = -1 if any(a == -1 for a, _, _ in principal) else 1
    if unit_norm == -1:
        h = h_narrow
    else:
        assert h_narrow % 2 == 0, "norm +1 forces an even narrow class number"
        h = h_narrow // 2
    v2 = (h & -h).bit_length() - 1
    if f % 4 == 1:
        m0 = v2
    else:
        m0 = v2 - 1 if h % 2 == 0 else 0
    return QuadFieldInfo(f=f, h=h, h_narrow=h_narrow, unit_norm=unit_norm,
                         m0=m0, gate=_gate(f, h))

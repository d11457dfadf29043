"""Computational certification that 2-class groups of real quadratic fields
Q(sqrt(f)) stabilize along the cyclotomic Z_2-tower (Greenberg's conjecture,
lambda = 0), via annihilator ideals of cyclotomic-unit duals."""

from greenberg.quadratic import QuadFieldInfo, character_kernel, class_number
from greenberg.verify import RunConfig, VerificationReport, verify

__all__ = [
    "QuadFieldInfo",
    "RunConfig",
    "VerificationReport",
    "character_kernel",
    "class_number",
    "verify",
]

__version__ = "0.1.0"

"""Closed-form maps of the quadratic family f_l(z) = l/2 (z^2 - 1) + 1, |l| > 40.

Both critical values of f_l escape the trapping disks U_0 = D(+1, 1/3) and
U_1 = D(-1, 1/3); every backward orbit started in their union stays there, so
the two inverse branches +-sqrt(1 + 2(w - 1)/l) define a full binary coding.
Branch label 0 is the principal square root (landing in U_0), label 1 its
negative (landing in U_1).

All functions accept scalars or numpy arrays and are stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Trapping disks: centers +1 and -1, common radius 1/3.
CENTER_0 = 1.0 + 0.0j
CENTER_1 = -1.0 + 0.0j
TRAP_RADIUS = 1.0 / 3.0

# One-step planar expansion floor on the closed disks: |f_l'(z)| = |l z| >= (2/3)|l| > 80/3.
EXPANSION_FLOOR = 80.0 / 3.0


def apply(l: complex, z):
    """Forward map f_l(z) = l/2 (z^2 - 1) + 1."""
    return l / 2.0 * (z * z - 1.0) + 1.0


def derivative(l: complex, z):
    """Planar derivative f_l'(z) = l z."""
    return l * z


def spherical_derivative(l: complex, z):
    """|f_l'(z)| rescaled by the spherical conformal factor (1+|z|^2)/(1+|f_l(z)|^2)."""
    w = apply(l, z)
    return np.abs(l * z) * (1.0 + np.abs(z) ** 2) / (1.0 + np.abs(w) ** 2)


def inverse_branch(l: complex, w, label: int):
    """Inverse branch f_l^{-1}(w) = +-sqrt(1 + 2(w - 1)/l) on the disk |w| < 2.

    label 0 takes the principal root (image in U_0), label 1 its negative
    (image in U_1). Raises DomainError outside |w| < 2, where the branches
    are no longer guaranteed single-valued by the radicand bound.
    """
    if label not in (0, 1):
        raise ValueError("branch label must be 0 or 1")
    if np.any(np.abs(w) >= 2.0):
        raise DomainError("inverse_branch requires |w| < 2")
    root = np.sqrt(np.asarray(1.0 + 2.0 * (w - 1.0) / l, dtype=np.complex128))
    result = root if label == 0 else -root
    return complex(result) if np.ndim(w) == 0 else result


def in_trap_union(z, closed: bool = True) -> bool:
    """Whether z lies in U_0 union U_1 (closed disks by default)."""
    cmp = (lambda a, b: a <= b) if closed else (lambda a, b: a < b)
    return bool(cmp(abs(z - CENTER_0), TRAP_RADIUS) or cmp(abs(z - CENTER_1), TRAP_RADIUS))


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the backward-invariance check for a single parameter."""

    l: complex
    passed: bool
    radicand_bound: float
    margin: float
    reason: str

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"trapping certificate l={self.l}: {status} "
            f"(radicand bound {self.radicand_bound:.6g}, margin {self.margin:.6g}) {self.reason}"
        )


def trapping_certificate(l: complex) -> CertificateReport:
    """Certify analytically that both inverse branches map closure(U) strictly into U.

    For every w in the closed union (so |w - 1| <= 7/3) the radicand offset
    u = 2(w - 1)/l satisfies |u| <= 14/(3|l|), and |sqrt(1 + u) - 1| <= |u|
    whenever |u| < 1. Hence both branch images stay within 14/(3|l|) of the
    disk centers, which is strictly inside radius 1/3 for every |l| > 40.
    The reported margin is 1/3 minus that displacement bound.
    """
    mod = abs(l)
    bound = 14.0 / (3.0 * mod)
    margin = TRAP_RADIUS - bound
    if mod <= 40.0:
        return CertificateReport(l, False, bound, margin, "modulus <= 40")
    if bound >= 1.0:
        return CertificateReport(l, False, bound, margin, "radicand bound >= 1")
    if margin <= 0.0:
        return CertificateReport(l, False, bound, margin, "displacement reaches disk radius")
    return CertificateReport(l, True, bound, margin, "")

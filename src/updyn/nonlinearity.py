"""Bounded Lipschitz nonlinearity descriptors with spot checks on fixed points.

A delay or discrete system rests on three assumptions: its nonlinearity is
bounded (A1, B1), it is Lipschitz (A2, B2), and the system's contraction margin
is positive (A3, B3).  ``check_assumptions`` tests all three for either spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chaos import row_norms
from .errors import DomainError

# the spot check's fixed pairs: how many, and at what spread
SPOT_PAIRS, SPOT_SCALE = 1000, 3.0


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluator together with its declared sup bound and Lipschitz constant.

    ``func`` maps arrays of shape (..., dim) to arrays of the same shape.
    It may receive column-major (..., dim) arrays: ``discrete.iterate``
    hands it the (lanes, dim) transpose of its lockstep lane state, and a
    row's result should not depend on the layout or on the other rows.  The
    declared constants are claims about the map on all of R^dim and are only
    spot-checked, never inferred.
    """

    func: Callable[[np.ndarray], np.ndarray]
    bound: float
    lipschitz: float
    name: str = ""

    def __post_init__(self):
        if not (self.bound > 0.0):
            raise DomainError("declared sup bound must be positive")
        if self.lipschitz < 0.0:
            raise DomainError("declared Lipschitz constant must be non-negative")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(x, dtype=float))

    @staticmethod
    def zero(dim: int) -> "Nonlinearity":
        def z(x):
            return np.zeros_like(np.asarray(x, dtype=float))
        return Nonlinearity(z, bound=np.finfo(float).tiny, lipschitz=0.0, name="zero")


@dataclass(frozen=True)
class SpotCheck:
    """Worst observed violations of the declared constants on the spot pairs."""

    pairs: int
    bound_excess: float
    lipschitz_excess: float

    @property
    def bound_ok(self) -> bool:
        return self.bound_excess <= 1e-9

    @property
    def lipschitz_ok(self) -> bool:
        return self.lipschitz_excess <= 1e-9


def spot_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``SPOT_PAIRS`` fixed pairs of points of R^dim, normal at spread ``SPOT_SCALE``: Box-Muller
    over coordinate pairs of the Kronecker sequence frac(1/2 + k g^-(1..2 dim)), k = 1, 2, ...,
    with g^(2 dim + 1) = g + 1, which fills [0, 1)^(2 dim) evenly (Roberts's R_d sequence)."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (2 * dim + 1))
    u = (0.5 + np.arange(1.0, SPOT_PAIRS + 1.0)[:, None] * g ** -np.arange(1.0, 2 * dim + 1)) % 1.0
    radius, angle = SPOT_SCALE * np.sqrt(-2.0 * np.log(u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    return radius * np.cos(angle), radius * np.sin(angle)


def spot_check(nl: Nonlinearity, dim: int) -> SpotCheck:
    """Test |f| <= bound and the Lipschitz estimate on the ``spot_pairs``."""
    x, y = spot_pairs(dim)
    fx, fy = nl(x), nl(y)
    norm_f = row_norms(np.concatenate([fx, fy]))
    gap = row_norms(fx - fy) - nl.lipschitz * row_norms(x - y)
    return SpotCheck(
        pairs=SPOT_PAIRS,
        bound_excess=float(norm_f.max() - nl.bound),
        lipschitz_excess=float(gap.max()),
    )


@dataclass(frozen=True)
class AssumptionReport:
    """A system's assumptions: the bound and Lipschitz verdicts of ``spot`` and the
    contraction margin, which ``contracts`` when positive."""

    spot: SpotCheck
    margin: float

    @property
    def contracts(self) -> bool:
        return self.margin > 0.0


def check_assumptions(spec) -> AssumptionReport:
    """Spot-check the declared constants of ``spec.nonlinearity`` and report ``spec.margin``,
    for a delay or a discrete system spec."""
    return AssumptionReport(spot_check(spec.nonlinearity, spec.dim), spec.margin)

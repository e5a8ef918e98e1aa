"""Decomposable sequences and functions: recurrent part plus decaying tail.

A triple (phi, psi, theta) with phi = psi + theta carries the working
decomposition: psi is the bounded recurrent ingredient built from the
chaotic source, theta decays at forward infinity.  The transforms here
(affine images, index shifts) preserve that structure, and the witness
scan detects when the tail is so large at one point that the combined
signal cannot itself be recurrent-with-separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .chaos import GridFunction, Series, VectorSequence
from .errors import DomainError, SingularMatrixError

_EPS = float(np.finfo(float).eps)
PSI_SCALE = (1.0, 0.25)  # 6.2's psi per orbit value; its first entry keeps kappa as psi's key


@dataclass(frozen=True)
class DecompositionTriple:
    """phi = psi + theta, all three on one axis (sequences or grid functions)."""

    phi: Series
    psi: Series
    theta: Series

    def __post_init__(self):
        self.phi.require_same_axis(self.psi)
        self.phi.require_same_axis(self.theta)

    @property
    def is_sequence(self) -> bool:
        return self.phi.is_sequence

    def decomposition_residual(self) -> float:
        """Largest componentwise defect of phi - (psi + theta)."""
        p, s, t = self.phi.values, self.psi.values, self.theta.values
        return float(np.abs(p - (s + t)).max())


def _libm_exp(t: np.ndarray) -> np.ndarray:
    """exp(t) with the C library's bits, inf past the float range.

    numpy's vectorised real exp differs from libm's in the last bit on some
    hosts, and the demo outputs are pinned to libm's.  glibc's complex
    exp(t + 0i) has libm's exp(t) as its real part up to t = 709, where it
    starts to rescale, so the few points past 709 take ``math.exp``.
    """
    with np.errstate(over="ignore"):
        e = np.ascontiguousarray(np.exp(t + 0j).real)
    big = t > 709.0
    if big.any():
        e[big] = [_exp_or_inf(x) for x in t[big].tolist()]
    return e


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def function_tail(t) -> np.ndarray:
    """Decaying part (3/(1+e^t), -5*sech(2t)) of the built-in function demo."""
    t = np.asarray(t, dtype=float)
    first = 3.0 * (1.0 / (1.0 + _libm_exp(t)))
    a = np.abs(2.0 * t)
    sech = 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))
    return np.stack([first, -5.0 * sech], axis=-1)


def sequence_tail(indices) -> np.ndarray:
    """Decaying part (2/(1+i^2), 4*exp(-i^2)) of the built-in sequence demo."""
    i = np.asarray(indices, dtype=float)
    out = np.empty(i.shape + (2,))
    sq = i * i
    near = ~(sq > 746.0)    # exp(-x) is +0.0 for every x > 745.14, so only |i| <= 27 is evaluated
    out[..., 1] = 0.0
    out[..., 1][near] = 4.0 * np.exp(-sq[near])
    np.divide(2.0, np.add(1.0, sq, out=out[..., 0]), out=out[..., 0])
    return out


def build_function_triple(h: Series) -> DecompositionTriple:
    """Combine psi = (2h, h) with the decaying tail into phi on h's grid."""
    if h.dim != 1:
        raise DomainError("expected the scalar filtered source")
    hv = h.values[:, 0]
    psi = np.stack([2.0 * hv, hv], axis=-1)
    theta = function_tail(h.times())
    grid = lambda arr: GridFunction(h.t_start, h.step, arr)
    return DecompositionTriple(grid(psi + theta), grid(psi), grid(theta))


def sequence_psi(orbit: Series) -> Series:
    """psi_i = kappa_i * ``PSI_SCALE`` = (kappa_i, kappa_i/4) of a scalar orbit."""
    return VectorSequence(orbit.t_start, orbit.values[:, :1] * PSI_SCALE)


def build_sequence_triple(orbit: Series) -> DecompositionTriple:
    """Combine psi_i = (kappa_i, kappa_i/4) of a scalar orbit with the decaying tail."""
    psi = sequence_psi(orbit)
    theta = replace(psi, values=sequence_tail(orbit.times()))
    return DecompositionTriple(replace(psi, values=psi.values + theta.values), psi, theta)


def _as_matrix(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim) or not np.all(np.isfinite(m)):
        raise DomainError(f"expected a finite {dim}x{dim} matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= dim * _EPS * sv[0]:
        raise SingularMatrixError("transform matrix is numerically singular")
    return m


def affine_transform(seq, matrix, offset) -> Union[Series, DecompositionTriple]:
    """Map values through x -> matrix @ x + offset; matrix must be invertible.

    On a triple the offset joins the recurrent part and the tail is mapped
    linearly, so the decomposition survives the transform.
    """
    if isinstance(seq, DecompositionTriple):
        if not seq.is_sequence:
            raise DomainError("affine transform is defined for sequence triples")
        psi = affine_transform(seq.psi, matrix, offset)
        m = _as_matrix(matrix, seq.theta.dim)
        theta = replace(seq.theta, values=seq.theta.values @ m.T)
        return DecompositionTriple(replace(psi, values=psi.values + theta.values), psi, theta)
    m = _as_matrix(matrix, seq.dim)
    c = np.broadcast_to(np.asarray(offset, dtype=float), (seq.dim,))
    return replace(seq, values=seq.values @ m.T + c)


def shift(seq, m: int) -> Union[Series, DecompositionTriple]:
    """Re-index so the output at i equals the input at i + m (no data copied)."""
    m = int(m)
    if isinstance(seq, DecompositionTriple):
        return DecompositionTriple(shift(seq.phi, m), shift(seq.psi, m), shift(seq.theta, m))
    return replace(seq, t_start=seq.t_start - m)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of scanning the tail for a point with norm >= 4 * bound."""

    found: bool
    location: float
    tail_norm: float
    threshold: float
    margin: float
    scan_start: float
    scan_end: float
    kind: str
    bound_precondition_ok: bool
    note: str = ""


def non_unpredictability_witness(triple: DecompositionTriple, bound: float) -> WitnessReport:
    """Scan theta for a witness point with norm at least 4 * bound.

    ``bound`` must be a verified sup-norm bound for the recurrent part.  The
    scan covers only the recorded window; absence of a witness there is a
    valid (negative) report.  For function triples the argument below 1 is
    flagged, since the witness criterion for functions needs bound >= 1.
    """
    if not bound > 0.0:
        raise DomainError("witness bound must be positive")
    kind = "sequence" if triple.is_sequence else "function"
    theta = triple.theta
    norms = theta.norms()
    k = int(np.argmax(norms))
    peak = float(norms[k])
    threshold = 4.0 * bound
    precondition_ok = kind == "sequence" or bound >= 1.0
    note = "" if precondition_ok else "bound below 1: the function-witness criterion assumes bound >= 1"
    return WitnessReport(
        found=bool(peak >= threshold),
        location=theta.t_start + k * theta.step,
        tail_norm=peak,
        threshold=threshold,
        margin=peak - threshold,
        scan_start=float(theta.t_start),
        scan_end=float(theta.t_end),
        kind=kind,
        bound_precondition_ok=precondition_ok,
        note=note,
    )

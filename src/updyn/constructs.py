"""Decomposable sequences and functions: recurrent part plus decaying tail.

A triple (phi, psi, theta) with phi = psi + theta carries the working
decomposition: psi is the bounded recurrent ingredient built from the
chaotic source, theta decays at forward infinity.  The transforms here
(affine images, convergent perturbations, index shifts) preserve that
structure, and the witness scan detects when the tail is so large at one
point that the combined signal cannot itself be recurrent-with-separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .chaos import GridFunction, ScalarOrbit, row_norms
from .errors import DomainError, GridMismatchError, SingularMatrixError, WindowExhaustedError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class VectorSequence:
    """Finite window of p-vectors; ``values[k]`` sits at index ``base_index + k``."""

    base_index: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise DomainError("sequence values must form a nonempty (n, p) array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sequence values must all be finite")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def end_index(self) -> int:
        return self.base_index + len(self)

    def indices(self) -> np.ndarray:
        return self.base_index + np.arange(len(self))

    def value_at(self, i: int) -> np.ndarray:
        k = i - self.base_index
        if not 0 <= k < len(self):
            raise WindowExhaustedError(
                f"index {i} outside the recorded window [{self.base_index}, {self.end_index})")
        return self.values[k]

    def norms(self) -> np.ndarray:
        """Euclidean norm of every value, bit-identical to ``np.linalg.norm(values, axis=1)``."""
        return row_norms(self.values)

    def sup_norm(self) -> float:
        return float(self.norms().max())

    def restrict(self, i0: int, i1: int) -> "VectorSequence":
        """Restriction to indices [i0, i1] inclusive."""
        if i0 < self.base_index or i1 >= self.end_index or i1 < i0:
            raise WindowExhaustedError(f"[{i0}, {i1}] not inside [{self.base_index}, {self.end_index})")
        k0 = i0 - self.base_index
        return VectorSequence(i0, self.values[k0:k0 + (i1 - i0) + 1])

    def same_window(self, other: "VectorSequence") -> bool:
        return self.base_index == other.base_index and len(self) == len(other)


Carrier = Union[VectorSequence, GridFunction]


@dataclass(frozen=True)
class DecompositionTriple:
    """phi = psi + theta, all three on one window (sequences or grid functions)."""

    phi: Carrier
    psi: Carrier
    theta: Carrier

    def __post_init__(self):
        kinds = {type(self.phi), type(self.psi), type(self.theta)}
        if len(kinds) != 1:
            raise DomainError("triple parts must all be sequences or all grid functions")
        if self.is_sequence:
            if not (self.phi.same_window(self.psi) and self.phi.same_window(self.theta)):
                raise DomainError("triple parts must share one index window")
        else:
            self.phi.require_same_grid(self.psi)
            self.phi.require_same_grid(self.theta)

    @property
    def is_sequence(self) -> bool:
        return isinstance(self.phi, VectorSequence)

    def _arrays(self):
        if self.is_sequence:
            return self.phi.values, self.psi.values, self.theta.values
        return self.phi.samples, self.psi.samples, self.theta.samples

    def decomposition_residual(self) -> float:
        """Largest componentwise defect of phi - (psi + theta)."""
        p, s, t = self._arrays()
        # one column at a time: no (n, d) temporaries
        return float(max(np.abs(p[:, k] - (s[:, k] + t[:, k])).max() for k in range(p.shape[1])))

    def validate(self) -> None:
        p, s, t = self._arrays()
        scale = np.maximum(1.0, np.abs(p))
        if np.any(np.abs(p - (s + t)) > 2.0 * _EPS * scale):
            raise DomainError("decomposition is not exact to 2 ulp")


def function_tail(t) -> np.ndarray:
    """Decaying part (3/(1+e^t), -5*sech(2t)) of the built-in function demo."""
    from scipy.special import expit  # not at module level: its import costs ~0.3 s

    t = np.asarray(t, dtype=float)
    first = 3.0 * expit(-t)
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


def build_function_triple(h: GridFunction) -> DecompositionTriple:
    """Combine psi = (2h, h) with the decaying tail into phi on h's grid."""
    if h.dim != 1:
        raise DomainError("expected the scalar filtered source")
    hv = h.samples[:, 0]
    psi = np.stack([2.0 * hv, hv], axis=-1)
    theta = function_tail(h.times())
    grid = lambda arr: GridFunction(h.t_start, h.step, arr)
    return DecompositionTriple(grid(psi + theta), grid(psi), grid(theta))


def build_sequence_triple(orbit: ScalarOrbit) -> DecompositionTriple:
    """Combine psi_i = (kappa_i, kappa_i/4) with the decaying tail."""
    kappa = orbit.values
    psi = np.empty((kappa.size, 2))
    psi[:, 0] = kappa
    np.multiply(0.25, kappa, out=psi[:, 1])
    theta = sequence_tail(np.arange(orbit.base_index, orbit.end_index, dtype=float))
    seq = lambda arr: VectorSequence(orbit.base_index, arr)
    return DecompositionTriple(seq(np.add(psi, theta)), seq(psi), seq(theta))


def _as_matrix(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (dim, dim) or not np.all(np.isfinite(m)):
        raise DomainError(f"expected a finite {dim}x{dim} matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= dim * _EPS * sv[0]:
        raise SingularMatrixError("transform matrix is numerically singular")
    return m


def affine_transform(seq, matrix, offset) -> Union[VectorSequence, DecompositionTriple]:
    """Map values through x -> matrix @ x + offset; matrix must be invertible.

    On a triple the offset joins the recurrent part and the tail is mapped
    linearly, so the decomposition survives the transform.
    """
    if isinstance(seq, DecompositionTriple):
        if not seq.is_sequence:
            raise DomainError("affine transform is defined for sequence triples")
        psi = affine_transform(seq.psi, matrix, offset)
        m = _as_matrix(matrix, seq.theta.dim)
        theta = VectorSequence(seq.theta.base_index, seq.theta.values @ m.T)
        phi = VectorSequence(psi.base_index, psi.values + theta.values)
        return DecompositionTriple(phi, psi, theta)
    m = _as_matrix(matrix, seq.dim)
    c = np.broadcast_to(np.asarray(offset, dtype=float), (seq.dim,))
    return VectorSequence(seq.base_index, seq.values @ m.T + c)


def add_convergent(seq, perturbation: VectorSequence, limit) -> Union[VectorSequence, DecompositionTriple]:
    """Add a bounded perturbation with the stated limit ``c``.

    For a plain sequence this is the pointwise sum.  For a triple the limit
    joins the recurrent part and ``perturbation - c`` joins the tail, which
    keeps the tail convergent to zero and the decomposition exact.
    """
    c = np.asarray(limit, dtype=float)
    if isinstance(seq, DecompositionTriple):
        if not seq.is_sequence:
            raise DomainError("convergent perturbations are defined for sequence triples")
        if not seq.phi.same_window(perturbation):
            raise DomainError("perturbation must share the triple's index window")
        psi = VectorSequence(seq.psi.base_index, seq.psi.values + c)
        theta = VectorSequence(seq.theta.base_index, seq.theta.values + (perturbation.values - c))
        phi = VectorSequence(psi.base_index, psi.values + theta.values)
        return DecompositionTriple(phi, psi, theta)
    if not seq.same_window(perturbation):
        raise DomainError("perturbation must share the sequence window")
    return VectorSequence(seq.base_index, seq.values + perturbation.values)


def shift(seq, m: int) -> Union[VectorSequence, DecompositionTriple]:
    """Re-index so the output at i equals the input at i + m (no data copied)."""
    m = int(m)
    if isinstance(seq, DecompositionTriple):
        return DecompositionTriple(shift(seq.phi, m), shift(seq.psi, m), shift(seq.theta, m))
    if len(seq) == 0:
        raise WindowExhaustedError("cannot shift an empty window")
    return replace(seq, base_index=seq.base_index - m)


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
    if kind == "sequence":
        location, first, last = int(theta.base_index) + k, theta.base_index, theta.end_index - 1
    else:
        times = theta.times()
        location, first, last = float(times[k]), times[0], times[-1]
    peak = float(norms[k])
    threshold = 4.0 * bound
    precondition_ok = kind == "sequence" or bound >= 1.0
    note = "" if precondition_ok else "bound below 1: the function-witness criterion assumes bound >= 1"
    return WitnessReport(
        found=bool(peak >= threshold),
        location=location,
        tail_norm=peak,
        threshold=threshold,
        margin=peak - threshold,
        scan_start=float(first),
        scan_end=float(last),
        kind=kind,
        bound_precondition_ok=precondition_ok,
        note=note,
    )

"""Bell basis, Bell decomposition, and projective Bell measurement on particles 1 and 2.

The four maximally entangled two-particle states are

    psi+- = (|01> +- |10>) / sqrt(2)
    phi+- = (|00> +- |11>) / sqrt(2)

A three-particle state decomposes as

    |Psi> = sum_B c_B |B>_{12} |chi_B>_3

with normalized conditionals |chi_B> for particle 3. The coefficient c_B
absorbs magnitude and phase: each conditional is reported with its first
nonzero amplitude real and positive, so only the products c_B |chi_B> are
convention-free.

Layering: ``decompose_12`` and ``project_bell`` check their ``Ket`` at the
boundary, the dimension and then the normalization, and wrap what they
return. The ``_``-functions under them (``_project_12``, ``_split``,
``_project``) are pure algebra on raw amplitude arrays, which ``teleport``'s
exact protocol calls with a beam that ``BeamState`` has already tested; the
one refusal among them is ``_project``'s, of a zero-probability outcome.
``_project`` multiplies only the Bell row it is asked for, by the one
vector-matrix product of the test suite's oracle, which gives the bits of that
row of ``_project_12``. Every conditional and reconstruction is a fresh array
of that algebra, which ``spinalg._ket`` wraps unchecked; only a zero branch's
placeholder goes through ``Ket(...)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .spinalg import (
    ATOL_ALGEBRA,
    ZERO_NORM,
    DimensionError,
    Ket,
    NormalizationError,
    Operator,
    SpinAlgebraError,
    _is_normalized,
    _ket,
    _norm,
)

__all__ = [
    "BellLabel", "BELL_ORDER", "BellBranch", "BellDecomposition", "ZeroProbabilityError",
    "bell_states", "decompose_12", "project_bell", "singlet_projector",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class ZeroProbabilityError(SpinAlgebraError):
    """Projection onto a Bell outcome whose Born probability vanishes."""


class BellLabel(enum.Enum):
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"

    # members are singletons that compare by identity; Enum's own hash, of the name, is a Python call
    __hash__ = object.__hash__


#: Canonical outcome order used everywhere a draw inverts the cumulative
#: distribution; fixing it is part of the reproducibility contract.
BELL_ORDER: tuple[BellLabel, ...] = tuple(BellLabel)

_BELL_AMPLITUDES = {
    BellLabel.PSI_PLUS: np.array([0, _SQRT_HALF, _SQRT_HALF, 0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0, _SQRT_HALF, -_SQRT_HALF, 0], dtype=complex),
    BellLabel.PHI_PLUS: np.array([_SQRT_HALF, 0, 0, _SQRT_HALF], dtype=complex),
    BellLabel.PHI_MINUS: np.array([_SQRT_HALF, 0, 0, -_SQRT_HALF], dtype=complex),
}

#: Conjugated Bell amplitudes in ``BELL_ORDER``, stacked as 1x4 rows: one product
#: projects onto all four outcomes, each by its own vector-matrix product (a 4x4
#: matrix product rounds differently in the last bit for general states).
_BELL_ROWS = np.array([[_BELL_AMPLITUDES[label].conj()] for label in BELL_ORDER])
_BELL_ROWS.setflags(write=False)
_BELL_ROW = {label: row[0] for label, row in zip(BELL_ORDER, _BELL_ROWS)}
_BELL_LABELS = frozenset(BellLabel)


def bell_states() -> dict[BellLabel, Ket]:
    """The four Bell states as dim-4 kets, pairwise orthonormal."""
    return {label: Ket(amps) for label, amps in _BELL_AMPLITUDES.items()}


@dataclass(frozen=True, init=False)
class BellBranch:
    """One branch of a Bell decomposition.

    ``defined`` is False when the coefficient is zero; the conditional is
    then an arbitrary placeholder and must not be used.
    """

    coefficient: complex
    conditional: Ket

    def __init__(self, coefficient: complex, conditional: Ket) -> None:
        fields = self.__dict__
        fields["coefficient"], fields["conditional"] = coefficient, conditional

    @property
    def defined(self) -> bool:
        return self.coefficient != 0

    @property
    def probability(self) -> float:
        return abs(self.coefficient) ** 2


@dataclass(frozen=True)
class BellDecomposition:
    """Coefficients and particle-3 conditionals of a three-particle state."""

    branches: Mapping[BellLabel, BellBranch]

    def __post_init__(self) -> None:
        if set(self.branches) != _BELL_LABELS:
            raise SpinAlgebraError("decomposition must carry exactly one branch per Bell label")
        total = sum(branch.probability for branch in self.branches.values())
        if not abs(total - 1.0) <= ATOL_ALGEBRA:
            raise NormalizationError(f"Bell branch probabilities sum to {total}, not 1 within 1e-12")

    def conditional(self, label: BellLabel) -> Ket:
        return self.branches[label].conditional

    def probability(self, label: BellLabel) -> float:
        return self.branches[label].probability

    def probabilities(self) -> dict[BellLabel, float]:
        return {label: self.branches[label].probability for label in BELL_ORDER}

    def reconstruct(self) -> Ket:
        """Reassemble sum_B c_B |B>|chi_B> as a dim-8 ket."""
        amps = np.zeros(8, dtype=complex)
        for label, branch in self.branches.items():
            amps += branch.coefficient * np.kron(_BELL_AMPLITUDES[label], branch.conditional.amplitudes)
        return _ket(amps)


def _split(projected: np.ndarray) -> tuple[complex, np.ndarray | None]:
    """Coefficient and normalized conditional of one projected row; ``(0j, None)`` when the row vanishes."""
    nrm = _norm(projected)
    if nrm <= ZERO_NORM:
        return 0j, None
    # first amplitude that is not numerical dust fixes the phase convention
    lead = projected[0]
    modulus = abs(lead)
    if not modulus > 1e-12 * nrm:
        lead = projected[1]
        modulus = abs(lead)
    coefficient = complex(lead / modulus * nrm)
    return coefficient, projected / coefficient


def _split_branch(projected: np.ndarray) -> BellBranch:
    coefficient, conditional = _split(projected)
    return BellBranch(coefficient, Ket([1, 0]) if conditional is None else _ket(conditional))


def _project_12(amplitudes: np.ndarray) -> np.ndarray:
    """Unnormalized particle-3 amplitudes of each Bell outcome of dim-8 ``amplitudes``, one row per label in
    ``BELL_ORDER``."""
    # rows of the reshape: joint (particle 1, particle 2) index, columns: particle 3
    return (_BELL_ROWS @ amplitudes.reshape(4, 2))[:, 0]


def _project(amplitudes: np.ndarray, b: BellLabel) -> tuple[float, np.ndarray]:
    """Probability of outcome ``b`` of dim-8 ``amplitudes`` and the normalized particle-3 conditional."""
    coefficient, conditional = _split(_BELL_ROW[b] @ amplitudes.reshape(4, 2))
    probability = abs(coefficient) ** 2
    if probability < 1e-14:
        raise ZeroProbabilityError(f"outcome {b.value} has zero probability; conditional undefined")
    return probability, conditional


def _three_particles(psi: Ket, caller: str) -> np.ndarray:
    if psi.dim != 8:
        raise DimensionError(f"{caller} needs a three-particle ket (dim 8), got dim {psi.dim}")
    if not _is_normalized(psi.amplitudes):
        raise NormalizationError(f"{caller} requires a normalized input")
    return psi.amplitudes


def decompose_12(psi: Ket) -> BellDecomposition:
    """Bell decomposition of a normalized three-particle ket over particles (1, 2)."""
    amplitudes = _three_particles(psi, "decompose_12")
    return BellDecomposition(dict(zip(BELL_ORDER, map(_split_branch, _project_12(amplitudes)))))


def project_bell(psi: Ket, b: BellLabel) -> tuple[float, Ket]:
    """Probability of outcome ``b`` and the normalized post-measurement particle-3 state."""
    probability, conditional = _project(_three_particles(psi, "project_bell"), b)
    return probability, _ket(conditional)


def singlet_projector() -> Operator:
    """Projector |psi-><psi-| on particles (1, 2), tensored with identity on particle 3."""
    singlet = _BELL_AMPLITUDES[BellLabel.PSI_MINUS]
    return Operator(np.kron(np.outer(singlet, singlet.conj()), np.eye(2)))

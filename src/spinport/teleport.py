"""Teleportation protocol: preparation, singlet post-selection, correction, fidelity.

The channel pair (particles 2, 3) starts in psi+ and the incoming particle 1
carries amplitudes (a, b). Discriminating the psi- outcome on particles
(1, 2) leaves particle 3 in a|0> - b|1>, a sign-flipped image of the input.
Applying sigma_z makes that branch exact for every input; a 180-degree
rotation about y is kept as an alternative policy because it is the
correction quoted for this scheme, and the fidelity scan quantifies where
it actually works (x-axis inputs only).

Layering: the public functions check their inputs at the boundary and wrap
their results in value objects; the ``_``-functions are pure algebra on raw
amplitude arrays. ``run_postselected`` stays on arrays, over ``bellkit``'s
array core, and wraps its results once at exit. Who tests what: ``BeamState``
the beam; nobody ``neutron_pre``, the split of a nonzero row, normalized by
construction; ``_result`` ``neutron_post``, which a custom policy within
``CorrectionPolicy``'s 1e-12 unitarity test can move off the unit sphere;
``fidelity`` its own arguments. The beam, ``neutron_pre`` and ``neutron_post``
are fresh arrays of this module or of ``bellkit``, so ``spinalg._ket`` wraps
them without the copy and the checks of ``Ket(...)``, which stays the
constructor for caller data. ``run_sampled``'s three-particle state comes from
``spinalg.tensor``, which validates. ``TeleportResult`` is built through a
hand-written ``__init__`` (see ``spinalg``) that still runs its range checks
once per result.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import bellkit, spinalg
from .bellkit import BELL_ORDER, BellLabel
from .spinalg import (
    ATOL_ALGEBRA,
    DimensionError,
    Ket,
    NormalizationError,
    Operator,
    SpinAlgebraError,
    _is_normalized,
    _ket,
    _tensor,
)

__all__ = [
    "BeamState", "CorrectionPolicy", "TeleportResult",
    "NO_CORRECTION", "SIGMA_Z", "RY_PI",
    "prepare_deuteron", "prepare_beam", "fidelity",
    "run_postselected", "run_sampled",
]


@dataclass(frozen=True)
class BeamState:
    """Incoming spin-1/2 amplitudes (a, b) with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Complex) or isinstance(value, bool):
                raise SpinAlgebraError(f"amplitude {name} {value!r} is not a complex number")
            object.__setattr__(self, name, complex(value))
        total = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(total - 1.0) <= ATOL_ALGEBRA:
            raise NormalizationError(f"|a|^2 + |b|^2 = {total}, not 1 within 1e-12")

    @classmethod
    def from_direction(cls, n) -> "BeamState":
        k = spinalg.ket_from_direction(n)
        return cls(k.amplitudes[0], k.amplitudes[1])

    def bloch(self) -> spinalg.BlochVector:
        return spinalg.bloch_from(spinalg.density_from(prepare_beam(self)))


@dataclass(frozen=True)
class CorrectionPolicy:
    """A named single-particle unitary applied to the post-selected neutron state."""

    name: str
    operator: Operator

    def __post_init__(self) -> None:
        if self.operator.dim != 2 or not self.operator.is_unitary:
            raise SpinAlgebraError(f"correction {self.name!r} needs a single-particle unitary within 1e-12")

    @classmethod
    def custom(cls, operator: Operator) -> "CorrectionPolicy":
        return cls("custom", operator)

    @classmethod
    def parse(cls, text: str) -> "CorrectionPolicy":
        try:
            return POLICIES[text]
        except KeyError:
            raise SpinAlgebraError(
                f"unknown correction policy {text!r}; expected one of {', '.join(POLICIES)}"
            ) from None


NO_CORRECTION = CorrectionPolicy("none", spinalg.pauli("identity"))
SIGMA_Z = CorrectionPolicy("sigma_z", spinalg.pauli("z"))
RY_PI = CorrectionPolicy("ry_pi", spinalg.rotation((0.0, 1.0, 0.0), np.pi))

#: The named policies, by name, in scan order.
POLICIES = {policy.name: policy for policy in (NO_CORRECTION, SIGMA_Z, RY_PI)}


@dataclass(frozen=True, init=False)
class TeleportResult:
    """Outcome of one protocol run.

    For outcomes other than psi- the experiment discards the event, so no
    correction is applied: ``neutron_post`` and ``fidelity_post`` are None.
    """

    outcome: BellLabel
    probability: float
    neutron_pre: Ket
    neutron_post: Ket | None
    fidelity_pre: float
    fidelity_post: float | None

    def __init__(self, outcome: BellLabel, probability: float, neutron_pre: Ket, neutron_post: Ket | None,
                 fidelity_pre: float, fidelity_post: float | None) -> None:
        fields = self.__dict__
        fields["outcome"], fields["probability"] = outcome, probability
        fields["neutron_pre"], fields["neutron_post"] = neutron_pre, neutron_post
        fields["fidelity_pre"], fields["fidelity_post"] = fidelity_pre, fidelity_post
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise SpinAlgebraError(f"outcome probability {self.probability} outside [0, 1]")
        for value in (self.fidelity_pre, self.fidelity_post):
            if value is not None and not 0.0 <= value <= 1.0:
                raise SpinAlgebraError(f"fidelity {value} outside [0, 1]")


_DEUTERON = bellkit.bell_states()[BellLabel.PSI_PLUS]


def prepare_deuteron() -> Ket:
    """Channel pair state psi+ = (|01> + |10>)/sqrt(2) on particles (2, 3), one shared immutable ``Ket``."""
    return _DEUTERON


def prepare_beam(s: BeamState) -> Ket:
    """Particle-1 ket with amplitudes (a, b)."""
    return _ket(np.array([s.a, s.b], dtype=complex))


def _fidelity(beam: np.ndarray, neutron: np.ndarray) -> float:
    """``fidelity`` of two dim-2 amplitude arrays, which the caller has tested to be normalized."""
    return min(1.0, abs(complex(np.vdot(beam, neutron))) ** 2)


def fidelity(x: Ket, y: Ket) -> float:
    """Phase-insensitive overlap |<x|y>|^2 of two normalized single-particle kets."""
    if x.dim != 2 or y.dim != 2:
        raise DimensionError(f"fidelity expects single-particle kets, got dims ({x.dim}, {y.dim})")
    if not (_is_normalized(x.amplitudes) and _is_normalized(y.amplitudes)):
        raise NormalizationError("fidelity requires normalized inputs")
    return _fidelity(x.amplitudes, y.amplitudes)


def index_from_uniform(u, probabilities) -> np.ndarray | int:
    """Map uniform variates in [0, 1) to outcome indices by inverting the CDF.

    ``probabilities`` are taken in the given order; each variate selects the
    first index whose cumulative probability exceeds it, capped at the last
    index, which a NaN variate also selects. An ``ndarray`` of variates gives
    an ``intp`` array: the number of cumulative thresholds before the last,
    less how many of them the variate falls below (a NaN falls below none),
    that count kept in the narrowest unsigned dtype that holds it and cast to
    ``intp`` once. Any other variate is a scalar and gives an ``int`` by
    bisection in pure Python. Both paths add the probabilities in sequence, as
    ``np.cumsum`` does, so their thresholds are the same bits, and both consume
    exactly one variate per draw.
    """
    if not isinstance(u, np.ndarray):
        cum = list(accumulate(map(float, probabilities)))
        return min(bisect_right(cum, u), len(cum) - 1)
    thresholds = np.cumsum(np.asarray(probabilities, dtype=float))[:-1]
    below = np.zeros(u.shape, dtype=np.min_scalar_type(len(thresholds)))
    for threshold in thresholds:
        below += u < threshold
    idx = below.astype(np.intp)
    return np.subtract(len(thresholds), idx, out=idx)


def _seed(value) -> int:
    """``value`` as a Philox key: an int, or an integral float, in [0, 2**128)."""
    if not 0 <= (seed := spinalg._integer(value, "seed")) < 2**128:
        raise ValueError(f"seed {seed} outside [0, 2**128)")
    return seed


def _philox(seed: int) -> np.random.Philox:
    """The seeded stream, numpy's Philox4x64-10 bit generator keyed by ``seed``: four 64-bit words per counter block.
    Event ``i`` of the Monte Carlo owns the words of the block after counter ``i``: channel, Bell slot, spin, unused.
    Every event reads its slot word; ``reaction.event_records`` reads all three, and ``reaction.simulate`` reads the
    channel and spin words only of accepted events, each made a uniform by ``_uniform``. So ``random_raw(4 * n)``
    draws the next ``n`` events, each on its own block, and ``advance(n)`` skips them: a chunk of events that a
    process skips moves the counter one block per event and draws nothing. ``run_sampled`` takes the first uniform
    of event 0's block, computed by ``_philox_first_uniform``."""
    return np.random.Philox(key=seed)


def _uniform(word):
    """numpy's ``random()`` rule: the top 53 bits of a 64-bit word (an int or a ``uint64`` array) times 2**-53, a
    double in [0, 1). An array is cast to float64 before it is scaled in place, so no cast buffer sits beside it."""
    top = word >> 11
    uniform = top.astype(np.float64) if isinstance(top, np.ndarray) else float(top)
    uniform *= 2.0**-53
    return uniform


_MASK64 = (1 << 64) - 1


def _philox_first_uniform(seed: int) -> float:
    """``_uniform(_philox(seed).random_raw())``, bit for bit, without building a bit generator.

    Philox4x64-10 of counter block 1 (numpy increments the counter before its
    first block) under the 128-bit key ``seed``, low word first; the first
    output word becomes its uniform by ``_uniform``.
    """
    k0, k1 = seed & _MASK64, seed >> 64
    c0, c1, c2, c3 = 1, 0, 0, 0
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return _uniform(c0)


def _result(beam: np.ndarray, outcome: BellLabel, probability: float, neutron_pre: Ket,
            policy: CorrectionPolicy) -> TeleportResult:
    """Correct only a psi- outcome; the experiment discards the others uncorrected."""
    neutron_post = fidelity_post = None
    if outcome is BellLabel.PSI_MINUS:
        neutron_post = _ket(policy.operator.entries @ neutron_pre.amplitudes)
        if not _is_normalized(neutron_post.amplitudes):
            squared_norm = float(np.vdot(neutron_post.amplitudes, neutron_post.amplitudes).real)
            raise NormalizationError(f"correction {policy.name!r} leaves the neutron with squared norm {squared_norm}")
        fidelity_post = _fidelity(beam, neutron_post.amplitudes)
    return TeleportResult(
        outcome=outcome,
        probability=probability,
        neutron_pre=neutron_pre,
        neutron_post=neutron_post,
        fidelity_pre=_fidelity(beam, neutron_pre.amplitudes),
        fidelity_post=fidelity_post,
    )


def run_postselected(s: BeamState, policy: CorrectionPolicy = SIGMA_Z) -> TeleportResult:
    """Run the protocol keeping only the discriminated psi- outcome."""
    beam = np.array([s.a, s.b], dtype=complex)
    probability, neutron_pre = bellkit._project(_tensor(beam, _DEUTERON.amplitudes), BellLabel.PSI_MINUS)
    return _result(beam, BellLabel.PSI_MINUS, probability, _ket(neutron_pre), policy)


def run_sampled(s: BeamState, policy: CorrectionPolicy, seed: int) -> TeleportResult:
    """Report the Bell outcome drawn by Born probability from ``_philox(seed)``, in ``BELL_ORDER``; only a
    psi- outcome is corrected, since the experiment discards the others."""
    seed = _seed(seed)
    beam = prepare_beam(s)
    decomposition = bellkit.decompose_12(spinalg.tensor(beam, _DEUTERON))
    probabilities = decomposition.probabilities().values()
    outcome = BELL_ORDER[int(index_from_uniform(_philox_first_uniform(seed), probabilities))]
    branch = decomposition.branches[outcome]
    return _result(beam.amplitudes, outcome, branch.probability, branch.conditional, policy)

"""Experiment-level model of the neutron-polarization measurement.

A polarized spin-1 target is prepared in the m=0 sublevel, a polarized
beam strikes it, and events passing the high-neutron-energy cut (low
relative energy of the outgoing proton pair, which forces the pair into
the singlet) carry a teleported image of the beam spin on the neutron.
Two predictions are compared:

* teleported: the selected neutron carries the Bloch vector
  (-Px, -Py, Pz) of the beam, diluted by target impurity and a
  higher-multipole contamination fraction ``epsilon``;
* conventional: only the y -> y' polarization transfer survives at zero
  degrees, with the small measured coefficient ``k_transfer``.

``epsilon`` is the contaminated fraction of the *selected* sample: the
energy cut is modeled as equally efficient (1/4) on both channels, so a
pre-selection background probability of ``1 - f*(1-epsilon)`` yields
exactly that post-selection contamination. Contamination replaces the
teleported spin state by the conventional one; it does not depolarize it.

Monte Carlo determinism: event ``i`` owns block ``i`` of a Philox stream
keyed by the seed (four uniforms per block, of which three are used), so
results are bit-identical however the event loop is chunked or
parallelized.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bellkit import BELL_ORDER, BellLabel
from .spinalg import BlochVector, unit_vector
from .teleport import index_from_uniform

#: Denominator floor keeping the enhancement ratio finite when the
#: conventional prediction vanishes (e.g. an x-polarized beam).
ENHANCEMENT_FLOOR = 1e-6

_DEFAULT_CHUNK = 1 << 16

#: Unit vectors of the named beam and analyzer axes.
AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}

# Bloch maps of the four conditional neutron states, in BELL_ORDER:
# psi+ leaves the spin unchanged, psi- flips x and y, phi+ flips y and z,
# phi- flips x and z.
_BRANCH_SIGNS = np.array(
    [[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]]
)

_SINGLET_INDEX = BELL_ORDER.index(BellLabel.PSI_MINUS)

# Born weights of the four pair outcomes, in BELL_ORDER: with the channel
# pair in psi+, each is exactly 1/4 for any (possibly mixed) beam state.
_BELL_WEIGHTS = np.full(len(BELL_ORDER), 0.25)


@dataclass(frozen=True)
class TargetSpec:
    """Occupation probabilities of the spin-1 target sublevels m = +1, 0, -1."""

    p_plus: float
    p_zero: float
    p_minus: float

    def __post_init__(self) -> None:
        for name in ("p_plus", "p_zero", "p_minus"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"target population {name} = {value} outside [0, 1]")
        total = self.p_plus + self.p_zero + self.p_minus
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"target populations sum to {total}, not 1 within 1e-12")


IDEAL_TARGET = TargetSpec(0.0, 1.0, 0.0)


def target_moments(t: TargetSpec) -> tuple[float, float]:
    """Vector and tensor polarization (P_z, P_zz) of the sublevel populations.

    P_z = p(+1) - p(-1) and P_zz = p(+1) + p(-1) - 2 p(0); a pure m=0
    target therefore sits at (0, -2).
    """
    return t.p_plus - t.p_minus, t.p_plus + t.p_minus - 2.0 * t.p_zero


def channel_purity(t: TargetSpec) -> float:
    """Fraction of the target ensemble in the m=0 teleportation channel."""
    return t.p_zero


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one prediction or simulation run.

    ``beam_energy_mev`` is run metadata: it is recorded in the manifest and
    used by no model.
    """

    beam_direction: np.ndarray = (0.0, 1.0, 0.0)
    beam_magnitude: float = 1.0
    epsilon: float = 0.04
    k_transfer: float = -0.1
    target: TargetSpec = IDEAL_TARGET
    events: int = 10000
    seed: int | None = None
    beam_energy_mev: float = 170.0
    analyzer_axes: tuple[np.ndarray, ...] = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "beam_direction", unit_vector(self.beam_direction, "beam_direction"))
        object.__setattr__(self, "beam_magnitude", float(self.beam_magnitude))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "k_transfer", float(self.k_transfer))
        object.__setattr__(self, "events", int(self.events))
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))
        object.__setattr__(self, "beam_energy_mev", float(self.beam_energy_mev))
        if not 0.0 <= self.beam_magnitude <= 1.0:
            raise ValueError(f"beam_magnitude {self.beam_magnitude} outside [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1]")
        if not abs(self.k_transfer) <= 1.0:
            raise ValueError(f"k_transfer {self.k_transfer} outside [-1, 1]")
        if not isinstance(self.target, TargetSpec):
            raise ValueError("target must be a TargetSpec")
        if self.events < 1:
            raise ValueError(f"events must be positive, got {self.events}")
        if self.seed is not None and not 0 <= self.seed < 2**128:
            raise ValueError(f"seed {self.seed} outside [0, 2**128)")
        if not 0.0 < self.beam_energy_mev < np.inf:
            raise ValueError(f"beam_energy_mev {self.beam_energy_mev} is not a positive finite energy")
        axes = tuple(unit_vector(axis, "analyzer axis") for axis in self.analyzer_axes)
        if not axes:
            raise ValueError("at least one analyzer axis is required")
        object.__setattr__(self, "analyzer_axes", axes)

    def beam_bloch(self) -> np.ndarray:
        return self.beam_magnitude * self.beam_direction


@dataclass(frozen=True)
class ModelPrediction:
    """Neutron polarization under the two models, and their magnitude ratio."""

    qt_bloch: BlochVector
    conventional_bloch: BlochVector
    enhancement: float


def predict(config: ExperimentConfig) -> ModelPrediction:
    """Analytic neutron polarization for both models.

    With beam polarization P, channel weight w = purity * (1 - epsilon):

        conventional = (0, k * P_y, 0)
        teleported   = w * (-P_x, -P_y, P_z) + (1 - w) * conventional
        enhancement  = |teleported| / max(|conventional|, 1e-6)
    """
    beam = config.beam_bloch()
    w = channel_purity(config.target) * (1.0 - config.epsilon)
    conventional = np.array([0.0, config.k_transfer * beam[1], 0.0])
    teleported = w * np.array([-beam[0], -beam[1], beam[2]]) + (1.0 - w) * conventional
    enhancement = float(np.linalg.norm(teleported)) / max(float(np.linalg.norm(conventional)), ENHANCEMENT_FLOOR)
    return ModelPrediction(
        qt_bloch=BlochVector(*teleported),
        conventional_bloch=BlochVector(*conventional),
        enhancement=enhancement,
    )


@dataclass(frozen=True)
class CorrelationRow:
    """Predictions for one beam axis, with the sign-flip bookkeeping."""

    beam_axis: str
    beam: BlochVector
    qt: BlochVector
    conventional: BlochVector
    flipped: bool
    note: str | None = None


_Y_NOTE = (
    "y flips under the exact singlet projection; the expectation quoted for "
    "this scheme is no y flip (unresolved scattering-frame sign convention)"
)


def correlation_table(config: ExperimentConfig, axes: Sequence[str] = ("x", "y", "z")) -> list[CorrelationRow]:
    """One prediction row per beam axis, flagging sign flips along that axis."""
    rows = []
    for name in axes:
        if name not in AXIS_VECTORS:
            raise ValueError(f"unknown beam axis {name!r}; expected one of x, y, z")
        direction = np.array(AXIS_VECTORS[name])
        prediction = predict(dataclasses.replace(config, beam_direction=direction))
        beam = BlochVector(*(config.beam_magnitude * direction))
        along = float(direction @ prediction.qt_bloch.as_array())
        beam_along = float(direction @ beam.as_array())
        rows.append(
            CorrelationRow(
                beam_axis=name,
                beam=beam,
                qt=prediction.qt_bloch,
                conventional=prediction.conventional_bloch,
                flipped=along * beam_along < 0.0,
                note=_Y_NOTE if name == "y" else None,
            )
        )
    return rows


@dataclass(frozen=True)
class EventRecord:
    """One simulated reaction event."""

    event_id: int
    accepted: bool
    axis_index: int
    spin_outcome: int

    def __post_init__(self) -> None:
        if self.spin_outcome not in (-1, 1):
            raise ValueError(f"spin outcome must be +1 or -1, got {self.spin_outcome}")


@dataclass(frozen=True)
class PolarimetryEstimate:
    """Asymmetry estimate along one analyzer axis.

    ``n_events = 0`` marks an undefined estimate (no accepted event hit the
    axis); ``p_hat`` and ``sigma`` are NaN in that case.
    """

    axis: np.ndarray
    p_hat: float
    sigma: float
    n_events: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", unit_vector(self.axis, "analyzer axis"))
        if self.n_events > 0 and not abs(self.p_hat) <= 1.0:
            raise ValueError(f"|p_hat| = {abs(self.p_hat)} exceeds 1")

    @property
    def defined(self) -> bool:
        return self.n_events > 0

    @classmethod
    def from_counts(cls, axis: np.ndarray, n_plus: int, n_minus: int) -> "PolarimetryEstimate":
        n = n_plus + n_minus
        if n == 0:
            return cls(axis=axis, p_hat=float("nan"), sigma=float("nan"), n_events=0)
        p_hat = (n_plus - n_minus) / n
        return cls(axis=axis, p_hat=p_hat, sigma=float(np.sqrt((1.0 - p_hat**2) / n)), n_events=n)


def _event_columns(config: ExperimentConfig, chunk_size: int) -> Iterator[tuple]:
    """Sample the event stream; yield ``(first_id, accepted, axis_index, spin)`` per chunk.

    Per event: one uniform decides the channel (teleported with probability
    purity * (1 - epsilon), else conventional background), one whether the
    event passes the neutron-energy selection (the singlet slot of the Bell
    distribution, probability 1/4 on both channels), and one the neutron spin
    along the event's analyzer axis (round-robin by event id), with
    P(+1) = (1 + P.axis)/2. Event ``i`` always draws Philox block ``i`` keyed
    by the seed, so any ``chunk_size`` yields bit-identical columns, and the
    stream can be drawn again instead of being stored.
    """
    if config.seed is None:
        raise ValueError("simulate requires an explicit seed")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")

    beam = config.beam_bloch()
    p_teleported = channel_purity(config.target) * (1.0 - config.epsilon)
    background = np.array([0.0, config.k_transfer * beam[1], 0.0])
    axes = np.stack(config.analyzer_axes)

    for start in range(0, config.events, chunk_size):
        stop = min(start + chunk_size, config.events)
        generator = np.random.Generator(np.random.Philox(key=config.seed, counter=start))
        uniforms = generator.random((stop - start, 4))
        teleported = uniforms[:, 0] < p_teleported
        slot = np.asarray(index_from_uniform(uniforms[:, 1], _BELL_WEIGHTS))
        accepted = slot == _SINGLET_INDEX
        bloch = np.where(teleported[:, None], _BRANCH_SIGNS[slot] * beam[None, :], background[None, :])
        axis_index = np.arange(start, stop) % len(axes)
        p_up = np.clip(0.5 * (1.0 + np.einsum("ij,ij->i", bloch, axes[axis_index])), 0.0, 1.0)
        spin = np.where(uniforms[:, 2] < p_up, 1, -1)
        yield start, accepted, axis_index, spin


def simulate(config: ExperimentConfig, *, chunk_size: int = _DEFAULT_CHUNK) -> list[PolarimetryEstimate]:
    """Per-axis polarization estimates from the accepted events' n+ and n-.

    The counts are summed chunk by chunk; no per-event data is kept.
    """
    n_axes = len(config.analyzer_axes)
    counts = np.zeros(2 * n_axes, dtype=np.int64)  # n+ of each axis, then n-
    for _, accepted, axis_index, spin in _event_columns(config, chunk_size):
        counts += np.bincount(axis_index[accepted] + n_axes * (spin[accepted] < 0), minlength=2 * n_axes)
    n_plus, n_minus = counts.reshape(2, n_axes).tolist()
    return [PolarimetryEstimate.from_counts(*counted) for counted in zip(config.analyzer_axes, n_plus, n_minus)]


def event_records(config: ExperimentConfig, *, chunk_size: int = _DEFAULT_CHUNK) -> Iterator[EventRecord]:
    """The events ``simulate`` counts, drawn again, as ``EventRecord``s built chunk by chunk."""
    for first_id, accepted, axis_index, spin in _event_columns(config, chunk_size):
        columns = zip(accepted.tolist(), axis_index.tolist(), spin.tolist())
        for event_id, (is_accepted, axis, outcome) in enumerate(columns, first_id):
            yield EventRecord(event_id, is_accepted, axis, outcome)


def acceptance_fraction(records: Iterable[EventRecord]) -> float:
    """Fraction of events passing the selection cut."""
    records = list(records)
    if not records:
        raise ValueError("acceptance fraction of an empty record list is undefined")
    return sum(r.accepted for r in records) / len(records)

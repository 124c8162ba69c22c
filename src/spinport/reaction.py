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

The Monte Carlo tabulates ``predict``'s channel model once per run as
``p_up[channel, slot, axis]``; events index it with uniforms made from the raw
words of their own ``teleport._philox`` block, only from the words they read,
bit-identical however the loop is chunked.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bellkit import BELL_ORDER, BellLabel
from .spinalg import BlochVector, _integer, _norm, _real, unit_vector
from .teleport import _philox, _seed, _uniform, index_from_uniform

__all__ = [
    "TargetSpec", "IDEAL_TARGET", "ExperimentConfig", "ModelPrediction",
    "CorrelationRow", "EventRecord", "PolarimetryEstimate",
    "target_moments", "predict", "correlation_table",
    "simulate", "event_records", "acceptance_fraction",
]

#: Denominator floor keeping the enhancement ratio finite when the
#: conventional prediction vanishes (e.g. an x-polarized beam).
ENHANCEMENT_FLOOR = 1e-6

#: Events per Monte Carlo chunk. Its raw words are 0.5 MiB and its other
#: temporaries smaller, so the working set stays in a 1 MiB L2 and the fresh
#: process faults in few pages. The first simulate() of 5e5 events in a fresh
#: process (2-core VM, numpy 2.4.6, medians of 9) took 11.1 / 10.0 / 9.9 /
#: 10.9 / 11.2 ms, with 65 / 99 / 204 / 1764 / 2272 minor page faults, at
#: 4096 / 8192 / 16384 / 32768 / 65536 events per chunk.
_DEFAULT_CHUNK = 1 << 14

#: Unit vectors of the named beam and analyzer axes.
AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}

#: The default analyzer axes, validated once: ``ExperimentConfig`` checks every
#: other value of ``analyzer_axes`` at construction, and skips only this object.
_DEFAULT_AXES = tuple(unit_vector(vector, "analyzer axis") for vector in AXIS_VECTORS.values())

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
            value = _real(getattr(self, name), name)
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


def _axes(value, key: str) -> tuple[np.ndarray, ...]:
    """Each analyzer axis of ``value`` as a unit 3-vector; ``_DEFAULT_AXES`` as it is."""
    if value is _DEFAULT_AXES:
        return value
    if not isinstance(value, Iterable):
        raise ValueError(f"{key} {value!r} is not a sequence of axes")
    return tuple(unit_vector(axis, "analyzer axis") for axis in value)


#: How ``ExperimentConfig`` checks each key, in field order: ``coerce(value, key)``, then ``valid(value)``
#: (None: no test) and its ``refusal``. The first error raised, of either, gets its key as ``key``.
_CONFIG_CHECKS = {
    "beam_direction": (lambda value, key: unit_vector(value, key), None, ""),
    "beam_magnitude": (_real, lambda value: 0.0 <= value <= 1.0, "{key} {value} outside [0, 1]"),
    "epsilon": (_real, lambda value: 0.0 <= value <= 1.0, "{key} {value} outside [0, 1]"),
    "k_transfer": (_real, lambda value: abs(value) <= 1.0, "{key} {value} outside [-1, 1]"),
    "target": (lambda value, key: value, lambda value: isinstance(value, TargetSpec), "target must be a TargetSpec"),
    "events": (_integer, lambda value: value >= 1, "events must be positive, got {value}"),
    "seed": (lambda value, key: None if value is None else _seed(value), None, ""),
    "beam_energy_mev": (_real, lambda value: 0.0 < value < np.inf, "{key} {value} is not a positive finite energy"),
    "analyzer_axes": (_axes, bool, "at least one analyzer axis is required"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one prediction or simulation run.

    ``beam_energy_mev`` is run metadata: it is recorded in the manifest and
    used by no model.
    """

    beam_direction: np.ndarray = AXIS_VECTORS["y"]
    beam_magnitude: float = 1.0
    epsilon: float = 0.04
    k_transfer: float = -0.1
    target: TargetSpec = IDEAL_TARGET
    events: int = 10000
    seed: int | None = None
    beam_energy_mev: float = 170.0
    analyzer_axes: tuple[np.ndarray, ...] = _DEFAULT_AXES

    def __post_init__(self) -> None:
        for key, (coerce, valid, refusal) in _CONFIG_CHECKS.items():
            try:
                value = coerce(getattr(self, key), key)
                if valid is not None and not valid(value):
                    raise ValueError(refusal.format(key=key, value=value))
            except ValueError as exc:
                exc.key = key
                raise
            object.__setattr__(self, key, value)

    def beam_bloch(self) -> np.ndarray:
        return self.beam_magnitude * self.beam_direction


@dataclass(frozen=True)
class ModelPrediction:
    """Neutron polarization under the two models, and their magnitude ratio."""

    qt_bloch: BlochVector
    conventional_bloch: BlochVector
    enhancement: float


def _channel_model(config: ExperimentConfig, signs: np.ndarray = _BRANCH_SIGNS) -> tuple[float, np.ndarray, np.ndarray]:
    """Channel weight w, conventional Bloch vector, and the Bloch vector of the Bell branch whose row of
    ``_BRANCH_SIGNS`` is ``signs``; by default of each branch, one row per label in ``BELL_ORDER``."""
    beam = config.beam_bloch()
    w = config.target.p_zero * (1.0 - config.epsilon)
    return w, np.array([0.0, config.k_transfer * beam[1], 0.0]), signs * beam


def predict(config: ExperimentConfig) -> ModelPrediction:
    """Analytic neutron polarization for both models.

    With beam polarization P, channel weight w = p_zero * (1 - epsilon):

        conventional = (0, k * P_y, 0)
        teleported   = w * (-P_x, -P_y, P_z) + (1 - w) * conventional
        enhancement  = |teleported| / max(|conventional|, 1e-6)
    """
    w, conventional, singlet = _channel_model(config, _BRANCH_SIGNS[_SINGLET_INDEX])
    teleported = w * singlet + (1.0 - w) * conventional
    enhancement = _norm(teleported) / max(_norm(conventional), ENHANCEMENT_FLOOR)
    return ModelPrediction(
        qt_bloch=BlochVector(*teleported.tolist()),
        conventional_bloch=BlochVector(*conventional.tolist()),
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
        along = float(direction @ prediction.qt_bloch.as_array())  # the beam lies along +direction
        rows.append(
            CorrelationRow(
                beam_axis=name,
                beam=beam,
                qt=prediction.qt_bloch,
                conventional=prediction.conventional_bloch,
                flipped=along < 0.0,
                note=_Y_NOTE if name == "y" else None,
            )
        )
    return rows


@dataclass(frozen=True, init=False)
class EventRecord:
    """One simulated reaction event."""

    event_id: int
    accepted: bool
    axis_index: int
    spin_outcome: int

    # Four dict stores where the generated frozen __init__ makes four object.__setattr__ calls: 2e5 records in 35 ms,
    # not 64 (2-core VM, Python 3.11). __post_init__ must stay a call, looked up on the class: perfbench counts it.
    def __init__(self, event_id: int, accepted: bool, axis_index: int, spin_outcome: int) -> None:
        fields = self.__dict__
        fields["event_id"], fields["accepted"] = event_id, accepted
        fields["axis_index"], fields["spin_outcome"] = axis_index, spin_outcome
        self.__post_init__()

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
        if _integer(self.n_events, "n_events") < 0:
            raise ValueError(f"n_events {self.n_events} is negative")
        _real(self.p_hat, "p_hat")
        _real(self.sigma, "sigma")
        if self.n_events > 0 and not abs(self.p_hat) <= 1.0:
            raise ValueError(f"|p_hat| = {abs(self.p_hat)} exceeds 1")
        if self.n_events > 0 and not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma {self.sigma} is not a finite value >= 0")

    @property
    def defined(self) -> bool:
        return self.n_events > 0

    @classmethod
    def from_counts(cls, axis: np.ndarray, n_plus: int, n_minus: int) -> "PolarimetryEstimate":
        if min(n_plus, n_minus) < 0:
            raise ValueError(f"counts n_plus {n_plus} and n_minus {n_minus} must not be negative")
        n = n_plus + n_minus
        if n == 0:
            return cls(axis=axis, p_hat=float("nan"), sigma=float("nan"), n_events=0)
        p_hat = (n_plus - n_minus) / n
        return cls(axis=axis, p_hat=p_hat, sigma=float(np.sqrt((1.0 - p_hat**2) / n)), n_events=n)


def _spin_table(config: ExperimentConfig) -> tuple[float, np.ndarray]:
    """Channel weight w and ``p_up[channel, slot, axis] = (1 + P.axis)/2`` clipped to [0, 1], P the conventional
    vector (channel 0) or Bell branch ``slot`` (channel 1); P.axis is summed left to right, ``(P_x a_x + P_y a_y)
    + P_z a_z``, so no bit of the table rests on the order in which a numpy reduction adds."""
    p_teleported, background, branches = _channel_model(config)
    axes = np.stack(config.analyzer_axes)
    blochs = np.stack([np.broadcast_to(background, branches.shape), branches])[..., None, :]
    dot = blochs[..., 0] * axes[:, 0] + blochs[..., 1] * axes[:, 1] + blochs[..., 2] * axes[:, 2]
    return p_teleported, np.clip(0.5 * (1.0 + dot), 0.0, 1.0)


def _event_columns(config: ExperimentConfig, chunk_size: int, first: int = 0, step: int = 1, *,
                   accepted_only: bool = False) -> Iterator[tuple]:
    """Sample chunks ``first``, ``first + step``, ... of the event stream as ``(first_id, accepted, axis_index, spin)``.

    ``predict``'s channel model becomes one per-run table, ``_spin_table``'s ``p_up[channel, slot, axis]``. Each
    chunk is drawn as the raw words of ``teleport._philox``, four per event. Every event's slot word, made a uniform
    by ``teleport._uniform``, draws its Bell slot, whose singlet passes the neutron-energy selection (1/4 on both
    channels). One rule then gives each row its channel (teleported below w), its analyzer axis (round-robin by
    event id) and its spin along that axis (+1 below ``p_up``), converting only that row's channel and spin words.
    ``accepted_only`` gathers the accepted rows' words first, applies the rule to them alone and yields ``accepted``
    as ``True``; otherwise every row is yielded. One bit generator draws the run block after block and skips a chunk
    by moving its counter one block per event, drawing nothing, so any ``chunk_size``, ``first`` and ``step`` yield
    bit-identical columns, redrawn, not stored. The caller has checked the seed and ``chunk_size``.
    """
    p_teleported, p_up = _spin_table(config)
    n_axes = len(config.analyzer_axes)
    stream = _philox(config.seed)
    for start in range(0, config.events, chunk_size):
        stop = min(start + chunk_size, config.events)
        if start // chunk_size % step != first:
            stream.advance(stop - start)  # the counter random_raw(4 * (stop - start)) would leave, nothing drawn
            continue
        # A fresh block of words per chunk holds the memory bound because it is freed before the next one is drawn
        # and each column made from it is a quarter of its size: simulate peaks at ~1.6 blocks, event_records ~2.35.
        words = stream.random_raw(4 * (stop - start)).reshape(-1, 4)
        slot = index_from_uniform(_uniform(words[:, 1]), _BELL_WEIGHTS)
        if accepted_only:
            event_id = np.flatnonzero(slot == _SINGLET_INDEX)
            words, slot = words.take(event_id, axis=0), _SINGLET_INDEX
            event_id += start
        else:
            event_id = np.arange(start, stop)
        accepted = slot == _SINGLET_INDEX
        axis_index = event_id % n_axes
        teleported = _uniform(words[:, 0]) < p_teleported
        spin_uniform = _uniform(words[:, 2])
        # Hold no chunk while the next one is drawn: the caller frees what it was given. Without any one del here
        # or in _record_chunks, test_each_chunk_is_released_before_the_next_is_drawn peaks above its bound.
        del words, event_id
        spin = np.where(spin_uniform < p_up[teleported.astype(np.intp), slot, axis_index], 1, -1)
        del spin_uniform, teleported, slot
        yield start, accepted, axis_index, spin
        del accepted, axis_index, spin


def _checked(config: ExperimentConfig, chunk_size) -> int:
    """``chunk_size`` as an int, once the run is known to be drawable: a seed, and at least one event per chunk."""
    if config.seed is None:
        raise ValueError("simulate requires an explicit seed")
    if (chunk_size := _integer(chunk_size, "chunk_size")) < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return chunk_size


def simulate(config: ExperimentConfig, *, chunk_size: int = _DEFAULT_CHUNK) -> list[PolarimetryEstimate]:
    """Per-axis polarization estimates from the accepted events' n+ and n-.

    Every event's slot word is drawn and read; the channel and spin words are
    gathered and read only for the accepted events (``teleport._philox`` lays
    the words out). Counts are summed chunk by chunk, no event is kept.
    """
    n_axes = len(config.analyzer_axes)
    counts = np.zeros(2 * n_axes, dtype=np.int64)  # n+ of each axis, then n-
    for _, _, axis_index, spin in _event_columns(config, _checked(config, chunk_size), accepted_only=True):
        counts += np.bincount(axis_index + n_axes * (spin < 0), minlength=2 * n_axes)
        del axis_index, spin
    n_plus, n_minus = counts.reshape(2, n_axes).tolist()
    return [PolarimetryEstimate.from_counts(*counted) for counted in zip(config.analyzer_axes, n_plus, n_minus)]


def _record_chunks(config: ExperimentConfig, chunk_size: int, first: int = 0, step: int = 1) -> Iterator[map]:
    """The events ``simulate`` counts, drawn again: a ``map`` of ``EventRecord``s for each of chunks ``first``,
    ``first + step``, ...; ``_event_columns`` skips the others without drawing them."""
    for first_id, accepted, axis_index, spin in _event_columns(config, chunk_size, first, step):
        yield map(EventRecord, range(first_id, first_id + len(spin)),
                  accepted.tolist(), axis_index.tolist(), spin.tolist())
        del accepted, axis_index, spin


def event_records(config: ExperimentConfig, *, chunk_size: int = _DEFAULT_CHUNK) -> Iterator[EventRecord]:
    """The events ``simulate`` counts, drawn again, as ``EventRecord``s built chunk by chunk; the seed and
    ``chunk_size`` are checked when it is called, not when the first record is drawn."""
    return chain.from_iterable(_record_chunks(config, _checked(config, chunk_size)))


def acceptance_fraction(records: Iterable[EventRecord]) -> float:
    """Fraction of events passing the selection cut, counted in one pass without keeping the records."""
    accepted = total = 0
    for total, record in enumerate(records, 1):
        accepted += record.accepted
    if not total:
        raise ValueError("acceptance fraction of an empty record list is undefined")
    return accepted / total

"""Shared random-state generators and oracles for the test suite."""

import dataclasses
import json

import numpy as np

from spinport.bellkit import BELL_ORDER, BellLabel
from spinport.reaction import EventRecord
from spinport.spinalg import Ket
from spinport.teleport import BeamState

SQRT_HALF = 1.0 / np.sqrt(2.0)

# independent constructions of the four Bell states, used as oracles
BELL_ARRAYS = {
    BellLabel.PSI_PLUS: np.array([0, SQRT_HALF, SQRT_HALF, 0], dtype=complex),
    BellLabel.PSI_MINUS: np.array([0, SQRT_HALF, -SQRT_HALF, 0], dtype=complex),
    BellLabel.PHI_PLUS: np.array([SQRT_HALF, 0, 0, SQRT_HALF], dtype=complex),
    BellLabel.PHI_MINUS: np.array([SQRT_HALF, 0, 0, -SQRT_HALF], dtype=complex),
}


def random_ket(rng: np.random.Generator, dim: int) -> Ket:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v / np.linalg.norm(v))


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_beam(rng: np.random.Generator) -> BeamState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return BeamState(v[0], v[1])


def oracle_decomposition(amplitudes: np.ndarray) -> dict:
    """(probability, conditional amplitudes) of each Bell outcome of a dim-8 state.

    The Bell decomposition as first written, kept as a bit-for-bit oracle:
    one vector product per Bell state and the lead amplitude picked by a
    boolean mask. A vanishing branch gets probability 0 and conditional |0>.
    """
    pair_by_third = np.asarray(amplitudes, dtype=complex).reshape(4, 2)
    branches = {}
    for label in BELL_ORDER:
        projected = BELL_ARRAYS[label].conj() @ pair_by_third
        nrm = float(np.linalg.norm(projected))
        if nrm <= 1e-14:
            branches[label] = (0.0, np.array([1, 0], dtype=complex))
            continue
        lead = projected[np.abs(projected) > 1e-12 * nrm][0]
        coefficient = complex(lead / abs(lead) * nrm)
        branches[label] = (abs(coefficient) ** 2, projected / coefficient)
    return branches


def searchsorted_index(u, probabilities):
    """The first-written CDF inversion, kept as the oracle of ``teleport.index_from_uniform``."""
    return np.minimum(np.searchsorted(np.cumsum(probabilities), u, side="right"), len(probabilities) - 1)


_EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(EventRecord))


def event_line(record: EventRecord) -> str:
    """The JSON line of one event, written independently of ``cli``: its fields by name, in field order.

    The names are read once; ``dataclasses.asdict`` would look them up and deep-copy each value per record.
    """
    return json.dumps({"type": "event", **{name: getattr(record, name) for name in _EVENT_FIELDS}}) + "\n"

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


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def born_weights_from_density_matrix(beam_bloch: np.ndarray) -> np.ndarray:
    """Oracle: Born weights of the four pair outcomes, in BELL_ORDER.

    Traces each Bell projector on particles (1, 2) against the density matrix
    of a (possibly mixed) beam tensored with the psi+ channel pair.
    """
    rho_beam = 0.5 * (np.eye(2) + np.einsum("i,ijk->jk", beam_bloch, _PAULIS))
    pair = BELL_ARRAYS[BellLabel.PSI_PLUS]
    rho = np.kron(rho_beam, np.outer(pair, pair.conj()))
    projectors = (np.kron(np.outer(bell, bell.conj()), np.eye(2)) for bell in map(BELL_ARRAYS.get, BELL_ORDER))
    return np.array([np.trace(projector @ rho).real for projector in projectors])


def searchsorted_index(u, probabilities):
    """The first-written CDF inversion, kept as the oracle of ``teleport.index_from_uniform``."""
    return np.minimum(np.searchsorted(np.cumsum(probabilities), u, side="right"), len(probabilities) - 1)


_EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(EventRecord))


def event_line(record: EventRecord) -> str:
    """The JSON line of one event, written independently of ``cli``: its fields by name, in field order.

    The names are read once; ``dataclasses.asdict`` would look them up and deep-copy each value per record.
    """
    return json.dumps({"type": "event", **{name: getattr(record, name) for name in _EVENT_FIELDS}}) + "\n"


_MASK64 = 2**64 - 1


def philox4x64_10(counter: int, key: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 of one 256-bit counter block under a 128-bit key, words low first, in pure Python.

    Written from the round function of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11):
    each of ten rounds takes the 128-bit products M0 * c0 and M1 * c2 and sets the block to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); the key words are bumped by the Weyl
    constants W0, W1 before each later round.
    """
    c0, c1, c2, c3 = ((counter >> shift) & _MASK64 for shift in (0, 64, 128, 192))
    k0, k1 = key & _MASK64, (key >> 64) & _MASK64
    for _ in range(10):
        product0, product2 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = ((product2 >> 64) ^ c1 ^ k0, product2 & _MASK64,
                          (product0 >> 64) ^ c3 ^ k1, product0 & _MASK64)
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


# The neutron's Bloch-vector signs in each Bell outcome of the pair, the channel pair in psi+:
# psi+ keeps the beam's spin, psi- flips x and y, phi+ flips y and z, phi- flips x and z.
_BRANCH_SIGNS = {
    BellLabel.PSI_PLUS: (1.0, 1.0, 1.0),
    BellLabel.PSI_MINUS: (-1.0, -1.0, 1.0),
    BellLabel.PHI_PLUS: (1.0, -1.0, -1.0),
    BellLabel.PHI_MINUS: (-1.0, 1.0, -1.0),
}


def oracle_spin_table(config) -> list[list[list[float]]]:
    """``p_up[channel][slot][axis]`` = (1 + P . axis) / 2 clipped to [0, 1], P . axis summed left to right: P is the
    conventional (0, k * P_y, 0) in channel 0, the beam's vector with outcome ``BELL_ORDER[slot]``'s signs in 1."""
    beam = [config.beam_magnitude * float(c) for c in config.beam_direction]
    conventional = [0.0, config.k_transfer * beam[1], 0.0]
    blochs = ([conventional] * 4, [[sign * b for sign, b in zip(_BRANCH_SIGNS[label], beam)] for label in BELL_ORDER])
    axes = [[float(c) for c in axis] for axis in config.analyzer_axes]
    return [[[min(max(0.5 * (1.0 + (p[0] * a[0] + p[1] * a[1] + p[2] * a[2])), 0.0), 1.0) for a in axes] for p in row]
            for row in blochs]


def oracle_events(config) -> list[tuple[int, bool, int, int]]:
    """Every event of ``config``'s Monte Carlo as ``(event_id, accepted, axis_index, spin_outcome)``, one at a time.

    Event ``i`` reads Philox4x64-10 block ``i + 1`` under the key ``config.seed`` (numpy increments its counter
    before each block): channel, slot and spin words, each made a uniform by numpy's ``random()`` rule,
    ``(word >> 11) * 2**-53``. Every Bell outcome has weight 1/4, so the slot uniform ``u`` picks outcome
    ``floor(4 u)`` of ``BELL_ORDER``, and the event is accepted when that is psi-. ``predict``'s model gives the
    neutron's Bloch vector: below w = p_zero * (1 - epsilon) the channel uniform selects the teleported channel,
    where the neutron carries the beam's vector P with the outcome's signs; otherwise it carries the conventional
    (0, k * P_y, 0). The axis is ``i`` modulo the number of axes, and the spin is +1 below ``p_up`` of that channel,
    outcome and axis in ``oracle_spin_table``.
    """
    p_up = oracle_spin_table(config)
    w = config.target.p_zero * (1.0 - config.epsilon)
    events = []
    for i in range(config.events):
        channel, slot, spin, _ = (float(word >> 11) * 2.0**-53 for word in philox4x64_10(i + 1, config.seed))
        slot, axis_index = int(4.0 * slot), i % len(config.analyzer_axes)
        spin_outcome = 1 if spin < p_up[channel < w][slot][axis_index] else -1
        events.append((i, BELL_ORDER[slot] is BellLabel.PSI_MINUS, axis_index, spin_outcome))
    return events

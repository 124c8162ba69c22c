"""Tests for Bell basis construction, decomposition and projective measurement."""

import copy
import pickle

import numpy as np
import pytest

from helpers import BELL_ARRAYS, SQRT_HALF, oracle_decomposition, random_beam, random_ket
from spinport.bellkit import (
    BELL_ORDER,
    BellBranch,
    BellDecomposition,
    BellLabel,
    ZeroProbabilityError,
    bell_states,
    decompose_12,
    project_bell,
    singlet_projector,
)
from spinport.spinalg import (
    DensityMatrix,
    DimensionError,
    Ket,
    NormalizationError,
    SpinAlgebraError,
    density_from,
    normalize,
    partial_trace,
    tensor,
)

# particle-3 conditional of each branch for input amplitudes (a, b)
CONDITIONAL_FORMS = {
    BellLabel.PSI_PLUS: lambda a, b: np.array([a, b]),
    BellLabel.PSI_MINUS: lambda a, b: np.array([a, -b]),
    BellLabel.PHI_PLUS: lambda a, b: np.array([b, a]),
    BellLabel.PHI_MINUS: lambda a, b: np.array([-b, a]),
}


def protocol_input(a: complex, b: complex) -> Ket:
    """Beam (a, b) on particle 1 times the psi+ pair on particles (2, 3)."""
    amps = np.zeros(8, dtype=complex)
    beam = np.array([a, b], dtype=complex)
    pair = BELL_ARRAYS[BellLabel.PSI_PLUS]
    for s1 in range(2):
        for s2 in range(2):
            for s3 in range(2):
                amps[s1 * 4 + s2 * 2 + s3] = beam[s1] * pair[s2 * 2 + s3]
    return Ket(amps)


def projection_oracle(psi: Ket, label: BellLabel) -> np.ndarray:
    """(<B|_12 x I_3) psi by explicit summation."""
    out = np.zeros(2, dtype=complex)
    bell = BELL_ARRAYS[label]
    for s1 in range(2):
        for s2 in range(2):
            for s3 in range(2):
                out[s3] += np.conj(bell[s1 * 2 + s2]) * psi.amplitudes[s1 * 4 + s2 * 2 + s3]
    return out


def assert_same_up_to_phase(actual: np.ndarray, expected: np.ndarray, atol: float = 1e-12) -> None:
    overlap = np.vdot(expected, actual)
    assert abs(overlap) > 1e-6, "states are orthogonal, not equal"
    aligned = actual * np.conj(overlap) / abs(overlap)
    assert np.allclose(aligned, expected, atol=atol)


class TestBellLabelHash:
    """``BellLabel`` hashes by identity: every copy of a label must be the same member, so lookups still find it."""

    @staticmethod
    def round_trips(label):
        return pickle.loads(pickle.dumps(label)), copy.deepcopy(label), copy.copy(label), BellLabel(label.value)

    def test_copies_are_the_same_member(self):
        for label in BellLabel:
            for twin in self.round_trips(label):
                assert twin is label
                assert hash(twin) == hash(label)

    def test_dicts_and_sets_find_round_tripped_keys(self):
        by_label = {label: label.value for label in BellLabel}
        for label in BellLabel:
            for twin in self.round_trips(label):
                assert by_label[twin] == label.value
                assert twin in frozenset(BellLabel)
        assert by_label.get("psi_minus") is None and "psi_minus" not in set(BellLabel)

    def test_decomposition_takes_round_tripped_keys_and_refuses_a_missing_or_extra_one(self):
        branches = decompose_12(protocol_input(0.6, 0.8)).branches
        copied = {pickle.loads(pickle.dumps(label)): branch for label, branch in branches.items()}
        assert BellDecomposition(copied).probabilities() == {label: branches[label].probability for label in BELL_ORDER}
        missing = {label: branch for label, branch in copied.items() if label is not BellLabel.PHI_MINUS}
        extra = {**copied, BellLabel.PSI_PLUS.value: branches[BellLabel.PSI_PLUS]}
        for wrong in (missing, extra):
            with pytest.raises(SpinAlgebraError, match="exactly one branch per Bell label"):
                BellDecomposition(wrong)


class TestBellStates:
    def test_orthonormal_basis(self):
        states = bell_states()
        gram = np.array(
            [[np.vdot(states[r].amplitudes, states[c].amplitudes) for c in BELL_ORDER] for r in BELL_ORDER]
        )
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_singlet_norm(self):
        s = bell_states()[BellLabel.PSI_MINUS]
        assert np.vdot(s.amplitudes, s.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_parity_sectors_are_orthogonal(self):
        states = bell_states()
        overlap = np.vdot(states[BellLabel.PHI_PLUS].amplitudes, states[BellLabel.PSI_PLUS].amplitudes)
        assert overlap == pytest.approx(0.0, abs=1e-15)

    def test_psi_plus_amplitudes(self):
        assert np.allclose(bell_states()[BellLabel.PSI_PLUS].amplitudes, [0, SQRT_HALF, SQRT_HALF, 0])


class TestDecompose:
    def test_singlet_branch_conditional(self):
        a, b = 0.6, 0.8j
        decomposition = decompose_12(protocol_input(a, b))
        expected = CONDITIONAL_FORMS[BellLabel.PSI_MINUS](a, b)
        assert_same_up_to_phase(decomposition.conditional(BellLabel.PSI_MINUS).amplitudes, expected)

    def test_swapped_branch_conditional(self):
        a, b = 0.6, 0.8j
        decomposition = decompose_12(protocol_input(a, b))
        expected = CONDITIONAL_FORMS[BellLabel.PHI_PLUS](a, b)
        assert_same_up_to_phase(decomposition.conditional(BellLabel.PHI_PLUS).amplitudes, expected)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            psi = random_ket(rng, 8)
            decomposition = decompose_12(psi)
            for label in BELL_ORDER:
                branch = decomposition.branches[label]
                oracle = projection_oracle(psi, label)
                product = branch.coefficient * branch.conditional.amplitudes
                assert np.allclose(product, oracle, atol=1e-12)

    def test_all_branches_match_their_closed_forms(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            beam = random_beam(rng)
            decomposition = decompose_12(protocol_input(beam.a, beam.b))
            for label in BELL_ORDER:
                assert decomposition.probability(label) == pytest.approx(0.25, abs=1e-12)
                expected = CONDITIONAL_FORMS[label](beam.a, beam.b)
                assert_same_up_to_phase(decomposition.conditional(label).amplitudes, expected)

    def test_conditional_phase_convention(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            decomposition = decompose_12(random_ket(rng, 8))
            for branch in decomposition.branches.values():
                amps = branch.conditional.amplitudes
                lead = amps[np.abs(amps) > 1e-9][0]
                assert lead.real > 0
                assert abs(lead.imag) < 1e-12 * abs(lead)

    def test_matches_the_oracle_decomposition_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            psi = random_ket(rng, 8)
            branches = decompose_12(psi).branches
            for label, (probability, conditional) in oracle_decomposition(psi.amplitudes).items():
                assert branches[label].probability == probability
                assert branches[label].conditional.amplitudes.tobytes() == conditional.tobytes()

    def test_vanishing_branches_are_flagged(self):
        psi = tensor(Ket(BELL_ARRAYS[BellLabel.PSI_PLUS]), Ket([1, 0]))
        decomposition = decompose_12(psi)
        assert decomposition.branches[BellLabel.PHI_PLUS].defined is False
        assert decomposition.branches[BellLabel.PHI_PLUS].coefficient == 0
        assert decomposition.branches[BellLabel.PSI_PLUS].defined is True

    def test_defined_is_read_from_the_coefficient(self):
        assert BellBranch(0j, Ket([1, 0])).defined is False
        assert BellBranch(0.5, Ket([1, 0])).defined is True
        with pytest.raises(TypeError):
            BellBranch(0.5, Ket([1, 0]), defined=False)

    def test_branches_must_cover_the_four_labels(self):
        branches = decompose_12(protocol_input(1, 0)).branches
        three = {label: branches[label] for label in BELL_ORDER[:3]}
        five = {**branches, "psi_minus": branches[BellLabel.PSI_MINUS]}
        for partial in (three, five):
            with pytest.raises(SpinAlgebraError, match="exactly one branch per Bell label"):
                BellDecomposition(partial)

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            decompose_12(Ket([1, 0]))
        with pytest.raises(NormalizationError):
            decompose_12(Ket([1, 0, 0, 0, 0, 0, 0, 1]))

    def test_boundary_errors(self):
        # the boundary checks the dimension first, then the normalization
        for bad_dim in (Ket([1, 0, 0, 0]), Ket([1, 1])):
            with pytest.raises(DimensionError):
                decompose_12(bad_dim)
        for bad in (np.nan, np.inf):
            with pytest.raises(NormalizationError):
                decompose_12(Ket([bad] + [0] * 7))

    def test_nan_coefficients_are_rejected(self):
        # BellDecomposition is public: its own sum check must refuse NaN, not only decompose_12's input check.
        with pytest.raises(NormalizationError):
            BellDecomposition({label: BellBranch(complex("nan"), Ket([1, 0])) for label in BellLabel})


class TestOutcomeProbability:
    def test_bell_product_inputs(self):
        psi = tensor(Ket(BELL_ARRAYS[BellLabel.PSI_PLUS]), Ket([1, 0]))
        assert decompose_12(psi).probability(BellLabel.PSI_PLUS) == pytest.approx(1.0, abs=1e-12)
        assert decompose_12(psi).probability(BellLabel.PHI_MINUS) == pytest.approx(0.0, abs=1e-12)


class TestProjectBell:
    def test_up_beam(self):
        probability, conditional = project_bell(protocol_input(1, 0), BellLabel.PSI_MINUS)
        assert probability == pytest.approx(0.25, abs=1e-12)
        assert_same_up_to_phase(conditional.amplitudes, np.array([1, 0]))

    def test_plus_x_beam_lands_on_minus_x(self):
        probability, conditional = project_bell(protocol_input(SQRT_HALF, SQRT_HALF), BellLabel.PSI_MINUS)
        assert probability == pytest.approx(0.25, abs=1e-12)
        assert_same_up_to_phase(conditional.amplitudes, np.array([SQRT_HALF, -SQRT_HALF]))

    def test_zero_probability_outcome(self):
        psi = tensor(Ket(BELL_ARRAYS[BellLabel.PSI_PLUS]), Ket([1, 0]))
        with pytest.raises(ZeroProbabilityError):
            project_bell(psi, BellLabel.PHI_MINUS)

    def test_equals_the_decomposition_branch_bit_for_bit(self):
        rng = np.random.default_rng(37)
        states = [random_ket(rng, 8) for _ in range(50)] + [protocol_input(1, 0), protocol_input(0, 1)]
        for psi in states:
            branches = decompose_12(psi).branches
            for label in BELL_ORDER:
                if not branches[label].defined:
                    continue
                probability, conditional = project_bell(psi, label)
                assert probability == branches[label].probability
                assert conditional.amplitudes.tobytes() == branches[label].conditional.amplitudes.tobytes()

    def test_the_one_row_projection_is_the_oracle_and_the_decomposition_bit_for_bit(self):
        # project_bell multiplies only the requested Bell row, decompose_12 all four rows in one product. In a
        # third of the states some amplitudes are zero, so that a branch's first conditional amplitude can vanish
        # and the lead amplitude, which fixes the phase, comes from the second entry, or the branch vanishes.
        rng = np.random.default_rng(2003)
        second_entry_leads = vanishing = 0
        for n in range(2400):
            amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
            if n % 3 == 0:
                amplitudes[rng.permutation(8)[: rng.integers(1, 7)]] = 0.0
            psi = Ket(amplitudes / np.linalg.norm(amplitudes))
            branches = decompose_12(psi).branches
            for label, (probability, conditional) in oracle_decomposition(psi.amplitudes).items():
                if probability == 0.0:
                    vanishing += 1
                    assert not branches[label].defined
                    with pytest.raises(ZeroProbabilityError):
                        project_bell(psi, label)
                    continue
                projected_probability, projected = project_bell(psi, label)
                assert projected_probability == probability == branches[label].probability
                assert projected.amplitudes.tobytes() == conditional.tobytes()
                assert projected.amplitudes.tobytes() == branches[label].conditional.amplitudes.tobytes()
                second_entry_leads += conditional[0] == 0
        assert second_entry_leads >= 200 and vanishing >= 100

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            project_bell(Ket([1, 0]), BellLabel.PSI_MINUS)
        with pytest.raises(NormalizationError):
            project_bell(Ket([1, 0, 0, 0, 0, 0, 0, 1]), BellLabel.PSI_MINUS)
        with pytest.raises(NormalizationError):
            project_bell(Ket([np.nan, 0, 0, 0, 0, 0, 0, 0]), BellLabel.PSI_MINUS)
        psi = tensor(Ket(BELL_ARRAYS[BellLabel.PHI_MINUS]), Ket([0, 1]))
        for label in (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS, BellLabel.PHI_PLUS):
            with pytest.raises(ZeroProbabilityError):
                project_bell(psi, label)

    def test_boundary_errors(self):
        for bad_dim in (Ket([1, 0, 0, 0]), Ket([1, 1, 0, 0])):
            with pytest.raises(DimensionError):
                project_bell(bad_dim, BellLabel.PSI_MINUS)
        # a branch above the zero-norm floor but with probability below 1e-14 is
        # split by the decomposition, yet refused as a measurement outcome
        singlet_amplitude = 1e-8
        psi = Ket(
            np.sqrt(1 - singlet_amplitude**2) * np.kron(BELL_ARRAYS[BellLabel.PSI_PLUS], [1, 0])
            + singlet_amplitude * np.kron(BELL_ARRAYS[BellLabel.PSI_MINUS], [0, 1])
        )
        assert decompose_12(psi).branches[BellLabel.PSI_MINUS].defined
        with pytest.raises(ZeroProbabilityError):
            project_bell(psi, BellLabel.PSI_MINUS)

    def test_agrees_with_projector_route(self):
        # oracle: apply the singlet projector, renormalize, trace out the pair
        rng = np.random.default_rng(31)
        projector = singlet_projector().entries
        for _ in range(100):
            psi = random_ket(rng, 8)
            probability, conditional = project_bell(psi, BellLabel.PSI_MINUS)
            projected = projector @ psi.amplitudes
            assert probability == pytest.approx(float(np.vdot(projected, projected).real), abs=1e-12)
            reduced = partial_trace(density_from(normalize(Ket(projected))), keep=[3])
            assert np.allclose(reduced.entries, density_from(conditional).entries, atol=1e-10)


class TestBoundaryMessages:
    # decompose_12 and project_bell share one boundary; each error names the function the caller called.
    CALLS = {
        "decompose_12": decompose_12,
        "project_bell": lambda psi: project_bell(psi, BellLabel.PSI_MINUS),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_dimension_error_names_the_caller(self, name):
        with pytest.raises(DimensionError) as excinfo:
            self.CALLS[name](Ket([1, 0]))
        assert str(excinfo.value) == f"{name} needs a three-particle ket (dim 8), got dim 2"

    @pytest.mark.parametrize("name", CALLS)
    def test_normalization_error_names_the_caller(self, name):
        with pytest.raises(NormalizationError) as excinfo:
            self.CALLS[name](Ket([1, 0, 0, 0, 0, 0, 0, 1]))
        assert str(excinfo.value) == f"{name} requires a normalized input"


class TestSingletProjector:
    def test_idempotent_and_hermitian(self):
        p = singlet_projector().entries
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)

    def test_rank_counts_the_spectator(self):
        assert np.trace(singlet_projector().entries).real == pytest.approx(2.0, abs=1e-12)

    def test_expectation_matches_outcome_probability(self):
        psi = protocol_input(0.6, 0.8j)
        expectation = float(np.vdot(psi.amplitudes, singlet_projector().entries @ psi.amplitudes).real)
        assert expectation == pytest.approx(0.25, abs=1e-12)

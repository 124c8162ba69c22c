"""Tests for the teleportation protocol layer."""

import dataclasses
import re

import numpy as np
import pytest

from helpers import BELL_ARRAYS, oracle_decomposition, random_beam, searchsorted_index
from spinport import bellkit, spinalg, teleport
from spinport.bellkit import BELL_ORDER, BellLabel, decompose_12
from spinport.spinalg import (
    DimensionError,
    Ket,
    NormalizationError,
    Operator,
    SpinAlgebraError,
    bloch_from,
    density_from,
    partial_trace,
    pauli,
    tensor,
)
from spinport.teleport import (
    NO_CORRECTION,
    POLICIES,
    RY_PI,
    SIGMA_Z,
    BeamState,
    CorrectionPolicy,
    _philox_first_uniform,
    fidelity,
    index_from_uniform,
    prepare_beam,
    prepare_deuteron,
    run_postselected,
    run_sampled,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)

AXIS_BEAMS = {
    "x": BeamState(SQRT_HALF, SQRT_HALF),
    "-x": BeamState(SQRT_HALF, -SQRT_HALF),
    "y": BeamState(SQRT_HALF, 1j * SQRT_HALF),
    "-y": BeamState(SQRT_HALF, -1j * SQRT_HALF),
    "z": BeamState(1, 0),
    "-z": BeamState(0, 1),
}


class TestPreparation:
    def test_deuteron_amplitudes(self):
        assert np.allclose(prepare_deuteron().amplitudes, [0, SQRT_HALF, SQRT_HALF, 0])

    def test_deuteron_marginals_are_unpolarized(self):
        rho = density_from(prepare_deuteron())
        for particle in (1, 2):
            marginal = bloch_from(partial_trace(rho, keep=[particle]))
            assert np.allclose(marginal.as_array(), [0, 0, 0], atol=1e-12)

    def test_deuteron_is_one_shared_read_only_ket(self):
        deuteron = prepare_deuteron()
        assert prepare_deuteron() is deuteron
        assert np.array_equal(deuteron.amplitudes, [0, SQRT_HALF, SQRT_HALF, 0])
        with pytest.raises(ValueError):
            deuteron.amplitudes[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            deuteron.amplitudes = np.zeros(4, dtype=complex)

    def test_deuteron_orthogonal_to_singlet(self):
        singlet = Ket([0, SQRT_HALF, -SQRT_HALF, 0])
        assert np.vdot(singlet.amplitudes, prepare_deuteron().amplitudes) == pytest.approx(0.0, abs=1e-15)

    def test_prepare_beam(self):
        assert np.allclose(prepare_beam(BeamState(1, 0)).amplitudes, [1, 0])
        assert np.allclose(prepare_beam(AXIS_BEAMS["x"]).amplitudes, [SQRT_HALF, SQRT_HALF])
        assert np.allclose(prepare_beam(AXIS_BEAMS["y"]).amplitudes, [SQRT_HALF, 1j * SQRT_HALF])

    def test_beam_state_must_be_normalized(self):
        with pytest.raises(NormalizationError):
            BeamState(1, 1)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0.0, np.nan)))
    def test_beam_state_rejects_non_finite(self, bad):
        with pytest.raises(NormalizationError):
            BeamState(bad, 0)
        with pytest.raises(NormalizationError):
            BeamState(0, bad)

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("bad, shown", [("1", "'1'"), ("0j", "'0j'"), (None, "None"), (True, "True"), ([1], "[1]")])
    def test_an_amplitude_that_is_not_a_complex_number_is_refused_by_name(self, name, bad, shown):
        amplitudes = {"a": 1, "b": 0} if name == "b" else {"a": 0, "b": 1}
        with pytest.raises(SpinAlgebraError, match=re.escape(f"amplitude {name} {shown} is not a complex number")):
            BeamState(**{**amplitudes, name: bad})

    def test_numpy_and_real_amplitudes_become_complex(self):
        beam = BeamState(np.float64(0.6), np.complex128(0.8j))
        assert (type(beam.a), type(beam.b)) == (complex, complex) and (beam.a, beam.b) == (0.6, 0.8j)

    @pytest.mark.parametrize("bad", [5, [1j, 0, 0], "001"])
    def test_from_direction_refuses_what_is_not_a_vector_of_real_numbers(self, bad):
        with pytest.raises(SpinAlgebraError, match="^direction must be a 3-vector of real numbers"):
            BeamState.from_direction(bad)

    def test_beam_state_from_direction(self):
        beam = BeamState.from_direction((0, 0, -1))
        assert np.allclose(beam.bloch().as_array(), [0, 0, -1], atol=1e-12)


class TestCompose:
    def test_up_beam_amplitudes(self):
        psi = tensor(prepare_beam(BeamState(1, 0)), prepare_deuteron())
        assert np.allclose(psi.amplitudes, [0, SQRT_HALF, SQRT_HALF, 0, 0, 0, 0, 0], atol=1e-15)

    def test_normalized(self):
        psi = tensor(prepare_beam(AXIS_BEAMS["y"]), prepare_deuteron())
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_singlet_conditional_carries_sign_flip(self):
        a, b = 0.6, 0.8j
        psi = tensor(prepare_beam(BeamState(a, b)), prepare_deuteron())
        conditional = decompose_12(psi).conditional(BellLabel.PSI_MINUS)
        overlap = np.vdot(np.array([a, -b]), conditional.amplitudes)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


class TestCorrection:
    def test_sigma_z_undoes_the_sign_flip(self):
        a, b = 0.6, 0.8j
        out = SIGMA_Z.operator.entries @ Ket([a, -b]).amplitudes
        assert np.allclose(out, [a, b], atol=1e-15)

    def test_ry_pi_maps_minus_x_to_plus_x(self):
        out = RY_PI.operator.entries @ Ket([SQRT_HALF, -SQRT_HALF]).amplitudes
        overlap = np.vdot([SQRT_HALF, SQRT_HALF], out)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_none_is_identity(self):
        k = Ket([0.6, 0.8j])
        assert np.allclose(NO_CORRECTION.operator.entries @ k.amplitudes, k.amplitudes)

    def test_custom_policy(self):
        policy = CorrectionPolicy.custom(pauli("x"))
        assert np.allclose(policy.operator.entries, pauli("x").entries)

    def test_custom_policy_rejects_non_unitary(self):
        with pytest.raises(SpinAlgebraError):
            CorrectionPolicy.custom(Operator([[1, 0], [0, 2]]))

    def test_custom_policy_rejects_a_two_particle_operator(self):
        with pytest.raises(SpinAlgebraError):
            CorrectionPolicy.custom(Operator(np.eye(4)))

    def test_parse(self):
        assert CorrectionPolicy.parse("ry_pi") == RY_PI
        with pytest.raises(SpinAlgebraError):
            CorrectionPolicy.parse("sigma_x")

    def test_named_policies_are_built_once(self):
        assert list(POLICIES) == ["none", "sigma_z", "ry_pi"]
        for name, policy in POLICIES.items():
            assert policy.name == name
            assert CorrectionPolicy.parse(name) is policy
            assert policy.operator.dim == 2 and policy.operator.is_unitary


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(Ket([1, 0]), Ket([1, 0])) == 1.0

    def test_orthogonal_states(self):
        assert fidelity(Ket([1, 0]), Ket([0, 1])) == 0.0
        assert fidelity(Ket([SQRT_HALF, SQRT_HALF]), Ket([SQRT_HALF, -SQRT_HALF])) == pytest.approx(0.0, abs=1e-15)

    def test_phase_insensitive(self):
        assert fidelity(Ket([1, 0]), Ket([-1, 0])) == pytest.approx(1.0, abs=1e-15)

    def test_requires_normalized_single_particle(self):
        with pytest.raises(NormalizationError):
            fidelity(Ket([1, 1]), Ket([1, 0]))
        with pytest.raises(DimensionError):
            fidelity(Ket([1, 0]), prepare_deuteron())

    def test_boundary_errors(self):
        for bad in (Ket([1, 1]), Ket([np.nan, 0]), Ket([np.inf, 0])):
            with pytest.raises(NormalizationError):
                fidelity(Ket([1, 0]), bad)
        # the dimensions are checked first, at the boundary
        with pytest.raises(DimensionError):
            fidelity(Ket([1, 1, 0, 0]), Ket([1, 1]))


class TestTeleportResult:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("probability", 1.5, "outcome probability 1.5 outside [0, 1]"),
            ("probability", float("nan"), "outcome probability nan outside [0, 1]"),
            ("fidelity_pre", -1e-9, "fidelity -1e-09 outside [0, 1]"),
            ("fidelity_post", 1.0000001, "fidelity 1.0000001 outside [0, 1]"),
        ],
    )
    def test_values_outside_the_unit_interval_are_refused(self, field, value, message):
        result = run_postselected(AXIS_BEAMS["x"], SIGMA_Z)
        with pytest.raises(SpinAlgebraError, match=re.escape(message)):
            dataclasses.replace(result, **{field: value})


def near_unitary_policy() -> CorrectionPolicy:
    """A custom correction inside the 1e-12 unitarity tolerance that stretches (1, 1)/sqrt(2) by 1.8e-12 in squared
    norm: past the normalization tolerance that the protocol applies to the corrected state."""
    return CorrectionPolicy.custom(Operator(np.eye(2) + 0.45e-12 * np.ones((2, 2))))


class TestRunPostselected:
    def test_plus_x_beam_with_sigma_z(self):
        result = run_postselected(AXIS_BEAMS["x"], SIGMA_Z)
        assert result.outcome is BellLabel.PSI_MINUS
        assert result.probability == pytest.approx(0.25, abs=1e-12)
        assert result.fidelity_pre == pytest.approx(0.0, abs=1e-12)
        assert result.fidelity_post == pytest.approx(1.0, abs=1e-12)

    def test_up_beam_unaffected_by_sign_flip(self):
        result = run_postselected(BeamState(1, 0), NO_CORRECTION)
        assert result.fidelity_pre == pytest.approx(1.0, abs=1e-12)

    def test_ry_pi_fails_for_y_beam(self):
        result = run_postselected(AXIS_BEAMS["y"], RY_PI)
        assert result.fidelity_post == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_checks_the_corrected_state(self):
        policy = near_unitary_policy()
        # the -x beam leaves (1, 1)/sqrt(2) on the neutron; the +x beam leaves (1, -1)/sqrt(2), which the
        # near-identity policy keeps exactly, still orthogonal to the beam
        with pytest.raises(NormalizationError, match=r"correction 'custom' .* squared norm 1\.00000000000180"):
            run_postselected(AXIS_BEAMS["-x"], policy)
        assert run_postselected(AXIS_BEAMS["x"], policy).fidelity_post == pytest.approx(0.0, abs=1e-12)

    def test_tests_only_the_corrected_state(self, monkeypatch):
        # BeamState has tested the beam and the split normalizes neutron_pre; a custom policy can stretch the
        # corrected state, so that is the one test left per run
        is_normalized, calls = spinalg._is_normalized, []

        def counted(amplitudes):
            calls.append(amplitudes)
            return is_normalized(amplitudes)

        for module in (spinalg, bellkit, teleport):
            monkeypatch.setattr(module, "_is_normalized", counted)
        for beam in AXIS_BEAMS.values():
            for policy in POLICIES.values():
                calls.clear()
                result = run_postselected(beam, policy)
                assert len(calls) == 1
                assert calls[0] is result.neutron_post.amplitudes

    def test_ry_pi_axis_scan(self):
        # the pi rotation about y recovers x-axis beams and nothing else
        expected = {"x": 1.0, "-x": 1.0, "y": 0.0, "-y": 0.0, "z": 0.0, "-z": 0.0}
        for name, beam in AXIS_BEAMS.items():
            result = run_postselected(beam, RY_PI)
            assert result.fidelity_post == pytest.approx(expected[name], abs=1e-12), name


class TestRunSampled:
    def test_fixed_seed_is_reproducible(self):
        beam = AXIS_BEAMS["y"]
        first = [run_sampled(beam, SIGMA_Z, seed=k).outcome for k in range(200)]
        second = [run_sampled(beam, SIGMA_Z, seed=k).outcome for k in range(200)]
        assert first == second

    def test_draws_every_outcome(self):
        outcomes = {run_sampled(AXIS_BEAMS["x"], SIGMA_Z, seed=k).outcome for k in range(100)}
        assert outcomes == set(BELL_ORDER)

    def test_only_the_singlet_branch_is_corrected(self):
        for beam in (BeamState(1, 0), AXIS_BEAMS["x"]):
            for k in range(50):
                result = run_sampled(beam, SIGMA_Z, seed=k)
                assert result.neutron_pre.norm() == pytest.approx(1.0, abs=1e-12)
                if result.outcome is BellLabel.PSI_MINUS:
                    assert result.fidelity_post == pytest.approx(1.0, abs=1e-12)
                else:
                    assert result.neutron_post is None
                    assert result.fidelity_post is None

    def test_draw_consumes_exactly_one_uniform(self):
        # contract: the outcome is fixed by the first variate of the
        # seed-keyed stream through the documented cumulative inversion
        for seed in range(30):
            u = np.random.Generator(np.random.Philox(key=seed)).random()
            expected = BELL_ORDER[min(int(np.searchsorted(np.cumsum([0.25] * 4), u, side="right")), 3)]
            assert run_sampled(AXIS_BEAMS["y"], SIGMA_Z, seed=seed).outcome is expected

    @pytest.mark.parametrize("bad", (None, 1.5, np.nan, np.inf, -np.inf, True, "7", -1, 2**128))
    def test_seed_is_validated_by_name(self, bad):
        with pytest.raises(ValueError, match="seed"):
            run_sampled(AXIS_BEAMS["y"], SIGMA_Z, bad)

    def test_fidelity_checks_only_a_corrected_state(self):
        policy = near_unitary_policy()
        for seed in range(8):
            if run_sampled(AXIS_BEAMS["-x"], SIGMA_Z, seed).outcome is BellLabel.PSI_MINUS:
                with pytest.raises(NormalizationError):
                    run_sampled(AXIS_BEAMS["-x"], policy, seed)
            else:
                assert run_sampled(AXIS_BEAMS["-x"], policy, seed).neutron_post is None

    def test_outcome_frequencies_are_uniform(self):
        counts = {label: 0 for label in BELL_ORDER}
        beam = BeamState(0.6, 0.8j)
        n = 100_000
        for k in range(n):
            counts[run_sampled(beam, SIGMA_Z, seed=k).outcome] += 1
        four_sigma = 4.0 * np.sqrt(0.25 * 0.75 / n)
        for label, count in counts.items():
            assert abs(count / n - 0.25) <= four_sigma, (label, count / n)



# The protocol path as first written, kept as a bit-for-bit oracle: the
# product state from np.kron and all four branches split by the oracle
# decomposition, even when only psi- is kept.
def oracle_branches(s: BeamState) -> tuple[np.ndarray, dict]:
    """Beam amplitudes and (probability, conditional amplitudes) of each Bell outcome."""
    beam = np.array([s.a, s.b], dtype=complex)
    return beam, oracle_decomposition(np.kron(beam, BELL_ARRAYS[BellLabel.PSI_PLUS]))


def oracle_fidelity(x: np.ndarray, y: np.ndarray) -> float:
    return min(1.0, abs(complex(np.vdot(x, y))) ** 2)


def oracle_beams() -> list[BeamState]:
    rng = np.random.default_rng(2003)
    return list(AXIS_BEAMS.values()) + [random_beam(rng) for _ in range(200)]


class TestBitIdentityWithOraclePath:
    def test_run_postselected(self):
        for s in oracle_beams():
            beam, branches = oracle_branches(s)
            probability, pre = branches[BellLabel.PSI_MINUS]
            for policy in POLICIES.values():
                result = run_postselected(s, policy)
                post = policy.operator.entries @ pre
                assert result.probability == probability
                assert result.neutron_pre.amplitudes.tobytes() == pre.tobytes()
                assert result.neutron_post.amplitudes.tobytes() == post.tobytes()
                assert result.fidelity_pre == oracle_fidelity(beam, pre)
                assert result.fidelity_post == oracle_fidelity(beam, post)

    def test_run_sampled(self):
        for seed, s in enumerate(oracle_beams()):
            beam, branches = oracle_branches(s)
            probs = [branches[label][0] for label in BELL_ORDER]
            u = np.random.Generator(np.random.Philox(key=seed)).random()
            outcome = BELL_ORDER[min(int(np.searchsorted(np.cumsum(probs), u, side="right")), 3)]
            probability, pre = branches[outcome]
            result = run_sampled(s, SIGMA_Z, seed)
            assert result.outcome is outcome
            assert result.probability == probability
            assert result.neutron_pre.amplitudes.tobytes() == pre.tobytes()
            assert result.fidelity_pre == oracle_fidelity(beam, pre)
            if outcome is BellLabel.PSI_MINUS:
                post = SIGMA_Z.operator.entries @ pre
                assert result.neutron_post.amplitudes.tobytes() == post.tobytes()
                assert result.fidelity_post == oracle_fidelity(beam, post)

    def test_run_postselected_random_beams(self):
        for s, _ in random_oracle_runs():
            beam, branches = oracle_branches(s)
            probability, pre = branches[BellLabel.PSI_MINUS]
            for policy in POLICIES.values():
                result = run_postselected(s, policy)
                post = policy.operator.entries @ pre
                assert result.probability == probability
                assert result.neutron_pre.amplitudes.tobytes() == pre.tobytes()
                assert result.neutron_post.amplitudes.tobytes() == post.tobytes()
                assert (result.fidelity_pre, result.fidelity_post) == (
                    oracle_fidelity(beam, pre), oracle_fidelity(beam, post))

    def test_run_sampled_random_beams_over_the_whole_seed_range(self):
        outcomes = set()
        for s, seed in random_oracle_runs():
            beam, branches = oracle_branches(s)
            probs = [branches[label][0] for label in BELL_ORDER]
            u = np.random.Generator(np.random.Philox(key=seed)).random()
            outcome = BELL_ORDER[min(int(np.searchsorted(np.cumsum(probs), u, side="right")), 3)]
            probability, pre = branches[outcome]
            result = run_sampled(s, SIGMA_Z, seed)
            assert (result.outcome, result.probability) == (outcome, probability)
            assert result.neutron_pre.amplitudes.tobytes() == pre.tobytes()
            assert result.fidelity_pre == oracle_fidelity(beam, pre)
            if outcome is BellLabel.PSI_MINUS:
                post = SIGMA_Z.operator.entries @ pre
                assert result.neutron_post.amplitudes.tobytes() == post.tobytes()
                assert result.fidelity_post == oracle_fidelity(beam, post)
            outcomes.add(outcome)
        assert outcomes == set(BELL_ORDER)


def random_oracle_runs() -> list[tuple[BeamState, int]]:
    """400 random beams, each with a sampling seed drawn from the whole key range [0, 2**128)."""
    rng = np.random.default_rng(1512)
    return [(random_beam(rng), int.from_bytes(rng.bytes(16), "little")) for _ in range(400)]


class TestFirstUniform:
    # run_sampled's one uniform, computed without a Generator, must be the one numpy's Philox draws first
    EDGE_SEEDS = (0, 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**127, 2**128 - 1)

    def test_equals_numpy_philox(self):
        rng = np.random.default_rng(6000)
        # 64-bit keys leave the high key word 0; 128-bit keys fill both
        wide = (int.from_bytes(rng.bytes(n), "little") for n in [8] * 2500 + [16] * 2500)
        seeds = [*self.EDGE_SEEDS, *range(1000), *wide]
        assert len(seeds) >= 6000
        for seed in seeds:
            assert _philox_first_uniform(seed) == np.random.Generator(np.random.Philox(key=seed)).random(), seed


class TestIndexFromUniform:
    PROBABILITIES = (
        [0.25] * 4,
        [0.1, 0.2, 0.3, 0.4],
        [0.0, 0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0],
        [1 / 300] * 300,  # more thresholds than a uint8 count holds
    )

    @staticmethod
    def variates(probabilities) -> np.ndarray:
        # Every threshold k/4 and of the vector itself, with its floating-point
        # neighbours, the ends of [0, 1] and the non-finite values.
        thresholds = np.concatenate([np.arange(5) / 4, np.cumsum(probabilities)])
        return np.concatenate([
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, 0.6],
        ])

    @pytest.mark.parametrize("probabilities", PROBABILITIES)
    def test_scalars_give_the_oracle_index_as_an_int(self, probabilities):
        for u in self.variates(probabilities):
            expected = int(searchsorted_index(u, probabilities))
            for variate in (float(u), np.float64(u)):
                index = index_from_uniform(variate, probabilities)
                assert type(index) is int
                assert index == expected, (variate, probabilities)

    @pytest.mark.parametrize("probabilities", PROBABILITIES)
    def test_a_strided_column_gives_the_oracle_indices_as_intp(self, probabilities):
        u = self.variates(probabilities)
        uniforms = np.zeros((len(u), 4))
        uniforms[:, 1] = u
        index = index_from_uniform(uniforms[:, 1], np.array(probabilities))
        assert index.dtype == np.intp
        assert np.array_equal(index, searchsorted_index(u, probabilities))


class TestTrustedWraps:
    """Every ``Ket`` the exact protocol wraps from its own fresh arrays, without ``Ket(...)``'s copy and checks,
    must be what ``Ket(...)`` of the same array would give, and as immutable."""

    @staticmethod
    def check(ket, dim):
        amplitudes = ket.amplitudes
        assert type(ket) is Ket
        assert amplitudes.dtype == np.complex128 and amplitudes.shape == (dim,)
        assert not amplitudes.flags.writeable
        assert amplitudes.flags.owndata
        validated = Ket(amplitudes).amplitudes
        assert validated.dtype == amplitudes.dtype and validated.shape == amplitudes.shape
        assert validated.tobytes() == amplitudes.tobytes()
        with pytest.raises(ValueError):
            amplitudes[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ket.amplitudes = validated

    BEAMS = [*AXIS_BEAMS.values(), *(random_beam(np.random.default_rng(8)) for _ in range(8))]

    @pytest.mark.parametrize("policy", POLICIES.values(), ids=list(POLICIES))
    def test_run_postselected(self, policy):
        for beam in self.BEAMS:
            result = run_postselected(beam, policy)
            self.check(result.neutron_pre, 2)
            self.check(result.neutron_post, 2)

    def test_run_sampled_for_each_outcome(self):
        seen = set()
        for seed in range(64):
            result = run_sampled(AXIS_BEAMS["x"], SIGMA_Z, seed)
            seen.add(result.outcome)
            self.check(result.neutron_pre, 2)
            if result.neutron_post is not None:
                self.check(result.neutron_post, 2)
        assert seen == set(BELL_ORDER)

    def test_prepare_beam(self):
        for beam in self.BEAMS:
            ket = prepare_beam(beam)
            self.check(ket, 2)
            assert ket.amplitudes.tolist() == [beam.a, beam.b]

    def test_decompose_12_branches_and_reconstruct(self):
        # |000> leaves both psi branches zero: they carry the validated placeholder |0>
        states = [tensor(prepare_beam(beam), prepare_deuteron()) for beam in self.BEAMS]
        for psi in [*states, Ket(np.eye(8)[0])]:
            decomposition = decompose_12(psi)
            for branch in decomposition.branches.values():
                self.check(branch.conditional, 2)
            self.check(decomposition.reconstruct(), 8)
        placeholder = decompose_12(Ket(np.eye(8)[0])).conditional(BellLabel.PSI_MINUS)
        assert placeholder.amplitudes.tolist() == [1, 0]

    def test_project_bell(self):
        for beam in self.BEAMS:
            psi = tensor(prepare_beam(beam), prepare_deuteron())
            for label in BELL_ORDER:
                self.check(bellkit.project_bell(psi, label)[1], 2)

    def test_apply_and_normalize(self):
        rng = np.random.default_rng(9)
        for dim in (2, 4, 8):
            ket = Ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            self.check(spinalg._ket(Operator(np.eye(dim)).entries @ ket.amplitudes), dim)
            self.check(spinalg.normalize(ket), dim)
        self.check(spinalg._ket(pauli("y").entries @ Ket([1, 0]).amplitudes), 2)

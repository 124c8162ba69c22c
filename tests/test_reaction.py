"""Tests for the experiment-level model: predictions and Monte Carlo sampling."""

import dataclasses

import numpy as np
import pytest

from helpers import random_unit_vector
from spinport import reaction
from spinport.bellkit import BELL_ORDER, BellLabel, bell_states, decompose_12
from spinport.reaction import (
    IDEAL_TARGET,
    EventRecord,
    ExperimentConfig,
    PolarimetryEstimate,
    TargetSpec,
    acceptance_fraction,
    channel_purity,
    correlation_table,
    event_records,
    predict,
    simulate,
    target_moments,
)
from spinport.spinalg import bloch_from, density_from, pauli
from spinport.teleport import BeamState, compose, prepare_beam, prepare_deuteron

X, Y, Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def config(**overrides) -> ExperimentConfig:
    defaults = dict(beam_direction=Y, epsilon=0.04, k_transfer=-0.1, events=1000, seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestTargetSpec:
    def test_pure_m0_moments(self):
        assert target_moments(TargetSpec(0, 1, 0)) == (0.0, -2.0)

    def test_unpolarized_moments(self):
        p_z, p_zz = target_moments(TargetSpec(1 / 3, 1 / 3, 1 / 3))
        assert p_z == pytest.approx(0.0, abs=1e-15)
        assert p_zz == pytest.approx(0.0, abs=1e-15)

    def test_stretched_moments(self):
        assert target_moments(TargetSpec(1, 0, 0)) == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetSpec(0.5, 0.6, 0.1)
        with pytest.raises(ValueError):
            TargetSpec(-0.1, 1.0, 0.1)

    def test_channel_purity(self):
        assert channel_purity(IDEAL_TARGET) == 1.0
        assert channel_purity(TargetSpec(1 / 3, 1 / 3, 1 / 3)) == pytest.approx(1 / 3)
        assert channel_purity(TargetSpec(0.05, 0.9, 0.05)) == pytest.approx(0.9)

    def test_moments_are_linear_and_bounded(self):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            populations = rng.dirichlet((1.0, 1.0, 1.0))
            t = TargetSpec(*populations)
            p_z, p_zz = target_moments(t)
            # linearity: the moments are fixed linear forms of the populations
            assert p_z == pytest.approx(populations @ np.array([1.0, 0.0, -1.0]), abs=1e-12)
            assert p_zz == pytest.approx(populations @ np.array([1.0, -2.0, 1.0]), abs=1e-12)
            assert -2.0 - 1e-12 <= p_zz <= 1.0 + 1e-12


class TestExperimentConfig:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            config(epsilon=1.5)
        with pytest.raises(ValueError):
            config(beam_magnitude=-0.1)
        with pytest.raises(ValueError):
            config(k_transfer=1.5)
        with pytest.raises(ValueError):
            config(events=0)
        with pytest.raises(ValueError):
            config(beam_direction=(1, 1, 0))
        with pytest.raises(ValueError):
            config(analyzer_axes=())

    @pytest.mark.parametrize("key", ("beam_magnitude", "epsilon", "k_transfer", "beam_energy_mev"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_scalars_are_rejected_by_name(self, key, bad):
        with pytest.raises(ValueError, match=key):
            config(**{key: bad})

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_vectors_are_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match="beam_direction"):
            config(beam_direction=(bad, 0.0, 0.0))
        with pytest.raises(ValueError, match="analyzer axis"):
            config(analyzer_axes=((0.0, bad, 0.0),))

    def test_beam_energy_must_be_positive(self):
        with pytest.raises(ValueError, match="beam_energy_mev"):
            config(beam_energy_mev=0.0)

    def test_seed_range(self):
        assert config(seed=0).seed == 0
        assert config(seed=2**128 - 1).seed == 2**128 - 1
        for bad in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                config(seed=bad)

    def test_beam_bloch(self):
        c = config(beam_direction=X, beam_magnitude=0.5)
        assert np.allclose(c.beam_bloch(), [0.5, 0, 0])


class TestPredict:
    def test_y_beam_reference_numbers(self):
        prediction = predict(config(beam_direction=Y))
        assert prediction.qt_bloch.as_array() == pytest.approx([0.0, -0.964, 0.0], abs=1e-12)
        assert prediction.conventional_bloch.as_array() == pytest.approx([0.0, -0.1, 0.0], abs=1e-12)
        assert prediction.enhancement == pytest.approx(9.64, abs=1e-10)

    def test_x_beam_flips_with_zero_conventional(self):
        prediction = predict(config(beam_direction=X, epsilon=0.0))
        assert prediction.qt_bloch.as_array() == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)
        assert prediction.conventional_bloch.as_array() == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_unpolarized_beam(self):
        prediction = predict(config(beam_magnitude=0.0))
        assert prediction.qt_bloch.norm() == 0.0
        assert prediction.conventional_bloch.norm() == 0.0
        assert prediction.enhancement == 0.0

    def test_pure_channel_reproduces_the_flip_map(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            direction = random_unit_vector(rng)
            prediction = predict(config(beam_direction=direction, epsilon=0.0))
            expected = np.array([-direction[0], -direction[1], direction[2]])
            assert np.allclose(prediction.qt_bloch.as_array(), expected, atol=1e-12)

    def test_predictions_stay_inside_the_ball(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            prediction = predict(
                config(
                    beam_direction=random_unit_vector(rng),
                    beam_magnitude=rng.uniform(0, 1),
                    epsilon=rng.uniform(0, 1),
                    k_transfer=rng.uniform(-1, 1),
                    target=TargetSpec(*rng.dirichlet((1, 1, 1))),
                )
            )
            # BlochVector construction enforces the ball; re-check the norms
            assert prediction.qt_bloch.norm() <= 1.0 + 1e-10
            assert prediction.conventional_bloch.norm() <= 1.0 + 1e-10

    def test_enhancement_non_increasing_in_contamination_off_y(self):
        diag_xz = (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
        for direction in (X, diag_xz):
            values = [predict(config(beam_direction=direction, epsilon=e)).enhancement for e in (0, 0.04, 0.2, 0.5)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestCorrelationTable:
    def test_x_row_flips(self):
        rows = {row.beam_axis: row for row in correlation_table(config())}
        assert rows["x"].flipped is True
        assert rows["x"].qt.px == pytest.approx(-0.96, abs=1e-12)
        assert rows["x"].note is None

    def test_z_row_is_preserved(self):
        rows = {row.beam_axis: row for row in correlation_table(config())}
        assert rows["z"].flipped is False
        assert rows["z"].qt.pz == pytest.approx(0.96, abs=1e-12)

    def test_y_row_flips_and_carries_the_caveat(self):
        rows = {row.beam_axis: row for row in correlation_table(config())}
        assert rows["y"].flipped is True
        assert rows["y"].note is not None
        assert "no y flip" in rows["y"].note

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            correlation_table(config(), axes=("x", "q"))


class TestSimulate:
    def test_x_beam_measured_along_x_is_exactly_flipped(self):
        c = config(beam_direction=X, epsilon=0.0, events=20_000, seed=5, analyzer_axes=(X,))
        estimates = simulate(c)
        records = list(event_records(c))
        assert estimates[0].p_hat == -1.0
        accepted = [r for r in records if r.accepted]
        assert accepted and all(r.spin_outcome == -1 for r in accepted)

    def test_tilted_beam_keeps_its_z_component(self):
        theta = np.radians(60.0)
        c = config(
            beam_direction=(np.sin(theta), 0.0, np.cos(theta)),
            epsilon=0.0,
            events=100_000,
            seed=9,
            analyzer_axes=(Z,),
        )
        estimates = simulate(c)
        estimate = estimates[0]
        four_sigma = 4.0 * np.sqrt((1.0 - 0.25) / estimate.n_events)
        assert abs(estimate.p_hat - 0.5) <= four_sigma

    def test_fixed_seed_is_bit_reproducible(self):
        c = config(events=5000, seed=77)
        records_a, estimates_a = list(event_records(c)), simulate(c)
        records_b, estimates_b = list(event_records(c)), simulate(c)
        assert records_a == records_b
        for a, b in zip(estimates_a, estimates_b):
            assert (a.p_hat, a.sigma, a.n_events) == (b.p_hat, b.sigma, b.n_events)

    def test_partitioning_does_not_change_results(self):
        # every event owns one counter block, so chunking is invisible;
        # chunk_size=1 is the fully split schedule
        c = config(events=2000, seed=42)
        baseline = list(event_records(c)), simulate(c)
        for chunk_size in (1, 7, 333, 100_000):
            records = list(event_records(c, chunk_size=chunk_size))
            estimates = simulate(c, chunk_size=chunk_size)
            assert records == baseline[0]
            for a, b in zip(estimates, baseline[1]):
                assert (a.p_hat, a.sigma, a.n_events) == (b.p_hat, b.sigma, b.n_events)

    @pytest.mark.parametrize("chunk_size", [1, 977, reaction._DEFAULT_CHUNK])
    def test_event_records_agree_with_estimates(self, chunk_size):
        # simulate counts the stream and event_records draws it again: the
        # per-axis n+/n- of the accepted records are the estimates' counts
        c = config(events=3000, seed=31, analyzer_axes=(X, Y, Z))
        counts = np.zeros((3, 2), dtype=int)
        accepted = 0
        for r in event_records(c, chunk_size=chunk_size):
            if r.accepted:
                counts[r.axis_index, int(r.spin_outcome < 0)] += 1
                accepted += 1
        estimates = simulate(c, chunk_size=chunk_size)
        for (n_plus, n_minus), estimate in zip(counts, estimates):
            n = n_plus + n_minus
            assert (estimate.n_events, estimate.p_hat) == (n, (n_plus - n_minus) / n)
        assert sum(estimate.n_events for estimate in estimates) == accepted

    def test_round_robin_axis_assignment(self):
        c = config(events=9, seed=1, analyzer_axes=(X, Y, Z))
        records = list(event_records(c))
        assert [r.axis_index for r in records] == [0, 1, 2] * 3

    def test_estimates_match_analytic_prediction(self):
        rng = np.random.default_rng(314)
        for trial in range(20):
            c = config(
                beam_direction=random_unit_vector(rng),
                beam_magnitude=rng.uniform(0.2, 1.0),
                epsilon=rng.uniform(0.0, 0.5),
                k_transfer=rng.uniform(-0.3, 0.3),
                target=TargetSpec(*rng.dirichlet((2, 6, 2))),
                events=100_000,
                seed=1000 + trial,
            )
            prediction = predict(c)
            estimates = simulate(c)
            for estimate in estimates:
                expected = float(prediction.qt_bloch.as_array() @ estimate.axis)
                four_sigma = 4.0 * np.sqrt((1.0 - expected**2) / estimate.n_events)
                assert abs(estimate.p_hat - expected) <= four_sigma

    def test_seed_is_mandatory(self):
        with pytest.raises(ValueError):
            simulate(config(seed=None))

    def test_undefined_estimate_when_an_axis_sees_no_events(self):
        # two axes but a single event: the second axis gets nothing
        c = config(events=1, seed=3, analyzer_axes=(X, Y))
        estimates = simulate(c)
        assert estimates[1].n_events == 0
        assert not estimates[1].defined
        assert np.isnan(estimates[1].p_hat)

    def test_estimator_error_formula(self):
        estimate = PolarimetryEstimate.from_counts(np.array(X), 75, 25)
        assert estimate.p_hat == pytest.approx(0.5)
        assert estimate.sigma == pytest.approx(np.sqrt((1 - 0.25) / 100))


class TestAcceptance:
    def test_quarter_acceptance_for_pure_channel(self):
        c = config(epsilon=0.0, events=100_000, seed=11)
        four_sigma = 4.0 * np.sqrt(0.25 * 0.75 / c.events)
        assert abs(acceptance_fraction(event_records(c)) - 0.25) <= four_sigma

    def test_selection_cut_is_channel_blind(self):
        # the energy cut models the same 1/4 efficiency on background, so a
        # fully contaminated run still accepts a quarter of the events
        c = config(epsilon=1.0, events=100_000, seed=12)
        four_sigma = 4.0 * np.sqrt(0.25 * 0.75 / c.events)
        assert abs(acceptance_fraction(event_records(c)) - 0.25) <= four_sigma

    def test_empty_record_list(self):
        with pytest.raises(ValueError):
            acceptance_fraction([])

    def test_event_record_validation(self):
        with pytest.raises(ValueError):
            EventRecord(0, True, 0, 0)


def born_weights_from_density_matrix(beam_bloch: np.ndarray) -> np.ndarray:
    """Oracle: Born weights of the four pair outcomes, in BELL_ORDER.

    Traces each Bell projector on particles (1, 2) against the density matrix
    of a (possibly mixed) beam tensored with the psi+ channel pair.
    """
    paulis = np.array([pauli(axis).entries for axis in "xyz"])
    rho_beam = 0.5 * (np.eye(2) + np.einsum("i,ijk->jk", beam_bloch, paulis))
    states = bell_states()
    pair = states[BellLabel.PSI_PLUS].amplitudes
    rho = np.kron(rho_beam, np.outer(pair, pair.conj()))
    weights = []
    for label in BELL_ORDER:
        bell = states[label].amplitudes
        projector = np.kron(np.outer(bell, bell.conj()), np.eye(2))
        weights.append(np.trace(projector @ rho).real)
    return np.array(weights)


class TestPhysicalTables:
    def test_bell_weights_are_exact_quarters(self):
        assert reaction._BELL_WEIGHTS.tolist() == [0.25] * 4
        assert np.cumsum(reaction._BELL_WEIGHTS).tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_bell_weights_match_density_matrix_and_decomposition(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            direction = random_unit_vector(rng)
            mixed = rng.uniform(0.0, 1.0) * direction
            assert np.allclose(born_weights_from_density_matrix(mixed), reaction._BELL_WEIGHTS, atol=1e-12, rtol=0)
            assert np.allclose(born_weights_from_density_matrix(direction), reaction._BELL_WEIGHTS, atol=1e-12, rtol=0)
            beam = BeamState.from_direction(direction)
            probabilities = decompose_12(compose(prepare_beam(beam), prepare_deuteron())).probabilities()
            assert np.allclose(list(probabilities.values()), reaction._BELL_WEIGHTS, atol=1e-12, rtol=0)

    def test_branch_signs_match_decomposition_conditionals(self):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n = random_unit_vector(rng)
            beam = BeamState.from_direction(n)
            decomposition = decompose_12(compose(prepare_beam(beam), prepare_deuteron()))
            for signs, label in zip(reaction._BRANCH_SIGNS, BELL_ORDER):
                conditional = bloch_from(density_from(decomposition.conditional(label))).as_array()
                assert np.allclose(conditional, signs * n, atol=1e-12, rtol=0)


def test_config_replace_keeps_validation():
    c = config()
    with pytest.raises(ValueError):
        dataclasses.replace(c, epsilon=2.0)

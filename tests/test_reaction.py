"""Tests for the experiment-level model: predictions and Monte Carlo sampling."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from helpers import random_unit_vector
from spinport import reaction
from spinport.reaction import (
    ExperimentConfig,
    PolarimetryEstimate,
    TargetSpec,
    acceptance_fraction,
    correlation_table,
    event_records,
    predict,
    simulate,
    target_moments,
)
from spinport.spinalg import DimensionError, SpinAlgebraError
from spinport.teleport import _philox, _uniform

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
        with pytest.raises(ValueError, match="events 1.5 is not an integer"):
            config(events=1.5)
        for bad, shown in (("1.5", "'1.5'"), (None, "None"), (True, "True")):
            with pytest.raises(ValueError, match=f"events {shown} is not an integer"):
                config(events=bad)
        with pytest.raises(ValueError, match="TargetSpec"):
            config(target=(0, 1, 0))

    @pytest.mark.parametrize("key", ("beam_magnitude", "epsilon", "k_transfer", "beam_energy_mev",
                                     "p_plus", "p_zero", "p_minus"))
    @pytest.mark.parametrize("bad, shown", ((True, "True"), ("0.5", "'0.5'"), (None, "None"), ([0.5], "[0.5]"),
                                            (0.5j, "0.5j")))
    def test_float_fields_refuse_what_is_not_a_real_number_by_name(self, key, bad, shown):
        # The float fields follow the rule of the integer ones: no bool, no text, and an error naming key and value.
        with pytest.raises(ValueError, match=re.escape(f"{key} {shown} is not a real number")):
            if key.startswith("p_"):
                TargetSpec(**{"p_plus": 0.0, "p_zero": 1.0, "p_minus": 0.0, key: bad})
            else:
                config(**{key: bad})

    @pytest.mark.parametrize("key", ("beam_magnitude", "epsilon", "k_transfer", "beam_energy_mev", "events", "seed"))
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
        assert config(seed=7.0).seed == 7
        for bad in (7.9, np.nan, np.inf, -np.inf, True):
            with pytest.raises(ValueError, match=f"seed {bad} is not an integer"):
                config(seed=bad)
        with pytest.raises(ValueError, match="seed '7' is not an integer"):
            config(seed="7")
        with pytest.raises(ValueError, match="seed .* outside"):
            config(seed=2**1100)

    @pytest.mark.parametrize(
        "key, bad, error",
        [
            ("beam_direction", (1.0, 0.0), DimensionError),
            ("beam_direction", (1.0, 1.0, 0.0), SpinAlgebraError),
            ("beam_magnitude", 1.5, ValueError),
            ("epsilon", np.nan, ValueError),
            ("k_transfer", "0.1", ValueError),
            ("target", (0.0, 1.0, 0.0), ValueError),
            ("events", 0, ValueError),
            ("seed", -1, ValueError),
            ("beam_energy_mev", np.inf, ValueError),
            ("analyzer_axes", ((0.0, 0.0, 0.0),), SpinAlgebraError),
            ("analyzer_axes", (), ValueError),
        ],
    )
    def test_a_refusal_carries_its_key(self, key, bad, error):
        with pytest.raises(error) as excinfo:
            config(**{key: bad})
        assert type(excinfo.value) is error
        assert excinfo.value.key == key

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("beam_direction", 5, "beam_direction must be a 3-vector of real numbers, got 5"),
            ("beam_direction", [1j, 0, 0], "beam_direction must be a 3-vector of real numbers, got [1j, 0, 0]"),
            ("beam_direction", np.array([1j, 0, 0]), "beam_direction must be a 3-vector of real numbers, got array("),
            ("beam_direction", "010", "beam_direction must be a 3-vector of real numbers, got '010'"),
            ("beam_direction", (True, 0.0, 0.0), "beam_direction must be a 3-vector of real numbers, got (True, 0."),
            ("beam_direction", (np.True_, 0.0, 0.0), "beam_direction must be a 3-vector of real numbers, got ("),
            ("analyzer_axes", 5, "analyzer_axes 5 is not a sequence of axes"),
            ("analyzer_axes", ([1j, 0, 0],), "analyzer axis must be a 3-vector of real numbers, got [1j, 0, 0]"),
            ("analyzer_axes", "xyz", "analyzer axis must be a 3-vector of real numbers, got 'x'"),
        ],
    )
    def test_a_vector_that_is_not_of_real_numbers_is_refused_with_its_key(self, key, bad, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)) as excinfo:
            config(**{key: bad})
        assert excinfo.value.key == key

    def test_the_first_key_refused_in_field_order_is_named(self):
        with pytest.raises(ValueError, match="^beam_magnitude 2.0 outside") as excinfo:
            config(beam_energy_mev=-1.0, seed=-1, epsilon=1.5, beam_magnitude=2.0)
        assert excinfo.value.key == "beam_magnitude"

    def test_default_axes_are_validated_once(self, monkeypatch):
        assert [axis.tolist() for axis in reaction._DEFAULT_AXES] == [list(v) for v in reaction.AXIS_VECTORS.values()]
        assert not any(axis.flags.writeable for axis in reaction._DEFAULT_AXES)
        checked = []
        real = reaction.unit_vector
        monkeypatch.setattr(reaction, "unit_vector", lambda value, what: checked.append(what) or real(value, what))
        assert config().analyzer_axes is reaction._DEFAULT_AXES
        assert checked == ["beam_direction"]
        # an equal but supplied tuple is still checked, axis by axis
        config(analyzer_axes=tuple(reaction.AXIS_VECTORS.values()))
        assert checked == ["beam_direction"] * 2 + ["analyzer axis"] * 3

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

    @pytest.mark.parametrize(
        "beam, epsilon, expected",
        ((Y, 0.0, [0.0, -0.91, 0.0]), (Y, 0.5, [0.0, -0.505, 0.0]), (X, 0.2, [-0.72, 0.0, 0.0])),
    )
    def test_impure_target_closed_form(self, beam, epsilon, expected):
        # w = p_zero * (1 - epsilon); teleported = w * (-Px, -Py, Pz) + (1 - w) * (0, k * Py, 0)
        target = TargetSpec(0.05, 0.9, 0.05)
        prediction = predict(config(beam_direction=beam, epsilon=epsilon, k_transfer=-0.1, target=target))
        assert prediction.qt_bloch.as_array() == pytest.approx(expected, abs=1e-12)

    def test_unpolarized_beam(self):
        prediction = predict(config(beam_magnitude=0.0))
        assert prediction.qt_bloch.norm() == 0.0
        assert prediction.conventional_bloch.norm() == 0.0
        assert prediction.enhancement == 0.0

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

    def test_the_default_chunk_gives_the_results_of_65536_event_chunks(self):
        # The partition the default replaced stays pinned: 81925 events end
        # inside a chunk of either size.
        c = config(events=65536 + 16384 + 5, seed=23, analyzer_axes=(X, Y, Z))
        assert [(e.p_hat, e.sigma, e.n_events) for e in simulate(c)] == [
            (e.p_hat, e.sigma, e.n_events) for e in simulate(c, chunk_size=65536)]
        assert list(event_records(c)) == list(event_records(c, chunk_size=65536))

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

    @pytest.mark.parametrize("case", range(16))
    def test_estimates_match_the_closed_form_within_five_sigma(self, case):
        # A statistical gate written out here, not read from predict (which
        # shares _channel_model with the sampler): with P the beam's Bloch
        # vector and w = p0 (1 - epsilon), the selected neutron carries
        # w (-Px, -Py, Pz) + (1 - w) (0, k Py, 0), and 1/4 of all events pass.
        rng = np.random.default_rng(2718 + case)
        c = config(
            beam_direction=random_unit_vector(rng),
            beam_magnitude=rng.uniform(0.0, 1.0),
            epsilon=rng.uniform(0.0, 1.0),
            k_transfer=rng.uniform(-1.0, 1.0),
            target=TargetSpec(*rng.dirichlet((1, 3, 1))),
            events=int(rng.integers(20_000, 100_001)),
            seed=case,
            analyzer_axes=tuple(random_unit_vector(rng) for _ in range(rng.integers(1, 5))),
        )
        px, py, pz = c.beam_magnitude * c.beam_direction
        w = c.target.p_zero * (1.0 - c.epsilon)
        expected = w * np.array([-px, -py, pz]) + (1.0 - w) * np.array([0.0, c.k_transfer * py, 0.0])
        for estimate in simulate(c):
            p = float(expected @ estimate.axis)
            assert abs(estimate.p_hat - p) <= 5.0 * np.sqrt((1.0 - p**2) / estimate.n_events)
        accepted = acceptance_fraction(event_records(c))
        assert abs(accepted - 0.25) <= 5.0 * np.sqrt(0.25 * 0.75 / c.events)

    def test_seed_is_mandatory(self):
        with pytest.raises(ValueError):
            simulate(config(seed=None))

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_size"):
            simulate(config(), chunk_size=0)

    @pytest.mark.parametrize("draw", [simulate, event_records])
    @pytest.mark.parametrize("bad, shown", [
        (2.5, "chunk_size 2.5 is not an integer"), ("4", "chunk_size '4' is not an integer"),
        (None, "chunk_size None is not an integer"), (True, "chunk_size True is not an integer"),
        (0, "chunk_size must be positive, got 0"), (-3.0, "chunk_size must be positive, got -3"),
    ])
    def test_a_chunk_size_that_is_not_a_positive_integer_is_refused_when_called(self, draw, bad, shown):
        # Refused by the call itself: event_records must not wait for its first record.
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            draw(config(), chunk_size=bad)

    def test_an_integral_float_chunk_size_draws_as_its_int(self):
        c = config(events=2000, seed=5)
        counted = [[(e.p_hat, e.sigma, e.n_events) for e in simulate(c, chunk_size=size)] for size in (977.0, 977)]
        assert counted[0] == counted[1]
        assert list(event_records(c, chunk_size=977.0)) == list(event_records(c, chunk_size=977))

    def test_undefined_estimate_when_an_axis_sees_no_events(self):
        # two axes but a single event: the second axis gets nothing
        c = config(events=1, seed=3, analyzer_axes=(X, Y))
        estimates = simulate(c)
        assert estimates[1].n_events == 0
        assert not estimates[1].defined
        assert np.isnan(estimates[1].p_hat)

    @pytest.mark.parametrize(
        "build, key",
        (
            (lambda: PolarimetryEstimate.from_counts(np.array(X), 2, -2), "n_minus -2"),
            (lambda: PolarimetryEstimate.from_counts(np.array(X), -1, 0), "n_plus -1"),
            (lambda: PolarimetryEstimate(np.array(X), 0.5, 0.1, n_events=-3), "n_events -3"),
            # each count by its own name: a fractional, bool or NaN count is refused even where the sum is integral
            (lambda: PolarimetryEstimate.from_counts(np.array(X), 1.5, 0.5), "n_plus 1.5 is not an integer"),
            (lambda: PolarimetryEstimate(np.array(X), 0.5, 0.1, n_events=True), "n_events True is not an integer"),
            (lambda: PolarimetryEstimate.from_counts(np.array(X), 2, 0.5), "n_minus 0.5 is not an integer"),
            (lambda: PolarimetryEstimate.from_counts(np.array(X), True, 0), "n_plus True is not an integer"),
            (lambda: PolarimetryEstimate.from_counts(np.array(X), 1, False), "n_minus False is not an integer"),
            (lambda: PolarimetryEstimate.from_counts(np.array(X), 2, float("nan")), "n_minus nan is not an integer"),
        ),
    )
    def test_negative_counts_are_refused_by_name(self, build, key):
        with pytest.raises(ValueError, match=key):
            build()

    @pytest.mark.parametrize("p_hat", [-1.5, float("nan")])
    def test_p_hat_outside_the_unit_interval_is_refused(self, p_hat):
        with pytest.raises(ValueError, match=re.escape(f"|p_hat| = {abs(p_hat)} exceeds 1")):
            PolarimetryEstimate(np.array(X), p_hat, 0.1, n_events=4)

    @pytest.mark.parametrize("sigma", [-np.inf, np.inf, -0.1, np.nan])
    def test_a_sigma_that_is_not_finite_and_non_negative_is_refused(self, sigma):
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma} is not a finite value >= 0")):
            PolarimetryEstimate(np.array(X), 0.5, sigma, n_events=4)

    def test_an_undefined_estimate_keeps_nan(self):
        estimate = PolarimetryEstimate(np.array(X), float("nan"), float("nan"), n_events=0)
        assert not estimate.defined and np.isnan(estimate.p_hat) and np.isnan(estimate.sigma)
        assert PolarimetryEstimate(np.array(X), 1.0, 0.0, n_events=1).sigma == 0.0

    @pytest.mark.parametrize("key", ["p_hat", "sigma"])
    @pytest.mark.parametrize("bad, shown", [("0.5", "'0.5'"), (None, "None"), (True, "True"), (0.5j, "0.5j")])
    def test_an_estimate_that_is_not_a_real_number_is_refused_by_name(self, key, bad, shown):
        values = {"p_hat": 0.5, "sigma": 0.1, key: bad}
        with pytest.raises(ValueError, match=re.escape(f"{key} {shown} is not a real number")):
            PolarimetryEstimate(np.array(X), n_events=4, **values)

    @pytest.mark.parametrize("bad", [5, [1j, 0, 0]])
    def test_an_axis_that_is_not_a_vector_of_real_numbers_is_refused_by_name(self, bad):
        with pytest.raises(SpinAlgebraError, match="^analyzer axis must be a 3-vector of real numbers"):
            PolarimetryEstimate(bad, 0.5, 0.1, n_events=4)

    def test_the_checked_values_are_stored_as_int_and_float(self):
        for estimate in (
            PolarimetryEstimate(np.array(X), 1, 0, 4.0),
            PolarimetryEstimate(np.array(X), np.float32(1.0), np.float64(0.0), np.int64(4)),
        ):
            stored = (estimate.p_hat, estimate.sigma, estimate.n_events)
            assert [(type(value), value) for value in stored] == [(float, 1.0), (float, 0.0), (int, 4)]

    def test_estimator_error_formula(self):
        estimate = PolarimetryEstimate.from_counts(np.array(X), 75, 25)
        assert estimate.p_hat == pytest.approx(0.5)
        assert estimate.sigma == pytest.approx(np.sqrt((1 - 0.25) / 100))


class PerChunkPhilox:
    """The words of one fresh ``Philox(counter=start)`` bit generator per chunk, counting ``start`` in events."""

    def __init__(self, seed: int):
        self.seed, self.start = seed, 0

    def random_raw(self, size: int) -> np.ndarray:
        words = np.random.Philox(key=self.seed, counter=self.start).random_raw(size)
        self.start += size // 4
        return words


class TestOneGeneratorDraw:
    # One bit generator continues block by block; each chunk used to build its own
    # Philox at counter start. Both must give the same bits, on partial chunks too.
    CASES = [(1, 7), (977, 2 * 977 + 13), (16384, 16384 + 4099), (65536, 65536 + 1001)]

    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
    @pytest.mark.parametrize("chunk_size, events", CASES)
    def test_uniform_bits_equal_the_per_chunk_draws(self, chunk_size, events, seed):
        stream, per_chunk = _philox(seed), PerChunkPhilox(seed)
        for start in range(0, events, chunk_size):
            n = min(chunk_size, events - start)
            assert np.array_equal(stream.random_raw(4 * n), per_chunk.random_raw(4 * n)), start

    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
    @pytest.mark.parametrize("events", [1, 7, 4099, 16384 + 977])
    def test_the_words_made_uniforms_are_numpys_random_bit_for_bit(self, events, seed):
        # The oracle of the word -> uniform rule: numpy's own Generator.random over the same Philox stream.
        uniforms = _uniform(_philox(seed).random_raw(4 * events)).reshape(events, 4)
        expected = np.random.Generator(np.random.Philox(key=seed)).random((events, 4))
        assert np.array_equal(uniforms.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("accepted_only", [False, True])
    @pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
    @pytest.mark.parametrize("chunk_size, events", CASES)
    def test_columns_equal_the_per_chunk_draws(self, monkeypatch, chunk_size, events, seed, accepted_only):
        c = config(events=events, seed=seed, analyzer_axes=(X, Y, Z))
        drawn = list(reaction._event_columns(c, chunk_size, accepted_only=accepted_only))
        per_chunk = PerChunkPhilox(seed)  # one reference stream, however often _philox is called
        monkeypatch.setattr(reaction, "_philox", lambda _: per_chunk)
        expected = list(reaction._event_columns(c, chunk_size, accepted_only=accepted_only))
        assert len(drawn) == len(expected) == -(-events // chunk_size)
        for (first, *columns), (first_expected, *columns_expected) in zip(drawn, expected):
            assert first == first_expected
            assert all(np.array_equal(a, b) for a, b in zip(columns, columns_expected, strict=True))


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
        with pytest.raises(ValueError):
            acceptance_fraction(iter([]))

    def test_list_and_generator_give_the_same_fraction(self):
        c = config(events=5_000, seed=13)
        records = list(event_records(c))
        fraction = sum(r.accepted for r in records) / len(records)
        assert acceptance_fraction(records) == fraction
        assert acceptance_fraction(event_records(c)) == fraction

    def test_memory_does_not_grow_with_the_records(self):
        # Counting a generator must not keep its records. What stays is the
        # working set of one or two chunks (~10 MB, the same at 1.3e5 and
        # 4e5 events); holding the 2e5 records peaks at ~35 MB.
        c = config(events=200_000, seed=14)
        tracemalloc.start()
        try:
            acceptance_fraction(event_records(c))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("draw", ("simulate", "event_records"))
    def test_each_chunk_is_released_before_the_next_is_drawn(self, draw):
        # Over several chunks the peak stays near one chunk's working set, about
        # 1.62 (simulate) and 2.37 (event_records) blocks of its uniforms (chunk x
        # 4 float64); holding the previous chunk while drawing the next one
        # peaked at ~2.8 and ~3.3 blocks. simulate's own bound fails when it
        # keeps one chunk's accepted columns through the next draw (~1.74).
        chunk = 4096
        c = config(events=6 * chunk + 17, seed=11)
        run = {
            "simulate": lambda: simulate(c, chunk_size=chunk),
            "event_records": lambda: sum(1 for _ in event_records(c, chunk_size=chunk)),
        }[draw]
        run()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = chunk * 4 * 8
        bound = {"simulate": 1.68, "event_records": 2.5}[draw]
        assert peak < bound * block, f"tracemalloc peak {peak / block:.2f} uniform blocks"

    def test_the_default_chunk_keeps_simulate_under_one_mebibyte(self):
        # One 16384-event chunk peaks at ~0.79 MiB, inside a 1 MiB L2; the
        # 65536-event chunk it replaced peaked at ~3.1 MiB.
        c = config(events=300_000, seed=17)
        simulate(c)
        tracemalloc.start()
        try:
            simulate(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"tracemalloc peak {peak / 2**20:.2f} MiB"


class TestPhysicalTables:
    def test_bell_weights_are_exact_quarters(self):
        assert reaction._BELL_WEIGHTS.tolist() == [0.25] * 4
        assert np.cumsum(reaction._BELL_WEIGHTS).tolist() == [0.25, 0.5, 0.75, 1.0]


def test_config_replace_keeps_validation():
    c = config()
    with pytest.raises(ValueError):
        dataclasses.replace(c, epsilon=2.0)

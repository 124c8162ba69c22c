"""Property-based tests of config serialisation, the exact protocol, the analytic model and the Monte Carlo."""

import contextlib
import dataclasses
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st

from helpers import (event_line, oracle_events, oracle_spin_table, philox4x64_10, random_unit_vector,
                     searchsorted_index)
from spinport import cli, reaction
from spinport.bellkit import BELL_ORDER, BellLabel, decompose_12, singlet_projector
from spinport.reaction import (
    ENHANCEMENT_FLOOR,
    EventRecord,
    ExperimentConfig,
    PolarimetryEstimate,
    TargetSpec,
    event_records,
    predict,
    simulate,
)
from spinport.spinalg import ATOL_ALGEBRA, ATOL_COMPOSED, Ket, _norm, bloch_from, density_from, tensor
from spinport.teleport import (
    NO_CORRECTION,
    RY_PI,
    SIGMA_Z,
    BeamState,
    _philox_first_uniform,
    index_from_uniform,
    prepare_beam,
    prepare_deuteron,
    run_postselected,
    run_sampled,
)

# Derandomized and without an example database: the same examples on every
# run, and nothing written next to the sources.
PROPERTY = settings(deadline=None, database=None, derandomize=True, max_examples=200)

unit_floats = st.floats(0.0, 1.0)


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        reject()
    return tuple(float(c) for c in v / norm)


@st.composite
def targets(draw):
    weights = np.array(draw(st.tuples(unit_floats, unit_floats, unit_floats)))
    if weights.sum() < 1e-3:
        reject()
    return TargetSpec(*(weights / weights.sum()))


@st.composite
def near_pole_directions(draw):
    """Unit directions whose transverse part is 1e-12 to 1e-4, about +z or -z."""
    transverse = 10.0 ** draw(st.floats(-12.0, -4.0))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    pole = draw(st.sampled_from([1.0, -1.0]))
    return transverse * np.cos(phi), transverse * np.sin(phi), pole * np.sqrt(1.0 - transverse**2)


configs = st.builds(
    ExperimentConfig,
    beam_direction=unit_vectors(),
    beam_magnitude=unit_floats,
    epsilon=unit_floats,
    k_transfer=st.floats(-1.0, 1.0),
    target=targets(),
    events=st.integers(1, 10**9),
    seed=st.none() | st.integers(0, 2**128 - 1),
    beam_energy_mev=st.floats(1e-3, 1e6),
    analyzer_axes=st.lists(unit_vectors(), min_size=1, max_size=4).map(tuple),
)


@PROPERTY
@given(configs)
def test_config_round_trips_through_its_text(config):
    text = "\n".join(f"{key} = {value}" for key, value in cli.config_items(config))
    restored = cli.resolve_config(cli.parse_config_text(text), {})
    assert np.array_equal(restored.beam_direction, config.beam_direction)
    assert restored.beam_magnitude == config.beam_magnitude
    assert restored.epsilon == config.epsilon
    assert restored.k_transfer == config.k_transfer
    assert restored.target == config.target
    assert restored.events == config.events
    assert restored.seed == config.seed
    assert restored.beam_energy_mev == config.beam_energy_mev
    assert len(restored.analyzer_axes) == len(config.analyzer_axes)
    assert all(np.array_equal(a, b) for a, b in zip(restored.analyzer_axes, config.analyzer_axes))
    assert cli.config_items(restored) == cli.config_items(config)


#: Texts each config key refuses, by the parser of its file text: a scalar key's by its type, the others'
#: by key, as (file texts, flag texts) where the flag's grammar differs.
SCALAR_CORRUPTIONS = {
    float: ["nan", "inf", "-inf", "-2", "1e999", "abc", ""],
    int: ["1e5", "-1", "1.5", "nan", "inf", "x", ""],
}
SHAPED_CORRUPTIONS = {
    "beam_direction": (["nan,0,1", "1,2", "q", "1,1,1", "inf,0,0", "0,0,0"], ["nan,0", "1,2,3", "q", "0,inf", ""]),
    "target": ["0.5,0.5,0.5", "nan,1,0", "1,0", "-0.5,1.5,0", "1,0,0,0", "a,b,c"],
    "analyzer_axes": (["x;q", "1,2", "nan,0,0", "0,0,0", "x;;y", ""], ["x,q", "q", "x,,z", "1,0,0", ""]),
}
#: A valid flag text for each key whose flag grammar differs from its file text.
FLAG_TEXTS = {"beam_direction": "30,-40", "analyzer_axes": "-y,z"}


def corruptions(key: str, source: str) -> list[str]:
    field = cli._CONFIG_FIELDS[key]
    if field.parse in SCALAR_CORRUPTIONS:
        return SCALAR_CORRUPTIONS[field.parse]
    texts = SHAPED_CORRUPTIONS[key]
    return texts if field.flag_parse is None else texts[source == "flag"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key, source", [(key, source) for key, field in cli._CONFIG_FIELDS.items()
                                         for source in ("file", "flag") if source == "file" or field.flag])
# No shrinking: each step of it is a full CLI run, and a broken refusal path took minutes to report.
@settings(PROPERTY, max_examples=20, phases=(Phase.explicit, Phase.generate))
@given(config=configs, events=st.integers(1, 20), seed=st.integers(0, 2**128 - 1), data=st.data())
def test_a_corrupt_config_value_exits_1_naming_its_key(key, source, config, events, seed, data):
    # A valid config, written out through the key table, with one key's value corrupted in the file or its flag.
    valid = dict(cli.config_items(dataclasses.replace(config, events=events, seed=seed)))
    field = cli._CONFIG_FIELDS[key]
    bad = data.draw(st.sampled_from(corruptions(key, source)))
    subcommand = "simulate" if field.simulate_only else data.draw(st.sampled_from(["predict", "simulate"]))
    texts = {**valid, key: bad} if source == "file" else valid
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{name} = {text}\n" for name, text in texts.items()))
        argv = [subcommand, "--config", str(path)]
        code, out, err = run_cli(argv + ([f"{field.flag}={bad}"] if source == "flag" else []))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("spinport") and key in err and "Traceback" not in err
        if source == "file" and field.flag:
            # the key's flag makes the corrupt file value irrelevant
            code, out, err = run_cli(argv + [f"{field.flag}={FLAG_TEXTS.get(key, valid[key])}"])
            assert (code, err) == (0, "") and out


@settings(PROPERTY, max_examples=50)
@given(config=configs, events=st.integers(1, 1000), seed=st.integers(0, 2**128 - 1),
       batch=st.sampled_from([1, 7, 4096]) | st.integers(1, 1100))
def test_json_lines_events_do_not_depend_on_the_event_batch(config, events, seed, batch):
    # simulate draws, formats and writes its JSON-lines events cli._EVENT_BATCH at a time; the bytes must not
    # show where one chunk ends, and each event line is the scalar oracle's event through json.dumps.
    config = dataclasses.replace(config, events=events, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, text in cli.config_items(config)))
        runs = []
        for size in (4096, batch):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_EVENT_BATCH", size)
                runs.append(run_cli(["simulate", "--config", str(path), "--format", "jsonl"]))
    assert runs[1] == runs[0] and runs[0][0] == 0
    expected = [event_line(EventRecord(*event)) for event in oracle_events(config)]
    assert [line for line in runs[0][1].splitlines(keepends=True) if line.startswith('{"type": "event"')] == expected


SCALAR_BOUNDS = {"beam_magnitude": (0.0, 1.0), "epsilon": (0.0, 1.0), "k_transfer": (-1.0, 1.0)}


DEFAULT_CONFIG = ExperimentConfig()


def or_default(key: str, strategy: st.SearchStrategy) -> st.SearchStrategy:
    """The default config's value of ``key`` in about half the examples, else a draw from ``strategy``: many
    examples then lie near the paper's setting (a y beam, full polarization, a pure m = 0 target)."""
    return st.just(getattr(DEFAULT_CONFIG, key)) | strategy


@PROPERTY
# both vectors at full length, on the sphere: a y beam, the pure channel and |k| = 1
@example(direction=(0.0, 1.0, 0.0), target=TargetSpec(0.0, 1.0, 0.0), wild_key=None, wild_value=0.0,
         scalars={"beam_magnitude": 1.0, "epsilon": 0.0, "k_transfer": -1.0})
@given(
    direction=or_default("beam_direction", unit_vectors()),
    target=or_default("target", targets()),
    scalars=st.fixed_dictionaries({key: or_default(key, st.floats(*bounds)) for key, bounds in SCALAR_BOUNDS.items()}),
    wild_key=st.sampled_from([*[None] * 2 * len(SCALAR_BOUNDS), *SCALAR_BOUNDS]),
    wild_value=st.floats() | st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_every_config_that_constructs_predicts_inside_the_unit_ball(direction, target, scalars, wild_key, wild_value):
    # In one example of three, one scalar is drawn from all floats, NaN and
    # infinities included; if the config refuses it, the error must name that
    # key. The others are in range, so most examples reach predict.
    if wild_key is not None:
        scalars[wild_key] = wild_value
    try:
        config = ExperimentConfig(beam_direction=direction, target=target, **scalars)
    except ValueError as exc:
        assert wild_key is not None and wild_key in str(exc)
        return
    prediction = predict(config)
    for vector in (prediction.qt_bloch, prediction.conventional_bloch):
        assert np.all(np.isfinite(vector.as_array()))
        assert vector.norm() <= 1.0 + 1e-10
    assert np.isfinite(prediction.enhancement) and prediction.enhancement >= 0.0


def _estimate_bits(estimate):
    return estimate.axis.tobytes(), estimate.p_hat.hex(), estimate.sigma.hex(), estimate.n_events


@PROPERTY
@given(configs, st.integers(1, 120), st.integers(0, 2**128 - 1), st.integers(1, 150))
def test_simulate_and_event_records_do_not_depend_on_the_chunk_size(config, events, seed, chunk_size):
    config = dataclasses.replace(config, events=events, seed=seed)
    chunked = simulate(config, chunk_size=chunk_size)
    assert list(map(_estimate_bits, chunked)) == list(map(_estimate_bits, simulate(config)))
    assert list(event_records(config, chunk_size=chunk_size)) == list(event_records(config))


@PROPERTY
@given(configs, st.integers(1, 400), st.integers(0, 2**128 - 1), st.integers(1, 150))
def test_simulate_counts_the_accepted_event_records(config, events, seed, simulate_chunk):
    # simulate samples only the accepted events; the scalar oracle's accepted
    # events must tally to the same n+ and n-.
    config = dataclasses.replace(config, events=events, seed=seed)
    counts = np.zeros((len(config.analyzer_axes), 2), dtype=int)
    for _, accepted, axis_index, spin_outcome in oracle_events(config):
        if accepted:
            counts[axis_index, int(spin_outcome < 0)] += 1
    tallied = [PolarimetryEstimate.from_counts(axis, *n) for axis, n in zip(config.analyzer_axes, counts.tolist())]
    assert list(map(_estimate_bits, simulate(config, chunk_size=simulate_chunk))) == list(map(_estimate_bits, tallied))


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.lists(st.floats(), max_size=16))
def test_index_from_uniform_inverts_the_cdf_as_searchsorted_does(weights, variates):
    total = sum(weights)
    probabilities = [w / total for w in weights] if total > 0.0 else weights
    cum = np.cumsum(probabilities)
    u = np.concatenate([variates, cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    expected = searchsorted_index(u, probabilities)
    uniforms = np.zeros((len(u), 4))
    uniforms[:, 1] = u
    assert np.array_equal(index_from_uniform(uniforms[:, 1], np.array(probabilities)), expected)
    assert [index_from_uniform(variate, probabilities) for variate in u.tolist()] == expected.tolist()


def _seed_error(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(st.integers(-(2**130), 2**130) | st.floats() | st.booleans())
def test_config_and_run_sampled_accept_the_same_seeds(seed):
    errors = [
        _seed_error(lambda: ExperimentConfig(seed=seed)),
        _seed_error(lambda: run_sampled(BeamState(1, 0), SIGMA_Z, seed)),
    ]
    assert (errors[0] is None) == (errors[1] is None)
    assert all("seed" in error for error in errors if error is not None)


@PROPERTY
@given(st.integers(0, 2**128 - 1))
def test_the_pure_python_first_draw_is_numpys(seed):
    assert _philox_first_uniform(seed) == np.random.Generator(np.random.Philox(key=seed)).random()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
@pytest.mark.parametrize("counter", [0, 2**64 - 2, 2**64 - 1, 2**128 - 1, 2**256 - 2])
def test_the_pure_python_philox_is_numpys(seed, counter):
    # numpy increments the 256-bit counter before each block, wrapping at 2**256
    blocks = [philox4x64_10((counter + step) % 2**256, seed) for step in (1, 2)]
    assert np.random.Philox(key=seed, counter=counter).random_raw(8).tolist() == [*blocks[0], *blocks[1]]


@settings(PROPERTY, max_examples=70)
@given(config=configs, events=st.integers(1, 500), seed=st.integers(0, 2**128 - 1), chunk_size=st.integers(1, 5000))
def test_event_records_are_the_scalar_oracles_events(config, events, seed, chunk_size):
    config = dataclasses.replace(config, events=events, seed=seed)
    records = event_records(config, chunk_size=chunk_size)
    assert [(r.event_id, r.accepted, r.axis_index, r.spin_outcome) for r in records] == oracle_events(config)


@settings(PROPERTY, max_examples=100)
@given(configs)
def test_the_spin_table_is_the_oracles_bit_for_bit(config):
    # P . axis summed left to right, as oracle_spin_table writes it, and not in the order of a numpy reduction
    p_teleported, p_up = reaction._spin_table(config)
    assert p_teleported == config.target.p_zero * (1.0 - config.epsilon)
    assert p_up.tobytes() == np.array(oracle_spin_table(config)).tobytes()


def test_simulated_estimates_scatter_about_the_teleported_polarization_by_their_sigma():
    # The paper's enhanced polarization in sampled data, over 200 configs drawn from one fixed seed, each run on its
    # own seed. z = (p_hat - predict's qt_bloch . axis) / sigma, with the estimate's sigma = sqrt((1 - p_hat**2) / n):
    # every |z| < 5, the mean z is near 0, and 68.3% lie within 1, so a sigma too wide or too narrow fails. At these
    # seeds: 487 estimates, mean z 0.009, max |z| 3.45, 66.1% within 1.
    rng, z = np.random.default_rng(15), []
    for seed in range(200):
        config = ExperimentConfig(
            beam_direction=random_unit_vector(rng), beam_magnitude=rng.uniform(), epsilon=rng.uniform(),
            k_transfer=rng.uniform(-1.0, 1.0), target=TargetSpec(*rng.dirichlet(np.ones(3))), events=40_000,
            seed=seed, analyzer_axes=tuple(random_unit_vector(rng) for _ in range(rng.integers(1, 5))),
        )
        qt = predict(config).qt_bloch.as_array()
        z += [(estimate.p_hat - qt @ estimate.axis) / estimate.sigma for estimate in simulate(config)]
    z = np.array(z)
    assert np.abs(z).max() < 5.0 and abs(z.mean()) < 3.0 / math.sqrt(len(z))
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 3.0 * math.sqrt(0.6827 * 0.3173 / len(z))


def test_the_enhancement_from_three_orthogonal_axes_matches_predict():
    # The paper's enhancement in sampled data: |p_hat| of the x, y and z estimates over predict's
    # max(|conventional|, ENHANCEMENT_FLOOR) lies within 5 sigma of predict's enhancement, sigma propagated from the
    # estimates' own, sqrt(sum((p_i sigma_i)**2)) / |p_hat| / denominator. Only configs whose conventional and
    # teleported vectors are not near 0: there the ratio is not the floor's, and the bias of |p_hat|, about
    # sum(sigma_i**2) / (2 |p|), stays under 0.13 of its sigma. At these seeds 321 configs are skipped, and the 100
    # run give mean z -0.0003, sd 0.99, max |z| 3.13 and 69% within 1.
    rng, z = np.random.default_rng(16), []
    while len(z) < 100:
        config = ExperimentConfig(
            beam_direction=random_unit_vector(rng), beam_magnitude=rng.uniform(), epsilon=rng.uniform(),
            k_transfer=rng.uniform(-1.0, 1.0), target=TargetSpec(*rng.dirichlet(np.ones(3))), events=40_000,
            seed=len(z), analyzer_axes=tuple(np.eye(3)),
        )
        prediction = predict(config)
        if prediction.conventional_bloch.norm() < 0.05 or prediction.qt_bloch.norm() < 0.2:
            continue
        estimates = simulate(config)
        p_hat = np.array([estimate.p_hat for estimate in estimates])
        sigma = np.array([estimate.sigma for estimate in estimates])
        denominator = max(prediction.conventional_bloch.norm(), ENHANCEMENT_FLOOR)
        error = math.sqrt(np.sum((p_hat * sigma) ** 2)) / np.linalg.norm(p_hat) / denominator
        z.append((np.linalg.norm(p_hat) / denominator - prediction.enhancement) / error)
    assert max(map(abs, z)) < 5.0, z


@st.composite
def norm_inputs(draw):
    """A complex 2-, 4- or 8-vector or a real 3-vector, scaled by 1e-300 to 1e300, with 0, NaN and +-inf entries."""
    n, is_complex = draw(st.sampled_from([(2, True), (4, True), (8, True), (3, False)]))
    scale = 10.0 ** draw(st.integers(-300, 300))
    parts = st.lists(st.floats(-1.0, 1.0) | st.sampled_from([0.0, np.nan, np.inf, -np.inf]), min_size=n, max_size=n)
    x = np.array(draw(parts)) * scale
    if not is_complex:
        return x
    z = x.astype(complex)
    z.imag = np.array(draw(parts)) * scale
    return z


@PROPERTY
@given(norm_inputs())
def test_the_private_norm_is_numpys_bit_for_bit(x):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert np.float64(_norm(x)).tobytes() == np.float64(np.linalg.norm(x)).tobytes()


@PROPERTY
@given(unit_vectors() | near_pole_directions())
def test_the_reaction_tables_are_what_bellkit_computes(direction):
    # reaction's Monte Carlo reads _BELL_WEIGHTS and _BRANCH_SIGNS; the exact protocol must give the same
    # Born weights and conditional Bloch vectors, over the sphere and within 1e-12 to 1e-4 of either pole.
    n = np.array(direction)
    decomposition = decompose_12(tensor(prepare_beam(BeamState.from_direction(n)), prepare_deuteron()))
    weights = [decomposition.probability(label) for label in BELL_ORDER]
    assert np.allclose(weights, reaction._BELL_WEIGHTS, atol=ATOL_ALGEBRA, rtol=0)
    for signs, label in zip(reaction._BRANCH_SIGNS, BELL_ORDER):
        conditional = bloch_from(density_from(decomposition.conditional(label))).as_array()
        assert np.allclose(conditional, signs * n, atol=ATOL_ALGEBRA, rtol=0)
    # the discriminated singlet carries the teleported image (-Px, -Py, Pz)
    singlet = bloch_from(density_from(decomposition.conditional(BellLabel.PSI_MINUS))).as_array()
    assert np.allclose(singlet, [-n[0], -n[1], n[2]], atol=ATOL_ALGEBRA, rtol=0)


# The paper's physics over the whole Bloch sphere: beams from directions over
# the sphere, along the six axes and within 1e-12 to 1e-4 of either pole, and
# beams built straight from complex amplitudes, apart from ket_from_direction.
SIX_AXES = [tuple(float(sign * (i == axis)) for i in range(3)) for axis in range(3) for sign in (1, -1)]
directions = unit_vectors() | st.sampled_from(SIX_AXES) | near_pole_directions()


@st.composite
def normalized_amplitudes(draw, dim):
    """A normalized complex ``dim``-vector; some of its components may be exactly zero."""
    parts = st.floats(-1.0, 1.0) | st.just(0.0)
    v = np.array(draw(st.tuples(*[parts] * dim))) + 1j * np.array(draw(st.tuples(*[parts] * dim)))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        reject()
    return v / norm


beams = directions.map(BeamState.from_direction) | normalized_amplitudes(2).map(lambda v: BeamState(v[0], v[1]))


def _protocol_state(beam: BeamState) -> Ket:
    return tensor(prepare_beam(beam), prepare_deuteron())


@PROPERTY
@given(beams, beams, unit_floats)
def test_every_bell_outcome_has_probability_one_quarter(beam, other, weight):
    # Discriminating only psi- keeps a quarter of the events, for any beam.
    assert all(abs(p - 0.25) <= ATOL_ALGEBRA for p in decompose_12(_protocol_state(beam)).probabilities().values())
    assert abs(run_postselected(beam, NO_CORRECTION).probability - 0.25) <= ATOL_ALGEBRA
    # A mixed beam too: the psi- projector traced against a mixture of two beams with the channel pair.
    mixed = sum(w * density_from(_protocol_state(b)).entries for w, b in ((weight, beam), (1.0 - weight, other)))
    assert abs(np.trace(singlet_projector().entries @ mixed) - 0.25) <= ATOL_ALGEBRA


@PROPERTY
@given(beams)
def test_the_singlet_conditional_carries_the_teleported_image(beam):
    p = beam.bloch()
    image = bloch_from(density_from(run_postselected(beam, NO_CORRECTION).neutron_pre))
    assert np.allclose(image.as_array(), [-p.px, -p.py, p.pz], atol=ATOL_ALGEBRA, rtol=0)


@PROPERTY
@given(beams)
def test_sigma_z_is_exact_and_ry_pi_keeps_only_the_x_component(beam):
    # sigma_z undoes the sign flip of every input; ry_pi gives fidelity nx^2, so it works for x-axis inputs only.
    assert abs(run_postselected(beam, SIGMA_Z).fidelity_post - 1.0) <= ATOL_ALGEBRA
    assert abs(run_postselected(beam, RY_PI).fidelity_post - beam.bloch().px ** 2) <= ATOL_COMPOSED


@PROPERTY
@given(beams.map(_protocol_state) | normalized_amplitudes(8).map(Ket))
def test_the_decomposition_reconstructs_its_input(psi):
    assert np.allclose(decompose_12(psi).reconstruct().amplitudes, psi.amplitudes, atol=ATOL_ALGEBRA, rtol=0)


@PROPERTY
@example(ExperimentConfig(beam_direction=(1.0, 0.0, 0.0)))  # no y component: the conventional vector vanishes
@example(ExperimentConfig(k_transfer=0.0))
@example(ExperimentConfig(beam_magnitude=0.0))  # nothing to teleport either
@example(ExperimentConfig(epsilon=0.0))  # the pure channel: w = 1, the flip map (-Px, -Py, Pz) alone
@given(
    st.builds(
        ExperimentConfig,
        beam_direction=directions,
        beam_magnitude=unit_floats,
        epsilon=unit_floats,
        k_transfer=st.floats(-1.0, 1.0) | st.sampled_from([0.0, 1e-7, -1e-6]),
        target=targets(),
    )
)
def test_predict_follows_its_docstring_formula(config):
    px, py, pz = (config.beam_magnitude * config.beam_direction).tolist()
    w = config.target.p_zero * (1.0 - config.epsilon)
    conventional = (0.0, config.k_transfer * py, 0.0)
    teleported = (-w * px, -w * py + (1.0 - w) * conventional[1], w * pz)
    prediction = predict(config)
    assert np.allclose(prediction.conventional_bloch.as_array(), conventional, atol=ATOL_ALGEBRA, rtol=0)
    assert np.allclose(prediction.qt_bloch.as_array(), teleported, atol=ATOL_ALGEBRA, rtol=0)
    denominator = max(math.hypot(*conventional), ENHANCEMENT_FLOOR)
    assert abs(prediction.enhancement * denominator - math.hypot(*teleported)) <= ATOL_ALGEBRA

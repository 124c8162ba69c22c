"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
criterion checks its full statement at its stated tolerance and enforces
its runtime budget.
"""

import time

import numpy as np

from helpers import random_beam, random_ket
from spinport import cli
from spinport.bellkit import (
    BELL_ORDER,
    BellLabel,
    bell_states,
    decompose_12,
    project_bell,
    singlet_projector,
)
from spinport.reaction import (
    ExperimentConfig,
    TargetSpec,
    acceptance_fraction,
    correlation_table,
    event_records,
    predict,
    simulate,
    target_moments,
)
from spinport.spinalg import Ket, bloch_from, density_from, normalize, partial_trace
from spinport.teleport import RY_PI, SIGMA_Z, BeamState, run_postselected

Y_AXIS = (0.0, 1.0, 0.0)


def _finish(name: str, started: float, budget: float, problems: list[str]) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    verdict = "PASS" if not problems else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.2f}s)" + (f": {'; '.join(problems)}" if problems else ""))
    assert not problems, f"{name}: {problems}"


def test_criterion_1_bell_structure():
    started = time.perf_counter()
    problems = []
    states = bell_states()
    gram = np.array(
        [[np.vdot(states[r].amplitudes, states[c].amplitudes) for c in BELL_ORDER] for r in BELL_ORDER]
    )
    if not np.allclose(gram, np.eye(4), atol=1e-12):
        problems.append("Bell basis is not orthonormal within 1e-12")
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        psi = random_ket(rng, 8)
        rebuilt = decompose_12(psi).reconstruct()
        worst = max(worst, float(np.max(np.abs(rebuilt.amplitudes - psi.amplitudes))))
    if worst > 1e-12:
        problems.append(f"worst reconstruction error {worst:.2e} exceeds 1e-12")
    _finish("criterion 1: Bell basis and decomposition reconstruct", started, 1.0, problems)


def test_criterion_2_branch_structure():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(202)
    worst_prob = 0.0
    worst_cond = 0.0
    for _ in range(500):
        beam = random_beam(rng)
        decomposition = decompose_12(
            Ket(np.kron([beam.a, beam.b], bell_states()[BellLabel.PSI_PLUS].amplitudes))
        )
        for label in BELL_ORDER:
            worst_prob = max(worst_prob, abs(decomposition.probability(label) - 0.25))
        conditional = decomposition.conditional(BellLabel.PSI_MINUS).amplitudes
        expected = np.array([beam.a, -beam.b])
        overlap = np.vdot(expected, conditional)
        aligned = conditional * np.conj(overlap) / abs(overlap)
        worst_cond = max(worst_cond, float(np.max(np.abs(aligned - expected))))
    if worst_prob > 1e-12:
        problems.append(f"worst |probability - 1/4| = {worst_prob:.2e} exceeds 1e-12")
    if worst_cond > 1e-12:
        problems.append(f"worst singlet-conditional error {worst_cond:.2e} exceeds 1e-12")
    _finish("criterion 2: quarter weights and singlet conditional", started, 1.0, problems)


def test_criterion_3_correction_fidelities():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        result = run_postselected(random_beam(rng), SIGMA_Z)
        worst = max(worst, abs(result.fidelity_post - 1.0))
    if worst > 1e-12:
        problems.append(f"sigma_z worst |fidelity - 1| = {worst:.2e} exceeds 1e-12")
    sqrt_half = 1.0 / np.sqrt(2.0)
    axis_beams = {
        "x": BeamState(sqrt_half, sqrt_half),
        "-x": BeamState(sqrt_half, -sqrt_half),
        "y": BeamState(sqrt_half, 1j * sqrt_half),
        "-y": BeamState(sqrt_half, -1j * sqrt_half),
        "z": BeamState(1, 0),
        "-z": BeamState(0, 1),
    }
    expected = {"x": 1.0, "-x": 1.0, "y": 0.0, "-y": 0.0, "z": 0.0, "-z": 0.0}
    for name, beam in axis_beams.items():
        fidelity_post = run_postselected(beam, RY_PI).fidelity_post
        if abs(fidelity_post - expected[name]) > 1e-12:
            problems.append(f"ry_pi on {name} beam gives {fidelity_post}, expected {expected[name]}")
    _finish("criterion 3: sigma_z exact everywhere, ry_pi only on x", started, 1.0, problems)


def test_criterion_4_polarization_flip_pattern():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(500):
        beam = random_beam(rng)
        p_beam = beam.bloch().as_array()
        p_neutron = bloch_from(density_from(run_postselected(beam).neutron_pre)).as_array()
        expected = np.array([-p_beam[0], -p_beam[1], p_beam[2]])
        worst = max(worst, float(np.max(np.abs(p_neutron - expected))))
    if worst > 1e-12:
        problems.append(f"worst flip-pattern error {worst:.2e} exceeds 1e-12")
    rows = {row.beam_axis: row for row in correlation_table(ExperimentConfig())}
    if not rows["x"].flipped:
        problems.append("x row should be flagged flipped")
    if rows["y"].note is None:
        problems.append("y row should carry the sign-convention caveat")
    _finish("criterion 4: neutron carries (-px, -py, pz)", started, 1.0, problems)


def test_criterion_5_enhancement_prediction_and_sampling():
    started = time.perf_counter()
    problems = []
    config = ExperimentConfig(
        beam_direction=Y_AXIS, epsilon=0.04, k_transfer=-0.1,
        events=100_000, seed=50_505, analyzer_axes=(Y_AXIS,),
    )
    prediction = predict(config)
    if np.max(np.abs(prediction.qt_bloch.as_array() - [0.0, -0.964, 0.0])) > 1e-10:
        problems.append(f"qt prediction {prediction.qt_bloch} != (0, -0.964, 0)")
    if np.max(np.abs(prediction.conventional_bloch.as_array() - [0.0, -0.1, 0.0])) > 1e-10:
        problems.append(f"conventional prediction {prediction.conventional_bloch} != (0, -0.1, 0)")
    if abs(prediction.enhancement - 9.64) > 1e-10:
        problems.append(f"enhancement {prediction.enhancement} != 9.64")
    estimates = simulate(config)
    estimate = estimates[0]
    four_sigma = 4.0 * np.sqrt((1.0 - 0.964**2) / estimate.n_events)
    if abs(estimate.p_hat - (-0.964)) > four_sigma:
        problems.append(
            f"sampled p_hat {estimate.p_hat:.4f} deviates from -0.964 by more than 4 sigma ({four_sigma:.4f})"
        )
    _finish("criterion 5: enhancement 9.64 and its Monte Carlo check", started, 10.0, problems)


def test_criterion_6_selection_statistics():
    started = time.perf_counter()
    problems = []
    config = ExperimentConfig(beam_direction=Y_AXIS, epsilon=0.0, events=100_000, seed=60_606)
    records = list(event_records(config))
    fraction = acceptance_fraction(records)
    four_sigma = 4.0 * np.sqrt(0.25 * 0.75 / config.events)
    if abs(fraction - 0.25) > four_sigma:
        problems.append(f"acceptance {fraction:.4f} deviates from 0.25 by more than {four_sigma:.4f}")
    _finish("criterion 6: singlet discrimination accepts one quarter", started, 10.0, problems)


def test_criterion_7_target_bookkeeping():
    started = time.perf_counter()
    problems = []
    moments = target_moments(TargetSpec(0.0, 1.0, 0.0))
    if moments != (0.0, -2.0):
        problems.append(f"pure m=0 target gives {moments}, expected (0, -2)")
    _finish("criterion 7: target moments (P_z, P_zz) = (0, -2)", started, 1.0, problems)


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    problems = []
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--seed", "7", "--events", "100000"]
    if cli.main(argv + ["--out", str(out_a)]) != 0 or cli.main(argv + ["--out", str(out_b)]) != 0:
        problems.append("simulate runs did not exit cleanly")
    elif out_a.read_bytes() != out_b.read_bytes():
        problems.append("repeated runs are not byte-identical")
    config = ExperimentConfig(events=20_000, seed=7)
    records_whole, estimates_whole = list(event_records(config)), simulate(config)
    records_split = list(event_records(config, chunk_size=977))
    estimates_split = simulate(config, chunk_size=977)
    if records_whole != records_split:
        problems.append("event records depend on the partition size")
    if any(
        (a.p_hat, a.sigma, a.n_events) != (b.p_hat, b.sigma, b.n_events)
        for a, b in zip(estimates_whole, estimates_split)
    ):
        problems.append("estimates depend on the partition size")
    _finish("criterion 8: bit-identical reruns, partition independent", started, 20.0, problems)


def test_criterion_9_projection_oracle_equivalence():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(909)
    projector = singlet_projector().entries
    worst = 0.0
    for _ in range(100):
        psi = random_ket(rng, 8)
        probability, conditional = project_bell(psi, BellLabel.PSI_MINUS)
        projected = projector @ psi.amplitudes
        oracle_probability = float(np.vdot(projected, projected).real)
        reduced = partial_trace(density_from(normalize(Ket(projected))), keep=[3])
        worst = max(
            worst,
            abs(probability - oracle_probability),
            float(np.max(np.abs(reduced.entries - density_from(conditional).entries))),
        )
    if worst > 1e-10:
        problems.append(f"worst projector-route disagreement {worst:.2e} exceeds 1e-10")
    _finish("criterion 9: project_bell matches projector-then-trace", started, 1.0, problems)

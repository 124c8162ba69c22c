"""Tests for the spin-1/2 linear algebra layer."""

import re

import numpy as np
import pytest
import scipy.linalg

from helpers import random_ket, random_unit_vector
from spinport.spinalg import (
    ATOL_COMPOSED,
    BlochVector,
    DensityMatrix,
    DimensionError,
    InvariantError,
    Ket,
    NormalizationError,
    Operator,
    SpinAlgebraError,
    ZeroStateError,
    bloch_from,
    density_from,
    ket_from_direction,
    normalize,
    partial_trace,
    pauli,
    rotation,
    tensor,
    unit_vector,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)
PSI_PLUS = np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0], dtype=complex)
NON_FINITE = (np.nan, np.inf, -np.inf)


def ptrace_oracle(rho: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Brute-force partial trace by explicit summation over basis indices."""
    traced = [p for p in range(1, n + 1) if p not in keep]
    d_keep = 2 ** len(keep)
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            bits_row = [(row >> (n - 1 - i)) & 1 for i in range(n)]
            bits_col = [(col >> (n - 1 - i)) & 1 for i in range(n)]
            if any(bits_row[p - 1] != bits_col[p - 1] for p in traced):
                continue
            kept_row = kept_col = 0
            for p in keep:
                kept_row = kept_row * 2 + bits_row[p - 1]
                kept_col = kept_col * 2 + bits_col[p - 1]
            out[kept_row, kept_col] += rho[row, col]
    return out


def rodrigues(axis: np.ndarray, angle: float, v: np.ndarray) -> np.ndarray:
    """Right-hand rotation of a 3-vector about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        v * np.cos(angle)
        + np.cross(axis, v) * np.sin(angle)
        + axis * (axis @ v) * (1.0 - np.cos(angle))
    )


class TestKet:
    def test_dim_and_particles(self):
        assert Ket([1, 0]).n_particles == 1
        assert Ket(PSI_PLUS).dim == 4
        assert Ket([1] + [0] * 7).n_particles == 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            Ket([1, 0, 0])
        with pytest.raises(DimensionError):
            Ket(np.zeros(16))
        with pytest.raises(DimensionError):
            Ket(np.eye(2))

    def test_amplitudes_are_frozen(self):
        k = Ket([1, 0])
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0

    def test_is_normalized(self):
        assert Ket([SQRT_HALF, SQRT_HALF]).is_normalized
        assert not Ket([1, 1]).is_normalized


class TestConstruction:
    @pytest.mark.parametrize("cls", [Operator, DensityMatrix])
    @pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2, 2), (16, 16)])
    def test_matrix_types_reject_bad_shapes(self, cls, shape):
        with pytest.raises(DimensionError, match=cls.__name__):
            cls(np.zeros(shape))

    @pytest.mark.parametrize(
        "cls, field, source",
        [
            (Ket, "amplitudes", np.array([SQRT_HALF, 1j * SQRT_HALF])),
            (Operator, "entries", np.array([[0, 1j], [1, 0]])),
            (DensityMatrix, "entries", np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
        ],
    )
    def test_holds_a_read_only_copy_of_a_writable_source(self, cls, field, source):
        original = source.copy()
        value = cls(source)
        stored = getattr(value, field)
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, source)
        source[...] = 0.0
        assert np.array_equal(stored, original)


class TestTensor:
    def test_basis_state_concatenation(self):
        out = tensor(Ket([1, 0]), Ket([0, 1]))
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_distributes_over_superposition(self):
        out = tensor(Ket([SQRT_HALF, SQRT_HALF]), Ket([1, 0]))
        assert np.allclose(out.amplitudes, [SQRT_HALF, 0, SQRT_HALF, 0], atol=1e-15)

    def test_pair_state_with_third_particle(self):
        # oracle: amplitude of composite index (i, j) is a_i * b_j
        expected = np.zeros(8, dtype=complex)
        third = np.array([1, 0], dtype=complex)
        for i in range(4):
            for j in range(2):
                expected[i * 2 + j] = PSI_PLUS[i] * third[j]
        out = tensor(Ket(PSI_PLUS), Ket(third))
        assert np.allclose(out.amplitudes, expected, atol=1e-15)
        assert np.allclose(out.amplitudes, [0, 0, SQRT_HALF, 0, SQRT_HALF, 0, 0, 0], atol=1e-15)

    def test_dimension_overflow(self):
        with pytest.raises(DimensionError):
            tensor(Ket(PSI_PLUS), Ket(PSI_PLUS))

    def test_dimension_overflow_with_a_three_particle_factor(self):
        three = Ket([1] + [0] * 7)
        for a, b in ((three, Ket([1, 0])), (Ket([1, 0]), three)):
            with pytest.raises(DimensionError):
                tensor(a, b)


class TestNormalize:
    def test_scaling(self):
        assert np.allclose(normalize(Ket([2, 0])).amplitudes, [1, 0])

    def test_direction_preserved(self):
        out = normalize(Ket([1, 1]))
        assert np.allclose(out.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_zero_state(self):
        with pytest.raises(ZeroStateError):
            normalize(Ket([0, 0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_a_non_finite_state(self, bad):
        with pytest.raises(SpinAlgebraError, match="not finite"):
            normalize(Ket([bad, 0]))


class TestDensityFrom:
    def test_projector_on_up(self):
        rho = density_from(Ket([1, 0]))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_plus_x(self):
        rho = density_from(Ket([SQRT_HALF, SQRT_HALF]))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_pair_state_central_block(self):
        # oracle: outer product |psi+><psi+| by explicit loops
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                expected[i, j] = PSI_PLUS[i] * np.conj(PSI_PLUS[j])
        rho = density_from(Ket(PSI_PLUS))
        assert np.allclose(rho.entries, expected, atol=1e-15)
        assert rho.entries[1, 1] == pytest.approx(0.5)
        assert rho.entries[2, 1] == pytest.approx(0.5)
        assert abs(rho.entries[0, 0]) == 0

    def test_requires_normalized(self):
        with pytest.raises(NormalizationError):
            density_from(Ket([1, 1]))


class TestPartialTrace:
    def test_product_state(self):
        rho = density_from(tensor(Ket([1, 0]), Ket([0, 1])))
        out = partial_trace(rho, keep=[1])
        assert np.allclose(out.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_entangled_pair(self):
        rho = density_from(Ket(PSI_PLUS))
        out = partial_trace(rho, keep=[2])
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-15)
        assert np.allclose(out.entries, ptrace_oracle(rho.entries, 2, [2]), atol=1e-15)

    def test_three_particle_neutron_marginal(self):
        psi = tensor(Ket([1, 0]), Ket(PSI_PLUS))
        rho = density_from(psi)
        out = partial_trace(rho, keep=[3])
        assert np.allclose(out.entries, ptrace_oracle(rho.entries, 3, [3]), atol=1e-14)
        assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_invalid_keep_sets(self):
        rho = density_from(Ket(PSI_PLUS))
        for bad in ([], [1, 2], [0], [3]):
            with pytest.raises(DimensionError):
                partial_trace(rho, keep=bad)

    @pytest.mark.parametrize(
        "keep, shown",
        (([1.7], "[1.7]"), ([True], "[True]"), ("12", "['1', '2']"), (iter([0]), "[0]"), ([np.nan], "[nan]")),
        ids=("fraction", "bool", "string", "iterator", "nan"),
    )
    def test_refuses_non_integral_labels_and_names_them_as_given(self, keep, shown):
        rho = density_from(tensor(Ket([1, 0]), Ket(PSI_PLUS)))
        with pytest.raises(DimensionError, match=re.escape(f"keep={shown} ")):
            partial_trace(rho, keep=keep)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(20260810)
        subsets = ([1], [2], [3], [1, 2], [1, 3], [2, 3])
        for i in range(500):
            rho = density_from(random_ket(rng, 8))
            # DensityMatrix construction re-validates trace, hermiticity
            # and positivity, so surviving construction is the check.
            reduced = partial_trace(rho, keep=subsets[i % len(subsets)])
            assert abs(np.trace(reduced.entries).real - 1.0) < 1e-12


class TestPauli:
    def test_z_eigenstate_convention(self):
        assert np.allclose(pauli("z").entries @ Ket([1, 0]).amplitudes, [1, 0])

    def test_x_flips_basis_state(self):
        assert np.allclose(pauli("x").entries @ Ket([1, 0]).amplitudes, [0, 1])

    def test_sigma_z_diagonal_action(self):
        a, b = 0.6, 0.8
        out = pauli("z").entries @ Ket([a, b]).amplitudes
        assert np.allclose(out, [a, -b], atol=1e-15)

    def test_sigma_y_on_up(self):
        out = pauli("y").entries @ Ket([1, 0]).amplitudes
        assert np.allclose(out, [0, 1j], atol=1e-15)

    def test_orthogonality_under_trace(self):
        assert np.trace(pauli("x").entries @ pauli("y").entries) == pytest.approx(0.0)

    def test_unknown_axis(self):
        with pytest.raises(SpinAlgebraError):
            pauli("w")


class TestUnitVector:
    def test_returns_a_read_only_copy(self):
        source = np.array([0.6, 0.0, 0.8])
        v = unit_vector(source, "axis")
        assert np.array_equal(v, source)
        source[0] = 0.0
        assert v[0] == 0.6
        with pytest.raises(ValueError):
            v[0] = 1.0

    def test_wrong_shape(self):
        with pytest.raises(DimensionError, match="axis must be a 3-vector"):
            unit_vector((1.0, 0.0), "axis")

    @pytest.mark.parametrize(
        "bad",
        [5, None, 1j, [1j, 0, 0], np.array([1j, 0.0, 0.0]), "100", ("1", "0", "0"), (True, False, False),
         (None, 0.0, 0.0), ((1.0, 0.0), 0.0, 0.0), (True, 0.0, 0.0), (np.True_, 0.0, 0.0)],
        ids=["int", "None", "complex", "complex-component", "complex-array", "text", "text-components", "bools",
             "None-component", "ragged", "bool-among-floats", "numpy-bool-among-floats"],
    )
    def test_what_is_not_a_vector_of_real_numbers_is_refused_by_name(self, bad):
        with pytest.raises(SpinAlgebraError, match="^axis must be a 3-vector of real numbers, got "):
            unit_vector(bad, "axis")

    def test_integer_and_float32_components_become_float64(self):
        for source in ((0, 0, 1), np.array([0, 0, 1]), np.array([0.0, 0.0, 1.0], dtype=np.float32)):
            v = unit_vector(source, "axis")
            assert v.dtype == np.float64 and v.tolist() == [0.0, 0.0, 1.0] and not v.flags.writeable

    def test_non_unit(self):
        with pytest.raises(SpinAlgebraError, match="axis must be unit length"):
            unit_vector((1.0, 1.0, 0.0), "axis")

    def test_an_integer_beyond_int64_is_measured_as_too_long(self):
        with pytest.raises(SpinAlgebraError, match=r"^axis must be unit length, \|axis\| = 1.18"):
            unit_vector((2**70, 0, 0), "axis")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_components(self, bad):
        with pytest.raises(SpinAlgebraError, match="axis must be unit length"):
            unit_vector((bad, 0.0, 0.0), "axis")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rotation_and_ket_from_direction_reject_non_finite(self, bad):
        with pytest.raises(SpinAlgebraError, match="rotation axis"):
            rotation((bad, 0.0, 0.0), 1.0)
        with pytest.raises(SpinAlgebraError, match="direction"):
            ket_from_direction((0.0, bad, 0.0))


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation((0, 1, 0), 0.0).entries, np.eye(2))

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            axis = random_unit_vector(rng)
            angle = rng.uniform(-2 * np.pi, 2 * np.pi)
            n_sigma = sum(axis[i] * pauli(c).entries for i, c in enumerate("xyz"))
            oracle = scipy.linalg.expm(-1j * angle * n_sigma / 2.0)
            assert np.allclose(rotation(axis, angle).entries, oracle, atol=1e-12)

    def test_pi_rotation_about_y_matches_matrix_exponential(self):
        oracle = scipy.linalg.expm(-1j * np.pi * pauli("y").entries / 2.0)
        out = rotation((0, 1, 0), np.pi).entries @ Ket([1, 0]).amplitudes
        assert np.allclose(out, oracle @ [1, 0], atol=1e-12)
        # |0> goes to |1> up to global phase
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_pi_about_z_flips_x_polarization(self):
        rho = density_from(Ket([SQRT_HALF, SQRT_HALF]))
        u = rotation((0, 0, 1), np.pi).entries
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        minus_x = density_from(Ket([SQRT_HALF, -SQRT_HALF]))
        assert np.allclose(rotated.entries, minus_x.entries, atol=1e-12)

    def test_unitary_for_random_axes(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            op = rotation(random_unit_vector(rng), rng.uniform(-10, 10))
            assert op.is_unitary

    def test_full_turn_is_minus_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            op = rotation(random_unit_vector(rng), 2 * np.pi)
            assert np.allclose(op.entries, -np.eye(2), atol=1e-12)

    def test_conjugation_rotates_bloch_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            axis = random_unit_vector(rng)
            angle = rng.uniform(-2 * np.pi, 2 * np.pi)
            k = random_ket(rng, 2)
            rho = density_from(k)
            u = rotation(axis, angle).entries
            rotated = bloch_from(DensityMatrix(u @ rho.entries @ u.conj().T))
            expected = rodrigues(axis, angle, bloch_from(rho).as_array())
            assert np.allclose(rotated.as_array(), expected, atol=1e-10)

    def test_non_unit_axis(self):
        with pytest.raises(SpinAlgebraError):
            rotation((0, 2, 0), np.pi)

    @pytest.mark.parametrize("bad", [*NON_FINITE, "1.5", True])
    def test_rejects_a_non_finite_angle(self, bad):
        with pytest.raises(SpinAlgebraError, match="angle"):
            rotation((0, 0, 1), bad)


class TestBlochFrom:
    def test_up_state(self):
        assert bloch_from(density_from(Ket([1, 0]))).as_array() == pytest.approx([0, 0, 1])

    def test_unpolarized(self):
        assert bloch_from(DensityMatrix(np.eye(2) / 2)).as_array() == pytest.approx([0, 0, 0])

    def test_sign_flipped_superposition_points_minus_x(self):
        rho = density_from(Ket([SQRT_HALF, -SQRT_HALF]))
        # oracle: tr(rho sigma_i) evaluated by hand gives (-1, 0, 0)
        assert np.allclose(bloch_from(rho).as_array(), [-1, 0, 0], atol=1e-12)

    def test_rejects_multi_particle(self):
        with pytest.raises(DimensionError):
            bloch_from(density_from(Ket(PSI_PLUS)))

    def test_rejects_an_imaginary_component_at_the_tolerance(self):
        # Hermitian within 1e-12, yet tr(rho sigma_z) has an imaginary part of 1e-12
        rho = DensityMatrix(np.diag([0.5 + 5e-13j, 0.5 - 5e-13j]))
        with pytest.raises(InvariantError, match="along z has imaginary part"):
            bloch_from(rho)


class TestKetFromDirection:
    def test_poles_and_equator(self):
        assert np.allclose(ket_from_direction((0, 0, 1)).amplitudes, [1, 0], atol=1e-15)
        assert np.allclose(ket_from_direction((1, 0, 0)).amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)
        assert np.allclose(ket_from_direction((0, 1, 0)).amplitudes, [SQRT_HALF, 1j * SQRT_HALF], atol=1e-15)

    def test_non_unit_direction(self):
        with pytest.raises(SpinAlgebraError):
            ket_from_direction((1, 1, 0))

    def test_round_trip_through_bloch(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = random_unit_vector(rng)
            p = bloch_from(density_from(ket_from_direction(n)))
            assert np.allclose(p.as_array(), n, atol=1e-10)

    @pytest.mark.parametrize("pole", (1.0, -1.0))
    @pytest.mark.parametrize("transverse", [10.0**-k for k in range(13)])
    def test_round_trip_near_the_poles(self, pole, transverse):
        # the polar angle from arccos(z) kept only ~1e-8 of a 1e-8 transverse part: (1e-8, 0, 1) became |0>
        for phi in np.linspace(0.0, 2.0 * np.pi, 7):
            n = np.array([transverse * np.cos(phi), transverse * np.sin(phi), pole * np.sqrt(1.0 - transverse**2)])
            p = bloch_from(density_from(ket_from_direction(n)))
            assert np.abs(p.as_array() - n).max() <= ATOL_COMPOSED


class TestStateInvariants:
    def test_pure_states_have_unit_trace_and_unit_polarization(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = random_ket(rng, 2)
            rho = density_from(k)
            assert abs(np.trace(rho.entries).real - 1.0) < 1e-10
            assert abs(bloch_from(rho).norm() - 1.0) < 1e-10

    def test_density_matrix_validation(self):
        with pytest.raises(InvariantError):
            DensityMatrix([[1, 0], [0, 1]])  # trace 2
        with pytest.raises(InvariantError):
            DensityMatrix([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
        DensityMatrix([[0.5, 1e-12], [0.0, 0.5]])  # off-diagonal deviation at the tolerance
        with pytest.raises(InvariantError, match="not Hermitian"):
            DensityMatrix([[0.5, 2e-12], [0.0, 0.5]])
        with pytest.raises(InvariantError):
            DensityMatrix([[1.5, 0], [0, -0.5]])  # negative eigenvalue

    @pytest.mark.parametrize("bad", [*NON_FINITE, complex(0.0, np.inf)])
    def test_density_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvariantError, match="not finite"):
            DensityMatrix([[0.5, bad], [np.conj(bad), 0.5]])
        with pytest.raises(InvariantError, match="not finite"):
            DensityMatrix([[bad, 0.0], [0.0, 0.5]])

    def test_bloch_vector_ball(self):
        with pytest.raises(InvariantError):
            BlochVector(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_bloch_vector_rejects_non_finite(self, bad):
        with pytest.raises(InvariantError):
            BlochVector(bad, 0.0, 0.0)

    def test_bloch_vector_names_a_nan_as_not_finite(self):
        with pytest.raises(InvariantError, match="is not finite"):
            BlochVector(0.0, np.nan, 0.0)

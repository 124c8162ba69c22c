"""Dense complex linear algebra for systems of up to three spin-1/2 particles.

Conventions used throughout the package:

* ``|0>`` is the +1/2 spin projection along the z quantization axis,
  ``|1>`` the -1/2 projection.
* Particle 1 is the most significant tensor factor, so the basis index of
  ``|s1 s2 s3>`` is ``s1*4 + s2*2 + s3``.
* Pauli matrices take their standard form in this basis.
* Global phases are never normalized away silently; phase-insensitive
  comparisons belong to the caller (e.g. ``teleport.fidelity``).

Tolerances: ``ATOL_ALGEBRA`` (1e-12) for one-step identities (norm,
Hermiticity, trace, unitarity, imaginary parts) and ``ATOL_COMPOSED``
(1e-10) for multi-step ones (unit vectors, the Bloch ball, the eigenvalue
floor); non-finite values fail both. Maximum dimension is 8, so dense
storage and near-machine precision are both comfortable.

Every value is immutable after construction and every operation is a pure
function; everything here can be shared freely across threads.

Layering: public functions check value objects at the boundary and call the
``_``-functions, which work on raw ``ndarray`` amplitudes (one code path each).
``Ket(...)`` is the constructor for caller data: it copies, checks the shape
and dimension, and freezes. ``_ket`` wraps, with no copy and no check, an
array that the core has just computed or one that is already read-only and
checked, such as a ``teleport.BeamState``'s amplitudes; ``normalize`` and
``ket_from_direction`` use it. ``_ket`` stores the array into the new ``Ket``'s
``__dict__``, as the hand-written ``__init__``s below do, not by
``object.__setattr__``: about 0.1 us less on each of the ~11 wraps of a protocol
beam, though the dict it creates makes each later read of ``amplitudes`` some
30 ns slower (CPython 3.11). ``tensor`` keeps ``Ket(...)``: ``perfbench``'s
self-test traces a ``Ket`` construction under ``tensor``, and ``_tensor``
returns the raveled view of ``np.multiply.outer``, which the copy turns into an
array that owns its data.

Products in the array core (``bellkit._project``, ``teleport._result``) are
``ndarray.dot``, not ``@``: on these 2- to 8-element operands ``.dot`` took
about 0.5 us against about 1.0 us for ``@`` (numpy 2.4.6), with the same bits
over 20 000 random inputs each. The bit-for-bit tests against the oracle path,
which forms its products with ``@`` and ``np.kron``, guard that on every numpy
the tests run on. ``bellkit._project_12``'s stacked product, ``np.vdot`` and
``_norm`` stay as they are: a vectorised row norm differs from ``_norm``'s
``dot`` in the last bit for about one row in seven.

``BlochVector``, ``bellkit.BellBranch``, ``bellkit.BellDecomposition``,
``teleport.TeleportResult`` and ``reaction.ModelPrediction``, built per protocol
run, and ``reaction.EventRecord``, built per event, store their fields in
``__dict__`` by a hand-written ``__init__``, not one ``object.__setattr__`` per
field as a generated frozen one does, and call ``__post_init__`` where the class
has one: each check still runs once per construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Ket", "Operator", "DensityMatrix", "BlochVector",
    "SpinAlgebraError", "DimensionError", "ZeroStateError", "NormalizationError", "InvariantError",
    "tensor", "normalize", "density_from", "partial_trace",
    "pauli", "rotation", "bloch_from", "ket_from_direction",
]

ATOL_ALGEBRA = 1e-12
ATOL_COMPOSED = 1e-10

#: Norms at or below this are treated as numerically zero vectors.
ZERO_NORM = 1e-14

_VALID_DIMS = (2, 4, 8)


class SpinAlgebraError(ValueError):
    """Base class for contract violations raised by this package."""


class DimensionError(SpinAlgebraError):
    """Dimension mismatch, or a Hilbert space larger than three particles."""


class ZeroStateError(SpinAlgebraError):
    """A numerically zero vector was asked to act as a state."""


class NormalizationError(SpinAlgebraError):
    """An input that must be normalized is not."""


class InvariantError(SpinAlgebraError):
    """A computed quantity broke a numerical invariant (e.g. Bloch norm > 1)."""


def _store_frozen(instance, field: str, ndim: int) -> np.ndarray:
    """Replace ``instance.<field>`` by a read-only complex copy: a vector or square matrix of dim 2, 4 or 8."""
    array = np.array(getattr(instance, field), dtype=complex)
    shape = array.shape
    if len(shape) != ndim or shape[0] != shape[-1]:
        expected = "a 1-d vector" if ndim == 1 else "square"
        raise DimensionError(f"{type(instance).__name__} {field} must be {expected}, got shape {shape}")
    if shape[0] not in _VALID_DIMS:
        raise DimensionError(f"{type(instance).__name__}: dimension must be one of {_VALID_DIMS}, got {shape[0]}")
    array.setflags(write=False)
    object.__setattr__(instance, field, array)
    return array


@dataclass(frozen=True, eq=False)
class Ket:
    """State vector of one to three spin-1/2 particles."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _store_frozen(self, "amplitudes", ndim=1)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def n_particles(self) -> int:
        return self.dim.bit_length() - 1

    def norm(self) -> float:
        return _norm(self.amplitudes)

    @property
    def is_normalized(self) -> bool:
        return _is_normalized(self.amplitudes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ket({np.array2string(self.amplitudes, precision=6, suppress_small=True)})"


def _ket(amplitudes: np.ndarray) -> Ket:
    """``Ket(amplitudes)`` without the copy and the checks, for a complex 1-d array of dim 2, 4 or 8 that the
    array core has just computed and that nothing else holds, or that is already read-only and shared only
    read-only (a ``teleport.BeamState``'s amplitudes); the array is frozen in place and stored into ``__dict__``."""
    amplitudes.setflags(write=False)
    ket = object.__new__(Ket)
    ket.__dict__["amplitudes"] = amplitudes
    return ket


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix acting on one to three spin-1/2 particles."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        _store_frozen(self, "entries", ndim=2)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_unitary(self) -> bool:
        eye = np.eye(self.dim)
        return bool(np.allclose(self.entries.conj().T @ self.entries, eye, atol=ATOL_ALGEBRA, rtol=0.0))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite spin density matrix.

    Validated on construction: entries finite, Hermitian and unit trace
    within ``ATOL_ALGEBRA``, eigenvalues above ``-ATOL_COMPOSED``.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _store_frozen(self, "entries", ndim=2)
        if not np.isfinite(mat).all():
            raise InvariantError("density matrix entries are not finite")
        if not np.abs(mat - mat.conj().T).max() <= ATOL_ALGEBRA:
            raise InvariantError("density matrix is not Hermitian within 1e-12")
        trace = np.trace(mat)
        if abs(trace.real - 1.0) > ATOL_ALGEBRA or abs(trace.imag) > ATOL_ALGEBRA:
            raise InvariantError(f"density matrix trace {trace} is not 1 within 1e-12")
        if float(np.linalg.eigvalsh(mat).min()) < -ATOL_COMPOSED:
            raise InvariantError("density matrix has an eigenvalue below -1e-10")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_particles(self) -> int:
        return self.dim.bit_length() - 1


@dataclass(frozen=True, init=False)
class BlochVector:
    """Polarization vector (<sigma_x>, <sigma_y>, <sigma_z>) of one spin-1/2."""

    px: float
    py: float
    pz: float

    def __init__(self, px: float, py: float, pz: float) -> None:
        fields = self.__dict__
        fields["px"], fields["py"], fields["pz"] = float(px), float(py), float(pz)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.px, self.py, self.pz))):
            raise InvariantError(f"Bloch vector ({self.px}, {self.py}, {self.pz}) is not finite")
        if not self.px**2 + self.py**2 + self.pz**2 <= 1.0 + ATOL_COMPOSED:
            raise InvariantError(f"Bloch vector ({self.px}, {self.py}, {self.pz}) has norm > 1")

    def norm(self) -> float:
        return float(np.sqrt(self.px**2 + self.py**2 + self.pz**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])


_PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def unit_vector(value: Iterable[float], what: str) -> np.ndarray:
    """``value`` as a read-only unit 3-vector of real components; ``what`` names it in errors.

    The norm test is written so that NaN and infinite components fail it.
    """
    try:
        components = tuple(value)
    except TypeError:  # not iterable
        components = None
    # Each component is checked, so a bool among floats, text, complex, None or a nested sequence is refused.
    # A float (numpy's float64 too) skips the numbers.Real check, which costs ten times as much.
    if components is None or not all(
        isinstance(c, float) or isinstance(c, numbers.Real) and not isinstance(c, bool) for c in components
    ):
        raise SpinAlgebraError(f"{what} must be a 3-vector of real numbers, got {value!r}")
    v = np.array(components, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{what} must be a 3-vector, got shape {v.shape}")
    norm = _norm(v)
    if not abs(norm - 1.0) <= ATOL_COMPOSED:
        raise SpinAlgebraError(f"{what} must be unit length, |{what}| = {norm}")
    v.setflags(write=False)
    return v


def _integer(value, key: str) -> int:
    """An int, or an integral float, as an int; ``key`` names it in errors. No int goes through ``float``."""
    integral_float = isinstance(value, (float, np.floating)) and float(value).is_integer()
    if integral_float or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{key} {repr(value) if isinstance(value, str) else value} is not an integer")


def _real(value, key: str, error: type[ValueError] = ValueError) -> float:
    """A real number that is not a bool, as a float; ``key`` names it in an ``error``. A float (numpy's float64
    too) skips the ``numbers.Real`` check, as in ``unit_vector``."""
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{key} {repr(value) if isinstance(value, str) else value} is not a real number")


def pauli(axis: str) -> Operator:
    """Return the 2x2 Pauli matrix for ``axis`` in {"x", "y", "z", "identity"}."""
    try:
        return Operator(_PAULI[axis])
    except KeyError:
        raise SpinAlgebraError(f"unknown Pauli axis {axis!r}; expected x, y, z or identity") from None


def _is_normalized(amplitudes: np.ndarray) -> bool:
    """Squared norm within ``ATOL_ALGEBRA`` of 1; NaN and infinite amplitudes fail."""
    return abs(float(np.vdot(amplitudes, amplitudes).real) - 1.0) <= ATOL_ALGEBRA


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a 1-d array as a float, bit for bit ``numpy.linalg.norm``'s formula, without its dispatch."""
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Amplitudes of the tensor product, ``a`` the more significant factor: ``np.kron``'s products, bit for bit."""
    return np.multiply.outer(a, b).ravel()


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product with ``a`` as the more significant factor."""
    if a.dim * b.dim > 8:
        raise DimensionError(f"tensor product dimension {a.dim * b.dim} exceeds 8 (three particles)")
    return Ket(_tensor(a.amplitudes, b.amplitudes))


def normalize(k: Ket) -> Ket:
    """Rescale ``k`` to unit norm, preserving its direction and phase."""
    n = k.norm()
    if not math.isfinite(n):
        raise SpinAlgebraError(f"cannot normalize a state that is not finite, norm is {n}")
    if n <= ZERO_NORM:
        raise ZeroStateError("cannot normalize a numerically zero state (orthogonal projection outcome)")
    return _ket(k.amplitudes / n)


def density_from(k: Ket) -> DensityMatrix:
    """Rank-1 density matrix ``|k><k|`` of a normalized ket."""
    if not k.is_normalized:
        raise NormalizationError(f"density_from requires a normalized ket, squared norm is {k.norm()**2}")
    return DensityMatrix(np.outer(k.amplitudes, k.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the particles in ``keep``.

    Particles are labelled 1..n with particle 1 the most significant tensor
    factor; ``keep`` must be a nonempty proper subset of those labels, each an
    int or an integral float, not a bool. The kept particles retain their relative order.
    """
    n = rho.n_particles
    labels = list(keep)  # read an iterator once, so the error can name what it held
    try:
        kept = sorted({_integer(i, "particle label") for i in labels})
    except ValueError:  # a bool, fraction, NaN or string label: refused below
        kept = []
    if not kept or len(kept) >= n or any(i < 1 or i > n for i in kept):
        raise DimensionError(
            f"keep={labels!r} must be a nonempty proper subset of integer particle labels 1..{n}"
        )
    tensor_form = rho.entries.reshape([2] * (2 * n))
    row = "abc"[:n]
    col = "def"[:n]
    kept_axes = [i - 1 for i in kept]
    in_col = "".join(col[i] if i in kept_axes else row[i] for i in range(n))
    out = "".join(row[i] for i in kept_axes) + "".join(col[i] for i in kept_axes)
    reduced = np.einsum(f"{row}{in_col}->{out}", tensor_form)
    d = 2 ** len(kept)
    return DensityMatrix(reduced.reshape(d, d))


def rotation(axis: Iterable[float], angle: float) -> Operator:
    """Spin rotation exp(-i*angle*(axis.sigma)/2) about a unit 3-vector axis."""
    n = unit_vector(axis, "rotation axis")
    half = 0.5 * _real(angle, "rotation angle", SpinAlgebraError)
    if not math.isfinite(half):
        raise SpinAlgebraError(f"rotation angle must be finite, angle = {angle}")
    n_sigma = n[0] * _PAULI["x"] + n[1] * _PAULI["y"] + n[2] * _PAULI["z"]
    return Operator(np.cos(half) * np.eye(2) - 1j * np.sin(half) * n_sigma)


def bloch_from(rho: DensityMatrix) -> BlochVector:
    """Bloch vector (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z)) of one particle."""
    if rho.dim != 2:
        raise DimensionError(f"bloch_from needs a single-particle density matrix, got dim {rho.dim}")
    components = []
    for axis in ("x", "y", "z"):
        value = complex(np.trace(rho.entries @ _PAULI[axis]))
        if abs(value.imag) >= ATOL_ALGEBRA:
            raise InvariantError(f"polarization component along {axis} has imaginary part {value.imag}")
        components.append(value.real)
    return BlochVector(*components)


def ket_from_direction(n: Iterable[float]) -> Ket:
    """Spin-1/2 ket whose Bloch vector is the unit direction ``n``.

    Amplitudes are (cos(theta/2), e^{i phi} sin(theta/2)) with (theta, phi)
    the spherical angles of ``n``.
    """
    v = unit_vector(n, "direction")
    theta = float(np.arctan2(np.hypot(v[0], v[1]), v[2]))  # arccos(z) would lose the transverse part near ±z
    phi = float(np.arctan2(v[1], v[0]))
    return _ket(np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex))

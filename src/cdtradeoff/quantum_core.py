"""Finite-dimensional quantum states, effects, POVMs and measurement
instruments, plus the one probability rule for a probe followed by a target
measurement.

All operators are dense complex numpy arrays.  The checks and the
probability rules are array kernels over leading batch axes: a stack of
states has shape ``(n, d, d)``, a stack of POVMs ``(n, k, d, d)``, and a
scan validates and evaluates a slice of its points in one call.  A failed
check raises a typed error naming the index of the first bad matrix,
counted from ``index_base`` when a caller checks a grid a slice at a time.
The wrapper types (``DensityMatrix``, ``Povm``) are the unbatched case of
the same kernels: they validate once, at construction, and are immutable
afterwards (matrices are stored as read-only copies).

``Instrument`` holds the Kraus operators of a probe: the square-root
(minimal back-action) update, a measure-and-prepare update, or any
hand-built Kraus list, such as a non-Hermitian heralding operator.  Every
joint outcome table comes from ``scenario_tables``; the post-measurement
states and the dual channel act through the same Kraus stack.
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMeasurementError,
    InvalidStateError,
    NotFiniteError,
    NotHermitianError,
    NotPsdError,
)

# Shared absolute tolerance for Hermiticity, positivity, trace, POVM
# completeness, and probability normalization.  Double precision with
# dimensions <= 8 keeps eigendecomposition error orders of magnitude below.
ATOL = 1e-9

# Eigenvalues below this floor are treated as exact zeros when taking
# operator square roots.  Without the floor, a projector's zero eigenvalue
# computed as ~1e-16 would contribute sqrt(1e-16) = 1e-8 of noise to the
# Kraus operators, which the 1e-9 contracts elsewhere cannot absorb.
SQRT_FLOOR = 1e-12


def first_bad(bad) -> tuple | None:
    """Index of the first true entry of a batch mask, or None if all are
    false.  An unbatched (0-d) mask gives the empty index."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        return () if bad else None
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


_INDEX_BASE = contextvars.ContextVar("index_base", default=0)


@contextlib.contextmanager
def index_base(first: int):
    """Inside the block, error messages name entry ``i`` of a stack's first
    axis as ``first + i``: its index in a grid checked a slice at a time."""
    token = _INDEX_BASE.set(first)
    try:
        yield
    finally:
        _INDEX_BASE.reset(token)


def at_index(index: tuple) -> str:
    """Location suffix for error messages: '' for an unbatched value,
    ' at index i' (or a tuple of indices) inside a stack, its first index
    counted from ``index_base``."""
    if not index:
        return ""
    index = (_INDEX_BASE.get() + index[0], *index[1:])
    return f" at index {index[0] if len(index) == 1 else index}"


def _as_array(values, dtype, what: str) -> np.ndarray:
    """``np.asarray(values, dtype)``; input that is no array of that type
    (non-numeric entries or mixed dimensions) raises DimensionMismatchError."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what} is not a numeric array (non-numeric entries "
                                     f"or mixed dimensions): {exc}") from None


def _as_stack(matrices, what: str = "matrix") -> np.ndarray:
    m = _as_array(matrices, complex, what)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatchError(f"{what} must be square and nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        index = first_bad(~np.isfinite(m).all(axis=(-2, -1)))
        raise NotFiniteError(f"{what}{at_index(index)} has a non-finite entry")
    return m


def _as_square(matrix, what: str = "matrix") -> np.ndarray:
    m = _as_stack(matrix, what)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{what} must be square, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _require_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    index = first_bad(np.abs(m - dagger(m)).max(axis=(-2, -1)) > ATOL)
    if index is not None:
        raise NotHermitianError(f"{what}{at_index(index)} is not Hermitian within {ATOL}")


def _require_spectrum(m: np.ndarray, what: str, at_most_one: bool = False) -> None:
    """Eigenvalues >= -ATOL, and <= 1 + ATOL if ``at_most_one``."""
    w = np.linalg.eigvalsh(m)
    low, high = w[..., 0], w[..., -1]
    index = first_bad(low < -ATOL)
    if index is not None:
        raise NotPsdError(
            f"{what}{at_index(index)} eigenvalue {low[index]:.3e} below -{ATOL:g}"
        )
    index = first_bad(high > 1.0 + ATOL) if at_most_one else None
    if index is not None:
        raise InvalidMeasurementError(
            f"{what}{at_index(index)} eigenvalue {float(high[index])!r} exceeds 1 beyond {ATOL:g}"
        )


def check_states(matrices) -> np.ndarray:
    """Validated stack (..., d, d) of density matrices: finite, Hermitian,
    positive semidefinite and of unit trace.  Returns the complex array."""
    m = _as_stack(matrices, "density matrix")
    _require_hermitian(m, "density matrix")
    _require_spectrum(m, "density matrix")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    index = first_bad(np.abs(tr - 1.0) > ATOL)
    if index is not None:
        raise InvalidStateError(
            f"trace{at_index(index)} {float(tr[index])!r} differs from 1 beyond {ATOL:g}"
        )
    return m


def check_effects(matrices) -> np.ndarray:
    """Validated stack (..., d, d) of effects: finite, Hermitian, spectrum
    inside [0, 1].  Returns the complex array."""
    m = _as_stack(matrices, "effect")
    _require_hermitian(m, "effect")
    _require_spectrum(m, "effect", at_most_one=True)
    return m


def check_povms(effects) -> np.ndarray:
    """Validated stack (..., k, d, d) of k-outcome POVMs: every effect
    passes ``check_effects`` and each POVM sums to the identity."""
    m = check_effects(effects)
    if m.ndim < 3 or m.shape[-3] < 2:
        raise InvalidMeasurementError("a POVM needs at least two effects")
    index = first_bad(np.abs(m.sum(axis=-3) - np.eye(m.shape[-1])).max(axis=(-2, -1)) > ATOL)
    if index is not None:
        raise InvalidMeasurementError(
            f"effects{at_index(index)} do not sum to the identity within {ATOL:g}"
        )
    return m


def _frozen(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    out.flags.writeable = False
    return out


def psd_sqrt(matrix) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, or of each
    matrix in a stack (..., d, d).

    Computed by eigendecomposition: eigenvalues in [-ATOL, SQRT_FLOOR) are
    clamped to zero before the square root, anything below -ATOL raises
    NotPsdError.  The result r is Hermitian PSD with r @ r equal to the
    input within ATOL.
    """
    m = _as_stack(matrix)
    _require_hermitian(m)
    w, v = np.linalg.eigh(m)
    index = first_bad(w[..., 0] < -ATOL)
    if index is not None:
        raise NotPsdError(f"eigenvalue{at_index(index)} {w[index][0]:.3e} below -{ATOL:g}")
    w = np.where(w < SQRT_FLOOR, 0.0, w)
    r = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    return (r + dagger(r)) / 2


def unit_kets(kets) -> np.ndarray:
    """Kets (..., d) over their norms, each first scaled by the exact power of
    two of its largest real or imaginary part, so that no finite nonzero ket
    overflows or vanishes and one whose squares are normal doubles keeps the
    bits of ``k / np.linalg.norm(k, axis=-1)``.  A non-finite ket raises
    NotFiniteError and a zero ket InvalidStateError, naming its index."""
    k = np.ascontiguousarray(_as_array(kets, complex, "ket"))
    index = first_bad(~np.isfinite(k).all(axis=-1))
    if index is not None:
        raise NotFiniteError(f"ket{at_index(index)} has a non-finite entry")
    parts = k.view(float)  # (..., 2d): real and imaginary parts interleaved
    _, exponent = np.frexp(np.abs(parts).max(axis=-1, keepdims=True, initial=0.0))
    scaled = np.ldexp(parts, -exponent).view(complex)
    # the sum of np.linalg.norm's vector path
    norm = np.sqrt(np.add.reduce((scaled.conj() * scaled).real, axis=-1, keepdims=True))
    index = first_bad(norm[..., 0] == 0)
    if index is not None:
        raise InvalidStateError(f"zero ket{at_index(index)}")
    return scaled / norm


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = _frozen(check_states(_as_square(matrix, "density matrix")))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_ket(cls, ket) -> "DensityMatrix":
        """Pure state |k><k| of a ket, normalized by ``unit_kets``."""
        k = unit_kets(np.ravel(ket))
        return cls(np.outer(k, k.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


class Povm:
    """Ordered collection of effects summing to the identity: a sequence of
    (d, d) matrices or a (k, d, d) stack, checked by one ``check_povms``
    call and held as ``matrices``, its read-only (k, d, d) stack.

    ``outcome_labels`` are the real values attached to the outcomes (the
    eigenvalue bookkeeping for the observable ``sum(label * effect)``).
    Two-outcome POVMs default to labels (+1, -1) in effect order.
    """

    __slots__ = ("labels", "matrices")

    def __init__(self, effects, outcome_labels=None):
        effects = _as_array(effects, complex, "effects")
        if effects.ndim and not len(effects):  # an empty list is no stack of matrices
            raise InvalidMeasurementError("a POVM needs at least two effects")
        matrices = check_povms(effects)
        if matrices.ndim != 3:
            raise DimensionMismatchError(f"effects must be square, got shape {matrices.shape}")
        if outcome_labels is None:
            if len(matrices) != 2:
                raise InvalidMeasurementError("outcome labels are required beyond two outcomes")
            outcome_labels = (1.0, -1.0)
        self.labels = tuple(float(x) for x in outcome_labels)
        if len(self.labels) != len(matrices):
            raise InvalidMeasurementError("one label per effect is required")
        self.matrices = _frozen(matrices)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.matrices)

    def observable(self) -> np.ndarray:
        """Hermitian observable sum_a label_a * E_a."""
        return sum(l * e for l, e in zip(self.labels, self.matrices))


class Instrument:
    """Measurement instrument: Kraus operators K_am, m = 1 .. ``per_outcome``
    for each outcome a, with the state update rho -> sum_m K_am rho K_am^dagger.

    ``matrices`` is the read-only (k * m, d, d) stack of the Kraus operators
    in outcome-major order; ``povm`` holds the effects sum_m K_am^dagger K_am
    with the outcome labels.  There are three constructors:

    * ``Instrument.lueders(povm)`` (also ``LuedersInstrument(povm)``): the
      square-root, minimal back-action update K_a = E_a^(1/2);
    * ``Instrument.measure_and_prepare(povm, states)``: outcome a
      re-prepares the state sigma_a, with the d^2 operators
      K_a,ij = sigma_a^(1/2) |j><i| E_a^(1/2);
    * ``Instrument(kraus, outcome_labels)``: hand-built Kraus operators,
      one (d, d) matrix per outcome or a (k, m, d, d) stack; their effects
      are validated as a ``Povm`` is, and must sum to the identity.

    ``square_root``, set by the constructor, is true for the first only:
    C^2 + D^2 <= 1 is a theorem for it alone, with two outcomes on each arm.
    """

    __slots__ = ("povm", "matrices", "per_outcome", "square_root")

    def __init__(self, kraus, outcome_labels=None):
        ops = _as_stack(kraus, "Kraus operator")
        if ops.ndim == 3:
            ops = ops[:, None]
        if ops.ndim != 4:
            raise DimensionMismatchError(
                f"Kraus operators must stack as (k, d, d) or (k, m, d, d), got {ops.shape}"
            )
        self._hold(ops, Povm((dagger(ops) @ ops).sum(axis=1), outcome_labels), False)

    def _hold(self, ops: np.ndarray, povm: Povm, square_root: bool) -> None:
        self.povm = povm
        self.per_outcome = ops.shape[1]
        self.matrices = _frozen(ops.reshape(-1, povm.dim, povm.dim))
        self.square_root = square_root

    @classmethod
    def _made(cls, ops: np.ndarray, povm: Povm, square_root: bool) -> "Instrument":
        inst = cls.__new__(cls)
        inst._hold(ops, povm, square_root)
        return inst

    @classmethod
    def lueders(cls, povm: Povm) -> "Instrument":
        """Square-root instrument K_a = E_a^(1/2) of a POVM (Hermitian PSD
        Kraus operators, in effect order)."""
        return cls._made(psd_sqrt(povm.matrices)[:, None], povm, True)

    @classmethod
    def measure_and_prepare(cls, povm: Povm, states) -> "Instrument":
        """Measure ``povm``, then re-prepare ``states[a]`` on outcome a."""
        sigma = check_states(states)
        if sigma.shape != povm.matrices.shape:
            raise DimensionMismatchError(
                f"need one {povm.dim}-dimensional state per outcome, got shape {sigma.shape}"
            )
        d = povm.dim
        ops = np.einsum("axj,aiy->aijxy", psd_sqrt(sigma), psd_sqrt(povm.matrices))
        return cls._made(ops.reshape(povm.n_outcomes, d * d, d, d), povm, False)

    @property
    def dim(self) -> int:
        return self.povm.dim

    @property
    def n_outcomes(self) -> int:
        return self.povm.n_outcomes

    @property
    def labels(self) -> tuple[float, ...]:
        return self.povm.labels

    def _by_outcome(self, terms: np.ndarray) -> np.ndarray:
        """Sum terms (..., k * m, d, d) over the m operators of each outcome."""
        shape = terms.shape[:-3] + (self.n_outcomes, self.per_outcome) + terms.shape[-2:]
        return terms.reshape(shape).sum(axis=-3)

    def posts(self, rho) -> np.ndarray:
        """Subnormalized post-measurement states sum_m K_am rho K_am^dagger
        (trace p(a)), shape (..., k, d, d), of states (..., d, d).

        Real Kraus operators act on a whole stack of n states in 1 + k*m
        matrix products: one (k*m*d, d) @ (d, n*d) product forms every
        K rho, then one (n*d, d) @ (d, d) product per operator multiplies by
        its K^dagger.  On the builds tested these give the bits of one
        product per state and operator; operators with an imaginary part do
        not, so they keep the per-state products."""
        k = self.matrices
        if k.imag.any():
            return self._by_outcome(k @ rho[..., None, :, :] @ dagger(k))
        ops, d, batch = len(k), self.dim, rho.shape[:-2]
        n = math.prod(batch)
        # column (state, j) of the right factor is column j of that state
        k_rho = k.reshape(ops * d, d) @ rho.reshape(n, d, d).transpose(1, 0, 2).reshape(d, n * d)
        # row (state, i) of operator a's left factor is row i of K_a rho
        k_rho = k_rho.reshape(ops, d, n, d).transpose(0, 2, 1, 3).reshape(ops, n * d, d)
        terms = (k_rho @ dagger(k)).reshape(ops, n, d, d).transpose(1, 0, 2, 3)
        # in the C order of the per-state products, so the tables' einsum sees their strides
        return self._by_outcome(np.ascontiguousarray(terms).reshape(*batch, ops, d, d))

    def dual(self, op) -> np.ndarray:
        """Heisenberg-picture images sum_m K_am^dagger op K_am of an
        operator (d, d), one per outcome: shape (k, d, d)."""
        k = self.matrices
        return self._by_outcome(dagger(k) @ op @ k)


LuedersInstrument = Instrument.lueders  # the square-root constructor's README name


def _check_dims(a_dim: int, b_dim: int) -> None:
    if a_dim != b_dim:
        raise DimensionMismatchError(f"dimension mismatch: {a_dim} vs {b_dim}")


def scenario_tables(rho, inst: Instrument, target_effects) -> tuple[np.ndarray, np.ndarray]:
    """Joint tables p[..., a, b] = sum_m tr(K_am rho K_am^dagger E_b) of probe
    outcome a followed by target outcome b, and the probe-off target
    distributions p[..., b] = tr(rho E_b).

    Takes validated states (..., d, d) and target POVMs (..., kb, d, d)
    whose leading batch axes broadcast; the instrument is one fixed probe.
    Each table sums to one and its rows marginalize to the probe-alone
    distribution (the later measurement cannot influence the earlier one).
    """
    _check_dims(inst.dim, rho.shape[-1])
    _check_dims(inst.dim, target_effects.shape[-1])
    joint = np.einsum("...aij,...bji->...ab", inst.posts(rho), target_effects).real
    return joint, np.einsum("...ij,...bji->...b", rho, target_effects).real


def dual_channel(inst: Instrument, op) -> np.ndarray:
    """Heisenberg-picture action of the unregistered measurement on an
    operator: sum_am K_am^dagger op K_am.  Unital."""
    m = _as_square(op, "operator")
    _check_dims(inst.dim, m.shape[0])
    return inst.dual(m).sum(axis=0)

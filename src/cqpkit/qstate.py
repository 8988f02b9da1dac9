"""Dense state-vector quantum simulation.

Holds normalized amplitude vectors over n qubits and the handful of
operations the process semantics needs: appending qubits, factoring out
basis-state qubits, equality up to global phase (amplitudes within ATOL
once the phases are aligned), and unitary gates, projective measurement
and partial trace.

Each operation makes a few numpy calls:

- A target list is checked once per ``(n, targets)``: ``_layout`` is
  cached and returns the axis permutation that brings the targets to the
  front, and its inverse, as tuples.
- A one-qubit gate on qubit t multiplies the amplitudes, viewed as
  2^(n-1-t) stacked 2 x 2^t blocks, by its matrix, with no transpose,
  when there are at most ``_MAX_BLOCKS`` blocks. Other gates, measurement
  probabilities and partial traces read the targets through the cached
  permutation (``_grouped``).
- A measurement branch collapses by slicing out the amplitudes that agree
  with its bits, scaled by 1/sqrt(p). Measured qubits the caller drops
  leave the result with the slice; only those it keeps are zero-filled
  back to full width (``collapse``).
- Every result is checked like a caller's input: a state for its length,
  finite amplitudes and unit norm; a density matrix for Hermiticity, unit
  trace and positive semidefiniteness. Results that ``qstate`` has just
  computed are frozen in place (``_fresh``) instead of copied; arrays that
  callers pass in are copied first, so later writes to them change nothing.

Conventions used throughout the package:

- Qubit 0 is the *least significant* bit of the basis-state index, so a
  ket written ``|b_{n-1} ... b_1 b_0>`` has qubit i at position b_i.
  Appended qubits, whether allocated as |0> or received as input, take
  the next higher indices, so appending is a Kronecker product with the
  new qubit on the left.
- A k-qubit gate applied with target list ``[t0, ..., t_{k-1}]`` reads
  its matrix index with t0 as the most significant local bit. CNot with
  targets ``[c, t]`` therefore has the usual "first symbol is the
  control" matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# User-facing tolerance for normalization, unitarity and equality checks.
ATOL = 1e-9
# Amplitudes below this are snapped to exact zero after gate application so
# that measurement-outcome enumeration stays stable across interleavings.
PRUNE_TOL = 1e-12
# Ceiling on simultaneously allocated qubits.
DEFAULT_QUBIT_CAP = 12

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class CapacityError(Exception):
    """Raised when appending qubits would exceed the qubit cap; the base of
    ``semantics.ExplorationLimitError``, the state and component caps."""


def _fresh(cls, num_qubits: int, array: np.ndarray):
    """A ``cls`` (StateVector or DensityMatrix) around ``array``, which
    ``qstate`` has just computed and nothing else holds: every check of the
    class runs, and the array is made read-only instead of copied."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "num_qubits", num_qubits)
    obj._check(array)
    return obj


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits.

    Immutable after construction; the 0-qubit state is the single
    amplitude ``[1]`` and acts as the tensor-product unit.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self._check(np.array(self.amplitudes, dtype=np.complex128))  # a copy

    def _check(self, amps: np.ndarray):
        """Validate ``amps``, make it read-only and store it."""
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        amps = amps.reshape(-1)
        if amps.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} "
                f"qubit(s), got {amps.shape[0]}"
            )
        norm = float(np.vdot(amps, amps).real)
        # A NaN or an infinity makes the norm NaN or infinite, so this fails
        # for every non-finite input and the scan runs only then.
        if not abs(norm - 1.0) <= ATOL:
            if not np.isfinite(amps).all():  # a complex is finite when both parts are
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"state not normalized: |amps|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def empty(cls) -> "StateVector":
        return cls(0, np.ones(1, dtype=np.complex128))

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        n = int(amps.shape[0]).bit_length() - 1
        return cls(n, amps)

    def __repr__(self):
        return f"StateVector({self.num_qubits}, {dirac(self)!r})"


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on ``arity`` qubits, checked against U†U = I."""

    name: str
    arity: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("gate arity must be positive")
        dim = 2**self.arity
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate {self.name!r}: expected {dim}x{dim} matrix")
        if not np.allclose(mat.conj().T @ mat, np.eye(dim), atol=ATOL, rtol=0.0):
            raise ValueError(f"gate {self.name!r} is not unitary")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __repr__(self):
        return f"Gate({self.name!r}, arity={self.arity})"


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One projective-measurement branch: bits and Born probability.

    ``state`` is the measured state and ``targets`` the measured qubits, in
    the order of ``result``. Nothing is collapsed until ``collapse`` is
    called, so a caller that takes one branch collapses only that one."""

    result: tuple[int, ...]
    probability: float
    state: StateVector = field(repr=False)
    targets: tuple[int, ...] = field(repr=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density matrix over ``num_qubits`` kept qubits.

    Checked to be Hermitian, unit-trace, and positive semidefinite.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        self._check(np.array(self.matrix, dtype=np.complex128))  # a copy

    def _check(self, mat: np.ndarray):
        """Validate ``mat``, make it read-only and store it."""
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} density matrix")
        adjoint = mat.conj().T
        if not np.abs(mat - adjoint).max() <= ATOL:  # written so that NaN fails
            raise ValueError("density matrix not Hermitian")
        trace = complex(mat.trace())
        if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        if np.linalg.eigvalsh((mat + adjoint) / 2.0)[0] < -ATOL:
            raise ValueError("density matrix not positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)

_STANDARD_GATES = {
    "I": Gate("I", 1, _I),
    "X": Gate("X", 1, _X),
    "Z": Gate("Z", 1, _Z),
    "H": Gate("H", 1, _H),
    "CNot": Gate("CNot", 2, _CNOT),
    # Classically-controlled corrections, indexed by a two-bit measurement
    # result (first bit from the first measured qubit).
    "sigma00": Gate("sigma00", 1, _I),
    "sigma01": Gate("sigma01", 1, _X),
    "sigma10": Gate("sigma10", 1, _Z),
    "sigma11": Gate("sigma11", 1, _Z @ _X),
}


def standard_gate(name: str) -> Gate:
    """Look up a fixed gate by name (I, X, Z, H, CNot, sigma00..sigma11)."""
    try:
        return _STANDARD_GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None


def sigma_correction(bits: tuple[int, int]) -> Gate:
    """Correction gate selected by a two-bit measurement result."""
    if len(bits) != 2 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"sigma correction needs two bits, got {bits!r}")
    return _STANDARD_GATES[f"sigma{bits[0]}{bits[1]}"]


def _prune(amps: np.ndarray) -> np.ndarray:
    """Zero the amplitudes below ``PRUNE_TOL`` in place. Callers pass an
    array they have just computed, which nothing else holds."""
    amps[np.abs(amps) < PRUNE_TOL] = 0.0
    return amps


def append_qubits(state: StateVector, qubits) -> StateVector:
    """Tensor fresh qubits onto the high end of ``state``. ``qubits`` lists
    the ``(amp0, amp1)`` of each; the first takes the lowest new index."""
    if not qubits:
        raise ValueError("no qubits to append")
    n = state.num_qubits + len(qubits)
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(
            f"allocation of {len(qubits)} qubit(s) would exceed cap of {DEFAULT_QUBIT_CAP}"
        )
    amps = state.amplitudes
    for amp0, amp1 in qubits:
        amps = np.multiply.outer(np.array([amp0, amp1], dtype=np.complex128), amps).reshape(-1)
    return _fresh(StateVector, n, amps)


def _check_targets(n: int, targets) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit index in {list(targets)}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"qubit index {t} out of range for {n} qubit(s)")


@functools.lru_cache(maxsize=4096)
def _layout(n: int, targets: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation ``perm`` of the n axes of the amplitude tensor (axis a
    holds qubit n-1-a) that puts the ``targets`` first, targets[0] outermost,
    and its inverse ``undo``. Raises ValueError unless ``targets`` lists one
    or more distinct qubits of an n-qubit state. The cache holds two short
    tuples per key, no array."""
    _check_targets(n, targets)
    if not targets:
        raise ValueError("no target qubit given")
    axes = [n - 1 - t for t in targets]
    perm = tuple(axes + [a for a in range(n) if a not in axes])
    undo = tuple(sorted(range(n), key=perm.__getitem__))
    return perm, undo


def _grouped(array: np.ndarray, perm: tuple[int, ...], k: int) -> np.ndarray:
    """``array`` (2^n entries) as a 2^k x 2^(n-k) matrix whose row index
    reads the first k axes of ``perm``: the targets of ``_layout``."""
    return np.transpose(array.reshape([2] * len(perm)), perm).reshape(2**k, -1)


# A one-qubit gate on qubit t multiplies 2^(n-1-t) blocks of 2 x 2^t
# amplitudes in one matmul call, which loops over the blocks. Past this many
# blocks the transposed layout, one 2 x 2^(n-1) product, is faster: for
# qubit 0 of 11 the product alone takes 54 us against 16 us (numpy 2.4 on
# a 2-core x86-64 VM).
_MAX_BLOCKS = 16


def apply_gate(state: StateVector, gate: Gate, targets) -> StateVector:
    """Apply ``gate`` to the listed qubits; returns the unitary image."""
    targets = tuple(targets)
    n = state.num_qubits
    perm, undo = _layout(n, targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name!r} has arity {gate.arity}, got {len(targets)} target(s)"
        )
    blocks = 2 ** (n - 1 - targets[0])
    if gate.arity == 1 and blocks <= _MAX_BLOCKS:
        psi = gate.matrix @ state.amplitudes.reshape(blocks, 2, -1)
    else:
        image = gate.matrix @ _grouped(state.amplitudes, perm, gate.arity)
        psi = np.transpose(image.reshape([2] * n), undo)
    return _fresh(StateVector, n, _prune(psi.reshape(-1)))


def measure(state: StateVector, targets) -> list[MeasurementOutcome]:
    """Born-rule measurement of the listed qubits in the computational basis.

    Returns one outcome per bit string with nonzero probability, ordered by
    the result read as a binary number. Outcome bits follow the order of
    ``targets``. No outcome is collapsed here: ``collapse`` makes the state
    of the branch a caller takes.
    """
    targets = tuple(targets)
    perm, _undo = _layout(state.num_qubits, targets)
    k = len(targets)
    probs = _grouped(np.abs(state.amplitudes) ** 2, perm, k).sum(axis=1).tolist()
    outcomes = []
    for r, p in enumerate(probs):
        if p < PRUNE_TOL:
            continue
        bits = tuple((r >> (k - 1 - j)) & 1 for j in range(k))
        outcomes.append(MeasurementOutcome(bits, p, state, targets))
    return outcomes


def collapse(outcome: MeasurementOutcome, drop=()) -> StateVector:
    """The state ``outcome`` leaves: the amplitudes that agree with its bits,
    scaled by 1/sqrt(p), with the measured qubits listed in ``drop`` sliced
    out. Those sit in the basis state |b> of their bit b, so the result is
    what ``drop_basis_qubits`` would leave of the full collapse: the other
    qubits keep their relative order and are renumbered from 0. A measured
    qubit not in ``drop`` keeps its place and is zero on the other value."""
    state = outcome.state
    n = state.num_qubits
    drop = frozenset(drop)
    if not drop.issubset(outcome.targets):
        raise ValueError(
            f"can only drop measured qubits {list(outcome.targets)}, got {sorted(drop)}"
        )
    index: list = [slice(None)] * n
    for t, b in zip(outcome.targets, outcome.result):
        index[n - 1 - t] = b  # axis a holds qubit n-1-a
    psi = state.amplitudes.reshape([2] * n)
    # A scalar, not an array, when every qubit is measured: hence asarray.
    post = np.asarray(psi[tuple(index)] / math.sqrt(outcome.probability))
    if len(drop) < len(outcome.targets):
        # The measured qubits that stay are zero-filled; only they are.
        kept = tuple(index[a] for a in range(n) if n - 1 - a not in drop)
        filled = np.zeros([2] * len(kept), dtype=np.complex128)
        filled[kept] = post
        post = filled
    return _fresh(StateVector, n - len(drop), _prune(post.reshape(-1)))


def drop_basis_qubits(state: StateVector, candidates) -> tuple[StateVector, dict[int, int]]:
    """Factor out each candidate qubit whose amplitudes are exactly zero on
    one basis value.

    Such a qubit is an exact tensor factor |b>, with b the value whose
    amplitudes are not all zero, so tensoring each dropped |b> back in at
    its old position rebuilds ``state`` exactly. The remaining qubits keep their
    relative order and are renumbered 0, 1, ... from the least significant
    end. Returns the remaining state and a map from each dropped qubit to
    its b. Candidates in superposition or entangled with other qubits stay.
    """
    n = state.num_qubits
    candidates = list(candidates)
    _check_targets(n, candidates)
    psi = state.amplitudes.reshape([2] * n)  # axis a holds qubit n-1-a
    index: list = [slice(None)] * n
    dropped = {}
    for q in candidates:
        axis = n - 1 - q
        leading = (slice(None),) * axis
        for b in (0, 1):
            if not psi[leading + (1 - b,)].any():
                index[axis] = b
                dropped[q] = b
                break
    if not dropped:
        return state, dropped
    # flatten copies, so the result does not keep the larger input alive
    return _fresh(StateVector, n - len(dropped), psi[tuple(index)].flatten()), dropped


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the ``keep`` qubits (keep[0] is the most significant row bit)."""
    keep = tuple(keep)
    perm, _undo = _layout(state.num_qubits, keep)
    grouped = _grouped(state.amplitudes, perm, len(keep))
    return _fresh(DensityMatrix, len(keep), grouped @ grouped.conj().T)


def states_equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True iff a = c*b for some unit complex c: with c = <b|a>/|<b|a>|, each
    |a_i - c*b_i| <= ATOL. (|<b|a>| >= 1 - ATOL alone passes states some
    sqrt(2*ATOL) apart, and ``explore`` would merge them.)"""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubit(s)"
        )
    overlap = complex(np.vdot(b.amplitudes, a.amplitudes))
    phase = overlap / abs(overlap) if overlap else 0.0  # orthogonal: compares a with 0
    return bool(np.abs(a.amplitudes - phase * b.amplitudes).max() <= ATOL)


def dirac(state: StateVector) -> str:
    """Render a state as e.g. ``0.7071|00> + 0.7071|11>``."""
    n = state.num_qubits
    parts = []
    for i, a in enumerate(state.amplitudes):
        if abs(a) < PRUNE_TOL:
            continue
        label = format(i, f"0{n}b") if n else ""
        if abs(a.imag) < PRUNE_TOL:
            sign = "-" if a.real < 0 else "+"
            coeff = f"{abs(a.real):.4f}"
        else:
            sign = "+"
            coeff = f"({a.real:.4f}{a.imag:+.4f}i)"
        parts.append((sign, f"{coeff}|{label}⟩"))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    rendered = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        rendered += f" {sign} {term}"
    return rendered

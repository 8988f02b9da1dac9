"""Dense state-vector quantum simulation.

Holds normalized amplitude vectors over n qubits and the handful of
operations the process semantics needs: appending qubits, factoring out
basis-state qubits, equality up to global phase (amplitudes within ATOL
once the phases are aligned), and unitary gates, projective measurement
and partial trace.

Each operation makes a few numpy calls:

- A target list is checked once per ``(n, targets)``: ``_gather`` is
  cached, up to ``_MAX_GATHERS`` keys, and returns a flat integer index
  that reads the amplitudes as a matrix whose rows are the values of the
  targets, and its inverse, which puts such a matrix back in place. No
  operation transposes the n-axis amplitude tensor.
- A gate whose matrix holds one entry of modulus 1 per row (X, Z, CNot,
  every sigma correction) reads the whole state through one source index
  and multiplies it by one phase vector, both cached per
  ``(n, targets, gate)`` by ``_monomial_gather`` up to ``_MAX_MONOMIALS``
  keys. Its result is pruned and checked like any other.
- Any other one-qubit gate on qubit t multiplies the amplitudes, viewed
  as 2^(n-1-t) stacked 2 x 2^t blocks, by its matrix when there are at
  most ``_MAX_BLOCKS`` blocks. Other gates read their targets through the
  gather index, multiply, and write back through its inverse; measurement
  probabilities and partial traces read through the index too.
- A measurement branch collapses by gathering the row of amplitudes that
  agree with its bits, scaled by 1/sqrt(p). Measured qubits the caller
  drops leave the result with that row; only those it keeps are
  zero-filled back in (``collapse``).
- Every result is checked like a caller's input: a state for its length,
  finite amplitudes and unit norm; a density matrix for Hermiticity, unit
  trace and positive semidefiniteness. A one-qubit density matrix is
  checked in closed form on Python numbers (``_check_one_qubit``), a
  larger one by ``np.linalg.eigvalsh``. Results that ``qstate`` has just
  computed are frozen in place (``_fresh``) instead of copied; arrays that
  callers pass in are copied first, so later writes to them change nothing.

A gathered kernel multiplies and sums the same values in the same layout
as the transposes it replaced, so its results are the same bit for bit.
A monomial gate's are the product's up to the sign of a zero part: the
product adds terms such as 0 * b, which can turn -0.0 into 0.0. Nothing
the package prints or compares depends on that sign (``format_complex``
prints a part that rounds to zero as 0).

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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# User-facing tolerance for normalization, unitarity and equality checks.
ATOL = 1e-9
# Amplitudes below this are snapped to exact zero in every state a kernel
# makes, so that measurement-outcome enumeration stays stable across
# interleavings.
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
        self._check(np.array(self.amplitudes, dtype=np.complex128).reshape(-1))  # a copy

    def _check(self, amps: np.ndarray):
        """Validate the flat array ``amps``, make it read-only and store it."""
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
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

    def __repr__(self):
        return f"StateVector({self.num_qubits}, {dirac(self)!r})"


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on ``arity`` qubits, checked against U†U = I."""

    name: str
    arity: int
    matrix: np.ndarray
    # ``(source, phases)`` when the matrix is monomial (``_monomial``), else None.
    _monomial: tuple | None = field(default=None, init=False, repr=False)

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
        object.__setattr__(self, "_monomial", _monomial(mat))

    def __repr__(self):
        return f"Gate({self.name!r}, arity={self.arity})"


def _monomial(mat: np.ndarray) -> tuple | None:
    """``(source, phases)`` when each row of ``mat`` holds exactly one
    nonzero entry and it has modulus 1, as in X, Z, CNot and every sigma
    correction: row r of ``mat @ g`` is then ``phases[r] * g[source[r]]``.
    ``source`` is None when the matrix is diagonal, and ``phases`` when
    every such entry is 1; otherwise ``phases`` is a column that
    broadcasts over the rows. None for any other matrix."""
    nonzero = mat != 0
    if not (nonzero.sum(axis=1) == 1).all():
        return None
    rows = np.arange(len(mat))
    source = nonzero.argmax(axis=1)
    phases = mat[rows, source]
    if not (np.abs(phases) == 1).all():
        return None
    if (source == rows).all():
        source = None
    else:
        source.setflags(write=False)
    if (phases == 1).all():
        phases = None
    else:
        phases = phases.reshape(-1, 1)
        phases.setflags(write=False)
    return source, phases


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
        if dim == 2:
            _check_one_qubit(mat.tolist())
        else:
            adjoint = mat.conj().T
            if not np.abs(mat - adjoint).max() <= ATOL:  # written so that NaN fails
                raise ValueError("density matrix not Hermitian")
            _check_trace(complex(mat.trace()))
            if np.linalg.eigvalsh((mat + adjoint) / 2.0)[0] < -ATOL:
                raise ValueError("density matrix not positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _check_trace(trace: complex) -> None:
    if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")


def _check_one_qubit(rows: list) -> None:
    """The checks of ``DensityMatrix._check`` on the 2 x 2 matrix ``rows``
    (a nested list), in closed form on Python complex numbers. The
    entries of m - m† are, in modulus, 2|Im a|, |b - c*| twice and 2|Im d|;
    each is tested on its own, so a NaN anywhere fails. The smallest
    eigenvalue of the Hermitian part (m + m†)/2 is
    (p + q)/2 - sqrt(((p - q)/2)^2 + |h|^2), with p = Re a, q = Re d and
    h = (b + c*)/2."""
    (a, b), (c, d) = rows
    for x in (abs(a - a.conjugate()), abs(b - c.conjugate()), abs(d - d.conjugate())):
        if not x <= ATOL:
            raise ValueError("density matrix not Hermitian")
    _check_trace(a + d)
    p, q = a.real, d.real
    if (p + q) / 2 - math.hypot((p - q) / 2, abs(b + c.conjugate()) / 2) < -ATOL:
        raise ValueError("density matrix not positive semidefinite")


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
    the ``(amp0, amp1)`` of each; the first takes the lowest new index. The
    result is pruned, as every state a kernel makes is, so a state built
    from kernels alone holds no amplitude an identity gate would zero."""
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
    return _fresh(StateVector, n, _prune(amps))


def _check_targets(n: int, targets) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit index in {list(targets)}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"qubit index {t} out of range for {n} qubit(s)")


# Most keys each index cache keeps. At the 12-qubit cap:
# - a ``(n, targets)`` key of ``_gather`` holds two arrays of 2^n integers,
#   64 KiB, so that cache holds at most 4 MiB;
# - a ``(n, targets, gate)`` key of ``_monomial_gather`` holds a source index
#   of 2^n integers unless the gate is diagonal, 32 KiB, and 2^n complex
#   phases unless all are 1, 64 KiB, so that cache holds at most 6 MiB.
# A round of the benchmark's ``chain``, ``congruence`` and ``simulate``
# workloads uses 17, 9 and 21 ``_gather`` keys and 23, 17 and 30 monomial keys.
_MAX_GATHERS = 64
_MAX_MONOMIALS = 64


@functools.lru_cache(maxsize=_MAX_GATHERS)
def _gather(n: int, targets: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(index, inverse)``, two read-only integer arrays. For the 2^n
    amplitudes ``amps`` of an n-qubit state, ``amps[index]`` is the
    2^k x 2^(n-k) matrix whose row index reads the k ``targets``,
    targets[0] most significant, and whose column index reads the other
    qubits from the highest down; ``grouped.reshape(-1)[inverse]`` puts
    such a matrix back in place. Raises ValueError unless ``targets`` lists
    one or more distinct qubits of an n-qubit state."""
    _check_targets(n, targets)
    if not targets:
        raise ValueError("no target qubit given")
    axes = [n - 1 - t for t in targets]  # axis a of the [2]*n tensor holds qubit n-1-a
    perm = axes + [a for a in range(n) if a not in axes]
    index = np.arange(2**n).reshape([2] * n).transpose(perm).reshape(2 ** len(targets), -1)
    inverse = np.empty(2**n, dtype=np.intp)
    inverse[index.reshape(-1)] = np.arange(2**n)
    index.setflags(write=False)
    inverse.setflags(write=False)
    return index, inverse


def _row(bits) -> int:
    """The row of a ``_gather`` index that reads ``bits`` on its targets."""
    row = 0
    for b in bits:
        row = 2 * row + b
    return row


@functools.lru_cache(maxsize=_MAX_MONOMIALS)
def _monomial_gather(n: int, targets: tuple, gate: Gate) -> tuple:
    """``(source, phases)``, read-only, for the monomial ``gate``
    (``_monomial``) on ``targets`` of an n-qubit state: its image of the
    amplitudes ``amps`` is ``amps[source] * phases``, element by element,
    with ``source`` None when the gate is diagonal and ``phases`` None when
    every phase is 1. The caller has checked ``targets`` by ``_gather``."""
    index, inverse = _gather(n, targets)
    source, phases = gate._monomial
    if source is not None:
        source = index[source].reshape(-1)[inverse]
        source.setflags(write=False)
    if phases is not None:
        phases = np.broadcast_to(phases, index.shape).reshape(-1)[inverse]
        phases.setflags(write=False)
    return source, phases


# A one-qubit gate that is not monomial, on qubit t, multiplies 2^(n-1-t)
# blocks of 2 x 2^t amplitudes in one matmul call, which loops over the
# blocks. Past this many blocks the gathered layout, one 2 x 2^(n-1)
# product, is faster. An H on 11 qubits, whole ``apply_gate`` call: on
# qubit 0 (1,024 blocks) 52 us by blocks against 21 us gathered, on qubit 5
# (32 blocks) 24 against 21 us, on qubit 6 (16 blocks) 19 against 21 us, on
# qubit 10 (1 block) 16.5 against 21 us (numpy 2.4.6, Python 3.11.7, 2-core
# x86-64 VM).
_MAX_BLOCKS = 16


def apply_gate(state: StateVector, gate: Gate, targets) -> StateVector:
    """Apply ``gate`` to the listed qubits; returns the unitary image."""
    targets = tuple(targets)
    n = state.num_qubits
    index, inverse = _gather(n, targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name!r} has arity {gate.arity}, got {len(targets)} target(s)"
        )
    amps = state.amplitudes
    blocks = 2 ** (n - 1 - targets[0])
    if gate._monomial is not None:
        source, phases = _monomial_gather(n, targets, gate)
        if source is None:
            psi = amps.copy() if phases is None else amps * phases
        else:
            psi = amps[source]
            if phases is not None:
                psi *= phases
    elif gate.arity == 1 and blocks <= _MAX_BLOCKS:
        psi = (gate.matrix @ amps.reshape(blocks, 2, -1)).reshape(-1)
    else:
        psi = (gate.matrix @ amps[index]).reshape(-1)[inverse]
    return _fresh(StateVector, n, _prune(psi))


def measure(state: StateVector, targets) -> list[MeasurementOutcome]:
    """Born-rule measurement of the listed qubits in the computational basis.

    Returns one outcome per bit string with nonzero probability, ordered by
    the result read as a binary number. Outcome bits follow the order of
    ``targets``. No outcome is collapsed here: ``collapse`` makes the state
    of the branch a caller takes.
    """
    targets = tuple(targets)
    index, _inverse = _gather(state.num_qubits, targets)
    probs = (np.abs(state.amplitudes) ** 2)[index].sum(axis=1).tolist()
    # product lists the bit strings in row order, the first bit most significant
    return [
        MeasurementOutcome(bits, p, state, targets)
        for bits, p in zip(itertools.product((0, 1), repeat=len(targets)), probs)
        if not p < PRUNE_TOL
    ]


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
    index, _inverse = _gather(n, outcome.targets)
    post = state.amplitudes[index[_row(outcome.result)]] / math.sqrt(outcome.probability)
    if len(drop) < len(outcome.targets):
        # The measured qubits that stay are zero-filled; only they are. Each
        # keeps its place among the qubits left once ``drop`` is gone.
        kept = [
            (t - sum(d < t for d in drop), b)
            for t, b in zip(outcome.targets, outcome.result)
            if t not in drop
        ]
        m = n - len(drop)
        kept_index, _inverse = _gather(m, tuple(t for t, _b in kept))
        filled = np.zeros(2**m, dtype=np.complex128)
        filled[kept_index[_row(b for _t, b in kept)]] = post
        post = filled
    return _fresh(StateVector, n - len(drop), _prune(post))


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
    index, _inverse = _gather(state.num_qubits, keep)
    grouped = state.amplitudes[index]
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


def format_complex(z: complex) -> str:
    """``z`` as ``a+bi`` with each part to 4 decimals. A part that rounds to
    zero prints as 0, so no text depends on the sign of a zero or on which
    way rounding error fell."""
    real, imag = f"{z.real:.4f}", f"{z.imag:+.4f}"
    if real == "-0.0000":
        real = "0.0000"
    if imag == "-0.0000":
        imag = "+0.0000"
    return f"{real}{imag}i"


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
            coeff = f"({format_complex(a)})"
        parts.append((sign, f"{coeff}|{label}⟩"))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    rendered = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        rendered += f" {sign} {term}"
    return rendered

"""Dense state-vector quantum simulation.

Holds normalized amplitude vectors over n qubits and the handful of
operations the process semantics needs: appending qubits, unitary gates,
projective measurement, factoring out basis-state qubits, partial trace,
and phase-insensitive equality.

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

from dataclasses import dataclass

import numpy as np

# User-facing tolerance for normalization, unitarity and equality checks.
ATOL = 1e-9
# Amplitudes below this are snapped to exact zero after gate application so
# that measurement-outcome enumeration stays stable across interleavings.
PRUNE_TOL = 1e-12
# Default ceiling on simultaneously allocated qubits.
DEFAULT_QUBIT_CAP = 12

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class CapacityError(Exception):
    """Raised when appending qubits would exceed the qubit cap."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits.

    Immutable after construction; the 0-qubit state is the single
    amplitude ``[1]`` and acts as the tensor-product unit.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be nonnegative")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} "
                f"qubit(s), got {amps.shape[0]}"
            )
        if not np.isfinite(amps).all():  # a complex is finite when both parts are
            raise ValueError("amplitudes must be finite")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |amps|^2 = {norm!r}")
        amps = amps.copy()
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

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

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
    """One projective-measurement branch: bits, Born probability, collapsed state."""

    result: tuple[int, ...]
    probability: float
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density matrix over ``num_qubits`` kept qubits.

    Checked to be Hermitian, unit-trace, and positive semidefinite.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.num_qubits
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} density matrix")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL or abs(np.trace(mat).imag) > ATOL:
            raise ValueError(f"density matrix trace is {np.trace(mat)!r}, expected 1")
        if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)) < -ATOL:
            raise ValueError("density matrix not positive semidefinite")
        mat = mat.copy()
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
    out = amps.copy()
    out[np.abs(out) < PRUNE_TOL] = 0.0
    return out


def append_qubits(state: StateVector, qubits, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Tensor fresh qubits onto the high end of ``state``. ``qubits`` lists
    the ``(amp0, amp1)`` of each; the first takes the lowest new index."""
    if not qubits:
        raise ValueError("no qubits to append")
    n = state.num_qubits + len(qubits)
    if n > cap:
        raise CapacityError(f"allocation of {len(qubits)} qubit(s) would exceed cap of {cap}")
    amps = state.amplitudes
    for amp0, amp1 in qubits:
        amps = np.multiply.outer(np.array([amp0, amp1], dtype=np.complex128), amps).reshape(-1)
    return StateVector(n, amps)


def _check_targets(state: StateVector, targets) -> list[int]:
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate qubit index in {targets}")
    for t in targets:
        if not 0 <= t < state.num_qubits:
            raise ValueError(f"qubit index {t} out of range for {state.num_qubits} qubit(s)")
    return targets


def apply_gate(state: StateVector, gate: Gate, targets) -> StateVector:
    """Apply ``gate`` to the listed qubits; returns the unitary image."""
    targets = _check_targets(state, targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name!r} has arity {gate.arity}, got {len(targets)} target(s)"
        )
    n = state.num_qubits
    k = gate.arity
    psi = state.amplitudes.reshape([2] * n)  # axis a holds qubit n-1-a
    axes = [n - 1 - t for t in targets]
    rest = [a for a in range(n) if a not in axes]
    perm = axes + rest
    psi = np.transpose(psi, perm).reshape(2**k, -1)
    psi = gate.matrix @ psi
    psi = np.transpose(psi.reshape([2] * n), np.argsort(perm)).reshape(-1)
    return StateVector(n, _prune(psi))


def measure(state: StateVector, targets) -> list[MeasurementOutcome]:
    """Born-rule measurement of the listed qubits in the computational basis.

    Returns one outcome per bit string with nonzero probability, ordered by
    the result read as a binary number. Outcome bits follow the order of
    ``targets``.
    """
    targets = _check_targets(state, targets)
    if not targets:
        raise ValueError("measurement needs at least one target qubit")
    n = state.num_qubits
    k = len(targets)
    psi = state.amplitudes.reshape([2] * n)
    axes = [n - 1 - t for t in targets]
    rest = [a for a in range(n) if a not in axes]
    grouped = np.transpose(psi, axes + rest).reshape(2**k, -1)
    probs = np.sum(np.abs(grouped) ** 2, axis=1)
    outcomes = []
    for r in range(2**k):
        p = float(probs[r])
        if p < PRUNE_TOL:
            continue
        projected = np.zeros_like(grouped)
        projected[r] = grouped[r] / np.sqrt(p)
        post = np.transpose(projected.reshape([2] * n), np.argsort(axes + rest)).reshape(-1)
        bits = tuple((r >> (k - 1 - j)) & 1 for j in range(k))
        outcomes.append(MeasurementOutcome(bits, p, StateVector(n, _prune(post))))
    return outcomes


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
    psi = state.amplitudes.reshape([2] * n)  # axis a holds qubit n-1-a
    index: list = [slice(None)] * n
    dropped = {}
    for q in _check_targets(state, candidates):
        axis = n - 1 - q
        leading = (slice(None),) * axis
        for b in (0, 1):
            if not psi[leading + (1 - b,)].any():
                index[axis] = b
                dropped[q] = b
                break
    if not dropped:
        return state, dropped
    return StateVector(n - len(dropped), psi[tuple(index)]), dropped


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Partial trace onto the ``keep`` qubits (keep[0] is the most significant row bit)."""
    keep = _check_targets(state, keep)
    if not keep:
        raise ValueError("must keep at least one qubit")
    n = state.num_qubits
    k = len(keep)
    psi = state.amplitudes.reshape([2] * n)
    axes = [n - 1 - t for t in keep]
    rest = [a for a in range(n) if a not in axes]
    m = np.transpose(psi, axes + rest).reshape(2**k, -1)
    return DensityMatrix(k, m @ m.conj().T)


def states_equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = ATOL) -> bool:
    """True iff a = c*b for some unit complex c, i.e. |<a|b>| >= 1 - tol."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubit(s)"
        )
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def dirac(state: StateVector, decimals: int = 4) -> str:
    """Render a state as e.g. ``0.7071|00> + 0.7071|11>``."""
    n = state.num_qubits
    parts = []
    for i, a in enumerate(state.amplitudes):
        if abs(a) < PRUNE_TOL:
            continue
        label = format(i, f"0{n}b") if n else ""
        if abs(a.imag) < PRUNE_TOL:
            sign = "-" if a.real < 0 else "+"
            coeff = f"{abs(a.real):.{decimals}f}"
        else:
            sign = "+"
            coeff = f"({a.real:.{decimals}f}{a.imag:+.{decimals}f}i)"
        parts.append((sign, f"{coeff}|{label}⟩"))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    rendered = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        rendered += f" {sign} {term}"
    return rendered

"""Output checks, computed with numpy apart from cqpkit.

Each function returns a list of problems; an empty list means the output
passed. None of them compares against a stored copy of earlier output:
the expected values come from linear algebra on the inputs.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

TOL = 1e-9

GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
}

PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
MEASUREMENT_PROBABILITY = 0.25
# A hop's outcome count may stray this many standard deviations from N/4.
BINOMIAL_SIGMAS = 5.0


def projector(amps) -> np.ndarray:
    psi = np.asarray(amps, dtype=complex)
    return np.outer(psi, psi.conj())


def gate_fixes(gate: str, amps) -> bool:
    """True iff U psi psi^dagger U^dagger equals psi psi^dagger."""
    u = GATES[gate]
    p = projector(amps)
    return bool(np.allclose(u @ p @ u.conj().T, p, atol=TOL, rtol=0.0))


def expected_equivalent(gate: str | None, test_states) -> bool:
    """A chain with a trailing gate hop equals Identity exactly when the gate
    fixes the projector of every test state; a plain chain always does."""
    if gate is None:
        return True
    return all(gate_fixes(gate, (s.amp0, s.amp1)) for s in test_states)


def check_verdict(verdict, gate: str | None, test_states) -> list[str]:
    """The verdict must match the numpy expectation, and a NOT EQUIVALENT
    verdict must name an input on which the gate moves the state."""
    expected = expected_equivalent(gate, test_states)
    if verdict.equivalent != expected:
        want = "EQUIVALENT" if expected else "NOT EQUIVALENT"
        got = "EQUIVALENT" if verdict.equivalent else "NOT EQUIVALENT"
        return [f"verdict {got}, expected {want}"]
    if verdict.equivalent:
        return []
    witness = verdict.witness
    if witness is None or not witness.instantiation:
        return ["NOT EQUIVALENT verdict without a witness naming its input"]
    moved = [s.name for s in test_states if not gate_fixes(gate, (s.amp0, s.amp1))]
    if not any(f"[{name}]" in witness.instantiation for name in moved):
        return [f"witness input {witness.instantiation!r} is none of {moved}"]
    return []


def check_output_projectors(output_dms, amps) -> list[str]:
    """Every qubit output label must carry the input projector."""
    if not output_dms:
        return ["no qubit output on the output channel"]
    want = projector(amps)
    bad = sum(not np.allclose(dm, want, atol=TOL, rtol=0.0) for dm in output_dms)
    if bad:
        return [f"{bad} of {len(output_dms)} output labels differ from the input projector"]
    return []


def single_qubit_state(amplitudes, num_qubits: int, qid: int) -> np.ndarray:
    """Partial trace onto qubit ``qid`` (qubit 0 is the least significant bit)."""
    psi = np.asarray(amplitudes, dtype=complex).reshape([2] * num_qubits)
    axis = num_qubits - 1 - qid
    m = np.moveaxis(psi, axis, 0).reshape(2, -1)
    return m @ m.conj().T


def check_received(amplitudes, num_qubits: int, qid: int, want=PLUS) -> list[str]:
    rho = single_qubit_state(amplitudes, num_qubits, qid)
    if not np.allclose(rho, projector(want), atol=TOL, rtol=0.0):
        return [f"received qubit has density matrix {np.round(rho, 6).tolist()}"]
    return []


def check_step_probabilities(probabilities, hops: int) -> list[str]:
    if len(probabilities) != hops:
        return [f"{len(probabilities)} measurement steps, expected {hops}"]
    bad = [p for p in probabilities if abs(p - MEASUREMENT_PROBABILITY) > TOL]
    if bad:
        return [f"measurement probabilities {bad}, expected {MEASUREMENT_PROBABILITY}"]
    return []


def check_outcome_frequencies(outcomes_per_run, hops: int) -> list[str]:
    """Each hop's four outcomes must each occur N/4 times, within
    ``BINOMIAL_SIGMAS`` standard deviations of Binomial(N, 1/4)."""
    n = len(outcomes_per_run)
    if n == 0:
        return ["no runs"]
    mean = n * MEASUREMENT_PROBABILITY
    slack = BINOMIAL_SIGMAS * math.sqrt(n * MEASUREMENT_PROBABILITY * (1 - MEASUREMENT_PROBABILITY))
    problems = []
    for hop in range(hops):
        counts = Counter(run[hop] for run in outcomes_per_run)
        for outcome in ((0, 0), (0, 1), (1, 0), (1, 1)):
            c = counts.get(outcome, 0)
            if abs(c - mean) > slack:
                problems.append(
                    f"hop {hop + 1} outcome {outcome}: {c} of {n} runs, "
                    f"expected {mean:.1f} +- {slack:.1f}"
                )
    return problems


def check_congruence_report(report, count: int) -> list[str]:
    problems = []
    if report.total != count or len(report.samples) != count:
        problems.append(f"{len(report.samples)} samples, expected {count}")
    if report.skipped:
        problems.append(f"{len(report.skipped)} contexts skipped")
    if report.counterexamples:
        problems.append(f"{len(report.counterexamples)} counterexamples")
    if report.passed != count:
        problems.append(f"{report.passed} of {count} contexts EQUIVALENT")
    return problems

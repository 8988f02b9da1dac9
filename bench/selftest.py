"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Every check must accept a right output and reject a deliberately wrong
one (a flipped verdict, |0> in place of |+>, a probability of 1/2, ...),
which shows that no check passes by construction. Exits 1 if any does not.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from cqpkit.congruence import CongruenceReport, CongruenceSample  # noqa: E402
from cqpkit.equiv import EquivalenceVerdict, Witness  # noqa: E402
from cqpkit.semantics import BASIS_TEST_QUBITS, DEFAULT_TEST_QUBITS  # noqa: E402

ZERO = np.array([1, 0], dtype=complex)
ONE = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2.0)
EQUIVALENT = EquivalenceVerdict(True)


def refuted(instantiation=None) -> EquivalenceVerdict:
    return EquivalenceVerdict(False, Witness("label", "differs", instantiation=instantiation))


def three_qubits(q0, q1, q2) -> np.ndarray:
    """Amplitudes of q2 (x) q1 (x) q0; qubit 0 is the least significant bit."""
    return np.kron(q2, np.kron(q1, q0))


def uniform_runs(hops: int, per_outcome: int) -> list:
    outcomes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [[o] * hops for o in outcomes for _ in range(per_outcome)]


def congruence_report(outcomes) -> CongruenceReport:
    samples = [CongruenceSample("ctx", "src", o) for o in outcomes]
    report = CongruenceReport(total=len(samples), passed=outcomes.count("equivalent"), samples=samples)
    report.skipped = [s for s in samples if s.outcome == "skipped"]
    return report


def cases():
    """(what, problems for a right output, problems for a wrong output)."""
    d, b = DEFAULT_TEST_QUBITS, BASIS_TEST_QUBITS
    yield ("plain chain, flipped verdict",
           checks.check_verdict(EQUIVALENT, None, d), checks.check_verdict(refuted("a<-[|0>]"), None, d))
    yield ("Z hop on the default set, flipped verdict",
           checks.check_verdict(refuted("a<-[|+>]"), "Z", d), checks.check_verdict(EQUIVALENT, "Z", d))
    yield ("Z hop on the basis set, flipped verdict",
           checks.check_verdict(EQUIVALENT, "Z", b), checks.check_verdict(refuted("a<-[|0>]"), "Z", b))
    yield ("H hop, witness without its input",
           checks.check_verdict(refuted("a<-[|0>]"), "H", d), checks.check_verdict(refuted(), "H", d))
    yield ("Z hop, witness naming an input that Z fixes",
           checks.check_verdict(refuted("a<-[|i>]"), "Z", d), checks.check_verdict(refuted("a<-[|1>]"), "Z", d))
    yield ("output label carrying |0><0| in place of |+><+|",
           checks.check_output_projectors([checks.projector(PLUS)] * 4, PLUS),
           checks.check_output_projectors([checks.projector(PLUS)] * 3 + [checks.projector(ZERO)], PLUS))
    yield ("no output label at all",
           checks.check_output_projectors([checks.projector(ONE)], ONE), checks.check_output_projectors([], ONE))
    yield ("received qubit |0> in place of |+>",
           checks.check_received(three_qubits(ONE, PLUS, ZERO), 3, 1),
           checks.check_received(three_qubits(ONE, ZERO, PLUS), 3, 1))
    yield ("measurement step with probability 1/2",
           checks.check_step_probabilities([0.25] * 5, 5), checks.check_step_probabilities([0.25] * 4 + [0.5], 5))
    yield ("one measurement step missing",
           checks.check_step_probabilities([0.25] * 5, 5), checks.check_step_probabilities([0.25] * 4, 5))
    yield ("hop outcomes all (0,0)",
           checks.check_outcome_frequencies(uniform_runs(5, 25), 5),
           checks.check_outcome_frequencies([[(0, 0)] * 5] * 100, 5))
    yield ("one outcome drawn with probability 1/2",
           checks.check_outcome_frequencies(uniform_runs(5, 100), 5),
           checks.check_outcome_frequencies(uniform_runs(5, 100)[100:] + [[(0, 0)] * 5] * 200, 5))
    yield ("congruence with one context skipped",
           checks.check_congruence_report(congruence_report(["equivalent"] * 50), 50),
           checks.check_congruence_report(congruence_report(["equivalent"] * 49 + ["skipped"]), 50))


def main() -> int:
    bad = 0
    for what, right, wrong in cases():
        ok = not right and bool(wrong)
        bad += not ok
        detail = f"right output: {right}" if right else f"wrong output rejected: {wrong[0]}" if wrong else "wrong output accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {detail}")
    print(f"{bad} check(s) failed the self-test" if bad else "every check rejects its wrong output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""State-vector core: gates, measurement, partial trace, equality."""

import numpy as np
import pytest
from cqpkit.qstate import (
    ATOL,
    CapacityError,
    DensityMatrix,
    Gate,
    StateVector,
    append_qubits,
    apply_gate,
    dirac,
    drop_basis_qubits,
    measure,
    reduced_density_matrix,
    standard_gate,
    sigma_correction,
    states_equal_up_to_global_phase,
)
from support import (
    SQ2,
    apply_gate_oracle,
    derive_correction_table,
    random_state_amps,
    random_unitary,
    rdm_oracle,
    teleport_branches_oracle,
)


def sv(*amps) -> StateVector:
    return StateVector.from_amplitudes(np.array(amps, dtype=complex))


BELL = sv(SQ2, 0, 0, SQ2)


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def test_alloc_from_empty():
    out = append_qubits(StateVector.empty(), [(1, 0)])
    assert out.num_qubits == 1
    np.testing.assert_allclose(out.amplitudes, [1, 0])


def test_alloc_appends_zero_at_high_index():
    one = sv(0, 1)
    out = append_qubits(one, [(1, 0)])
    # |01>: old qubit still 1, new qubit reads 0 in the high position.
    np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0])
    assert dirac(out) == "1.0000|01⟩"


def test_alloc_two_then_entangle_gives_bell_pair():
    state = append_qubits(sv(1, 0), [(1, 0)] * 2)
    state = apply_gate(state, standard_gate("H"), [1])
    state = apply_gate(state, standard_gate("CNot"), [1, 2])
    rho = reduced_density_matrix(state, [2, 1])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-9)


def test_alloc_capacity_error():
    with pytest.raises(CapacityError):
        append_qubits(StateVector.empty(), [(1, 0)] * 13)
    with pytest.raises(CapacityError):
        append_qubits(append_qubits(StateVector.empty(), [(1, 0)] * 8), [(1, 0)] * 8)


def test_append_qubit_arbitrary_state():
    out = append_qubits(sv(1, 0), [(SQ2, SQ2)])
    np.testing.assert_allclose(out.amplitudes, [SQ2, 0, SQ2, 0])
    # Two qubits: the first appended becomes qubit 1, the second qubit 2.
    rng = np.random.default_rng(5)
    base = random_state_amps(rng, 1)
    psi, phi = random_state_amps(rng, 1), random_state_amps(rng, 1)
    out = append_qubits(sv(*base), [(psi[0], psi[1]), (phi[0], phi[1])])
    assert out.num_qubits == 3
    np.testing.assert_allclose(out.amplitudes, np.kron(phi, np.kron(psi, base)), atol=1e-15)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def test_three_qubit_worked_example():
    # Inverting the second-from-left qubit of a three-qubit superposition:
    # (1/2)(|000> + |010> - |110> - |111>)  ->  (1/2)(|010> + |000> - |100> - |101>)
    state = sv(0.5, 0, 0.5, 0, 0, 0, -0.5, -0.5)
    out = apply_gate(state, standard_gate("X"), [1])
    expected = np.zeros(8, dtype=complex)
    expected[0] = 0.5  # |000>
    expected[2] = 0.5  # |010>
    expected[4] = -0.5  # |100>
    expected[5] = -0.5  # |101>
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_hadamard_on_zero():
    out = apply_gate(sv(1, 0), standard_gate("H"), [0])
    np.testing.assert_allclose(out.amplitudes, [SQ2, SQ2], atol=1e-12)


def test_hadamard_self_inverse_on_random_states():
    rng = np.random.default_rng(7)
    h = standard_gate("H")
    for _ in range(20):
        state = StateVector.from_amplitudes(random_state_amps(rng, 3))
        target = int(rng.integers(0, 3))
        out = apply_gate(apply_gate(state, h, [target]), h, [target])
        assert states_equal_up_to_global_phase(out, state, 1e-9)


def test_apply_gate_matches_expansion_oracle():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        amps = random_state_amps(rng, n)
        gate = Gate("rand", k, random_unitary(rng, 2**k))
        targets = list(rng.permutation(n)[:k])
        got = apply_gate(StateVector(n, amps), gate, targets).amplitudes
        want = apply_gate_oracle(amps, gate.matrix, targets, n)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_apply_gate_errors():
    h = standard_gate("H")
    cnot = standard_gate("CNot")
    with pytest.raises(ValueError):
        apply_gate(BELL, h, [0, 1])  # arity mismatch
    with pytest.raises(ValueError):
        apply_gate(BELL, cnot, [0, 0])  # duplicate target
    with pytest.raises(ValueError):
        apply_gate(BELL, cnot, [0, 2])  # out of range


def test_unitarity_preserved_on_random_gates():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = StateVector(n, random_state_amps(rng, n))
        k = int(rng.integers(1, min(n, 2) + 1))
        gate = Gate("rand", k, random_unitary(rng, 2**k))
        out = apply_gate(state, gate, list(rng.permutation(n)[:k]))
        assert abs(out.norm_squared() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Standard gates
# ---------------------------------------------------------------------------

def test_standard_gate_hadamard_matrix():
    np.testing.assert_allclose(
        standard_gate("H").matrix, np.array([[1, 1], [1, -1]]) * SQ2, atol=1e-12
    )


def test_cnot_inverts_target_iff_control_set():
    ten = sv(0, 0, 1, 0)  # |10>: qubit 1 (control) is 1
    out = apply_gate(ten, standard_gate("CNot"), [1, 0])
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-12)  # |11>


def test_unknown_gate_name():
    with pytest.raises(ValueError):
        standard_gate("Hadamard")


def test_sigma_table_matches_derived_corrections():
    # Derive, per measurement branch, which correction restores the input;
    # the shipped sigma table must agree.
    derived = derive_correction_table()
    shipped = {
        (0, 0): "I",
        (0, 1): "X",
        (1, 0): "Z",
        (1, 1): "ZX",
    }
    assert derived == shipped
    np.testing.assert_allclose(
        sigma_correction((1, 1)).matrix,
        standard_gate("Z").matrix @ standard_gate("X").matrix,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def test_bell_measurement_two_equal_outcomes():
    outcomes = measure(BELL, [0])
    assert len(outcomes) == 2
    by_result = {o.result: o for o in outcomes}
    assert abs(by_result[(0,)].probability - 0.5) <= 1e-9
    assert abs(by_result[(1,)].probability - 0.5) <= 1e-9
    np.testing.assert_allclose(by_result[(0,)].post_state.amplitudes, [1, 0, 0, 0], atol=1e-9)
    np.testing.assert_allclose(by_result[(1,)].post_state.amplitudes, [0, 0, 0, 1], atol=1e-9)


def test_bell_second_measurement_matches_first():
    for first in measure(BELL, [0]):
        (second,) = measure(first.post_state, [1])
        assert second.result == first.result
        assert abs(second.probability - 1.0) <= 1e-9


def test_measure_basis_state():
    outcomes = measure(sv(0, 1), [0])
    assert len(outcomes) == 1
    assert outcomes[0].result == (1,)
    assert abs(outcomes[0].probability - 1.0) <= 1e-9


def test_born_completeness_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        state = StateVector(n, random_state_amps(rng, n))
        k = int(rng.integers(1, n + 1))
        targets = list(rng.permutation(n)[:k])
        total = sum(o.probability for o in measure(state, targets))
        assert abs(total - 1.0) <= 1e-9


def test_collapse_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        state = StateVector(n, random_state_amps(rng, n))
        targets = list(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        for outcome in measure(state, targets):
            again = measure(outcome.post_state, targets)
            assert len(again) == 1
            assert again[0].result == outcome.result
            assert abs(again[0].probability - 1.0) <= 1e-9


def test_measure_argument_errors():
    with pytest.raises(ValueError):
        measure(BELL, [])
    with pytest.raises(ValueError):
        measure(BELL, [0, 0])


# ---------------------------------------------------------------------------
# Reduced density matrices
# ---------------------------------------------------------------------------

def test_bell_half_is_maximally_mixed():
    rho = reduced_density_matrix(BELL, [0])
    np.testing.assert_allclose(rho.matrix, np.eye(2) * 0.5, atol=1e-12)


def test_product_state_keeps_its_factor():
    rng = np.random.default_rng(3)
    psi = random_state_amps(rng, 1)
    state = append_qubits(sv(1, 0), [(psi[0], psi[1])])  # psi on qubit 1, |0> on qubit 0
    rho = reduced_density_matrix(state, [1])
    np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)


def test_teleport_branches_restore_input_density_matrix():
    # Brute-force every measurement branch with explicit matrices and check
    # the corrected receiver qubit carries the input projector.
    rng = np.random.default_rng(17)
    for _ in range(5):
        psi = random_state_amps(rng, 1)
        projector = np.outer(psi, psi.conj())
        for (u_bit, x_bit), (prob, post, _y) in teleport_branches_oracle(psi).items():
            assert abs(prob - 0.25) <= 1e-9
            corrected = apply_gate(
                StateVector.from_amplitudes(post), sigma_correction((u_bit, x_bit)), [1]
            )
            rho = reduced_density_matrix(corrected, [1])
            np.testing.assert_allclose(rho.matrix, projector, atol=1e-9)


def test_partial_trace_consistent_with_measurement():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        state = StateVector(n, random_state_amps(rng, n))
        keep = int(rng.integers(0, n))
        rho = reduced_density_matrix(state, [keep])
        probs = {o.result[0]: o.probability for o in measure(state, [keep])}
        assert abs(rho.matrix[0, 0].real - probs.get(0, 0.0)) <= 1e-9
        assert abs(rho.matrix[1, 1].real - probs.get(1, 0.0)) <= 1e-9
        np.testing.assert_allclose(
            rho.matrix, rdm_oracle(state.amplitudes, n, keep), atol=1e-12
        )


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


# ---------------------------------------------------------------------------
# Global-phase equality and rendering
# ---------------------------------------------------------------------------

def test_global_phase_ignored():
    assert states_equal_up_to_global_phase(sv(1, 0), sv(-1, 0), 1e-9)
    assert states_equal_up_to_global_phase(sv(SQ2, SQ2), sv(1j * SQ2, 1j * SQ2), 1e-9)


def test_orthogonal_states_differ():
    assert not states_equal_up_to_global_phase(sv(1, 0), sv(0, 1), 1e-9)
    plus = apply_gate(sv(1, 0), standard_gate("H"), [0])
    minus = sv(SQ2, -SQ2)
    assert not states_equal_up_to_global_phase(plus, minus, 1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        states_equal_up_to_global_phase(sv(1, 0), BELL, 1e-9)


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong length


@pytest.mark.parametrize(
    "bad", [complex(0.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf), complex(np.nan, 0.0)]
)
def test_state_rejects_a_non_finite_part(bad):
    """A NaN or an infinity in either part of one amplitude, the imaginary
    part alone included, is rejected as not finite."""
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([bad, 1.0]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_state_norm_tolerance_is_atol(sign):
    """A squared norm off by 2·ATOL is rejected and one off by ATOL/2 is
    accepted, above 1 and below it, with the weight in both parts."""
    for off, ok in ((2 * ATOL, False), (ATOL / 2, True)):
        r = np.sqrt((1.0 + sign * off) / 2.0)
        amps = np.array([r, 1j * r])
        if ok:
            assert StateVector(1, amps).num_qubits == 1
        else:
            with pytest.raises(ValueError, match="not normalized"):
                StateVector(1, amps)


def test_dirac_rendering():
    assert dirac(BELL) == "0.7071|00⟩ + 0.7071|11⟩"
    assert dirac(sv(SQ2, -SQ2)) == "0.7071|0⟩ - 0.7071|1⟩"
    assert dirac(sv(0, 1j)) == "(0.0000+1.0000i)|1⟩"


# ---------------------------------------------------------------------------
# Dropping basis-state qubits
# ---------------------------------------------------------------------------

def test_drop_basis_qubits_factors_out_exactly():
    """Tensoring the dropped basis factors back onto the result, by an
    explicit index loop, rebuilds the input vector; candidates that are in
    superposition or entangled stay."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        basis = {q: int(rng.integers(0, 2)) for q in range(n) if rng.random() < 0.5}
        rest = [q for q in range(n) if q not in basis]
        inner = random_state_amps(rng, len(rest))
        amps = np.zeros(2**n, dtype=complex)
        for j, a in enumerate(inner):
            index = sum(b << q for q, b in basis.items())
            index += sum(((j >> k) & 1) << q for k, q in enumerate(rest))
            amps[index] = a
        candidates = [q for q in range(n) if rng.random() < 0.7]
        out, dropped = drop_basis_qubits(StateVector(n, amps), candidates)
        assert dropped == {q: b for q, b in basis.items() if q in candidates}
        kept = [q for q in range(n) if q not in dropped]
        assert out.num_qubits == len(kept)
        rebuilt = np.zeros(2**n, dtype=complex)
        for j, a in enumerate(out.amplitudes):
            index = sum(b << q for q, b in dropped.items())
            index += sum(((j >> k) & 1) << q for k, q in enumerate(kept))
            rebuilt[index] = a
        np.testing.assert_array_equal(rebuilt, amps)


def test_drop_basis_qubits_keeps_entangled_and_superposed():
    state = apply_gate(append_qubits(StateVector.empty(), [(1, 0)] * 3), standard_gate("H"), [0])
    state = apply_gate(state, standard_gate("CNot"), [0, 1])
    out, dropped = drop_basis_qubits(state, [1, 2])
    assert dropped == {2: 0}
    assert states_equal_up_to_global_phase(out, BELL)
    plus = sv(SQ2, SQ2)
    assert drop_basis_qubits(plus, [0]) == (plus, {})

"""State-vector core: gates, measurement, partial trace, equality."""

from itertools import combinations, permutations

import numpy as np
import pytest
from cqpkit import qstate
from cqpkit.qstate import (
    ATOL,
    CapacityError,
    DensityMatrix,
    Gate,
    StateVector,
    append_qubits,
    apply_gate,
    collapse,
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
    basis_factored_amps,
    collapse_oracle,
    derive_correction_table,
    drop_basis_qubits_oracle,
    eigvalsh_density_check_oracle,
    monomial_oracle,
    random_state_amps,
    random_unitary,
    rdm_oracle,
    teleport_branches_oracle,
    transpose_apply_gate_oracle,
    transpose_measure_oracle,
    transpose_rdm_oracle,
)


def sv(*amps) -> StateVector:
    return StateVector(len(amps).bit_length() - 1, np.array(amps, dtype=complex))


BELL = sv(SQ2, 0, 0, SQ2)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values, and equal signs of every zero part."""
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


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
        state = StateVector(3, random_state_amps(rng, 3))
        target = int(rng.integers(0, 3))
        out = apply_gate(apply_gate(state, h, [target]), h, [target])
        assert states_equal_up_to_global_phase(out, state)


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
    """Each bad target list raises its own ValueError, also once the layout
    of a good list on the same number of qubits is cached, and again on a
    repeated call."""
    h = standard_gate("H")
    cnot = standard_gate("CNot")
    with pytest.raises(ValueError):
        apply_gate(BELL, h, [0, 1])  # arity mismatch
    apply_gate(BELL, cnot, [0, 1])
    for _ in range(2):
        with pytest.raises(ValueError, match="arity 2, got 1 target"):
            apply_gate(BELL, cnot, [0])
        with pytest.raises(ValueError, match="duplicate qubit index"):
            apply_gate(BELL, cnot, [0, 0])
        with pytest.raises(ValueError, match="qubit index 2 out of range"):
            apply_gate(BELL, cnot, [0, 2])
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(BELL, cnot, [-1, 0])
        with pytest.raises(ValueError, match="no target qubit"):
            apply_gate(BELL, h, [])


def test_unitarity_preserved_on_random_gates():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        state = StateVector(n, random_state_amps(rng, n))
        k = int(rng.integers(1, min(n, 2) + 1))
        gate = Gate("rand", k, random_unitary(rng, 2**k))
        out = apply_gate(state, gate, list(rng.permutation(n)[:k]))
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= 1e-9


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
    np.testing.assert_allclose(collapse(by_result[(0,)]).amplitudes, [1, 0, 0, 0], atol=1e-9)
    np.testing.assert_allclose(collapse(by_result[(1,)]).amplitudes, [0, 0, 0, 1], atol=1e-9)


def test_bell_second_measurement_matches_first():
    for first in measure(BELL, [0]):
        (second,) = measure(collapse(first), [1])
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
            again = measure(collapse(outcome), targets)
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
                StateVector(3, post), sigma_correction((u_bit, x_bit)), [1]
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


def _density_check_error(check, mat) -> str | None:
    try:
        check(mat)
    except ValueError as exc:
        return str(exc)
    return None


def test_one_qubit_density_check_matches_eigvalsh():
    """``DensityMatrix`` checks a 2 x 2 matrix in closed form and accepts
    and rejects, with the same message, exactly what the ``eigvalsh`` checks
    of larger matrices do (``eigvalsh_density_check_oracle``): on random
    Hermitian matrices of trace 1, some with a negative eigenvalue; on ones
    whose smallest eigenvalue is -ATOL * (1 +- 0.1), or whose Hermiticity
    or trace is off by ATOL * (1 +- 0.1); and with a NaN or an infinity in
    either part of each entry, which must fail as not Hermitian."""
    rng = np.random.default_rng(5000)
    psd = "density matrix not positive semidefinite"
    hermitian = "density matrix not Hermitian"
    cases = []  # (matrix, the verdict it must get, or "either")
    for _ in range(500):
        p = rng.uniform(-0.25, 1.25)
        h = complex(*rng.normal(scale=0.5, size=2))
        cases.append((np.array([[p, h], [h.conjugate(), 1 - p]]), "either"))
    for f in (0.9, 1.1):
        for _ in range(50):
            u = random_unitary(rng, 2)
            eig = u @ np.diag([-ATOL * f, 1 + ATOL * f]) @ u.conj().T
            e = ATOL * f * np.exp(2j * np.pi * rng.random())
            off_diagonal = np.array([[0.5, 0.25 + e], [0.25, 0.5]])
            diagonal = np.array([[0.5 + 0.5j * ATOL * f, 0.25], [0.25, 0.5]])
            trace = np.array([[0.5 + ATOL * f, 0.25j], [-0.25j, 0.5]])
            cases += [
                (eig, None if f < 1 else psd),
                (off_diagonal, None if f < 1 else hermitian),
                (diagonal, None if f < 1 else hermitian),
                (trace, None if f < 1 else f"density matrix trace is {complex(trace.trace())!r}, expected 1"),
            ]
    verdicts = []
    for mat, expected in cases:
        want = _density_check_error(eigvalsh_density_check_oracle, mat)
        assert _density_check_error(lambda m: DensityMatrix(1, m), mat) == want
        assert expected in ("either", want)
        verdicts.append(want)
    assert verdicts[:500].count(None) > 50 and verdicts[:500].count(psd) > 50
    for bad in (np.nan, np.inf):
        for i in range(4):
            for entry in (complex(bad, 0), complex(0, bad)):
                mat = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
                mat.flat[i] += entry
                with np.errstate(invalid="ignore"):  # inf - inf
                    assert _density_check_error(eigvalsh_density_check_oracle, mat) == hermitian
                with pytest.raises(ValueError, match="not Hermitian"):
                    DensityMatrix(1, mat)


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(1, np.array([[0.5, np.nan], [np.nan, 0.5]]))
    # Hermitian within ATOL, yet the four diagonal entries sum to an
    # imaginary part of 1.8 ATOL.
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, np.eye(4) * (0.25 + 0.45j * ATOL))


# ---------------------------------------------------------------------------
# Global-phase equality and rendering
# ---------------------------------------------------------------------------

def test_global_phase_ignored():
    assert states_equal_up_to_global_phase(sv(1, 0), sv(-1, 0))
    assert states_equal_up_to_global_phase(sv(SQ2, SQ2), sv(1j * SQ2, 1j * SQ2))


def test_orthogonal_states_differ():
    assert not states_equal_up_to_global_phase(sv(1, 0), sv(0, 1))
    plus = apply_gate(sv(1, 0), standard_gate("H"), [0])
    minus = sv(SQ2, -SQ2)
    assert not states_equal_up_to_global_phase(plus, minus)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        states_equal_up_to_global_phase(sv(1, 0), BELL)


def turned(theta: float) -> StateVector:
    return sv(np.cos(np.pi / 4 + theta), np.sin(np.pi / 4 + theta))


def test_states_apart_by_more_than_atol_differ():
    """|+> turned by 2e-5 rad overlaps |+> within 1 - ATOL, yet its
    amplitudes differ by 1.4e-5; the phase-aligned comparison tells them
    apart. Turned by ATOL/10 rad it is still equal."""
    assert not states_equal_up_to_global_phase(turned(0.0), turned(2e-5))
    assert not states_equal_up_to_global_phase(turned(2e-5), turned(0.0))
    assert states_equal_up_to_global_phase(turned(0.0), turned(ATOL / 10))


def test_random_states_equal_themselves_times_a_unit_phase():
    rng = np.random.default_rng(31)
    for n in (0, 1, 2, 3, 4) * 8:
        amps = random_state_amps(rng, n)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert states_equal_up_to_global_phase(sv(*amps), sv(*(phase * amps)))
        if n:
            assert not states_equal_up_to_global_phase(sv(*amps), sv(*random_state_amps(rng, n)))


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong length


@pytest.mark.parametrize(
    "bad",
    [
        complex(0.0, np.nan),
        complex(0.0, np.inf),
        complex(0.0, -np.inf),
        complex(np.nan, 0.0),
        complex(np.inf, 0.0),
        complex(-np.inf, 0.0),
    ],
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
    # A real part of -0.0 or of a rounding error prints as 0.0000.
    assert dirac(sv(0, complex(-0.0, -1.0))) == "(0.0000-1.0000i)|1⟩"
    assert dirac(sv(0, complex(-1e-17, 1.0))) == "(0.0000+1.0000i)|1⟩"


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
        amps, basis = basis_factored_amps(rng, n)
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


# ---------------------------------------------------------------------------
# The kernels against the transpose kernels they replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_kernels_match_the_transpose_kernels(n):
    """On a random state and on one with basis-state qubits: ``apply_gate``
    for every ordered list of one or two targets, ``measure`` (every
    outcome's bits, probability and collapsed state) and
    ``reduced_density_matrix`` for the same lists, and ``drop_basis_qubits``,
    against the oracles in ``tests/support.py``.

    The kernels read and write their targets through a cached gather index
    (``qstate._gather``) where the oracles transpose, but they multiply and
    sum the same values in the same layout, so the results are equal bit
    for bit, the sign of every zero included. Only a one-qubit gate with at
    most ``_MAX_BLOCKS`` blocks above its target multiplies in another
    shape, by blocks, and is held to within 1e-12."""
    rng = np.random.default_rng(1000 + n)
    target_lists = [list(p) for k in (1, 2) if k <= n for p in permutations(range(n), k)]
    factored, basis = basis_factored_amps(rng, n)
    for amps in (random_state_amps(rng, n), factored):
        state = StateVector(n, amps)
        for targets in target_lists:
            k = len(targets)
            gate = Gate("rand", k, random_unitary(rng, 2**k))
            got = apply_gate(state, gate, targets).amplitudes
            want = transpose_apply_gate_oracle(amps, gate.matrix, targets)
            if k == 1 and 2 ** (n - 1 - targets[0]) <= qstate._MAX_BLOCKS:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:
                assert_same_bits(got, want)
            got = measure(state, targets)
            want = transpose_measure_oracle(amps, targets)
            assert [(o.result, o.probability) for o in got] == [(bits, p) for bits, p, _post in want]
            for o, (_bits, _p, post) in zip(got, want):
                assert_same_bits(collapse(o).amplitudes, post)
            assert_same_bits(
                reduced_density_matrix(state, targets).matrix, transpose_rdm_oracle(amps, targets)
            )
    candidates = [q for q in range(n) if rng.random() < 0.7]
    out, dropped = drop_basis_qubits(StateVector(n, factored), candidates)
    want_amps, want_dropped = drop_basis_qubits_oracle(factored, candidates)
    assert dropped == want_dropped == {q: b for q, b in basis.items() if q in candidates}
    np.testing.assert_allclose(out.amplitudes, want_amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_collapse_matches_the_zero_fill_oracle(n):
    """On a random state and on one with basis-state qubits, for every
    ordered list of one or two targets, every outcome and every subset of
    the targets dropped: ``collapse`` gives bit for bit, the sign of every
    zero included, the full-width collapse of ``collapse_oracle`` with
    those targets then factored out by ``drop_basis_qubits_oracle``, each
    at its measured bit."""
    rng = np.random.default_rng(2000 + n)
    target_lists = [list(p) for k in (1, 2) if k <= n for p in permutations(range(n), k)]
    for amps in (random_state_amps(rng, n), basis_factored_amps(rng, n)[0]):
        state = StateVector(n, amps)
        for targets in target_lists:
            for o in measure(state, targets):
                for k in range(len(targets) + 1):
                    for drop in combinations(targets, k):
                        want, dropped = drop_basis_qubits_oracle(collapse_oracle(o), drop)
                        assert dropped == {t: b for t, b in zip(targets, o.result) if t in drop}
                        got = collapse(o, drop)
                        assert got.num_qubits == n - len(drop)
                        assert_same_bits(got.amplitudes, want)


def test_monomial_gates_permute_and_rephase_like_the_product():
    """X, Z, CNot and every sigma correction hold one entry of modulus 1
    per row, so ``apply_gate`` reads the amplitudes through one full-length
    source index and multiplies them by a phase vector
    (``qstate._monomial_gather``) instead of multiplying by the matrix; H
    and a random unitary multiply. On random states of up to the 12-qubit
    cap, one of them with every imaginary part -0.0, for every ordered list
    of targets of the gate's arity, the result equals the transpose
    oracle's product up to the sign of a zero, and the rows permuted and
    rephased in the transposed layout (``monomial_oracle``) bit for bit. Those lists need more keys than
    either cache keeps; each stays at its bound, and its arrays are
    read-only."""
    monomial = {name for name, g in qstate._STANDARD_GATES.items() if g._monomial is not None}
    assert monomial == {"I", "X", "Z", "CNot", "sigma00", "sigma01", "sigma10", "sigma11"}
    rng = np.random.default_rng(4000)
    assert Gate("rand", 2, random_unitary(rng, 4))._monomial is None
    qstate._gather.cache_clear()
    qstate._monomial_gather.cache_clear()
    for n in range(1, qstate.DEFAULT_QUBIT_CAP + 1):
        real = random_state_amps(rng, n).real
        # every imaginary part -0.0, which the product can turn into 0.0
        signed_zeros = (real / np.linalg.norm(real)).astype(complex).conj()
        for amps in (random_state_amps(rng, n), basis_factored_amps(rng, n)[0], signed_zeros):
            state = StateVector(n, amps)
            for name in sorted(monomial):
                gate = standard_gate(name)
                for targets in permutations(range(n), gate.arity):
                    got = apply_gate(state, gate, targets).amplitudes
                    assert np.array_equal(
                        got, transpose_apply_gate_oracle(amps, gate.matrix, targets)
                    )
                    assert_same_bits(got, monomial_oracle(amps, gate.matrix, targets))
    for cache, bound in (
        (qstate._gather, qstate._MAX_GATHERS),
        (qstate._monomial_gather, qstate._MAX_MONOMIALS),
    ):
        info = cache.cache_info()
        assert info.misses > info.maxsize == info.currsize == bound
    for array in qstate._gather(3, (0, 2)):
        assert array.dtype == np.intp
        assert not array.flags.writeable
    source, phases = qstate._monomial_gather(3, (0, 2), standard_gate("CNot"))
    assert phases is None and source.dtype == np.intp and not source.flags.writeable
    source, phases = qstate._monomial_gather(3, (1,), standard_gate("sigma11"))
    assert source.shape == phases.shape == (8,)
    assert not source.flags.writeable and not phases.flags.writeable
    assert qstate._monomial_gather(3, (1,), standard_gate("Z"))[0] is None


def test_collapse_drops_only_measured_qubits():
    (o,) = measure(StateVector(2, [1, 0, 0, 0]), [0])
    with pytest.raises(ValueError, match="measured"):
        collapse(o, [1])


# ---------------------------------------------------------------------------
# Aliasing: no state shares a buffer that anything can write
# ---------------------------------------------------------------------------

def test_caller_array_is_copied_and_results_are_read_only():
    """Writing into the array a state was built from leaves the state as it
    was, and the amplitudes of every result of the kernels are read-only,
    since the kernels keep the arrays they compute instead of copying."""
    arr = np.array([SQ2, 0, 0, SQ2], dtype=complex)
    state = StateVector(2, arr)
    arr[:] = [0, 1, 0, 0]
    np.testing.assert_array_equal(state.amplitudes, [SQ2, 0, 0, SQ2])
    rho_in = np.eye(2) / 2
    rho = DensityMatrix(1, rho_in)
    rho_in[0, 0] = 1.0
    np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)

    wide = append_qubits(state, [(1, 0)])
    results = [
        state,
        wide,
        apply_gate(state, standard_gate("H"), [0]),
        apply_gate(state, standard_gate("H"), [1]),
        apply_gate(state, standard_gate("CNot"), [1, 0]),
        drop_basis_qubits(wide, [2])[0],
        *(collapse(o, drop) for o in measure(state, [1]) for drop in ([], [1])),
    ]
    for result in results:
        assert not result.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            result.amplitudes[0] = 0.0
    assert not reduced_density_matrix(state, [0]).matrix.flags.writeable

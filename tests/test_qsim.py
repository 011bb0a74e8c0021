"""The statevector simulation inside the DR kernel, piece by piece.

The kernel runs in the frame of the encoding gate.  With an ``rz``
encoding that frame is the computational basis (qubit 0 = most significant
bit), so there its pieces -- the matrices a stage's trainable gates build,
the CNOT ring, |0...0> and the Z_0 readout -- are the plain gates.  These
tests build them through the kernel and compare them with the dense
matrices of ``tests/oracles.py``.
"""

import numpy as np
import pytest

from quirk.dr import (
    MAX_QUBITS,
    CapacityError,
    DRParams,
    GateTemplate,
    _EIGEN,
    _build,
    _plan,
    dr_forward_batch,
)

import oracles


def _plan_rz(n, kind=None, entangle=False):
    # an rz encoding, then one trainable gate of ``kind`` (or none)
    gates = (("rz", "input"),) + (((kind, 0),) if kind else ())
    return _plan(n, entangle, GateTemplate(gates))


def apply_gate(state, kind, a, q):
    """The kernel's stage matrix for one ``kind`` gate by angle a on qubit q
    (every other qubit's angle 0) applied to a dense state (..., 2^n)."""
    n = int(np.log2(state.shape[-1]))
    thetas = np.zeros((1, 1, n, 1))
    thetas[0, 0, q, 0] = a
    block = _build(thetas if n > 1 else thetas[:, :, 0], n, _plan_rz(n, kind).stages)[0]
    return state @ block[0, 0, :2**n].T


def gate_matrix(kind, a):
    """The kernel's 2x2 gate: column k is its action on basis state k."""
    return apply_gate(np.eye(2, dtype=complex), kind, a, 0).T


def ring_matrix(n):
    """The kernel's entangling CNOT ring on n qubits, the fixed factor that
    ends a layer."""
    fixed = _plan_rz(n, entangle=True).stages[0][2]
    assert fixed is not None
    return fixed


def apply_ring(state):
    """The kernel's entangling CNOT ring on a dense state (2^n,)."""
    return ring_matrix(int(np.log2(state.shape[-1]))) @ state


def zero_state(n):
    return _plan_rz(n).psi0


def z0(state):
    """The kernel's readout Re <psi|Z_0 psi> of dense states (..., 2^n)."""
    plan = _plan_rz(int(np.log2(state.shape[-1])))
    return np.sum(state.conj() * plan.sign * state[..., plan.perm], axis=-1).real


class TestGateMatrices:
    def test_zero_angle_is_identity(self):
        for kind in ("rx", "ry", "rz"):
            np.testing.assert_allclose(gate_matrix(kind, 0.0), np.eye(2), atol=1e-15)

    def test_pi_rotations_hit_paulis(self):
        # R_P(pi) = -i P
        np.testing.assert_allclose(gate_matrix("rx", np.pi),
                                   -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(gate_matrix("ry", np.pi),
                                   -1j * np.array([[0, -1j], [1j, 0]]), atol=1e-15)
        np.testing.assert_allclose(gate_matrix("rz", np.pi),
                                   -1j * np.diag([1, -1]), atol=1e-15)

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz"])
    def test_unitarity(self, gate):
        rng = np.random.default_rng(3)
        for a in rng.uniform(-10, 10, 25):
            u = gate_matrix(gate, a)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("gate,oracle", [("rx", oracles.mat_rx), ("ry", oracles.mat_ry),
                                             ("rz", oracles.mat_rz)])
    def test_matches_textbook_matrices(self, gate, oracle):
        for a in np.linspace(-2 * np.pi, 2 * np.pi, 17):
            np.testing.assert_allclose(gate_matrix(gate, a), oracle(a), atol=1e-15)

    @pytest.mark.parametrize("encoding", ["rx", "ry", "rz"])
    def test_in_every_encoding_frame(self, encoding):
        # a stage's gate in the frame V of its encoding's Pauli is V^dagger G V
        V = _EIGEN[encoding]
        for kind, oracle in oracles.GATE_MATS.items():
            stages = _plan(1, False, GateTemplate(((encoding, "input"), (kind, 0)))).stages
            for a in np.linspace(-2 * np.pi, 2 * np.pi, 9):
                block = _build(np.full((1, 1, 1), a), 1, stages)[0][0, 0, :2]
                np.testing.assert_allclose(V @ block @ V.conj().T, oracle(a), atol=1e-15)

    @pytest.mark.parametrize("encoding", ["rx", "ry", "rz"])
    def test_encoding_is_a_phase_in_its_frame(self, encoding):
        # the encoding on every qubit is V diag(exp(-i w x)) V^dagger
        for n in (1, 2, 3):
            plan = _plan(n, False, GateTemplate(((encoding, "input"),)))
            V = np.eye(1)
            for _ in range(n):
                V = np.kron(V, _EIGEN[encoding])
            np.testing.assert_allclose(plan.psi0, V.conj().T[:, 0], atol=1e-15)
            for x in (-1.3, 0.4, 2.9):
                want = np.eye(2**n)
                for q in range(n):
                    want = oracles.embed_1q(oracles.GATE_MATS[encoding](x), q, n) @ want
                np.testing.assert_allclose(V @ np.diag(np.exp(-1j * plan.w * x)) @ V.conj().T,
                                           want, atol=1e-14)

    def test_composition(self):
        # successive rotations about one axis add their angles
        np.testing.assert_allclose(gate_matrix("rx", 0.3) @ gate_matrix("rx", 0.4),
                                   gate_matrix("rx", 0.7), atol=1e-15)


class TestStates:
    def test_zero_state(self):
        s = zero_state(3)
        assert s.shape == (8,)
        assert s[0] == 1.0
        assert np.linalg.norm(s) == pytest.approx(1.0)

    def test_capacity_default(self):
        with pytest.raises(CapacityError):
            DRParams(np.zeros((1, MAX_QUBITS + 1, 2)), num_qubits=MAX_QUBITS + 1)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            DRParams(np.zeros((1, 2)), num_qubits=0)


class TestApplyGate:
    def test_against_kron_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(1, 5):
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state /= np.linalg.norm(state)
            for q in range(n):
                a = rng.uniform(-np.pi, np.pi)
                for kind, mk in (("rx", oracles.mat_rx), ("ry", oracles.mat_ry),
                                 ("rz", oracles.mat_rz)):
                    got = apply_gate(state, kind, a, q)
                    want = oracles.embed_1q(mk(a), q, n) @ state
                    np.testing.assert_allclose(got, want, atol=1e-13)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        got = apply_gate(batch, "ry", 0.37, 1)
        for i in range(6):
            np.testing.assert_allclose(got[i], apply_gate(batch[i], "ry", 0.37, 1),
                                       atol=1e-14)

    def test_norm_preserved_through_random_circuit(self):
        rng = np.random.default_rng(6)
        state = zero_state(4)
        for _ in range(30):
            kind = ("rx", "ry", "rz")[rng.integers(3)]
            state = apply_gate(state, kind, rng.uniform(-6, 6), int(rng.integers(4)))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_out_of_range(self):
        # angles for a third qubit do not fit a two-qubit register
        with pytest.raises(ValueError):
            DRParams(np.zeros((1, 3, 2)), num_qubits=2)


class TestCnot:
    def test_against_permutation_oracle(self):
        # the ring 0->1, 1->2, ..., n-1->0 as one permutation, and its inverse
        rng = np.random.default_rng(12)
        for n in range(2, 5):
            state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state /= np.linalg.norm(state)
            want = state
            for c in range(n):
                want = oracles.cnot_matrix(c, (c + 1) % n, n) @ want
            got = apply_ring(state)
            np.testing.assert_allclose(got, want, atol=1e-14)
            # the reverse sweep undoes it by its transpose
            np.testing.assert_array_equal(ring_matrix(n).T @ got, state)

    def test_bell_state(self):
        # ry(pi/2) on qubit 1, then the ring: |00> -> (|00> + |11>)/sqrt(2)
        s = apply_gate(zero_state(2), "ry", np.pi / 2, 1)
        s = apply_ring(s)
        np.testing.assert_allclose(s, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-14)

    def test_control_equals_target_rejected(self):
        # one qubit has no ring: the would-be CNOT(0, 0) is never built
        assert _plan(1, True, GateTemplate()).stages[0][2] is None
        thetas = np.random.default_rng(2).uniform(-np.pi, np.pi, (3, 2))
        assert dr_forward_batch(0.7, DRParams(thetas, entangle=True)) == dr_forward_batch(
            0.7, DRParams(thetas))


class TestExpectationZ:
    def test_ry_rotation_gives_cos(self):
        for x in np.linspace(0, 2 * np.pi, 40):
            s = apply_gate(zero_state(1), "ry", x, 0)
            assert z0(s) == pytest.approx(np.cos(x), abs=1e-14)

    def test_qubit_selection_on_product_state(self):
        # the readout is <Z> on qubit 0: rotating qubit 1 leaves it at 1
        s = apply_gate(zero_state(2), "ry", 1.1, 1)
        assert z0(s) == pytest.approx(1.0, abs=1e-14)
        s = apply_gate(s, "ry", 1.1, 0)
        assert z0(s) == pytest.approx(np.cos(1.1), abs=1e-14)

    def test_msb_convention(self):
        # amplitude index 2 = |10>: qubit 0 is 1; index 1 = |01>: qubit 0 is 0
        s = np.zeros(4, dtype=complex)
        s[2] = 1.0
        assert z0(s) == pytest.approx(-1.0)
        s = np.zeros(4, dtype=complex)
        s[1] = 1.0
        assert z0(s) == pytest.approx(1.0)

    def test_batched(self):
        xs = np.linspace(0, np.pi, 9)
        states = np.stack([apply_gate(zero_state(1), "ry", x, 0) for x in xs])
        np.testing.assert_allclose(z0(states), np.cos(xs), atol=1e-14)

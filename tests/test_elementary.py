import numpy as np
import pytest

from revsynth.cost import GarbagePolicy, cost_of
from revsynth.elementary import (
    UNITARY_TOL,
    V,
    V_DAG,
    X,
    QuantumGate,
    build_unitary,
    ccu_gate,
    ccu_negative_network,
    ccu_positive_network,
    principal_sqrt,
    verify_elementary,
    x_root,
)
from revsynth.gates import Circuit, toffoli
from revsynth.perm import TruthVector


def test_v_is_the_standard_square_root_of_not():
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.max(np.abs(V - expected)) < 1e-15
    assert np.max(np.abs(V @ V - X)) <= 1e-12


def test_x_root_family():
    assert np.max(np.abs(x_root(np.pi) - X)) < 1e-15
    w = x_root(np.pi / 4)
    assert np.max(np.abs(w @ w - V)) < 1e-12
    assert np.max(np.abs(V @ V_DAG - np.eye(2))) < 1e-12


def test_principal_sqrt_squares_back():
    for u in (X, V, x_root(0.3)):
        w = principal_sqrt(u)
        assert np.max(np.abs(w @ w - u)) < 1e-12


def _unitarity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


def test_unitarity_of_built_matrices():
    for u in (X, V, V_DAG):
        m = build_unitary([QuantumGate(u, target=1, controls=frozenset({0}))], 2)
        assert _unitarity_residual(m) <= UNITARY_TOL
    assert _unitarity_residual(build_unitary(ccu_positive_network(V), 3)) <= UNITARY_TOL


def test_two_positive_control_identity():
    for u in (X, V):
        lhs = build_unitary([ccu_gate(u)], 3)
        rhs = build_unitary(ccu_positive_network(u), 3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        assert len(ccu_positive_network(u)) == 5


def test_one_negative_control_identity():
    for u in (X, V):
        lhs = build_unitary([ccu_gate(u, negated=frozenset({1}))], 3)
        rhs = build_unitary(ccu_negative_network(u), 3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        assert len(ccu_negative_network(u)) == 5


def test_toffoli_elementary_count_is_five():
    # the five-gate networks are exactly what the size-3 cost table prices
    assert len(ccu_positive_network(X)) == 5
    for u in (X, V):
        assert len(ccu_positive_network(u)) == cost_of(3, 0, GarbagePolicy.ZERO)
        assert len(ccu_negative_network(u)) == cost_of(3, 1, GarbagePolicy.ZERO)


def test_controlled_x_matrix_is_gate_permutation_matrix():
    """The dense unitary of a classical gate is its permutation matrix."""
    g = toffoli(3, {0, 2}, 1, {2})
    qg = QuantumGate(X, target=1, controls=frozenset({0, 2}), negated=frozenset({2}))
    m = build_unitary([qg], 3)
    perm = Circuit(3, (g,)).perm()
    expected = np.zeros((8, 8))
    for col in range(8):
        expected[perm.entries[col], col] = 1
    assert np.max(np.abs(m - expected)) == 0


def test_uncontrolled_not_matrix():
    m = build_unitary([QuantumGate(X, target=0)], 1)
    assert np.max(np.abs(m - X)) == 0
    tv = TruthVector([1, 0])
    assert all(m[tv.entries[c], c] == 1 for c in range(2))


def test_build_unitary_validation():
    with pytest.raises(ValueError):
        build_unitary([], 5)
    with pytest.raises(ValueError):
        build_unitary([QuantumGate(X, target=3)], 2)
    with pytest.raises(ValueError):
        QuantumGate(X, target=0, controls=frozenset({0})).unitary(2)


def test_verify_elementary_report():
    checks = verify_elementary()
    assert all(c.ok for c in checks)
    names = {c.name for c in checks}
    assert {"v_squared_is_x", "two_positive_controls_x", "two_positive_controls_v",
            "one_negative_control_x", "one_negative_control_v"} <= names
    for check in checks:
        assert check.residual <= check.tolerance


def test_unitarity_is_reported_as_a_measured_residual():
    """Every check compares a measured residual with a positive tolerance; the
    network-unitarity rows carry max |M M^dagger - I| of the positive network."""
    checks = {c.name: c for c in verify_elementary()}
    assert all(c.tolerance > 0 for c in checks.values())
    for name, u in (("x", X), ("v", V)):
        expected = _unitarity_residual(build_unitary(ccu_positive_network(u), 3))
        assert checks[f"network_unitary_{name}"].residual == expected

"""Numerical verification of the controlled square-root-of-NOT identities.

A two-control U gate factors into five singly-controlled gates over {NOT,
controlled-W, controlled-W dagger} where W * W = U.  This module builds the
dense unitaries for small line counts and checks those five-gate identities,
for both the all-positive and the one-negative-control variant, together
with the defining relation V * V = X.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gates import Circuit, toffoli

MAX_UNITARY_LINES = 4

UNITARY_TOL = 1e-10


def x_root(theta: float) -> np.ndarray:
    """The X rotation 0.5 * [[1+e, 1-e], [1-e, 1+e]] with e = exp(i*theta).

    theta = pi gives X itself, pi/2 the square root V, pi/4 the fourth root;
    negating theta gives the conjugate transpose.
    """
    e = cmath.exp(1j * theta)
    return 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]], dtype=complex)


X = np.array([[0, 1], [1, 0]], dtype=complex)
V = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
V_DAG = V.conj().T


@dataclass(frozen=True)
class QuantumGate:
    """A single-target gate with an arbitrary 2x2 unitary and controls."""

    matrix: np.ndarray
    target: int
    controls: frozenset[int] = frozenset()
    negated: frozenset[int] = frozenset()

    def unitary(self, lines: int) -> np.ndarray:
        """Dense 2^lines x 2^lines matrix of this gate."""
        pattern = toffoli(lines, self.controls, self.target, self.negated)  # validates the lines
        partners = np.array(Circuit(lines, (pattern,)).perm().entries)
        fire = np.flatnonzero(partners != np.arange(1 << lines))  # the columns the gate acts on
        b = fire >> self.target & 1
        m = np.eye(1 << lines, dtype=complex)
        m[fire, fire] = self.matrix[b, b]
        m[partners[fire], fire] = self.matrix[b ^ 1, b]
        return m


def build_unitary(gates: Sequence[QuantumGate], lines: int) -> np.ndarray:
    """Dense unitary of a gate sequence (first gate acts first)."""
    if not 1 <= lines <= MAX_UNITARY_LINES:
        raise ValueError(f"line count {lines} out of range [1, {MAX_UNITARY_LINES}]")
    m = np.eye(1 << lines, dtype=complex)
    for g in gates:
        m = g.unitary(lines) @ m
    return m


def ccu_gate(u: np.ndarray, negated: frozenset[int] = frozenset()) -> QuantumGate:
    """Two-control U over lines (0, 1) targeting line 2."""
    return QuantumGate(u, target=2, controls=frozenset({0, 1}), negated=negated)


def ccu_positive_network(u: np.ndarray) -> list[QuantumGate]:
    """Five-gate realization of U controlled by lines 0 and 1 (both on 1).

    W is the principal square root of U: C-W on the second control, a NOT of
    the second control steered by the first, C-W dagger, the NOT again, and
    C-W on the first control.
    """
    return _network(principal_sqrt(u), _POSITIVE)


def ccu_negative_network(u: np.ndarray) -> list[QuantumGate]:
    """Five-gate realization of U controlled by line 0 on 1 and line 1 on 0.

    Same shape as the all-positive network but with the square-root pattern
    rearranged so the gate fires exactly when the second control is 0.
    """
    return _network(principal_sqrt(u), _NEGATIVE)


# Each five-gate network as (matrix, target, control) rows, first gate first:
# "W" is the root W of U, "Wdag" its conjugate transpose, "NOT" the X gate.
_POSITIVE = (("W", 2, 1), ("NOT", 1, 0), ("Wdag", 2, 1), ("NOT", 1, 0), ("W", 2, 0))
_NEGATIVE = (("Wdag", 2, 1), ("W", 2, 0), ("NOT", 1, 0), ("W", 2, 1), ("NOT", 1, 0))


def _network(w: np.ndarray, shape: tuple[tuple[str, int, int], ...]) -> list[QuantumGate]:
    matrices = {"W": w, "Wdag": w.conj().T, "NOT": X}
    return [QuantumGate(matrices[m], target=t, controls=frozenset({c})) for m, t, c in shape]


def principal_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary via eigendecomposition."""
    vals, vecs = np.linalg.eig(u)
    roots = np.sqrt(vals.astype(complex))
    return vecs @ np.diag(roots) @ np.linalg.inv(vecs)


@dataclass(frozen=True)
class ElementaryCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def verify_elementary() -> tuple[ElementaryCheck, ...]:
    """Check the five-gate controlled-U identities and V * V = X."""
    checks = [
        ElementaryCheck("v_squared_is_x", _residual(V @ V, X), 1e-12),
        ElementaryCheck("v_dag_inverts_v", _residual(V @ V_DAG, np.eye(2)), 1e-12),
    ]
    for name, u in (("x", X), ("v", V)):
        lhs = build_unitary([ccu_gate(u)], 3)
        rhs = build_unitary(ccu_positive_network(u), 3)
        checks.append(
            ElementaryCheck(f"two_positive_controls_{name}", _residual(lhs, rhs), UNITARY_TOL)
        )
        lhs_neg = build_unitary([ccu_gate(u, negated=frozenset({1}))], 3)
        rhs_neg = build_unitary(ccu_negative_network(u), 3)
        checks.append(
            ElementaryCheck(f"one_negative_control_{name}", _residual(lhs_neg, rhs_neg), UNITARY_TOL)
        )
        unitarity = _residual(rhs @ rhs.conj().T, np.eye(8))
        checks.append(ElementaryCheck(f"network_unitary_{name}", unitarity, UNITARY_TOL))
    # Degenerate root choice: W = X squares to the identity, so the five-gate
    # pattern with W = X must realize a doubly-controlled identity.
    ident = np.eye(2, dtype=complex)
    rhs_deg = build_unitary(_network(X, _POSITIVE), 3)
    lhs_deg = build_unitary([ccu_gate(ident)], 3)
    checks.append(
        ElementaryCheck("degenerate_root_identity", _residual(lhs_deg, rhs_deg), UNITARY_TOL)
    )
    return tuple(checks)

"""Expansion of wide controlled gates into Toffoli-sized networks.

Three constructions, all verified by exhaustive classical simulation:

* a zeroed-ancilla chain: s - 3 ancilla initialized to 0 accumulate the
  control conjunction pairwise, one gate fires the target, and the mirror
  image restores the ancilla (2s - 5 gates for a size-s gate);
* a borrowed-ancilla network: s - 3 helper lines in *arbitrary* states,
  restored on every input, in a doubled-V pattern (4(s - 3) gates);
* a split into two half-size gates G1 G2 G1 G2 through one borrowed line,
  and its full expansion down to size <= 3 gates.

Negative controls stay on the original control lines; every helper-mediated
control is positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .gates import Circuit, Gate, fold_planes, input_planes
from .perm import MAX_LINES

VERIFY_MAX_LINES = 22


class AncillaMode(enum.Enum):
    ZEROED_RESTORED = "zeroed"
    BORROWED_RESTORED = "borrowed"


@dataclass(frozen=True)
class AncillaCircuit:
    """A circuit over principal lines plus helper (ancilla) lines.

    In ZEROED_RESTORED mode correctness is promised only when the ancilla
    start at 0; in BORROWED_RESTORED mode for any initial ancilla values.
    Both modes restore the ancilla on every input.
    """

    principal_lines: int
    ancilla_lines: int
    ancilla_mode: AncillaMode
    gates: Circuit

    def __post_init__(self):
        if self.ancilla_lines < 0:
            raise ValueError("ancilla line count cannot be negative")
        if self.gates.n != self.total_lines:
            raise ValueError(
                f"gates span {self.gates.n} lines, expected "
                f"{self.principal_lines} principal + {self.ancilla_lines} ancilla"
            )

    @property
    def total_lines(self) -> int:
        return self.principal_lines + self.ancilla_lines


def _widened(g: Gate, ancilla: int) -> int:
    """Line count of an expansion of ``g`` that adds ``ancilla`` helper lines."""
    total = g.n + ancilla
    if total > MAX_LINES:
        raise ValueError(
            f"size-{g.size} gate on {g.n} lines needs {ancilla} ancilla lines, "
            f"{total} in all; the limit is {MAX_LINES} lines"
        )
    return total


def _chain(g: Gate, total: int, helpers) -> tuple[list[Gate], Gate]:
    """The helper AND-chain of ``g`` and the gate that fires its target.

    The links AND the two lowest controls into ``helpers[0]``, then
    ``helpers[k - 1]`` with sorted control ``k + 1`` into ``helpers[k]``;
    the fire gate flips the target from the last helper and the last
    control.  Uses the first len(g.controls) - 2 lines of ``helpers``.
    """
    xs = sorted(g.controls)
    vm = g.value_mask
    helpers = helpers[:len(xs) - 2]

    def link(target: int, helper_bits: int, control_bits: int) -> Gate:
        # helper controls fire on 1; g's own controls keep g's polarity
        return Gate(total, target, helper_bits | control_bits, helper_bits | vm & control_bits)

    links = [link(helpers[0], 0, 1 << xs[0] | 1 << xs[1])]
    links += [
        link(helpers[k], 1 << helpers[k - 1], 1 << xs[k + 1]) for k in range(1, len(helpers))
    ]
    fire = link(g.target, 1 << helpers[-1], 1 << xs[-1])
    return links, fire


def _zeroed_ladder(g: Gate, total: int) -> list[Gate]:
    """Zeroed-ancilla chain of ``g`` over the helpers from line ``g.n``: 2s - 5 gates."""
    links, fire = _chain(g, total, range(g.n, total))
    return links + [fire] + links[::-1]


def _borrowed_network(g: Gate, total: int, helpers) -> list[Gate]:
    """Doubled-V borrowed-bit network realizing ``g`` over ``total`` lines.

    The first len(g.controls) - 2 ``helpers`` are lines with arbitrary
    contents, all restored: fire, chain down to ``helpers[0]`` and back up,
    twice.  Works from 3 controls up (one borrowed line): 4(s - 3) gates.
    """
    links, fire = _chain(g, total, helpers)
    return ([fire] + links[:0:-1] + links) * 2


def _free_lines(g: Gate) -> list[int]:
    """The lines ``g`` neither controls nor targets, ascending."""
    used = g.control_mask | 1 << g.target
    return [l for l in range(g.n) if not used >> l & 1]


def split_one_borrowed(g: Gate) -> tuple[Gate, Gate, Gate, Gate]:
    """Split a size >= 5 gate into G1 G2 G1 G2 through one borrowed line.

    The controls are cut into a larger first half (feeding G1, which targets
    a free line) and the rest (feeding G2 together with the positive borrowed
    control).  The free line is restored because G1 fires twice.
    """
    s = g.size
    if s < 5:
        raise ValueError(f"split needs gate size >= 5, got {s}")
    free = _free_lines(g)
    if not free:
        raise ValueError("split needs a free line to borrow")
    borrow = free[0]
    first = (s + 2) // 2
    s1 = g.control_mask & ((1 << sorted(g.controls)[first]) - 1)  # the lowest `first` controls
    s2 = g.control_mask ^ s1
    b = 1 << borrow
    g1 = Gate(g.n, borrow, s1, g.value_mask & s1)
    g2 = Gate(g.n, g.target, s2 | b, g.value_mask & s2 | b)
    return (g1, g2, g1, g2)


def _one_garbage(g: Gate, total: int) -> list[Gate]:
    """Full expansion of a size >= 5 gate to size <= 3 gates with one garbage.

    The gate is first split through a borrowed line (an unused principal line
    when one exists, otherwise the one added ancilla), then each oversized
    half is expanded by the borrowed-bit network on the lowest lines the half
    does not touch.  A half of size k needs k - 3 such lines, and 2k - 3 is
    at most s + 1 <= ``total``, so there are always enough; and a gate that
    leaves a principal line free never borrows a line past its own, so the
    expansion is the same at any ``total`` >= n.
    """
    halves: list[Gate] = []
    for sub in split_one_borrowed(Gate(total, g.target, g.control_mask, g.value_mask))[:2]:
        if sub.size <= 3:
            halves.append(sub)
        else:
            halves.extend(_borrowed_network(sub, total, _free_lines(sub)))
    return halves * 2  # the split's G1 G2 G1 G2, each half built once


@dataclass(frozen=True)
class VerificationResult:
    equivalent: bool
    inputs_checked: int
    counterexample: int | None = None


def verify_circuit_equivalence(spec: Circuit, impl: AncillaCircuit) -> VerificationResult:
    """Exhaustively check that ``impl`` realizes ``spec`` and restores ancilla.

    Simulates every input word over the principal + ancilla lines (ancilla
    pinned to 0 in zeroed mode) as bit planes, comparing the principal output
    with the reference circuit's action and requiring the ancilla bits back in
    their initial state.  Returns the lowest failing input word on
    disagreement.
    """
    if spec.n != impl.principal_lines:
        raise ValueError(
            f"circuit spans {spec.n} lines, expansion declares {impl.principal_lines}"
        )
    total = impl.total_lines
    if total > VERIFY_MAX_LINES:
        raise ValueError(f"{total} lines exceeds the {VERIFY_MAX_LINES}-line verification budget")
    bits = spec.n if impl.ancilla_mode is AncillaMode.ZEROED_RESTORED else total
    inputs = input_planes(bits) + [0] * (total - bits)
    words = 1 << bits
    full = (1 << words) - 1
    state = list(inputs)
    fold_planes(state, full, impl.gates.gates)
    expected = inputs[:spec.n]
    fold_planes(expected, full, spec.gates)
    diff = 0
    for got, want in zip(state, expected + inputs[spec.n:]):
        diff |= got ^ want
    if not diff:
        return VerificationResult(True, words)
    return VerificationResult(False, words, (diff & -diff).bit_length() - 1)


_STRATEGIES = {
    "zeroed": (_zeroed_ladder, 4, AncillaMode.ZEROED_RESTORED, lambda g: g.size - 3),
    "borrowed": (lambda g, total: _borrowed_network(g, total, range(g.n, total)), 5,
                 AncillaMode.BORROWED_RESTORED, lambda g: g.size - 3),
    "one-garbage": (_one_garbage, 5, AncillaMode.BORROWED_RESTORED,
                    lambda g: 0 if g.size < g.n else 1),
}  # name -> (network builder (g, total lines), smallest gate size, ancilla mode, helpers added)

DECOMPOSE_STRATEGIES = tuple(_STRATEGIES)


def expand_circuit(circuit: Circuit, strategy: str) -> AncillaCircuit:
    """Expand every oversized gate of a circuit with one shared ancilla pool.

    The pool is as wide as the largest helper count any gate needs; each
    oversized gate's network is built at that width, and gates already small
    enough for the strategy pass through, lifted to it when it adds lines.
    All expansions restore their helpers, so consecutive gates reuse the same
    pool.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r} (expected one of {', '.join(DECOMPOSE_STRATEGIES)})"
        )
    build, min_size, mode, helpers = _STRATEGIES[strategy]
    total = max(
        [_widened(g, helpers(g)) for g in circuit.gates if g.size >= min_size], default=circuit.n
    )
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.size >= min_size:
            gates += build(g, total)
        elif total == circuit.n:  # the pool adds no line: the gate passes through as it is
            gates.append(g)
        else:
            gates.append(Gate(total, g.target, g.control_mask, g.value_mask))
    return AncillaCircuit(circuit.n, total - circuit.n, mode, Circuit(total, gates))

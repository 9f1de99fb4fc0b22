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
    control.  Uses len(g.controls) - 2 helpers.
    """
    xs = sorted(g.controls)
    vm = g.value_mask

    def link(target: int, helper_bits: int, control_bits: int) -> Gate:
        # helper controls fire on 1; g's own controls keep g's polarity
        return Gate(total, target, helper_bits | control_bits, helper_bits | vm & control_bits)

    links = [link(helpers[0], 0, 1 << xs[0] | 1 << xs[1])]
    links += [
        link(helpers[k], 1 << helpers[k - 1], 1 << xs[k + 1]) for k in range(1, len(helpers))
    ]
    fire = link(g.target, 1 << helpers[-1], 1 << xs[-1])
    return links, fire


def ladder_zeroed(g: Gate) -> AncillaCircuit:
    """Zeroed-ancilla chain expansion of a size >= 4 gate: 2s - 5 gates."""
    s = g.size
    if s < 4:
        raise ValueError(f"zeroed ladder needs gate size >= 4, got {s}")
    total = _widened(g, s - 3)
    links, fire = _chain(g, total, range(g.n, total))
    gates = links + [fire] + links[::-1]
    return AncillaCircuit(g.n, s - 3, AncillaMode.ZEROED_RESTORED, Circuit(total, gates))


def _borrowed_network(g: Gate, total: int, helpers) -> list[Gate]:
    """Doubled-V borrowed-bit network realizing ``g`` over ``total`` lines.

    ``helpers`` are len(g.controls) - 2 lines with arbitrary contents, all
    restored: fire, chain down to ``helpers[0]`` and back up, twice.  Works
    from 3 controls up (one borrowed line).
    """
    links, fire = _chain(g, total, helpers)
    return ([fire] + links[:0:-1] + links) * 2


def ladder_borrowed(g: Gate) -> AncillaCircuit:
    """Borrowed-ancilla expansion of a size >= 5 gate: 4(s - 3) gates."""
    s = g.size
    if s < 5:
        raise ValueError(f"borrowed ladder needs gate size >= 5, got {s}")
    total = _widened(g, s - 3)
    gates = _borrowed_network(g, total, range(g.n, total))
    return AncillaCircuit(g.n, s - 3, AncillaMode.BORROWED_RESTORED, Circuit(total, gates))


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


def expand_one_garbage(g: Gate) -> AncillaCircuit:
    """Full expansion of a size >= 5 gate to size <= 3 gates with one garbage.

    The gate is first split through a borrowed line (an unused principal line
    when one exists, otherwise a single added ancilla), then each oversized
    half is expanded by the borrowed-bit network using lines the half does
    not touch.
    """
    s = g.size
    if s < 5:
        raise ValueError(f"one-garbage expansion needs gate size >= 5, got {s}")
    total = _widened(g, 0 if s < g.n else 1)
    lifted = Gate(total, g.target, g.control_mask, g.value_mask)
    sequence: list[Gate] = []
    for sub in split_one_borrowed(lifted):
        if sub.size <= 3:
            sequence.append(sub)
            continue
        pool = _free_lines(sub)
        need = sub.size - 3
        if len(pool) < need:
            raise ValueError(
                f"sub-gate of size {sub.size} needs {need} borrowed lines, "
                f"only {len(pool)} free"
            )
        sequence.extend(_borrowed_network(sub, total, pool[:need]))
    return AncillaCircuit(g.n, total - g.n, AncillaMode.BORROWED_RESTORED, Circuit(total, sequence))


@dataclass(frozen=True)
class VerificationResult:
    equivalent: bool
    inputs_checked: int
    counterexample: int | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def verify_equivalence(spec: Gate, impl: AncillaCircuit) -> VerificationResult:
    """:func:`verify_circuit_equivalence` against the one-gate circuit ``spec``."""
    return verify_circuit_equivalence(Circuit(spec.n, (spec,)), impl)


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
    "zeroed": (ladder_zeroed, 4, AncillaMode.ZEROED_RESTORED),
    "borrowed": (ladder_borrowed, 5, AncillaMode.BORROWED_RESTORED),
    "one-garbage": (expand_one_garbage, 5, AncillaMode.BORROWED_RESTORED),
}  # name -> (expander, smallest gate size it expands, ancilla mode)

DECOMPOSE_STRATEGIES = tuple(_STRATEGIES)


def expand_circuit(circuit: Circuit, strategy: str) -> AncillaCircuit:
    """Expand every oversized gate of a circuit with one shared ancilla pool.

    Gates already small enough for the strategy pass through unchanged.
    All expansions restore their helpers, so consecutive gates reuse the
    same pool.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r} (expected one of {', '.join(DECOMPOSE_STRATEGIES)})"
        )
    expander, min_size, mode = _STRATEGIES[strategy]
    pieces = [
        expander(g).gates if g.size >= min_size else Circuit(circuit.n, (g,))
        for g in circuit.gates
    ]
    total = max((piece.n for piece in pieces), default=circuit.n)
    gates = [
        Gate(total, g.target, g.control_mask, g.value_mask)
        for piece in pieces
        for g in piece.gates
    ]
    return AncillaCircuit(circuit.n, total - circuit.n, mode, Circuit(total, gates))

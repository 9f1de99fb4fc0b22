import json
import time

import pytest

from reference import reference_cost
from revsynth import cost
from revsynth.cost import (
    GarbagePolicy,
    cost_of,
    cost_report,
    gate_cost,
    synthesis_gate_bound,
    worst_case_qc,
)
from revsynth.gates import CACHE_SIZE, Circuit, Gate, parse_circuit, toffoli

ZERO = GarbagePolicy.ZERO
ONE = GarbagePolicy.ONE
NM3 = GarbagePolicy.N_MINUS_THREE


def totals(c: Circuit, policy: GarbagePolicy = ZERO) -> tuple[int, int]:
    """(gate count, quantum cost), as cost_report prices the circuit."""
    report = cost_report(c, policy)
    return report.gate_count, report.quantum_cost


def costliest_gate(n: int, policy: GarbagePolicy) -> int:
    # The per-gate price cost_report multiplies into its quantum-cost bound.
    report = cost_report(Circuit(n), policy)
    assert report.qc_bound % report.gate_bound == 0
    return report.qc_bound // report.gate_bound


def test_small_gate_table():
    assert gate_cost(Gate(1, 0), ZERO) == 1
    assert gate_cost(toffoli(2, {0}, 1), ZERO) == 1
    assert gate_cost(toffoli(3, [0, 1], 2), ZERO) == 5
    one_neg = toffoli(3, {0, 1}, 2, {0})
    assert gate_cost(one_neg, ZERO) == 5
    two_neg = toffoli(3, {0, 1}, 2, {0, 1})
    assert gate_cost(two_neg, ZERO) == 7


def test_negative_cnot_extension_costs_two():
    g = toffoli(2, {0}, 1, {0})
    assert gate_cost(g, ZERO) == 2


def test_zero_garbage_formula():
    # size 9 all-positive: 2^9 - 3
    g9 = toffoli(9, range(8), 8)
    assert gate_cost(g9, ZERO) == 509
    # size 6 with four negatives: 2^6 - 3 + 8
    g6 = toffoli(6, range(5), 5, {0, 1, 2, 3})
    assert gate_cost(g6, ZERO) == 69


def test_explicit_small_rows_override_formula():
    # the general zero-garbage formula would give 7 at size 3 with one
    # negative control; the tabulated value 5 wins
    assert cost_of(3, 1, ZERO) == 5
    assert (1 << 3) - 3 + 2 * 1 == 7


@pytest.mark.parametrize("size", [5, 6, 8, 10])
def test_linear_policies(size):
    assert cost_of(size, 0, ONE) == 24 * size - 88
    assert cost_of(size, 2, ONE) == 24 * size - 86
    assert cost_of(size, 0, NM3) == 10 * size - 25
    assert cost_of(size, 3, NM3) == 10 * size - 23


@pytest.mark.parametrize("policy", [ONE, NM3])
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_linear_policies_reject_small_gates(policy, size):
    with pytest.raises(ValueError, match="size >= 5"):
        cost_of(size, 0, policy)


def test_cost_of_validation():
    with pytest.raises(ValueError):
        cost_of(0, 0, ZERO)
    with pytest.raises(ValueError):
        cost_of(3, 3, ZERO)  # at most size-1 controls


def test_cost_depends_only_on_size_and_negatives():
    a = toffoli(5, {1, 2, 3}, 0, {2})
    b = toffoli(5, {0, 1, 3}, 4, {0})
    assert gate_cost(a, ZERO) == gate_cost(b, ZERO)


def test_empty_circuit_costs_nothing():
    assert totals(Circuit(3), ZERO) == (0, 0)


def test_worked_example_circuit_cost():
    # NOT + three Toffolis
    c = parse_circuit(".n 3\nt1 a\nt3 b,c,a\nt3 a,c,b\nt3 b,c,a\n")
    assert totals(c, ZERO) == (4, 16)


def test_mixed_polarity_cascade_cost():
    text = (
        ".n 3\nt3 a,c,b\nt3 b,c',a\nt3 a,c',b\nt3 a,b',c\n"
        "t3 a',c',b\nt3 a',b',c\nt3 b,c',a\nt3 b',c',a\n"
    )
    assert totals(parse_circuit(text), ZERO) == (8, 46)


def test_cost_additive_under_concatenation():
    a = parse_circuit(".n 3\nt1 a\nt3 b,c,a\n")
    b = parse_circuit(".n 3\nt2 a',b\nt1 c\n")
    gc_a, qc_a = totals(a, ZERO)
    gc_b, qc_b = totals(b, ZERO)
    assert totals(Circuit(a.n, a.gates + b.gates), ZERO) == (gc_a + gc_b, qc_a + qc_b)


def test_synthesis_gate_bound():
    assert synthesis_gate_bound(3) == 17
    assert synthesis_gate_bound(4) == 49
    assert synthesis_gate_bound(6) == 321


def test_worst_case_spot_values():
    assert worst_case_qc(3, "I", ZERO) == 17 * 5 == 85
    assert worst_case_qc(6, "H", NM3) == 321 * 37 == 11877
    assert worst_case_qc(6, "I", ONE) == 321 * 56 == 17976


@pytest.mark.parametrize("n", range(5, 11))
def test_worst_case_formulas(n):
    bound = (n - 1) * (1 << n) + 1
    assert worst_case_qc(n, "I", ZERO) == bound * ((1 << n) - 3)
    assert worst_case_qc(n, "I", ONE) == bound * (24 * n - 88)
    assert worst_case_qc(n, "I", NM3) == bound * (10 * n - 25)
    assert worst_case_qc(n, "H", ONE) == bound * (24 * n - 86)
    assert worst_case_qc(n, "H", NM3) == bound * (10 * n - 23)
    for m in (0, n - 1):
        assert worst_case_qc(n, "H", ZERO, m=m) == bound * ((1 << n) - 3 + 2 * m)


def test_worst_case_requires_m_for_h_zero():
    with pytest.raises(ValueError, match="negative-control count"):
        worst_case_qc(5, "H", ZERO)
    with pytest.raises(ValueError):
        worst_case_qc(5, "H", ZERO, m=5)


def test_worst_case_rejections():
    with pytest.raises(ValueError, match=r"^unknown graph 'X' \(expected 'I' or 'H'\)$"):
        worst_case_qc(3, "X", ZERO)
    with pytest.raises(ValueError):
        worst_case_qc(4, "I", ONE)
    with pytest.raises(ValueError):
        worst_case_qc(1, "I", ZERO)
    # The policy's size floor is named, not the count worst_case_qc chose.
    with pytest.raises(ValueError, match="size >= 5"):
        worst_case_qc(1, "H", ONE)
    # m prices only graph H under zero garbage; anywhere else it is refused, not ignored.
    with pytest.raises(ValueError, match="graph H with zero garbage"):
        worst_case_qc(3, "I", ZERO, m=2)
    with pytest.raises(ValueError, match="graph H with zero garbage"):
        worst_case_qc(6, "H", ONE, m=0)


def test_cost_report_refuses_a_zero_line_circuit():
    with pytest.raises(ValueError, match="^line count must be >= 1, got 0$"):
        cost_report(Circuit(0), ZERO)


def test_worst_case_h_zero_small_sizes_use_the_cost_table():
    # Size-3 gates with two negative controls cost 7 and a negative-control
    # CNOT costs 2, not the s >= 4 formula 2^s - 3 + 2m (9 and 3).
    assert worst_case_qc(3, "H", ZERO, m=2) == 17 * 7 == 119
    assert worst_case_qc(3, "H", ZERO, m=2) == cost_report(Circuit(3), ZERO).qc_bound
    assert worst_case_qc(2, "H", ZERO, m=1) == 5 * 2 == 10


def test_max_gate_cost():
    assert costliest_gate(1, ZERO) == 1
    assert costliest_gate(2, ZERO) == 2
    assert costliest_gate(3, ZERO) == 7
    assert costliest_gate(6, ZERO) == 61 + 10  # 2^6-3 plus 2*(6-1)
    assert costliest_gate(6, ONE) == 58
    assert costliest_gate(6, NM3) == 37


@pytest.mark.parametrize("policy", list(GarbagePolicy))
def test_cost_never_falls_as_negative_controls_are_added(policy):
    # cost_report prices its bound at cost_of(n, n - 1, policy) on this fact.
    for n in range(1 if policy is ZERO else 5, 25):
        costs = [cost_of(n, m, policy) for m in range(n)]
        assert costs == sorted(costs), (n, policy, costs)


def test_report_round_trips_as_json():
    c = parse_circuit(".n 3\nt1 a\nt2 a',b\nt3 b,c,a\n")
    report = cost_report(c, ZERO)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["gate_count"] == 3
    assert data["quantum_cost"] == 1 + 2 + 5
    assert data["within_bounds"] is True
    assert any("negative-control CNOT" in note for note in data["notes"])
    text = report.to_text()
    assert "gate count: 3" in text
    assert "quantum cost: 8" in text


def test_policy_from_flag():
    assert GarbagePolicy("0") is ZERO
    assert GarbagePolicy("n-3") is NM3
    with pytest.raises(ValueError):
        GarbagePolicy("2")


@pytest.mark.parametrize("n", range(1, 25))
def test_cost_bounds_keep_their_values_over_the_line_range(n):
    bound = (n - 1) * (1 << n) + 1
    assert synthesis_gate_bound(n) == bound
    policies = (ZERO, ONE, NM3) if n >= 5 else (ZERO,)
    for policy in policies:
        assert costliest_gate(n, policy) == max(reference_cost(n, m, policy) for m in range(n))
    if n >= 5:
        assert worst_case_qc(n, "I", ONE) == bound * reference_cost(n, 0, ONE)
        assert worst_case_qc(n, "H", NM3) == bound * reference_cost(n, 1, NM3)
    if n >= 2:
        assert worst_case_qc(n, "I", ZERO) == bound * reference_cost(n, 0, ZERO)
        assert worst_case_qc(n, "H", ZERO, m=n - 1) == bound * reference_cost(n, n - 1, ZERO)


@pytest.mark.parametrize("n", [0, 25, 10**7])
def test_cost_bounds_refuse_a_line_count_out_of_range_at_once(n):
    # 2^n is never formed: at 10**7 lines that alone is a 10-million-bit int.
    # cost_of(n, n - 1, policy) is the costliest gate cost_report's bound prices.
    calls = [
        lambda: synthesis_gate_bound(n),
        lambda: cost_of(n, n - 1, ZERO),
        lambda: cost_of(n, n - 1, ONE),
        lambda: worst_case_qc(n, "I", ZERO),
        lambda: worst_case_qc(n, "H", ZERO, m=0),
        lambda: worst_case_qc(n, "H", NM3),
        lambda: cost_of(n, 0, ZERO),
    ]
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(ValueError, match="line count|lines exceeds|n >= 2"):
            call()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"refusing n = {n} took {elapsed:.2f} s"


def test_one_gate_gets_a_row_per_policy():
    g = toffoli(7, {0, 1, 2, 3, 4}, 6, {2})  # size 6, one negative control
    cost._row.cache_clear()
    rows = {policy: cost_report(Circuit(7, (g, g)), policy).rows for policy in GarbagePolicy}
    assert rows == {ZERO: ((6, 1, 63),) * 2, ONE: ((6, 1, 58),) * 2, NM3: ((6, 1, 37),) * 2}
    info = cost._row.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 3)
    assert info.maxsize == CACHE_SIZE <= 4096


def test_a_refused_policy_and_size_raise_on_every_call():
    circuit = Circuit(3, (toffoli(3, {0, 1}, 2),))
    cost._row.cache_clear()
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            cost_report(circuit, ONE)
        messages.add(str(info.value))
    assert messages == {"garbage policy '1' is defined only for gate size >= 5, got size 3"}
    assert cost._row.cache_info().currsize == 0


def test_cost_row_cache_is_bounded():
    gates = [toffoli(13, {c for c in range(12) if mask >> c & 1}, 12) for mask in range(CACHE_SIZE + 300)]
    report = cost_report(Circuit(13, tuple(gates)), ZERO)
    assert report.rows[-1] == (gates[-1].size, 0, gate_cost(gates[-1], ZERO))
    assert cost._row.cache_info().currsize <= CACHE_SIZE

import json

import pytest

from revsynth.cost import (
    GarbagePolicy,
    circuit_cost,
    cost_of,
    cost_report,
    gate_cost,
    max_gate_cost,
    synthesis_gate_bound,
    worst_case_qc,
)
from revsynth.gates import Circuit, cnot, not_gate, parse_circuit, toffoli

ZERO = GarbagePolicy.ZERO
ONE = GarbagePolicy.ONE
NM3 = GarbagePolicy.N_MINUS_THREE


def test_small_gate_table():
    assert gate_cost(not_gate(1, 0), ZERO) == 1
    assert gate_cost(cnot(2, 0, 1), ZERO) == 1
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
    assert circuit_cost(Circuit(3), ZERO) == (0, 0)


def test_worked_example_circuit_cost():
    # NOT + three Toffolis
    c = parse_circuit(".n 3\nt1 a\nt3 b,c,a\nt3 a,c,b\nt3 b,c,a\n")
    assert circuit_cost(c, ZERO) == (4, 16)


def test_mixed_polarity_cascade_cost():
    text = (
        ".n 3\nt3 a,c,b\nt3 b,c',a\nt3 a,c',b\nt3 a,b',c\n"
        "t3 a',c',b\nt3 a',b',c\nt3 b,c',a\nt3 b',c',a\n"
    )
    assert circuit_cost(parse_circuit(text), ZERO) == (8, 46)


def test_cost_additive_under_concatenation():
    a = parse_circuit(".n 3\nt1 a\nt3 b,c,a\n")
    b = parse_circuit(".n 3\nt2 a',b\nt1 c\n")
    gc_a, qc_a = circuit_cost(a, ZERO)
    gc_b, qc_b = circuit_cost(b, ZERO)
    assert circuit_cost(a + b, ZERO) == (gc_a + gc_b, qc_a + qc_b)


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
    with pytest.raises(ValueError):
        worst_case_qc(3, "X", ZERO)
    with pytest.raises(ValueError):
        worst_case_qc(4, "I", ONE)
    with pytest.raises(ValueError):
        worst_case_qc(1, "I", ZERO)
    # The policy's size floor is named, not the count worst_case_qc chose.
    with pytest.raises(ValueError, match="size >= 5"):
        worst_case_qc(1, "H", ONE)


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
    assert max_gate_cost(1, ZERO) == 1
    assert max_gate_cost(2, ZERO) == 2
    assert max_gate_cost(3, ZERO) == 7
    assert max_gate_cost(6, ZERO) == 61 + 10  # 2^6-3 plus 2*(6-1)
    assert max_gate_cost(6, ONE) == 58
    assert max_gate_cost(6, NM3) == 37


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

"""One contract for every ``--algo``, as the paper states it for each synthesized cascade.

A cascade maps its function to the identity, uses only its library's gates, has at most
(n-1)*2^n + 1 of them and is never shorter than the Cayley-graph distance, the optimal size.
Each ``cli.SYNTHESIZERS`` entry has a row naming its library and its reference cascade.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_hc, reference_hc_bi, reference_mmd
from revsynth.cayley import distance
from revsynth.cli import SYNTHESIZERS
from revsynth.cost import synthesis_gate_bound
from revsynth.gates import Gate, GeneratorSet
from revsynth.perm import TruthVector

# algo: (its library's label, its reference). A new --algo adds its row here.
ROWS = {
    "mmd": ("I", reference_mmd),
    "hc-right": ("H", lambda f: reference_hc(f, "right")),
    "hc-left": ("H", lambda f: reference_hc(f, "left")),
    "hc-bi": ("H", reference_hc_bi),
}
IN_LIBRARY = {"I": Gate.is_g_toffoli, "H": Gate.is_mc_toffoli}


def test_every_synthesizer_has_a_row():
    assert list(ROWS) == list(SYNTHESIZERS)


@pytest.mark.parametrize("algo", SYNTHESIZERS)
def test_identity_needs_no_gates(algo):
    for n in range(1, 9):
        assert len(SYNTHESIZERS[algo](TruthVector.identity(n))) == 0


@pytest.mark.parametrize("lines", [(1, 3), (4, 8)], ids=["n1-3", "n4-8"])
@pytest.mark.parametrize("algo", SYNTHESIZERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cascade_keeps_the_contract(algo, lines, data):
    label, reference = ROWS[algo]
    n = data.draw(st.integers(*lines), label="n")
    f = TruthVector(data.draw(st.permutations(range(1 << n)), label="f"))
    cascade = SYNTHESIZERS[algo](f)
    assert cascade.apply(f).is_identity()
    assert all(map(IN_LIBRARY[label], cascade))
    assert len(cascade) <= synthesis_gate_bound(n)
    assert cascade == reference(f)
    if n <= 3:
        assert len(cascade) >= distance(f, GeneratorSet(label, n))


# What reference.py may not import, name or call: the kernels its references are checked against.
KERNELS = {
    "firing_set", "fold_planes", "to_planes", "from_planes", "input_planes", "apply", "perm",
    "mmd_synthesize", "hc_synthesize", "hc_bidirectional", "SYNTHESIZERS", "bfs", "_lehmer_ranks",
}


def kernels_in(source: str) -> set[str]:
    """The kernels that ``source`` imports, defines, names, reads as an attribute or spells."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("name", "id", "attr", "value"):  # import or def, Name, Attribute, Constant
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.add(value)
    return found & KERNELS


def test_references_use_no_kernel_they_check():
    each_way_in = ("from revsynth.gates import to_planes as tp\nimport revsynth.cayley as c\n"
                   "c.bfs(s); Circuit(n, g).perm(); getattr(gates, 'fold_planes')")
    assert kernels_in(each_way_in) == {"to_planes", "bfs", "perm", "fold_planes"}
    assert kernels_in((Path(__file__).parent / "reference.py").read_text(encoding="utf-8")) == set()

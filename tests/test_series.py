"""One carrier, ``Series``, for sequences and grid functions, and one tail-settling scan.

``VectorSequence`` and ``GridFunction`` build the same class with an integer or a
float axis.  An integer axis is compared exactly and keeps its positions Python
ints; ``settling_positions`` is the only running tail sup in src/.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from updyn.chaos import GridFunction, VectorSequence, settling_positions
from updyn.constructs import DecompositionTriple, shift
from updyn.discrete import GronwallEnvelope, convergence_check_discrete
from updyn.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "updyn"
BIG = 10 ** 12


def test_integer_axes_compare_exactly():
    # a float axis would accept a start 1 apart here: 1e-9 * max(1, |t0|) = 1000
    x = np.ones((30, 2))
    a, b = VectorSequence(BIG, x), VectorSequence(BIG + 1, x)
    assert a.same_axis(VectorSequence(BIG, x)) and not a.same_axis(b)
    with pytest.raises(DomainError):
        DecompositionTriple(a, a, b)
    envelope = GronwallEnvelope(alpha=BIG, start_index=BIG + 1, values=np.ones(29),
                                persistent_level=0.0, decay_base=0.5)
    with pytest.raises(DomainError):
        convergence_check_discrete(a, b, envelope, BIG)
    assert convergence_check_discrete(a, a, envelope, BIG).envelope_ok


def test_a_triple_does_not_mix_a_sequence_and_a_grid_function():
    x = np.ones((8, 2))
    seq, fn = VectorSequence(0, x), GridFunction(0.0, 1.0, x)
    assert not seq.same_axis(fn) and not fn.same_axis(seq)
    for parts in ((seq, seq, fn), (fn, seq, seq), (fn, fn, seq)):
        with pytest.raises(DomainError):
            DecompositionTriple(*parts)


def test_sequence_positions_stay_python_ints():
    seq = VectorSequence(np.int64(BIG), np.arange(10.0))
    part = seq.restrict(BIG + 2, BIG + 5)
    moved = shift(seq, 7)
    triple = shift(DecompositionTriple(seq, seq, seq), -3)
    for s in (seq, part, moved, triple.phi, triple.psi, triple.theta):
        assert s.is_sequence
        assert type(s.t_start) is int and type(s.t_end) is int
    assert (part.t_start, part.t_end, moved.t_start, triple.theta.t_start) \
        == (BIG + 2, BIG + 5, BIG - 7, BIG + 3)
    times = seq.times()
    assert times.dtype.kind == "i" and type(times[-1].item()) is int
    assert times[-1].item() == BIG + 9
    np.testing.assert_array_equal(part.values[:, 0], [2.0, 3.0, 4.0, 5.0])
    with pytest.raises(DomainError):
        seq.value_at(BIG + 0.5)


def test_grid_positions_stay_floats():
    fn = GridFunction(-1, 0.25, np.arange(9.0))
    assert not fn.is_sequence and type(fn.t_start) is float
    assert fn.restrict(-0.5, 0.5).t_start == -0.5 and fn.times().dtype.kind == "f"


def settling_oracle(x, level):
    hit = np.nonzero(np.maximum.accumulate(x[::-1])[::-1] < level)[0]
    return int(hit[0]) if hit.size else None


# few distinct values, so ties between entries and with the levels are common
TIED = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@settings(max_examples=400, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 40),
                elements=st.one_of(TIED, st.floats(0.0, 1e6), st.just(np.inf))),
       levels=st.lists(st.one_of(TIED, st.floats(-1.0, 1e7)), min_size=1, max_size=4))
@example(x=np.array([3.0, 2.0, 1.0]), levels=[1.5])                 # hit at the last position
@example(x=np.array([0.5, 0.1, 0.2]), levels=[1.0])                 # hit at position 0
@example(x=np.array([1.0, 2.0, 1.0, 1.0]), levels=[1.0, 1.5])       # ties with a level
@example(x=np.array([1.0, 2.0, 3.0]), levels=[4.0, 1.0, 0.5])       # above the max, min, below
def test_settling_positions_match_the_suffix_max_oracle(x, levels):
    buffer = x.copy()
    assert settling_positions(buffer, levels) == [settling_oracle(x, v) for v in levels]
    np.testing.assert_array_equal(buffer, np.maximum.accumulate(x[::-1])[::-1])


def _forbidden(path: Path):
    """(file, enclosing function, what) of each ``isinstance`` against a carrier, and of each
    ``maximum.accumulate``, in ``path``."""
    carriers = {"Series", "GridFunction", "VectorSequence"}
    found = []

    def names(node):
        if isinstance(node, ast.Tuple):
            return {n for elt in node.elts for n in names(elt)}
        return {getattr(node, "id", None) or getattr(node, "attr", None)}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and names(child.args[1]) & carriers):
                found.append((path.name, where, "isinstance"))
            if (isinstance(child, ast.Attribute) and child.attr == "accumulate"
                    and isinstance(child.value, ast.Attribute)
                    and child.value.attr == "maximum"):
                found.append((path.name, where, "maximum.accumulate"))
            visit(child, inner)
    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_carrier_branches_and_one_tail_settling_scan_in_src():
    found = [f for path in sorted(SRC.glob("*.py")) for f in _forbidden(path)]
    assert found == [("chaos.py", "settling_positions", "maximum.accumulate")]

"""``row_norms`` is ``np.linalg.norm(..., axis=-1)`` bit for bit, and the only per-row norm in src/."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from updyn.chaos import row_norms

SRC = Path(__file__).resolve().parent.parent / "src" / "updyn"
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, 1e-200, -1e-200,
         np.inf, -np.inf, np.nan]
ENTRIES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-10.0, 10.0))


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def tables(draw):
    """(n, d) float arrays in C order, F order, or as every other row of a larger array."""
    n, d = draw(st.integers(0, 12)), draw(st.integers(1, 9))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    rows = 2 * n if layout == "strided" else n
    x = draw(arrays(np.float64, (rows, d), elements=ENTRIES))
    if layout == "F":
        return np.asfortranarray(x)
    return x[::2] if layout == "strided" else x


@settings(max_examples=400, deadline=None)
@given(x=tables(), centred=st.booleans())
def test_row_norms_matches_linalg_norm_bit_for_bit(x, centred):
    origin = x[0] if centred and len(x) else None
    with np.errstate(all="ignore"):
        want = np.linalg.norm(x if origin is None else x - origin, axis=1)
        got = row_norms(x, origin)
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


def test_row_norms_on_wide_ranges_of_exponents():
    rng = np.random.default_rng(8)
    for d in range(1, 10):
        x = rng.standard_normal((20000, d)) * 10.0 ** rng.integers(-30, 31, (20000, d))
        for view in (x, np.asfortranarray(x), x[::2], x[::-1]):
            np.testing.assert_array_equal(bits(row_norms(view)),
                                          bits(np.linalg.norm(view, axis=1)))
            np.testing.assert_array_equal(bits(row_norms(view, view[3])),
                                          bits(np.linalg.norm(view - view[3], axis=1)))


def test_row_norms_outside_the_kernel_falls_back():
    assert row_norms(np.array([3.0, 4.0])) == 5.0
    cube = np.arange(24.0).reshape(2, 3, 4)
    np.testing.assert_array_equal(row_norms(cube), np.linalg.norm(cube, axis=-1))
    np.testing.assert_array_equal(row_norms(np.zeros((3, 0))), np.zeros(3))
    np.testing.assert_array_equal(row_norms(np.array([[3, 4]])), [5.0])


def _axis_norm_calls(path: Path):
    """(file, enclosing function) of every ``linalg.norm(..., axis=...)`` call in ``path``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else where
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "norm" and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "linalg"
                    and any(kw.arg == "axis" for kw in child.keywords)):
                found.append((path.name, where))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_per_row_norms_in_src_go_through_the_kernel():
    calls = [c for path in sorted(SRC.glob("*.py")) for c in _axis_norm_calls(path)]
    assert calls == [("chaos.py", "row_norms")]

import pytest
from hypothesis import given, strategies as st

from qhowe.fockspace import (
    GridShape,
    check_enumerable,
    grid_to_linear,
    prefix_parity,
    row_col_weights,
    state_to_string,
)


def bits(text):
    """The occupancy word rendered as text, position 1 leftmost."""
    return int(text[::-1], 2)


def test_check_enumerable_is_the_16_position_wall():
    check_enumerable(16)
    with pytest.raises(ValueError, match=r"^17 positions need 2\^17 = 131072 columns; "
                                         r"qhowe refuses more than 2\^16$"):
        check_enumerable(17)


def test_grid_to_linear_examples():
    sh = GridShape(3, 4)
    assert grid_to_linear(sh, 2, 3) == 8
    assert grid_to_linear(sh, 1, 1) == 1
    assert grid_to_linear(sh, 3, 4) == 12


def test_grid_bounds():
    sh = GridShape(3, 4)
    with pytest.raises(ValueError):
        grid_to_linear(sh, 0, 1)
    with pytest.raises(ValueError):
        grid_to_linear(sh, 1, 5)
    with pytest.raises(ValueError):
        GridShape(0, 4).check()
    with pytest.raises(ValueError):
        GridShape(8, 9).check()  # 72 > 64 positions


@given(st.integers(1, 8), st.integers(1, 8))
def test_grid_bijection(n, m):
    sh = GridShape(n, m)
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            k = grid_to_linear(sh, i, j)
            assert ((k - 1) % n + 1, (k - 1) // n + 1) == (i, j)
            seen.add(k)
    assert seen == set(range(1, n * m + 1))


def test_prefix_parity_examples():
    # l = (1,0,1,1): occupied count strictly before position 3 is l_1 + l_2
    s = bits("1011")
    assert prefix_parity(s, 3) == 1
    assert prefix_parity(s, 4) == 2
    assert prefix_parity(bits("0000"), 4) == 0
    assert prefix_parity(bits("1111"), 1) == 0


def test_row_col_weights_examples():
    assert row_col_weights(GridShape(2, 2), bits("1011")) == ((2, 1), (1, 2))
    assert row_col_weights(GridShape(3, 3), 0) == ((0, 0, 0), (0, 0, 0))
    full = (1 << 6) - 1
    assert row_col_weights(GridShape(2, 3), full) == ((3, 3), (2, 2, 2))


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_weights_sum_to_degree(n, m, data):
    bits = data.draw(st.integers(0, (1 << (n * m)) - 1))
    rows, cols = row_col_weights(GridShape(n, m), bits)
    assert sum(rows) == sum(cols) == bits.bit_count()


def test_state_rendering():
    assert state_to_string(0b1010, 4) == "0101"
    assert state_to_string(0b1010, 6) == "010100"
    assert state_to_string(0, 0) == ""
    assert bits(state_to_string(0b1011, 4)) == 0b1011

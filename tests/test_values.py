"""BV value semantics, including hypothesis property tests."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdl import types as ty
from repro.hdl.values import BV, check_in_range, default_value


def test_bv_masks_value():
    assert BV(0b10110, 4).value == 0b0110


def test_bv_is_an_immutable_value():
    # Equality, hash and repr of a frozen (value, width) dataclass: the
    # schema's codegen keys constants on repr.
    v = BV(5, 4)
    assert repr(v) == "BV(value=5, width=4)"
    assert v == BV(21, 4) and hash(v) == hash(BV(5, 4)) == hash((5, 4))
    assert v != BV(5, 5) and v != (5, 4) and v != 5
    assert pickle.loads(pickle.dumps(v)) == v == copy.deepcopy(v)
    with pytest.raises(AttributeError):
        v.value = 1
    with pytest.raises(AttributeError):
        del v.width
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(ValueError):
        BV(0, 0)


def test_bv_bit_access():
    v = BV(0b1010, 4)
    assert [v.bit(i) for i in range(4)] == [0, 1, 0, 1]


def test_bv_bit_bounds():
    with pytest.raises(ValueError):
        BV(0, 4).bit(4)


def test_with_bit():
    assert BV(0b0000, 4).with_bit(2, 1).value == 0b0100
    assert BV(0b1111, 4).with_bit(0, 0).value == 0b1110


def test_slice_and_with_slice():
    v = BV(0b11010, 5)
    assert v.slice(3, 1).value == 0b101
    assert v.with_slice(3, 1, BV(0b010, 3)).value == 0b10100


def test_concat_orders_msb_first():
    left = BV(0b10, 2)
    right = BV(0b01, 2)
    assert left.concat(right).to_string() == "1001"


def test_from_string_roundtrip():
    assert BV.from_string("0110").to_string() == "0110"


def test_default_values():
    assert default_value(ty.BIT) == 0
    assert default_value(ty.BOOLEAN) is False
    assert default_value(ty.IntegerType(3, 9)) == 3
    assert default_value(ty.BitVectorType(3, 0)) == BV(0, 4)
    assert default_value(ty.EnumType("t", ("x", "y"))) == 0


def test_check_in_range_raises():
    with pytest.raises(ValueError):
        check_in_range(10, ty.IntegerType(0, 7))
    with pytest.raises(ValueError):
        check_in_range(2, ty.BIT)


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_bv_value_stable(value):
    assert BV(value, 16).value == value


@given(
    st.integers(min_value=1, max_value=24),
    st.data(),
)
def test_with_bit_then_bit_reads_back(width, data):
    value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
    offset = data.draw(st.integers(min_value=0, max_value=width - 1))
    bit = data.draw(st.integers(min_value=0, max_value=1))
    assert BV(value, width).with_bit(offset, bit).bit(offset) == bit


@given(
    st.integers(min_value=2, max_value=20),
    st.data(),
)
def test_slice_concat_identity(width, data):
    value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
    cut = data.draw(st.integers(min_value=1, max_value=width - 1))
    v = BV(value, width)
    high = v.slice(width - 1, cut)
    low = v.slice(cut - 1, 0)
    assert high.concat(low) == v


@given(st.integers(min_value=1, max_value=24), st.data())
def test_to_string_from_string_roundtrip(width, data):
    value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
    v = BV(value, width)
    assert BV.from_string(v.to_string()) == v

"""Runtime values of the VHDL subset.

Values are deliberately lightweight because static typing is done by the
analyzer:

* ``bit``      — Python ``int`` 0 / 1
* ``boolean``  — Python ``bool``
* ``integer``  — Python ``int``
* ``enum``     — Python ``int`` (the literal's position)
* ``bit_vector`` — :class:`BV`, an immutable (value, width) pair

:class:`BV` stores bit 0 of ``value`` as the rightmost VHDL index (the
``right`` bound of the declared descending range maps to LSB offset 0).
"""

from __future__ import annotations

from repro.hdl import types as ty


class BV:
    """An immutable bit-vector value: ``width`` bits of ``value``.

    A plain ``__slots__`` class: it equals, hashes, prints and pickles
    like a frozen dataclass of ``(value, width)``, without a per-value
    ``__dict__`` or the dataclass ``__post_init__`` call.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int) -> None:
        if width <= 0:
            raise ValueError("bit-vector width must be positive")
        _set_value(self, value & ((1 << width) - 1))
        _set_width(self, width)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value and self.width == other.width
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __repr__(self) -> str:
        return f"BV(value={self.value!r}, width={self.width!r})"

    def __reduce__(self):
        return BV, (self.value, self.width)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def bit(self, offset: int) -> int:
        """Bit at LSB ``offset`` (0 = rightmost)."""
        if not 0 <= offset < self.width:
            raise ValueError(f"bit offset {offset} out of width {self.width}")
        return (self.value >> offset) & 1

    def with_bit(self, offset: int, bit: int) -> "BV":
        if not 0 <= offset < self.width:
            raise ValueError(f"bit offset {offset} out of width {self.width}")
        if bit:
            return BV(self.value | (1 << offset), self.width)
        return BV(self.value & ~(1 << offset), self.width)

    def slice(self, high: int, low: int) -> "BV":
        """Bits ``high`` down to ``low`` as LSB offsets."""
        if not 0 <= low <= high < self.width:
            raise ValueError(
                f"slice ({high}, {low}) out of width {self.width}"
            )
        width = high - low + 1
        return BV((self.value >> low) & ((1 << width) - 1), width)

    def with_slice(self, high: int, low: int, piece: "BV") -> "BV":
        if piece.width != high - low + 1:
            raise ValueError("slice assignment width mismatch")
        cleared = self.value & ~(piece.mask << low)
        return BV(cleared | (piece.value << low), self.width)

    def concat(self, other: "BV") -> "BV":
        """``self & other`` — self becomes the most significant part."""
        return BV(
            (self.value << other.width) | other.value,
            self.width + other.width,
        )

    @classmethod
    def from_string(cls, bits: str) -> "BV":
        """Build from a ``"0101"`` literal (leftmost char is MSB)."""
        if not bits:
            raise ValueError("empty bit string")
        return cls(int(bits, 2), len(bits))

    def to_string(self) -> str:
        return format(self.value, f"0{self.width}b")

    def __str__(self) -> str:
        return f'"{self.to_string()}"'


#: The slots' own setters, which bypass the raising ``__setattr__`` (and
#: cost half of ``object.__setattr__``).
_set_value = BV.value.__set__
_set_width = BV.width.__set__


def default_value(hdl_type: ty.HdlType):
    """The value a signal of ``hdl_type`` holds before any assignment."""
    if isinstance(hdl_type, ty.BitType):
        return 0
    if isinstance(hdl_type, ty.BooleanType):
        return False
    if isinstance(hdl_type, ty.IntegerType):
        return hdl_type.low
    if isinstance(hdl_type, ty.EnumType):
        return 0
    if isinstance(hdl_type, ty.BitVectorType):
        return BV(0, hdl_type.width)
    raise TypeError(f"no default for {hdl_type!r}")


def check_in_range(value, hdl_type: ty.HdlType) -> None:
    """Raise ``ValueError`` if ``value`` is outside ``hdl_type``.

    Used by the interpreter to turn out-of-range mutant writes into
    run-time (kill) events.
    """
    if isinstance(hdl_type, ty.IntegerType) and not hdl_type.contains(value):
        raise ValueError(f"value {value} out of range {hdl_type}")
    if isinstance(hdl_type, ty.EnumType) and not (
        0 <= value < len(hdl_type.literals)
    ):
        raise ValueError(f"enum position {value} out of range for {hdl_type}")
    if isinstance(hdl_type, ty.BitType) and value not in (0, 1):
        raise ValueError(f"bit value {value} is not 0/1")

"""Semantic types of the VHDL subset."""

from __future__ import annotations

from dataclasses import dataclass


class HdlType:
    """Base class of all semantic types."""

    def compatible(self, other: "HdlType") -> bool:
        """Whether values of ``other`` may be assigned/compared to ``self``."""
        raise NotImplementedError


@dataclass(frozen=True)
class BitType(HdlType):
    def compatible(self, other: HdlType) -> bool:
        return isinstance(other, BitType)

    def __str__(self) -> str:
        return "bit"


@dataclass(frozen=True)
class BooleanType(HdlType):
    def compatible(self, other: HdlType) -> bool:
        return isinstance(other, BooleanType)

    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class IntegerType(HdlType):
    """``integer range low to high``; unconstrained uses wide bounds."""

    low: int = -(2**31)
    high: int = 2**31 - 1

    def compatible(self, other: HdlType) -> bool:
        # All integer subtypes share a base type in VHDL: assignments are
        # legal at analysis time; range violations are run-time errors.
        return isinstance(other, IntegerType)

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    @property
    def bit_width(self) -> int:
        """Bits needed to encode the range (non-negative ranges only)."""
        if self.low < 0:
            raise ValueError(
                f"negative integer range {self} is not synthesizable"
            )
        return max(self.high.bit_length(), 1)

    def __str__(self) -> str:
        return f"integer range {self.low} to {self.high}"


@dataclass(frozen=True)
class BitVectorType(HdlType):
    """``bit_vector(left downto right)``; only descending ranges."""

    left: int = 0
    right: int = 0

    def __post_init__(self) -> None:
        if self.left < self.right:
            raise ValueError(
                f"bit_vector({self.left} downto {self.right}) is ascending; "
                "only descending ranges are supported"
            )

    @property
    def width(self) -> int:
        return self.left - self.right + 1

    def compatible(self, other: HdlType) -> bool:
        return isinstance(other, BitVectorType) and other.width == self.width

    def bit_index(self, index: int) -> int:
        """Map a VHDL index to a 0-based LSB offset, checking bounds."""
        if not self.right <= index <= self.left:
            raise ValueError(
                f"index {index} out of bit_vector({self.left} downto "
                f"{self.right}) bounds"
            )
        return index - self.right

    def __str__(self) -> str:
        return f"bit_vector({self.left} downto {self.right})"


@dataclass(frozen=True)
class EnumType(HdlType):
    name: str = ""
    literals: tuple[str, ...] = ()

    def compatible(self, other: HdlType) -> bool:
        return isinstance(other, EnumType) and other.name == self.name

    @property
    def bit_width(self) -> int:
        return max((len(self.literals) - 1).bit_length(), 1)

    def __str__(self) -> str:
        return self.name


#: Singletons for the scalar types.
BIT = BitType()
BOOLEAN = BooleanType()


def is_scalar_bit(ty: HdlType) -> bool:
    return isinstance(ty, BitType)


def is_vector(ty: HdlType) -> bool:
    return isinstance(ty, BitVectorType)


def is_integer(ty: HdlType) -> bool:
    return isinstance(ty, IntegerType)


def is_boolean(ty: HdlType) -> bool:
    return isinstance(ty, BooleanType)

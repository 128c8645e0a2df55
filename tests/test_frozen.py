from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quintic_mirror._frozen import frozen
from quintic_mirror.exactnum import CyclotomicField, NilpotentRing, RationalField
from quintic_mirror.syz import ProductConditionError, UnipotentMonodromy3, VertexData
from quintic_mirror.toric import Facet

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_typing() -> None:
    # -S keeps site (and whatever its .pth files import) out of the picture
    probe = (
        "import sys, quintic_mirror.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_records_of_different_classes_are_unequal() -> None:
    assert RationalField() == RationalField()
    assert RationalField() != CyclotomicField()
    assert RationalField().__eq__(CyclotomicField()) is NotImplemented
    assert Facet((1, 0), 1).__eq__(((1, 0), 1)) is NotImplemented


def test_equal_records_hash_equal() -> None:
    facet = Facet((1, 0, 0), 1)
    assert facet == Facet((1, 0, 0), 1)
    assert hash(facet) == hash(Facet((1, 0, 0), 1))
    assert Facet((1, 0, 0), 1) in {facet, Facet((0, 1, 0), 1)}
    assert facet != Facet((1, 0, 0), 2)
    assert len({NilpotentRing(), NilpotentRing(4), NilpotentRing(2)}) == 2


def test_records_are_frozen() -> None:
    facet = Facet((1, 0), 1)
    with pytest.raises(AttributeError):
        facet.offset = 2
    with pytest.raises(AttributeError):
        facet.extra = 0
    with pytest.raises(AttributeError):
        del facet.normal
    assert facet == Facet((1, 0), 1)


def test_construction_by_position_keyword_and_default() -> None:
    assert Facet(normal=(1, 0), offset=2) == Facet((1, 0), offset=2) == Facet((1, 0), 2)
    assert NilpotentRing().modulus_degree == 4
    assert NilpotentRing(modulus_degree=2).modulus_degree == 2
    with pytest.raises(TypeError):
        Facet((1, 0))
    with pytest.raises(TypeError):
        Facet((1, 0), 1, 2)
    with pytest.raises(TypeError):
        Facet((1, 0), 1, normal=(0, 1))
    with pytest.raises(TypeError):
        Facet((1, 0), offset=1, depth=2)


def test_post_init_validates() -> None:
    with pytest.raises(ValueError):
        NilpotentRing(0)
    shear = UnipotentMonodromy3.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ProductConditionError):
        VertexData((shear, shear, shear))


def test_repr_names_every_field() -> None:
    assert repr(Facet((1, 0), 2)) == "Facet(normal=(1, 0), offset=2)"
    assert repr(NilpotentRing()) == "NilpotentRing(modulus_degree=4)"
    assert repr(RationalField()) == "RationalField()"


def test_methods_the_class_defines_are_kept() -> None:
    @frozen
    class Interval:
        lo: int
        hi: int = 0

        def __repr__(self) -> str:
            return f"[{self.lo}, {self.hi}]"

    assert repr(Interval(1, 2)) == "[1, 2]"
    assert Interval(1) == Interval(lo=1, hi=0)


def test_a_slot_is_no_default() -> None:
    # a slotted record's class dict holds a member descriptor under each field name
    @frozen
    class Pair:
        __slots__ = ("left", "right")
        left: int
        right: int

    pair = Pair(1, right=2)
    assert (pair.left, pair.right) == (1, 2)
    assert not hasattr(pair, "__dict__")
    with pytest.raises(TypeError):
        Pair(1)
    with pytest.raises(TypeError):
        Pair(right=2)
    with pytest.raises(AttributeError):
        pair.left = 3

"""Partitions, Young diagrams, hooks, and rim-hook removal.

Everything in this module works directly on the diagram and never touches
the abacus machinery, so it can serve as an independent reference for the
beta-set code.  Cells are addressed 1-based as (row, column), rows growing
downward (English notation).  As the root module it also holds ``_Frozen``,
the immutable base of every value class and the only writer of their fields.
"""

from __future__ import annotations

from operator import attrgetter, ge
from typing import Iterable, Iterator

from .errors import NonMonotoneError, OutOfDiagramError


class _Frozen:
    """Base of the immutable value classes: ``Partition`` here, and those of
    :mod:`~stcores.betaset`, ``coords``, ``enumeration``, ``oracle`` and ``runner``.

    A subclass names its fields in ``__slots__``; equality (same class),
    hashing, repr, copying and pickling read them in that order, and
    assigning or deleting an attribute raises AttributeError.  Fields are
    written only by ``__setstate__``, through each slot's own setter: a
    constructor checks its arguments and ends in one ``__setstate__`` call,
    and every subclass inherits :meth:`_unchecked`, which skips the checks.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls.__slots__)
        cls._puts = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _unchecked(cls, *fields):
        """The instance of ``fields``, in slot order, whose invariants the
        caller has checked, built without the checks of ``__init__``."""
        self = object.__new__(cls)
        self.__setstate__(fields)
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self.__getstate__()))
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> tuple:
        # The fields in slot order.  attrgetter of one name gives the bare
        # value, which equality and hashing use as it is.
        key = self._key(self)
        return key if len(self.__slots__) > 1 else (key,)

    def __setstate__(self, state: tuple) -> None:
        for put, value in zip(self._puts, state):
            put(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(_Frozen):
    """A weakly decreasing tuple of positive integers.

    Conceptually the sequence continues with infinitely many zeros; only the
    positive prefix is stored, and trailing zeros given to the constructor
    are dropped.  Instances are immutable and hashable, and
    order lexicographically on their parts (useful for deterministic output).
    """

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        n = len(ps)
        while n and ps[n - 1] == 0:
            n -= 1
        ps = ps[:n]
        # Weakly decreasing down to a positive last part, checked at C speed;
        # the loop names the first offender (or raises what comparing it raises).
        try:
            valid = not ps or (ps[-1] >= 1 and all(map(ge, ps, ps[1:])))
        except TypeError:
            valid = False
        if not valid:
            for i, p in enumerate(ps):
                if p < 1:
                    raise NonMonotoneError(f"part {i + 1} is {p}, expected a positive integer")
                if i and ps[i - 1] < p:
                    raise NonMonotoneError(f"parts increase at index {i}: {ps[i - 1]} < {p}")
        self.__setstate__((ps,))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts < other.parts
        return NotImplemented

    def cells(self) -> Iterator[tuple[int, int]]:
        """All diagram cells (r, c), row-major, 1-based."""
        for r, p in enumerate(self.parts, start=1):
            for c in range(1, p + 1):
                yield r, c

    def contains(self, r: int, c: int) -> bool:
        return 1 <= r <= len(self.parts) and 1 <= c <= self.parts[r - 1]

    def conjugate(self) -> "Partition":
        """Reflect the diagram across the main diagonal."""
        return Partition(self._column_heights())

    def _column_heights(self) -> list[int]:
        # columns lambda_{i+1} + 1 .. lambda_i have height i
        heights: list[int] = []
        for i in range(len(self.parts), 0, -1):
            heights += [i] * (self.parts[i - 1] - len(heights))
        return heights

    def hook_length(self, r: int, c: int) -> int:
        """1 + arm + leg of the cell (r, c), read off :meth:`hook_lengths`."""
        if not self.contains(r, c):
            raise OutOfDiagramError(f"cell ({r}, {c}) is outside {self!r}")
        return self.hook_lengths()[sum(self.parts[: r - 1]) + c - 1]

    def hook_lengths(self) -> list[int]:
        """All hook lengths, in the row-major order of :meth:`cells`.  The
        multiset is a conjugation invariant."""
        return list(self._hooks())

    def _hooks(self) -> Iterator[int]:
        """The hook lengths 1 + arm + leg, lazily, in the order of :meth:`cells`."""
        heights = self._column_heights()
        return (
            1 + (p - c) + (heights[c - 1] - r)
            for r, p in enumerate(self.parts, start=1)
            for c in range(1, p + 1)
        )

    def remove_rim_hook(self, r: int, c: int) -> "Partition":
        """Remove the rim hook of (r, c): the border cells {(i, j) : i >= r,
        j >= c, (i+1, j+1) not in the diagram}.

        The result is again a partition and its size drops by the hook length
        of (r, c).
        """
        if not self.contains(r, c):
            raise OutOfDiagramError(f"cell ({r}, {c}) is outside {self!r}")
        last = self._column_heights()[c - 1]  # deepest row meeting column c
        new = list(self.parts)
        for i in range(r, last):
            new[i - 1] = self.parts[i] - 1
        new[last - 1] = c - 1
        return Partition(new)

    def t_core_by_diagram(self, t: int) -> "Partition":
        """t-core by repeated rim t-hook removal on the diagram.

        Scans row-major and removes the first t-hook found; the end result is
        independent of removal order.  Purely diagrammatic, for use as an
        oracle against the abacus path.
        """
        if t < 1:
            raise ValueError("t must be >= 1")
        if t == 1:
            return Partition()
        cur = self
        while True:
            cell = next((cell for cell, h in zip(cur.cells(), cur._hooks()) if h == t), None)
            if cell is None:
                return cur
            cur = cur.remove_rim_hook(*cell)

    def is_self_conjugate(self) -> bool:
        return self == self.conjugate()

    def to_json(self) -> list[int]:
        """JSON form: plain array of parts, ``[]`` for the empty partition."""
        return list(self.parts)

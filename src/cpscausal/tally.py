"""Contingency counts of a dataset's families: the one counting kernel.

A dataset is given as its DPs' columns of state indices, one ``bytes`` per
DP of at most 256 states and a list for a wider one, and their
cardinalities. :class:`Tallies` counts a family, a tuple of column indices,
into its flat contingency table: one count per cell, row-major over the
family's DPs in the order given, so that a family with its child last has
one row of the child's states per parent configuration. ``fit``, the
scores and tests of :mod:`estimation` and all three learners count through
it.

A table of at most ``BITSET_CELLS`` cells, none of whose DPs has more than
256 states, is counted from per-state bitsets (cached sufficient
statistics; Moore & Lee 1998, JAIR 8): each state of each DP gets the set of
its records as the bits of one Python int, read in base 2 from the DP's
column, and a cell's count is the popcount of the AND of one bitset per DP
of the family. Any other table is counted with :class:`collections.Counter`
over its records' states. The bitsets cost about one AND and one popcount
of ``N / 64`` words per cell, and ``Counter`` about ``N`` tuples of the
family's states, whatever the cells. Measured on uniform random columns of
2 to 9 states (2-core x86-64 VM, Python 3.11), the bitsets took 0.3 to 0.8
of ``Counter``'s time from 300 to 1,700 cells at 20k records, and 0.25 to
0.55 up to 945 cells but 1.15 at 1,344 at 100k records; tables of binary
DPs cross at about 8k cells at 20k records and 3k at 100k. Skewed or
dependent columns leave cells empty, which cost the bitsets next to nothing.

Every table is kept, under its set of DPs, so that a family whose DPs were
counted before, in any order, is read back by permuting the cells of that
table. :meth:`Tallies.focus` keeps one table's cell bitsets besides. A
table of some of its DPs is then summed out of its counts, and a table of
its DPs plus one more, ``x``, costs one AND and one popcount per cell and
state of ``x`` but the last, whose count is the rest of the cell's.
Hill-climbing focuses a node's own family before it scores the families
that add or remove one of its parents.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from math import prod

# the largest table counted from the per-state bitsets; a larger one is counted by Counter
BITSET_CELLS = 1 << 10


class Tallies:
    """The contingency tables of a dataset's families, from its DPs'
    columns of state indices and their cardinalities ``cards``; see the
    module docstring."""

    def __init__(self, columns: Sequence[bytes | Sequence[int]], cards: Sequence[int]):
        self.columns, self.cards = columns, cards
        self.n_records = len(columns[0]) if columns else 0
        self._bits: dict[int, list[int]] = {}
        # each table counted so far, by its set of DPs: the order of its cells and their counts
        self._tables: dict[frozenset[int], tuple[tuple[int, ...], list[int]]] = {}
        # the table that focus() keeps: its family, its set of DPs, its counts and its cell bitsets
        self._focus: tuple[tuple[int, ...], frozenset[int], list[int], list[int]] | None = None

    def __call__(self, family: Sequence[int]) -> list[list[int]]:
        """The counts of ``family``, parents first and child last: one row
        of the child's states per parent configuration, row-major."""
        flat = self.flat(family)
        r = self.cards[family[-1]]
        return [flat[at:at + r] for at in range(0, len(flat), r)]

    def flat(self, family: Sequence[int]) -> list[int]:
        """The counts of ``family``'s cells, row-major in its order."""
        family = tuple(family)
        key = frozenset(family)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._count(family, key)
        order, counts = table
        return counts if order == family else _rearrange(counts, order, family, self.cards)

    def focus(self, family: Sequence[int]) -> None:
        """Keep the cell bitsets of ``family``'s table until the next focus,
        when it has at most ``BITSET_CELLS`` cells."""
        family = tuple(family)
        if self._focus is not None and self._focus[0] == family:
            return
        self._focus = None
        if not self._by_bits(family):
            return
        cells = self._cells(family)
        key = frozenset(family)
        if key not in self._tables:
            self._tables[key] = family, [cell.bit_count() for cell in cells]
        self._focus = family, key, self.flat(family), cells

    def _count(self, family: tuple[int, ...], key: frozenset[int]) -> tuple[tuple[int, ...], list[int]]:
        """The table of ``family``'s DPs, in some order of them, and that order."""
        if self._focus is not None:
            order, known, counts, cells = self._focus
            if key <= known:
                return family, _rearrange(counts, order, family, self.cards)
            extra = key - known
            if len(extra) == 1 and known < key and self._by_bits(family):
                return (*order, *extra), self._extend(counts, cells, *extra)
        if self._by_bits(family):
            return family, [cell.bit_count() for cell in self._cells(family)]
        cards = [self.cards[k] for k in family]
        flat = [0] * prod(cards)
        for states, count in Counter(zip(*[self.columns[k] for k in family])).items():
            cell = 0
            for state, card in zip(states, cards):
                cell = cell * card + state
            flat[cell] = count
        return family, flat

    def _by_bits(self, family: Sequence[int]) -> bool:
        """Whether ``family``'s table is counted from the bitsets."""
        cards = [self.cards[k] for k in family]
        return prod(cards) <= BITSET_CELLS and max(cards) <= 1 << 8

    def _extend(self, counts: list[int], cells: list[int], x: int) -> list[int]:
        """The counts of a table's cells split by the states of DP ``x``,
        from their counts and bitsets: row-major with ``x`` last, its last
        state's count being the rest of the cell's."""
        *bits, _ = self._state_bits(x)
        split = [(cell & b).bit_count() for cell in cells for b in bits]
        if len(bits) == 1:
            return [c for first, total in zip(split, counts) for c in (first, total - first)]
        out: list[int] = []
        r = len(bits)
        for at, total in zip(range(0, len(split), r), counts):
            row = split[at:at + r]
            out += row
            out.append(total - sum(row))
        return out

    def _cells(self, family: Sequence[int]) -> list[int]:
        """One bitset per cell of ``family``'s table, row-major: the first
        DP's state bitsets, each ANDed with each state's of the next DP, and
        so on."""
        cells = self._state_bits(family[0])
        for k in family[1:]:
            bits = self._state_bits(k)
            cells = [a & b for a in cells for b in bits]
        return cells

    def _state_bits(self, k: int) -> list[int]:
        """For each state of DP ``k``, the records in it as the set bits of an
        int, one bit per record, in the same order for every state and DP.
        Each but the last state's is read in base 2 from the column, a
        ``bytes``, translated to ``1`` where it holds the state and ``0``
        elsewhere; the last state's holds the records left."""
        if k not in self._bits:
            column, card = self.columns[k], self.cards[k]
            bits = [int(column.translate(b"0" * s + b"1" + b"0" * (255 - s)), 2) for s in range(card - 1)]
            rest = (1 << len(column)) - 1
            for b in bits:
                rest ^= b
            self._bits[k] = bits + [rest]
        return self._bits[k]


def _rearrange(counts: list[int], order: tuple[int, ...], family: tuple[int, ...], cards: Sequence[int]) -> list[int]:
    """The table of the DPs ``family``, row-major in its order, from the
    ``counts`` of a table of the DPs ``order``, row-major in that order,
    which holds each DP of ``family`` and maybe others, summed out."""
    size, index, gather = _cell_map(tuple(cards[k] for k in order), tuple(order.index(k) for k in family))
    if gather is not None:
        return [counts[at] for at in gather]
    out = [0] * size
    for at, count in zip(index, counts):
        out[at] += count
    return out


@lru_cache(maxsize=1 << 12)
def _cell_map(cards: tuple[int, ...], axes: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...] | None]:
    """For a row-major table of DPs of ``cards`` states, and the table of
    its DPs at the positions ``axes``, in that order: the latter's size,
    the latter's cell of each of the former's cells, and when both have the
    same DPs, the former's cell of each of the latter's."""
    stride, size = [0] * len(cards), 1
    for at in reversed(axes):
        stride[at] = size
        size *= cards[at]
    index = [0]
    for card, step in zip(cards, stride):
        index = [at + step * state for at in index for state in range(card)]
    if len(axes) < len(cards):
        return size, tuple(index), None
    gather = [0] * size
    for cell, at in enumerate(index):
        gather[at] = cell
    return size, tuple(index), tuple(gather)

"""Ordered vertex partitions and frozen-ness checkers.

The same partition object serves as a colouring (blocks independent) or a
clique partition (blocks complete); the two readings are complement-dual. The
block order is significant and empty blocks are allowed, so a partition always
carries its block count k explicitly. It is stored packed, once, when it is
built: the block of each vertex and one vertex mask per block. Every other
form, the blocks as frozensets included, is read off those two.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graph import Graph, bits, complement


class BlockPartition:
    """An ordered partition of {0..n-1} into k (possibly empty) blocks."""

    __slots__ = ("k", "_cols", "_masks")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        masks, seen = [], 0
        for i, b in enumerate(blocks):
            mask = 0
            for v in b:
                if v < 0:
                    raise ValueError("blocks must partition a contiguous range 0..n-1")
                mask |= 1 << v
            if mask & seen:
                raise ValueError(f"block {i} overlaps an earlier block")
            seen |= mask
            masks.append(mask)
        if seen & (seen + 1):
            raise ValueError("blocks must partition a contiguous range 0..n-1")
        cols = [0] * seen.bit_length()
        for c, mask in enumerate(masks):
            for v in bits(mask):
                cols[v] = c
        self._store(tuple(cols), tuple(masks))

    def _store(self, cols: tuple[int, ...], masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "k", len(masks))
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_masks", masks)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BlockPartition is immutable")

    @classmethod
    def from_colours(cls, colours: Sequence[int], k: int | None = None) -> "BlockPartition":
        """Build from a colour-per-vertex sequence; k defaults to max+1."""
        cols = tuple(colours)
        if k is None:
            k = max(cols) + 1 if cols else 0
        masks = [0] * k
        for v, c in enumerate(cols):
            if not 0 <= c < k:
                raise ValueError(f"colour {c} of vertex {v} outside 0..{k - 1}")
            masks[c] |= 1 << v
        # disjoint and covering 0..n-1 by construction: no need for __init__'s pass
        p = object.__new__(cls)
        p._store(cols, tuple(masks))
        return p

    @classmethod
    def from_colour_line(cls, line: str, k: int | None = None) -> "BlockPartition":
        return cls.from_colours([int(t) for t in line.split()], k)

    @classmethod
    def from_json(cls, data: dict) -> "BlockPartition":
        p = cls(data["blocks"])
        if p.k != data["k"]:
            raise ValueError(f"k={data['k']} but {p.k} blocks given")
        return p

    @property
    def ground(self) -> int:
        return len(self._cols)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(bits(mask)) for mask in self._masks)

    def to_colours(self) -> list[int]:
        return list(self._cols)

    def to_colour_line(self) -> str:
        return " ".join(map(str, self._cols))

    def to_json(self) -> dict:
        return {"k": self.k, "blocks": [list(bits(mask)) for mask in self._masks]}

    def block_of(self, v: int) -> int:
        if not 0 <= v < len(self._cols):
            raise ValueError(f"vertex {v} not in partition")
        return self._cols[v]

    def block_masks(self) -> list[int]:
        return list(self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockPartition):
            return NotImplemented
        # the blocks cover 0..n-1, so equal colour vectors mean equal blocks
        return self.k == other.k and self._cols == other._cols

    def __hash__(self) -> int:
        return hash((self.k, self._cols))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, bits(mask))) + "}" for mask in self._masks)
        return f"BlockPartition({inner})"


def _proper(g: Graph, p: BlockPartition) -> bool:
    """One pass: no vertex's row meets the mask of its own block."""
    if p.ground != g.n:
        raise ValueError(f"partition covers {p.ground} vertices, graph has {g.n}")
    masks = p._masks
    for row, c in zip(g.rows, p._cols):
        if row & masks[c]:
            return False
    return True


def is_proper_colouring(g: Graph, p: BlockPartition) -> bool:
    """True iff every block is an independent set of g."""
    return _proper(g, p)


def is_clique_partition(g: Graph, p: BlockPartition) -> bool:
    """True iff every block is a clique of g: a proper colouring of its complement."""
    return is_proper_colouring(complement(g), p)


def _frozen(g: Graph, p: BlockPartition, noun: str) -> bool:
    """True iff p is proper on g, has no empty block, and no vertex can move.

    A vertex can move to any class with no neighbour of it, and to any empty
    class, so frozen means: every block nonempty and every vertex has a
    neighbour in every block but its own. An improper p raises ValueError
    naming the noun it fails to be, even when p is also not frozen.
    """
    if not _proper(g, p):
        raise ValueError(f"not a {noun}")
    masks = p._masks
    if not all(masks):
        return False
    for row, c in zip(g.rows, p._cols):
        for d, mask in enumerate(masks):
            if d != c and not row & mask:
                return False
    return True


def is_frozen_colouring(g: Graph, p: BlockPartition) -> bool:
    """True iff p is a proper colouring, no block empty, no vertex can move."""
    return _frozen(g, p, "proper colouring")


def is_frozen_clique_partition(g: Graph, p: BlockPartition) -> bool:
    """True iff p is a clique partition, no block empty, no vertex can move.

    Dual reading: equals is_frozen_colouring(complement(g), p).
    """
    return _frozen(complement(g), p, "clique partition")

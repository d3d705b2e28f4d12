"""Ordered vertex partitions and frozen-ness checkers.

The same partition object serves as a colouring (blocks independent) or a
clique partition (blocks complete); the two readings are complement-dual. The
block order is significant and empty blocks are allowed, so a partition always
carries its block count k explicitly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graph import Graph, bits, complement


class BlockPartition:
    """An ordered partition of {0..n-1} into k (possibly empty) blocks."""

    __slots__ = ("k", "blocks", "ground")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blks = tuple(frozenset(b) for b in blocks)
        seen: set[int] = set()
        total = 0
        for i, b in enumerate(blks):
            if b & seen:
                raise ValueError(f"block {i} overlaps an earlier block")
            seen |= b
            total += len(b)
        if seen and (min(seen) < 0 or max(seen) != total - 1):
            raise ValueError("blocks must partition a contiguous range 0..n-1")
        object.__setattr__(self, "k", len(blks))
        object.__setattr__(self, "blocks", blks)
        object.__setattr__(self, "ground", total)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BlockPartition is immutable")

    @classmethod
    def from_colours(cls, colours: Sequence[int], k: int | None = None) -> "BlockPartition":
        """Build from a colour-per-vertex sequence; k defaults to max+1."""
        if k is None:
            k = max(colours) + 1 if colours else 0
        blocks: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(colours):
            if not 0 <= c < k:
                raise ValueError(f"colour {c} of vertex {v} outside 0..{k - 1}")
            blocks[c].append(v)
        # disjoint and covering 0..n-1 by construction: no need for __init__'s pass
        p = object.__new__(cls)
        object.__setattr__(p, "k", k)
        object.__setattr__(p, "blocks", tuple(map(frozenset, blocks)))
        object.__setattr__(p, "ground", len(colours))
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

    def to_colours(self) -> list[int]:
        out = [-1] * self.ground
        for c, b in enumerate(self.blocks):
            for v in b:
                out[v] = c
        return out

    def to_colour_line(self) -> str:
        return " ".join(map(str, self.to_colours()))

    def to_json(self) -> dict:
        return {"k": self.k, "blocks": [sorted(b) for b in self.blocks]}

    def block_of(self, v: int) -> int:
        for c, b in enumerate(self.blocks):
            if v in b:
                return c
        raise ValueError(f"vertex {v} not in partition")

    def block_masks(self) -> list[int]:
        out = []
        for b in self.blocks:
            mask = 0
            for v in b:
                mask |= 1 << v
            out.append(mask)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks)
        return f"BlockPartition({inner})"


def _check_ground(g: Graph, p: BlockPartition) -> None:
    if p.ground != g.n:
        raise ValueError(f"partition covers {p.ground} vertices, graph has {g.n}")


def is_proper_colouring(g: Graph, p: BlockPartition) -> bool:
    """True iff every block is an independent set of g."""
    _check_ground(g, p)
    for mask in p.block_masks():
        for v in bits(mask):
            if g.rows[v] & mask:
                return False
    return True


def is_clique_partition(g: Graph, p: BlockPartition) -> bool:
    """True iff every block is a clique of g: a proper colouring of its complement."""
    return is_proper_colouring(complement(g), p)


def _frozen(g: Graph, p: BlockPartition, noun: str) -> bool:
    """True iff p is proper on g, has no empty block, and no vertex can move.

    A vertex can move to any class with no neighbour of it, and to any empty
    class, so frozen means: every block nonempty and every vertex has a
    neighbour in every block but its own. An improper p raises ValueError
    naming the noun it fails to be.
    """
    if not is_proper_colouring(g, p):
        raise ValueError(f"not a {noun}")
    masks = p.block_masks()
    if any(m == 0 for m in masks):
        return False
    for c, mask in enumerate(masks):
        for v in bits(mask):
            for d, other in enumerate(masks):
                if d != c and not g.rows[v] & other:
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

"""Ordered vertex partitions and frozen-ness checkers.

The same partition object serves as a colouring (blocks independent) or a
clique partition (blocks complete); the two readings are complement-dual. The
block order is significant and empty blocks are allowed, so a partition always
carries its block count k explicitly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graph import Graph, bits, complement, triangles


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


def is_frozen_colouring(g: Graph, p: BlockPartition) -> bool:
    """True iff p is proper, has no empty block, and no vertex can move.

    A vertex can move to any class with no neighbour of it, and to any empty
    class, so frozen means: every block nonempty and every vertex has a
    neighbour in every block but its own.
    """
    if not is_proper_colouring(g, p):
        raise ValueError("not a proper colouring")
    masks = p.block_masks()
    if any(m == 0 for m in masks):
        return False
    for c, mask in enumerate(masks):
        for v in bits(mask):
            for d, other in enumerate(masks):
                if d != c and not g.rows[v] & other:
                    return False
    return True


def is_frozen_clique_partition(g: Graph, p: BlockPartition) -> bool:
    """True iff p is a clique partition, no block empty, no vertex can move.

    Dual reading: equals is_frozen_colouring(complement(g), p).
    """
    h = complement(g)
    if not is_proper_colouring(h, p):
        raise ValueError("not a clique partition")
    return is_frozen_colouring(h, p)


def frozen_by_triangles(g: Graph, p: BlockPartition) -> bool:
    """Frozen-ness test for a partition into edges.

    Requires every block to be an edge of g. Such a partition is frozen
    exactly when every triangle of g meets three distinct blocks: a triangle
    inside two blocks means one block's edge sits in a third vertex's
    neighbourhood, which is the only way a move can open up.
    """
    _check_ground(g, p)
    idx = [-1] * g.n
    for c, b in enumerate(p.blocks):
        if len(b) != 2:
            raise ValueError(f"block {c} has size {len(b)}, need exactly 2")
        x, y = sorted(b)
        if not g.has_edge(x, y):
            raise ValueError(f"block {c} = {{{x},{y}}} is not an edge")
        idx[x] = idx[y] = c
    for u, v, w in triangles(g):
        if len({idx[u], idx[v], idx[w]}) < 3:
            return False
    return True


def join_certificates(p_g: BlockPartition, p_h: BlockPartition) -> BlockPartition:
    """Concatenate partitions across a join, shifting the second ground set.

    If both inputs are frozen colourings of their graphs, the result is a
    frozen colouring of the join: old moves stay blocked, and every vertex is
    adjacent to the entire far side, so no vertex can enter a far block.
    """
    shift = p_g.ground
    shifted = [{v + shift for v in b} for b in p_h.blocks]
    return BlockPartition(list(p_g.blocks) + shifted)

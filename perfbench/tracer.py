"""Spans around calls into frozencol, recorded from outside the package.

A span is (id, parent id, op id, name, start, end, self seconds, flag). The
self time, a span's length minus the time of its traced children, is kept
as spans close, so summaries need no second pass. Wrappers replace a public
function under every name a frozencol module binds it to, since callers hold
it through `from .x import y`. Spans stay in one flat array in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

FIELDS = ("id", "parent", "op", "name", "start", "end", "self_s", "flag")
WIDTH = len(FIELDS) + 1  # plus the parent's name, for per-caller counts

# (module, attribute, flag) for each traced public function. The flag kept on
# each span: "found" records whether a search returned something, "items"
# counts what a generator yielded.
TARGETS = [
    ("graph", "decode_graph6", None),
    ("graph", "find_induced", "found"),
    ("graph", "are_isomorphic", None),
    ("solvers", "chromatic_number", None),
    ("solvers", "independence_number", None),
    ("solvers", "clique_number", None),
    ("reconfig", "find_frozen", "found"),
    ("reconfig", "proper_colour_vectors", "items"),
    ("reconfig", "reconfiguration_components", None),
    ("partitions", "is_frozen_colouring", None),
    ("partitions", "is_proper_colouring", None),
    ("partitions", "BlockPartition.from_colours", None),
    ("recolour", "path_between", None),
    ("recolour", "maximal_first_partition", None),
    ("recolour", "canonical_moves", None),
    ("recolour", "bipartite_canonical_moves", None),
    ("recolour", "rename_moves", None),
    ("recolour", "verify_moves", None),
    ("search", "scan_stream", None),
    ("search", "exhaustive_small", None),
]


class Tracer:
    def __init__(self):
        self.buf = array("d")
        self.names: list[str] = []
        # open spans: [id, name index, seconds spent in traced children]
        self.stack = [[0, -1, 0.0]]
        self.op = 0
        self.next_id = 1

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, flag: str | None = None):
        nid = self._name_id(name)
        buf, stack = self.buf, self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, nid, 0.0]
            stack.append(frame)
            mark = -1.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if flag == "found":
                    mark = 0.0 if result is None else 1.0
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                parent = stack[-1]
                parent[2] += t1 - t0
                buf.extend((sid, parent[0], self.op, nid, t0, t1, t1 - t0 - frame[2],
                            mark, parent[1]))

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Time each next() of the generator; the span's length is their sum.

        Items come out unchanged and in the same order.
        """
        nid = self._name_id(name)
        stack = self.stack

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            creator, op = stack[-1], self.op
            inner = fn(*args, **kwargs)
            busy = 0.0
            count = 0
            first = perf_counter()
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        busy += dt
                        stack[-1][2] += dt
                    count += 1
                    yield item
            finally:
                self.buf.extend((sid, creator[0], op, nid, first, first + busy, busy,
                                 count, creator[1]))

        traced.__wrapped__ = fn
        return traced

    def install(self, *namespaces: dict) -> None:
        """Replace every traced function under each name that binds it.

        Every frozencol module is searched, and so is each dict passed in.
        """
        spaces = [vars(m) for name, m in sys.modules.items()
                  if name == "frozencol" or name.startswith("frozencol.")]
        spaces += namespaces
        for module, attr, flag in TARGETS:
            owner = sys.modules[f"frozencol.{module}"]
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:  # a classmethod: one binding, on the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, func)))
                continue
            original = getattr(owner, attr)
            if flag == "items":
                traced = self.wrap_generator(name, original)
            else:
                traced = self.wrap(name, original, flag)
            for space in spaces:
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = traced

    def rows(self):
        """(id, parent, op, name, start, end, self_s, flag, parent name)."""
        buf, names = self.buf, self.names
        for i in range(0, len(buf), WIDTH):
            sid, parent, op, nid, t0, t1, own, flag, pnid = buf[i:i + WIDTH]
            yield (int(sid), int(parent), int(op), names[int(nid)], t0, t1, own, flag,
                   names[int(pnid)] if pnid >= 0 else "none")

    def write(self, path) -> int:
        """Write spans as gzipped tab-separated lines; returns the span count."""
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for row in self.rows():
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\t%g\n" % row[:8])
                count += 1
        return count


def summarise(tracer: Tracer, ops: set[int] | None = None) -> dict[str, Counter]:
    """Per span name: calls, seconds, self seconds and flag sums.

    Keys "calls.<layer>" and "flag.<layer>" split calls and flags by the
    layer of the calling span ("none" for the op root). With ops given, only
    spans of those ops count.
    """
    stats: dict[str, Counter] = {}
    for _, _, op, name, t0, t1, own, flag, caller in tracer.rows():
        if ops is not None and op not in ops:
            continue
        s = stats.setdefault(name, Counter())
        layer = caller.split(".")[0]
        s["calls"] += 1
        s["calls." + layer] += 1
        s["s"] += t1 - t0
        s["self_s"] += own
        if flag > 0:
            s["flag"] += flag
            s["flag." + layer] += flag
    return stats

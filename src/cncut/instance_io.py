"""The on-disk instance format.

Line grammar: optional `c <comment>` lines, one `p cnc <n> <m>` header, m
`e <u> <v>` lines with 1 <= u < v <= n, one `k <int>`, and exactly one of
`x <int>` or `y <int>`. Vertices are 1-indexed on disk, 0-indexed in memory.
Serialization is canonical: header, sorted edges, k, then the target line.
"""

from __future__ import annotations

from .graph import FrozenRecord, Graph, InputError, pairs_by_edges


class ParseError(InputError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CncInstance(FrozenRecord):
    graph: Graph
    k: int
    x: int | None
    y: int | None
    comments: tuple[str, ...]

    def __init__(self, graph: Graph, k: int, x: int | None = None, y: int | None = None,
                 comments: tuple[str, ...] = ()) -> None:
        if (x is None) == (y is None):
            raise InputError("exactly one of x and y must be set")
        if k < 0:
            raise InputError("budget k must be nonnegative")
        if x is not None and x < 0:
            raise InputError("pair bound x must be nonnegative")
        if y is not None and y < 0:
            raise InputError("removal target y must be nonnegative")
        for text in comments:
            if "\n" in text or "\r" in text:
                raise InputError("comments must be single lines")
        self._set(graph, k, x, y, comments)

    def x_equivalent(self) -> int:
        """The residual-pair bound; negative means unsatisfiable.

        A y-target's pair total is counted over the edge list, so this stays
        linear in n + m on graphs too large for adjacency masks.
        """
        if self.x is not None:
            return self.x
        return pairs_by_edges(self.graph) - self.y


def parse_instance(text: str) -> CncInstance:
    n = m = None
    k = x = y = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    comments: list[str] = []

    def require_int(token: str, line_no: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(line_no, f"{what} is not an integer: {token!r}") from None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            comments.append(line[2:] if len(line) > 2 else "")
            continue
        if tag == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnc":
                raise ParseError(line_no, "expected 'p cnc <n> <m>'")
            n = require_int(parts[2], line_no, "vertex count")
            m = require_int(parts[3], line_no, "edge count")
            if n < 0 or m < 0:
                raise ParseError(line_no, "counts must be nonnegative")
            continue
        if tag == "e":
            if n is None:
                raise ParseError(line_no, "edge before the problem line")
            if len(parts) != 3:
                raise ParseError(line_no, "expected 'e <u> <v>'")
            u = require_int(parts[1], line_no, "endpoint")
            v = require_int(parts[2], line_no, "endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, "self-loops are not allowed")
            if u > v:
                raise ParseError(line_no, "endpoints must be given as u < v")
            if (u, v) in seen:
                raise ParseError(line_no, f"duplicate edge {u} {v}")
            seen.add((u, v))
            edges.append((u - 1, v - 1))
            continue
        if tag in ("k", "x", "y"):
            if len(parts) != 2:
                raise ParseError(line_no, f"expected '{tag} <int>'")
            val = require_int(parts[1], line_no, tag)
            if tag == "k":
                if k is not None:
                    raise ParseError(line_no, "duplicate k line")
                k = val
            elif tag == "x":
                if x is not None:
                    raise ParseError(line_no, "duplicate x line")
                if y is not None:
                    raise ParseError(line_no, "x given but y already set")
                x = val
            else:
                if y is not None:
                    raise ParseError(line_no, "duplicate y line")
                if x is not None:
                    raise ParseError(line_no, "y given but x already set")
                y = val
            continue
        raise ParseError(line_no, f"unrecognized line type {tag!r}")

    last = max(1, len(text.splitlines()))
    if n is None:
        raise ParseError(last, "missing problem line")
    if len(edges) != m:
        raise ParseError(last, f"declared {m} edges but found {len(edges)}")
    if k is None:
        raise ParseError(last, "missing k line")
    if x is None and y is None:
        raise ParseError(last, "missing x or y line")

    try:
        graph = Graph.from_edges(n, edges)
        return CncInstance(graph, k, x=x, y=y, comments=tuple(comments))
    except ParseError:
        raise
    except InputError as exc:
        raise ParseError(last, str(exc)) from exc


def serialize_instance(inst: CncInstance) -> str:
    lines = [f"c {text}".rstrip() for text in inst.comments]
    g = inst.graph
    lines.append(f"p cnc {g.n} {g.m}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    lines.append(f"k {inst.k}")
    if inst.x is not None:
        lines.append(f"x {inst.x}")
    else:
        lines.append(f"y {inst.y}")
    return "\n".join(lines) + "\n"

"""Meanders: arc diagrams whose topology computes the seaweed index.

Each composition block contributes nested arcs pairing its outermost vertices
inward; top arcs live above the vertex line, bottom arcs below. Since every
vertex meets at most one top and one bottom arc, components are alternating
paths and cycles, and the index is 2C + P - 1. The same pair appearing on both
sides is kept as two distinct edges (a 2-cycle), which is what makes the fully
parabolic n/n case come out right.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .standard_form import SeaweedSpec

__all__ = [
    "Meander",
    "DirectedMeander",
    "Component",
    "ComponentReport",
    "build_meander",
    "orient",
    "components",
    "index",
    "index_gcd_3part",
    "index_gcd_2part",
    "all_parts_even",
    "render",
    "meander_from_json",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class Meander:
    n: int
    top_edges: tuple[Edge, ...]
    bottom_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        for side in (self.top_edges, self.bottom_edges):
            touched: set[int] = set()
            for (u, v) in side:
                if not (1 <= u <= self.n and 1 <= v <= self.n) or u == v:
                    raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
                if u in touched or v in touched:
                    raise ValueError(f"vertex reused on one side at ({u}, {v})")
                touched.update((u, v))


@dataclass(frozen=True)
class DirectedMeander:
    """Orientation: top edges run larger -> smaller, bottom smaller -> larger."""

    n: int
    top_edges: tuple[Edge, ...]
    bottom_edges: tuple[Edge, ...]

    def undirected(self) -> Meander:
        return Meander(
            self.n,
            tuple(sorted(tuple(sorted(e)) for e in self.top_edges)),
            tuple(sorted(tuple(sorted(e)) for e in self.bottom_edges)),
        )

    def edges(self) -> tuple[Edge, ...]:
        """All directed edges, top then bottom."""
        return self.top_edges + self.bottom_edges


@dataclass(frozen=True)
class Component:
    kind: str  # "cycle" | "path"
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    @property
    def cycles(self) -> list[Component]:
        return [c for c in self.components if c.kind == "cycle"]

    @property
    def paths(self) -> list[Component]:
        return [c for c in self.components if c.kind == "path"]

    @property
    def C(self) -> int:
        return len(self.cycles)

    @property
    def P(self) -> int:
        return len(self.paths)

    @property
    def index(self) -> int:
        """2C + P - 1 (Dergachev-Kirillov)."""
        return 2 * self.C + self.P - 1


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _block_arcs(parts: tuple[int, ...]) -> list[Edge]:
    arcs = []
    start = 1
    for p in parts:
        lo, hi = start, start + p - 1
        while lo < hi:
            arcs.append((lo, hi))
            lo += 1
            hi -= 1
        start += p
    return arcs


def build_meander(spec: SeaweedSpec) -> Meander:
    """Arcs pair each block's outermost vertices inward; odd middles stay bare."""
    return Meander(
        spec.n,
        tuple(_block_arcs(spec.top.parts)),
        tuple(_block_arcs(spec.bottom.parts)),
    )


def orient(m: Meander) -> DirectedMeander:
    return DirectedMeander(
        m.n,
        tuple((max(u, v), min(u, v)) for (u, v) in m.top_edges),
        tuple((min(u, v), max(u, v)) for (u, v) in m.bottom_edges),
    )


# ---------------------------------------------------------------------------
# components and index
# ---------------------------------------------------------------------------

def components(m: Meander) -> ComponentReport:
    """Alternating-walk decomposition into cycles and (possibly degenerate) paths.

    Deterministic presentation: components ordered by smallest vertex; a path
    is listed from its smaller endpoint; a cycle starts at its smallest vertex
    and heads toward the smaller of that vertex's two partners.
    """
    top_of: dict[int, int] = {}
    for (u, v) in m.top_edges:
        top_of[u] = v
        top_of[v] = u
    bottom_of: dict[int, int] = {}
    for (u, v) in m.bottom_edges:
        bottom_of[u] = v
        bottom_of[v] = u

    def walk(start: int, layer: str) -> list[int]:
        seq = [start]
        cur, lay = start, layer
        while True:
            partner = (top_of if lay == "top" else bottom_of).get(cur)
            if partner is None or partner == start:
                return seq
            seq.append(partner)
            cur = partner
            lay = "bottom" if lay == "top" else "top"

    seen: set[int] = set()
    comps: list[Component] = []
    for v in range(1, m.n + 1):
        if v in seen:
            continue
        t, b = top_of.get(v), bottom_of.get(v)
        if t is None and b is None:
            comps.append(Component("path", (v,)))
            seen.add(v)
            continue
        if t is not None and b is not None:
            fwd = walk(v, "top")
            if _closes(v, fwd, top_of, bottom_of):
                first = "top" if t <= b else "bottom"
                verts = tuple(walk(v, first))
                comps.append(Component("cycle", verts))
                seen.update(verts)
                continue
            # v is interior to a path: extend backwards along the bottom edge
            back = walk(v, "bottom")
            verts_list = list(reversed(back[1:])) + fwd
            e1, e2 = verts_list[0], verts_list[-1]
            if e1 > e2:
                verts_list.reverse()
            comps.append(Component("path", tuple(verts_list)))
            seen.update(verts_list)
            continue
        verts = tuple(walk(v, "top" if t is not None else "bottom"))
        other_end = verts[-1]
        if other_end < v:
            verts = tuple(reversed(verts))
        comps.append(Component("path", verts))
        seen.update(verts)
    return ComponentReport(tuple(comps))


def _closes(
    start: int, seq: list[int], top_of: dict[int, int], bottom_of: dict[int, int]
) -> bool:
    """Did the alternating walk return to its start (i.e. trace a cycle)?"""
    last = seq[-1]
    layer = "top" if len(seq) % 2 == 1 else "bottom"
    return (top_of if layer == "top" else bottom_of).get(last) == start


def index(spec: SeaweedSpec) -> int:
    """2C + P - 1 over the meander components."""
    return components(build_meander(spec)).index


def index_gcd_3part(a: int, b: int, c: int) -> int:
    """Index of a|b|c over the one-part bottom: gcd(a+b, b+c) - 1."""
    if min(a, b, c) < 1:
        raise ValueError("parts must be positive")
    return gcd(a + b, b + c) - 1


def index_gcd_2part(a: int, c: int) -> int:
    """Index of a|c over the one-part bottom: gcd(a, c) - 1."""
    if min(a, c) < 1:
        raise ValueError("parts must be positive")
    return gcd(a, c) - 1


def all_parts_even(spec: SeaweedSpec) -> bool:
    return all(p % 2 == 0 for p in spec.top.parts + spec.bottom.parts)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(m: Meander | DirectedMeander, format: str) -> str:
    if format == "ascii":
        return _render_ascii(m)
    if format == "svg":
        return _render_svg(m)
    if format == "tikz":
        return _render_tikz(m)
    if format == "json":
        return _render_json(m)
    raise ValueError(f"unknown format {format!r}")


def _layout(n: int) -> tuple[list[str], list[int]]:
    labels = [str(v) for v in range(1, n + 1)]
    centers = []
    col = 0
    for lab in labels:
        centers.append(col + (len(lab) - 1) // 2)
        col += len(lab) + 1
    return labels, centers


def _render_ascii(m: Meander | DirectedMeander) -> str:
    directed = isinstance(m, DirectedMeander)
    labels, centers = _layout(m.n)
    vertex_line = " ".join(labels)
    width = len(vertex_line)

    def canvas_for(edges: tuple[Edge, ...], side: str) -> list[str]:
        spans = [tuple(sorted(e)) for e in edges]
        depth = {}
        for s in spans:
            depth[s] = sum(1 for t in spans if t[0] < s[0] and s[1] < t[1])
        if not spans:
            return []
        nrows = max(depth.values()) + 1
        grid = [[" "] * width for _ in range(nrows)]
        for e, s in zip(edges, spans):
            # top rows print outermost first; bottom mirrors (innermost first)
            r = depth[s] if side == "top" else nrows - 1 - depth[s]
            lo, hi = centers[s[0] - 1], centers[s[1] - 1]
            for c in range(lo, hi + 1):
                grid[r][c] = "-"
            grid[r][lo] = "+"
            grid[r][hi] = "+"
            if directed:
                tgt = e[1]
                grid[r][centers[tgt - 1]] = "<" if side == "top" else ">"
            lower, upper = (r + 1, nrows) if side == "top" else (0, r)
            for rr in range(lower, upper):
                grid[rr][lo] = "|"
                grid[rr][hi] = "|"
        return ["".join(row).rstrip() for row in grid]

    out = canvas_for(m.top_edges, "top") + [vertex_line] + canvas_for(
        m.bottom_edges, "bottom"
    )
    return "\n".join(out) + "\n"


def _render_svg(m: Meander | DirectedMeander) -> str:
    directed = isinstance(m, DirectedMeander)
    step, y = 40, 110
    w = step * (m.n + 1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="220" viewBox="0 0 {w} 220">',
    ]
    if directed:
        lines.append(
            '<defs><marker id="arr" markerWidth="8" markerHeight="8" refX="6" '
            'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z"/></marker></defs>'
        )
    mark = ' marker-end="url(#arr)"' if directed else ""

    def x(v: int) -> int:
        return step * v

    for side, edges in (("top", m.top_edges), ("bottom", m.bottom_edges)):
        for (u, v) in edges:
            if directed:
                src, tgt = u, v
            else:
                # same geometry as the oriented picture, without arrowheads
                src, tgt = (max(u, v), min(u, v)) if side == "top" else (
                    min(u, v),
                    max(u, v),
                )
            r = abs(x(tgt) - x(src)) / 2
            lines.append(
                f'<path d="M {x(src)} {y} A {r:g} {r:g} 0 0 0 {x(tgt)} {y}" '
                f'fill="none" stroke="black"{mark}/>'
            )
    for v in range(1, m.n + 1):
        lines.append(f'<circle cx="{x(v)}" cy="{y}" r="3" fill="black"/>')
        lines.append(
            f'<text x="{x(v)}" y="{y + 20}" font-size="12" '
            f'text-anchor="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _render_tikz(m: Meander | DirectedMeander) -> str:
    directed = isinstance(m, DirectedMeander)
    lines = [
        "\\begin{tikzpicture}[every node/.style={circle, fill, inner sep=1.2pt}]",
        f"  \\foreach \\i in {{1,...,{m.n}}} "
        "\\node (v\\i) at (\\i, 0) [label=below:$v_{\\i}$] {};",
    ]
    style = "[->] " if directed else ""
    for side, edges in (("top", m.top_edges), ("bottom", m.bottom_edges)):
        for (u, v) in edges:
            if directed:
                src, tgt = u, v
            else:
                src, tgt = (max(u, v), min(u, v)) if side == "top" else (
                    min(u, v),
                    max(u, v),
                )
            lines.append(f"  \\draw {style}(v{src}) to[bend right=60] (v{tgt});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _render_json(m: Meander | DirectedMeander) -> str:
    directed = isinstance(m, DirectedMeander)
    if directed:
        top = [list(e) for e in m.top_edges]
        bottom = [list(e) for e in m.bottom_edges]
    else:
        top = sorted([list(e) for e in m.top_edges])
        bottom = sorted([list(e) for e in m.bottom_edges])
    data = {"n": m.n, "top": top, "bottom": bottom, "directed": directed}
    return json.dumps(data, indent=2) + "\n"


def meander_from_json(text: str | dict) -> Meander | DirectedMeander:
    data = json.loads(text) if isinstance(text, str) else text
    n = data["n"]
    top = tuple((u, v) for u, v in data["top"])
    bottom = tuple((u, v) for u, v in data["bottom"])
    if data.get("directed"):
        dm = DirectedMeander(n, top, bottom)
        dm.undirected()  # validates vertex degrees
        return dm
    return Meander(n, top, bottom)

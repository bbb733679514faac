"""Meanders: arc diagrams whose topology computes the seaweed index.

Each composition block contributes nested arcs pairing its outermost vertices
inward (``Composition.arcs``); top arcs live above the vertex line, bottom arcs
below. Since every vertex meets at most one top and one bottom arc, components
are alternating paths and cycles, and the index is 2C + P - 1. The same pair
appearing on both sides is kept as two distinct edges (a 2-cycle), which is
what makes the fully parabolic n/n case come out right. A ``Meander`` holds
each side as an ``Arcs`` checked for its n, and a composition's cached arcs
are one already, so ``build_meander`` checks nothing again. ``components``
walks the two sides' partner lists, indexed by vertex with 0 meaning no arc
on that side, and lists every component; ``counts`` walks the same lists for
the cycles only, and gets P = n - #arcs, since a cycle has as many edges as
vertices and a path one fewer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

from .standard_form import Arcs, SeaweedSpec

__all__ = [
    "Meander",
    "DirectedMeander",
    "Component",
    "ComponentReport",
    "build_meander",
    "orient",
    "components",
    "counts",
    "index_from_counts",
    "index",
    "index_gcd_3part",
    "index_gcd_2part",
    "all_parts_even",
    "render",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class Meander:
    """Top and bottom arcs on vertices 1..n; each side is stored as an
    ``Arcs`` for n, so it is checked and carries its partner list."""

    n: int
    top_edges: tuple[Edge, ...]
    bottom_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        """A side that is already an ``Arcs`` for n was checked when it was
        built, and is kept; any other side is checked as it becomes one."""
        n = self.n
        top, bottom = self.top_edges, self.bottom_edges
        if not (isinstance(top, Arcs) and top.n == n):
            object.__setattr__(self, "top_edges", Arcs(n, top))
        if not (isinstance(bottom, Arcs) and bottom.n == n):
            object.__setattr__(self, "bottom_edges", Arcs(n, bottom))


@dataclass(frozen=True)
class DirectedMeander:
    """Orientation: top edges run larger -> smaller, bottom smaller -> larger."""

    n: int
    top_edges: tuple[Edge, ...]
    bottom_edges: tuple[Edge, ...]

    def edges(self) -> tuple[Edge, ...]:
        """All directed edges, top then bottom."""
        return self.top_edges + self.bottom_edges


@dataclass(frozen=True)
class Component:
    kind: str  # "cycle" | "path"
    vertices: tuple[int, ...]


def index_from_counts(C: int, P: int) -> int:
    """2C + P - 1 (Dergachev-Kirillov) for C cycles and P paths."""
    return 2 * C + P - 1


@dataclass(frozen=True)
class ComponentReport:
    """Every component, listed; ``counts`` gives (C, P) without the list."""

    components: tuple[Component, ...]
    # cycles, counted once; P and index derive from the count
    C: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "C", sum(c.kind == "cycle" for c in self.components))

    @property
    def cycles(self) -> list[Component]:
        return [c for c in self.components if c.kind == "cycle"]

    @property
    def paths(self) -> list[Component]:
        return [c for c in self.components if c.kind == "path"]

    @property
    def P(self) -> int:
        return len(self.components) - self.C

    @property
    def index(self) -> int:
        return index_from_counts(self.C, self.P)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_meander(spec: SeaweedSpec) -> Meander:
    """Arcs pair each block's outermost vertices inward; odd middles stay bare."""
    return Meander(spec.n, spec.top.arcs, spec.bottom.arcs)


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

    ``top[v]`` and ``bottom[v]`` are v's partners on each side, 0 for none.
    From each unseen v the walk leaves along the top and alternates sides; it
    closes only by coming back to v along the bottom. An open walk is a path,
    and its part beyond v's bottom arc, walked bottom first, is prepended.
    """
    n = m.n
    top = m.top_edges.partners
    bottom = m.bottom_edges.partners

    seen = [False] * (n + 1)
    comps: list[Component] = []
    for v in range(1, n + 1):
        if seen[v]:
            continue
        verts = [v]
        cur = top[v]
        while cur:
            verts.append(cur)
            cur = bottom[cur]
            if not cur or cur == v:
                break
            verts.append(cur)
            cur = top[cur]
        closed = cur == v
        if closed:
            if verts[-1] < verts[1]:
                verts = [v] + verts[:0:-1]
        else:
            cur = bottom[v]
            if cur:
                back = []
                while cur:
                    back.append(cur)
                    cur = top[cur]
                    if not cur:
                        break
                    back.append(cur)
                    cur = bottom[cur]
                back.reverse()
                verts = back + verts
            if verts[-1] < verts[0]:
                verts.reverse()
        for u in verts:
            seen[u] = True
        comps.append(Component("cycle" if closed else "path", tuple(verts)))
    return ComponentReport(tuple(comps))


def counts(m: Meander) -> tuple[int, int]:
    """(C, P), the numbers of cycles and paths, without listing components.

    A cycle's vertices all have both partners, and a walk entering a cycle
    stays in it, so the first walk to reach a cycle starts on it and comes
    back to its start. Each walk starts at an unseen vertex with both
    partners, alternates top then bottom, and stops at a missing partner or a
    seen vertex; C counts the walks that stop at their start. Every component
    is a path or a cycle, a cycle has as many edges as vertices and a path
    (an isolated vertex included) one fewer, so P is n minus the arc count.
    """
    n = m.n
    top = m.top_edges.partners
    bottom = m.bottom_edges.partners

    seen = [False] * (n + 1)
    cycles = 0
    for v in range(1, n + 1):
        if seen[v] or not (top[v] and bottom[v]):
            continue
        cur = v
        while True:
            seen[cur] = True
            cur = top[cur]
            if not cur or seen[cur]:
                break
            seen[cur] = True
            cur = bottom[cur]
            if not cur or seen[cur]:
                break
        cycles += cur == v
    return cycles, n - len(m.top_edges) - len(m.bottom_edges)


def index(spec: SeaweedSpec) -> int:
    """2C + P - 1 over the meander's cycle and path counts."""
    return index_from_counts(*counts(build_meander(spec)))


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

    # an undirected meander keeps the oriented geometry, without arrowheads
    for (src, tgt) in (m if directed else orient(m)).edges():
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
    for (src, tgt) in (m if directed else orient(m)).edges():
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

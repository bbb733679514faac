"""Meander construction, components, the 2C + P - 1 index, and renderers."""
import json
import pickle
import random
import xml.etree.ElementTree as ET
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweed.liealg import index_randomized
from seaweed.meander import (
    Component,
    DirectedMeander,
    Meander,
    all_parts_even,
    build_meander,
    components,
    counts,
    index,
    index_from_counts,
    index_gcd_2part,
    index_gcd_3part,
    orient,
    render,
)
from seaweed.standard_form import (
    Arcs,
    Composition,
    SeaweedSpec,
    materialize,
    seaweed_dim,
    spec_pairs,
)


def spec(text):
    return SeaweedSpec.parse(text)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_blocks_pair_outermost_inward():
    m = build_meander(spec("2|6 / 8"))
    assert m.top_edges == ((1, 2), (3, 8), (4, 7), (5, 6))
    assert m.bottom_edges == ((1, 8), (2, 7), (3, 6), (4, 5))


def test_odd_block_leaves_middle_vertex_bare():
    m = build_meander(spec("5 / 5"))
    assert m.top_edges == ((1, 5), (2, 4))
    assert 3 not in {v for e in m.top_edges for v in e}


def test_single_vertex_no_arcs():
    m = build_meander(spec("1 / 1"))
    assert m.top_edges == () and m.bottom_edges == ()


def test_meander_rejects_reused_vertex():
    with pytest.raises(ValueError):
        Meander(3, ((1, 2), (2, 3)), ())
    with pytest.raises(ValueError):
        Meander(3, ((1, 4),), ())


def _per_edge_check(n, side):
    """The per-edge validation loop, with a set of touched vertices, as the
    reference that ``Arcs`` must match, messages included."""
    touched = set()
    for (u, v) in side:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        if u in touched or v in touched:
            raise ValueError(f"vertex reused on one side at ({u}, {v})")
        touched.update((u, v))


@st.composite
def _sides(draw, n):
    """A valid side on n vertices, then at most two of: an endpoint 0 or n+1,
    an arc (u, u), an arc reusing a vertex, a repeated (maybe reversed) pair."""
    verts = draw(st.permutations(range(1, n + 1)))
    side = [(verts[i], verts[i + 1]) for i in range(0, 2 * draw(st.integers(0, n // 2)), 2)]
    for kind in draw(st.lists(st.sampled_from(["zero", "high", "loop", "reuse", "repeat"]), max_size=2)):
        at = draw(st.integers(0, len(side)))
        if kind in ("zero", "high") and side:
            i = draw(st.integers(0, len(side) - 1))
            bad = 0 if kind == "zero" else n + 1
            side[i] = (bad, side[i][1]) if draw(st.booleans()) else (side[i][0], bad)
        elif kind == "loop":
            u = draw(st.integers(1, n))
            side.insert(at, (u, u))
        elif kind == "reuse" and side:
            old = draw(st.sampled_from(side))
            pair = (draw(st.sampled_from(old)), draw(st.integers(1, n)))
            side.insert(at, pair[::-1] if draw(st.booleans()) else pair)
        elif kind == "repeat" and side:
            old = draw(st.sampled_from(side))
            side.insert(at, old[::-1] if draw(st.booleans()) else old)
    return tuple(side)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 12))
    top = draw(_sides(n))
    # half the time the bottom repeats some top arcs, as a 2-cycle does
    if top and draw(st.booleans()):
        shared = tuple(e for e in top if draw(st.booleans()))
        used = {v for e in shared for v in e}
        free = [v for v in range(1, n + 1) if v not in used]
        rest = draw(st.permutations(free))
        k = draw(st.integers(0, len(free) // 2))
        bottom = shared + tuple((rest[2 * i], rest[2 * i + 1]) for i in range(k))
    else:
        bottom = draw(_sides(n))
    return n, top, bottom


@settings(max_examples=500, deadline=None)
@given(_edge_lists())
def test_meander_accepts_exactly_what_the_per_edge_loop_accepts(case):
    n, top, bottom = case
    try:
        _per_edge_check(n, top)
        _per_edge_check(n, bottom)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            Meander(n, top, bottom)
        assert str(info.value) == str(exc)
    else:
        m = Meander(n, top, bottom)
        assert (m.top_edges, m.bottom_edges) == (top, bottom)


def _partner_list(n, side):
    partners = [0] * (n + 1)
    for (u, v) in side:
        partners[u] = v
        partners[v] = u
    return partners


def test_a_side_checked_for_one_n_is_checked_again_for_another():
    four = Composition((2, 2)).arcs
    assert isinstance(four, Arcs) and four.n == 4
    with pytest.raises(ValueError, match=r"bad edge \(3, 4\) for n=3"):
        Meander(3, four, ())
    with pytest.raises(ValueError, match=r"bad edge \(3, 4\) for n=3"):
        Meander(3, (), four)
    # a larger n accepts the same arcs, with a partner list as long as n + 1
    m = Meander(5, four, four)
    assert m.top_edges == four and m.top_edges.n == 5
    assert m.top_edges.partners == (0, 2, 1, 4, 3, 0)


def test_meander_from_plain_sides_equals_one_from_arcs():
    for sp in spec_pairs(5):
        m = build_meander(sp)
        for top, bottom in [
            (tuple(sp.top.arcs), tuple(sp.bottom.arcs)),
            (list(sp.top.arcs), list(sp.bottom.arcs)),
        ]:
            plain = Meander(sp.n, top, bottom)
            assert type(plain.top_edges) is Arcs and type(plain.bottom_edges) is Arcs
            assert plain == m and hash(plain) == hash(m) and repr(plain) == repr(m)
    # Arcs prints as the plain tuple of its arcs
    assert repr(build_meander(spec("2 / 2"))) == (
        "Meander(n=2, top_edges=((1, 2),), bottom_edges=((1, 2),))"
    )


def test_partners_is_a_tuple_derived_from_the_edges():
    rng = random.Random(11)
    meanders = [build_meander(sp) for sp in spec_pairs(6)]
    meanders += [_random_meander(rng, rng.randint(1, 14)) for _ in range(500)]
    for m in meanders:
        for side in (m.top_edges, m.bottom_edges):
            assert type(side.partners) is tuple
            assert side.partners == tuple(_partner_list(m.n, side)), m
    with pytest.raises(AttributeError):
        meanders[0].top_edges.partners = ()
    with pytest.raises(AttributeError):
        meanders[0].top_edges.n = 9


def test_arcs_and_read_compositions_survive_pickling():
    comp = Composition((3, 2, 4))
    arcs = comp.arcs  # read, so the composition caches it
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(arcs, protocol))
        assert type(again) is Arcs and again == arcs
        assert (again.n, again.partners) == (arcs.n, arcs.partners)
        back = pickle.loads(pickle.dumps(comp, protocol))
        assert back == comp and type(back.__dict__["arcs"]) is Arcs
        assert (back.arcs, back.arcs.n, back.arcs.partners) == (arcs, arcs.n, arcs.partners)


def test_orientation_convention():
    m = build_meander(spec("1|4 / 3|1|1"))
    dm = orient(m)
    assert dm.top_edges == ((5, 2), (4, 3))  # larger -> smaller
    assert dm.bottom_edges == ((1, 3),)  # smaller -> larger
    # orienting keeps n and the meander's arcs; edges() lists top, then bottom
    top = tuple((v, u) for u, v in m.top_edges)
    assert dm.n == m.n and dm.edges() == top + m.bottom_edges


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_single_path_traversal_order():
    rep = components(build_meander(spec("2|4 / 1|2|3")))
    assert rep.components == (Component("path", (1, 2, 3, 6, 4, 5)),)
    assert rep.C == 0 and rep.P == 1


def test_cycles_and_degenerate_path():
    rep = components(build_meander(spec("5 / 5")))
    assert rep.components == (
        Component("cycle", (1, 5)),
        Component("cycle", (2, 4)),
        Component("path", (3,)),
    )
    assert rep.C == 2 and rep.P == 1


def test_two_singleton_paths():
    rep = components(build_meander(spec("1|1 / 1|1")))
    assert [c.kind for c in rep.components] == ["path", "path"]
    assert rep.P == 2


def test_two_path_example():
    rep = components(build_meander(spec("1|4 / 3|1|1")))
    assert rep.paths[0].vertices == (1, 3, 4)
    assert rep.paths[1].vertices == (2, 5)


def test_single_cycle_example():
    rep = components(build_meander(spec("2|6 / 8")))
    assert rep.C == 1 and rep.P == 0
    assert rep.cycles[0].vertices[0] == 1


def test_components_cover_every_vertex_once():
    for sp in spec_pairs(6):
        rep = components(build_meander(sp))
        seen = [v for c in rep.components for v in c.vertices]
        assert sorted(seen) == list(range(1, 7))
        # components come out sorted by smallest vertex
        mins = [min(c.vertices) for c in rep.components]
        assert mins == sorted(mins)


def test_cycles_alternate_and_have_even_length():
    for sp in spec_pairs(6):
        for c in components(build_meander(sp)).cycles:
            assert len(c.vertices) % 2 == 0


def _random_meander(rng, n):
    """A valid meander on n vertices; some bottom arcs repeat top arcs."""

    def arcs(pool):
        ends = rng.sample(pool, 2 * rng.randint(0, len(pool) // 2))
        return [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]

    top = arcs(range(1, n + 1))
    shared = [(v, u) if rng.random() < 0.5 else (u, v) for (u, v) in top if rng.random() < 0.3]
    free = [v for v in range(1, n + 1) if not any(v in e for e in shared)]
    bottom = shared + arcs(free)
    rng.shuffle(bottom)
    return Meander(n, tuple(top), tuple(bottom))


def test_components_presentation_on_random_meanders():
    rng = random.Random(7)
    shared_seen = 0
    for _ in range(3000):
        m = _random_meander(rng, rng.randint(1, 14))
        top_of = {u: v for (a, b) in m.top_edges for (u, v) in ((a, b), (b, a))}
        bottom_of = {u: v for (a, b) in m.bottom_edges for (u, v) in ((a, b), (b, a))}
        shared_seen += any(top_of.get(u) == v for (u, v) in m.bottom_edges)
        rep = components(m)
        assert counts(m) == (rep.C, rep.P), m
        comps = rep.components
        assert sorted(v for c in comps for v in c.vertices) == list(range(1, m.n + 1))
        mins = [min(c.vertices) for c in comps]
        assert mins == sorted(mins)
        for c in comps:
            vs = c.vertices
            first = top_of if len(vs) > 1 and top_of.get(vs[0]) == vs[1] else bottom_of
            sides = (first, bottom_of if first is top_of else top_of)
            # consecutive vertices are partners on alternate sides
            for i in range(len(vs) - 1):
                assert sides[i % 2].get(vs[i]) == vs[i + 1], (m, c)
            # the side the walk would take after its last vertex
            after = sides[(len(vs) - 1) % 2]
            if c.kind == "path":
                assert vs[0] not in sides[1] and vs[-1] not in after, (m, c)
                assert vs[0] <= vs[-1]
            else:
                assert c.kind == "cycle" and after.get(vs[-1]) == vs[0], (m, c)
                assert vs[0] == min(vs)
                assert vs[1] == min(top_of[vs[0]], bottom_of[vs[0]])
    assert shared_seen > 100


def test_counts_match_components_on_every_small_spec():
    checked = 0
    for n in range(1, 9):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            C, P = counts(build_meander(sp))
            assert (C, P) == (rep.C, rep.P), sp.text()
            assert index_from_counts(C, P) == rep.index == index(sp), sp.text()
            checked += 1
    assert checked == sum(4 ** (n - 1) for n in range(1, 9))


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def test_index_golden_values():
    for text, want in [
        ("2|6 / 8", 1),
        ("1|4 / 3|1|1", 1),
        ("2|4 / 1|2|3", 0),
        ("2|3 / 5", 0),
        ("1|1|3 / 5", 1),
        ("1|2|5 / 8", 0),
        ("2|1|4|1 / 8", 0),
        ("5 / 5", 4),
        ("2 / 2", 1),
        ("1 / 1", 0),
    ]:
        assert index(spec(text)) == want, text


def test_full_parabolic_index_is_n_minus_1():
    for n in range(1, 9):
        sp = SeaweedSpec.parse(f"{n} / {n}")
        assert index(sp) == n - 1


def test_index_matches_rank_oracle_spot_checks():
    for text in ("2|2 / 4", "3|3 / 6", "1|4 / 3|1|1", "2|2|2 / 6", "4 / 1|3"):
        sp = spec(text)
        assert index(sp) == index_randomized(materialize(sp), trials=10, seed=1729)


def test_index_has_dimension_parity():
    for sp in spec_pairs(5):
        assert (index(sp) - seaweed_dim(sp)) % 2 == 0


def test_index_one_iff_two_paths_or_one_cycle():
    for n in range(1, 9):
        for sp in spec_pairs(n):
            rep = components(build_meander(sp))
            dichotomy = (rep.C, rep.P) in {(0, 2), (1, 0)}
            assert (index(sp) == 1) == dichotomy
            # every index-one seaweed seen so far is odd-dimensional
            if index(sp) == 1:
                assert seaweed_dim(sp) % 2 == 1


def test_single_cycle_needs_even_parts_with_big_end():
    """A one-cycle meander forces all parts even and some end part >= 4
    (or n = 2); checked exhaustively at small n."""
    for n in range(2, 11):
        for sp in spec_pairs(n):
            if counts(build_meander(sp)) == (1, 0):
                assert all_parts_even(sp)
                if n > 2:
                    t, b = sp.top.parts, sp.bottom.parts
                    assert max(t[0], t[-1], b[0], b[-1]) >= 4


def test_all_parts_even():
    assert all_parts_even(spec("2|6 / 8"))
    assert not all_parts_even(spec("1|4 / 3|1|1"))


def test_gcd_formulas():
    assert index_gcd_3part(1, 2, 5) == 0
    assert index_gcd_3part(2, 4, 2) == gcd(6, 6) - 1
    assert index_gcd_2part(2, 6) == 1
    assert index_gcd_2part(5, 5) == 4
    with pytest.raises(ValueError):
        index_gcd_3part(0, 1, 1)
    with pytest.raises(ValueError):
        index_gcd_2part(1, 0)


def test_gcd_matches_meander_small():
    for a in range(1, 7):
        for c in range(1, 7):
            sp = SeaweedSpec.parse(f"{a}|{c} / {a + c}")
            assert index(sp) == index_gcd_2part(a, c)
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                sp = SeaweedSpec.parse(f"{a}|{b}|{c} / {a + b + c}")
                assert index(sp) == index_gcd_3part(a, b, c)


# ---------------------------------------------------------------------------
# signature moves: a third exact index, from the parts alone
# ---------------------------------------------------------------------------

def signature_counts(top, bottom):
    """(C, P) of the meander of top / bottom by the signature moves of Coll,
    Hyatt, Magnant & Wang (2015) on the first parts a1 and b1. Only component
    elimination changes the counts; the reduction reads parts, not arcs."""
    # first parts last, so each move acts on the ends of the lists
    a, b = list(reversed(top)), list(reversed(bottom))
    C = P = 0
    while a:
        if a[-1] < b[-1]:
            a, b = b, a  # flip
        a1, b1 = a[-1], b[-1]
        if a1 == b1:
            # component elimination: a1 // 2 cycles, and a bare middle
            # vertex (a path) when a1 is odd
            a.pop()
            b.pop()
            C += a1 // 2
            P += a1 % 2
        elif a1 == 2 * b1:
            # block elimination
            a[-1] = b1
            b.pop()
        elif a1 < 2 * b1:
            # rotation contraction
            a[-1] = b1
            b[-1] = 2 * b1 - a1
        else:
            # pure contraction: the top becomes a1 - 2 b1 | b1 | a2 | ...
            a[-1] = b1
            a.append(a1 - 2 * b1)
            b.pop()
    return C, P


def test_signature_moves_match_counts_on_every_spec_through_n9():
    checked = 0
    for n in range(1, 10):
        for sp in spec_pairs(n):
            assert signature_counts(sp.top.parts, sp.bottom.parts) == counts(
                build_meander(sp)
            ), sp.text()
            checked += 1
    assert checked == sum(4 ** (n - 1) for n in range(1, 10)) == 87381


@st.composite
def _large_specs(draw):
    """Specs with n up to 400, with few to very many parts on each side. The
    cuts come from a drawn seed: one Hypothesis draw per cut is slow."""
    n = draw(st.integers(1, 400))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def composition():
        density = rng.choice([0.01, 0.1, 0.5, 0.9])
        cuts = [0] + [c for c in range(1, n) if rng.random() < density] + [n]
        return Composition(tuple(y - x for x, y in zip(cuts, cuts[1:])))

    return SeaweedSpec(composition(), composition())


@settings(max_examples=200, deadline=None)
@given(_large_specs())
def test_signature_moves_match_counts_on_large_specs(sp):
    assert signature_counts(sp.top.parts, sp.bottom.parts) == counts(build_meander(sp))


def test_signature_moves_give_the_gcd_and_one_part_indices():
    for a in range(1, 40):
        for c in range(1, 40):
            got = index_from_counts(*signature_counts((a, c), (a + c,)))
            assert got == index_gcd_2part(a, c), (a, c)
    for a in range(1, 14):
        for b in range(1, 14):
            for c in range(1, 14):
                got = index_from_counts(*signature_counts((a, b, c), (a + b + c,)))
                assert got == index_gcd_3part(a, b, c), (a, b, c)
    for n in range(1, 200):
        assert index_from_counts(*signature_counts((n,), (n,))) == n - 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_ascii_round_symmetric_picture():
    art = render(build_meander(spec("5 / 5")), "ascii")
    assert art == (
        "+-------+\n"
        "| +---+ |\n"
        "1 2 3 4 5\n"
        "| +---+ |\n"
        "+-------+\n"
    )


def test_ascii_directed_marks_targets():
    art = render(orient(build_meander(spec("2 / 2"))), "ascii")
    assert "<" in art and ">" in art


def test_ascii_single_vertex():
    assert render(build_meander(spec("1 / 1")), "ascii") == "1\n"


def test_tikz_contains_directed_arcs():
    out = render(orient(build_meander(spec("2|6 / 8"))), "tikz")
    assert "\\begin{tikzpicture}" in out
    assert "\\draw [->] (v8) to[bend right=60] (v3);" in out
    assert "\\draw [->] (v1) to[bend right=60] (v8);" in out
    assert out.count("\\draw") == 8


def test_tikz_undirected_has_no_arrows():
    out = render(build_meander(spec("2 / 2")), "tikz")
    assert "[->]" not in out and out.count("\\draw") == 2


def test_svg_is_well_formed_xml():
    for directed in (False, True):
        m = build_meander(spec("1|4 / 3|1|1"))
        out = render(orient(m) if directed else m, "svg")
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        arcs = [
            e
            for e in root.iter()
            if e.tag.endswith("path") and e.get("fill") == "none"
        ]
        assert len(arcs) == 3  # marker arrowheads are paths too, not counted


def test_undirected_svg_and_tikz_are_the_oriented_pictures_without_arrows():
    for n in range(1, 6):
        for sp in spec_pairs(n):
            m = build_meander(sp)
            svg = render(orient(m), "svg").replace(' marker-end="url(#arr)"', "")
            svg = "".join(
                line for line in svg.splitlines(True) if not line.startswith("<defs>")
            )
            assert render(m, "svg") == svg
            assert render(m, "tikz") == render(orient(m), "tikz").replace("[->] ", "")


def test_json_render_undirected():
    m = build_meander(spec("1|4 / 3|1|1"))
    data = json.loads(render(m, "json"))
    assert data == {
        "n": 5,
        "top": [[2, 5], [3, 4]],
        "bottom": [[1, 3]],
        "directed": False,
    }


def test_json_render_directed():
    dm = orient(build_meander(spec("1|4 / 3|1|1")))
    data = json.loads(render(dm, "json"))
    assert data["directed"] is True
    assert data["top"] == [[5, 2], [4, 3]]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(build_meander(spec("2 / 2")), "png")


def test_renders_are_deterministic():
    m = orient(build_meander(spec("2|6 / 8")))
    for fmt in ("ascii", "svg", "tikz", "json"):
        assert render(m, fmt) == render(m, fmt)

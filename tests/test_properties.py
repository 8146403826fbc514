"""Property tests of the Engel relation, with elements drawn by hypothesis.

Two facts about the Engel graph E_G hold in every group:

- conjugation equivariance: [a^g,_k x^g] = [a,_k x]^g, so G acts on E_G by
  automorphisms;
- commuting elements are never adjacent, so E_G is a subgraph of the
  non-commuting graph.

The library reads Engel rows at class representatives only and carries
them to the other members by conjugation, so the equivariance check alone
would compare the code with itself; on randomly generated groups the depth
maps are also compared with a reverse breadth-first search over preimage
lists and with direct iteration of the commutator map, and
checked to satisfy depth_{r^g}[a^g] = depth_r[a] along the transversal.
The left Engel and left k-Engel verdicts, read from shrinking commutator
images, are compared there with the depth maps and with [a,_k x].
The conjugacy classes of groups generated by two random permutations of
degree at most 6 are compared with sympy's class count and with the
orbits found by conjugating with every element.

L(G), the Engel graph and the randomly-Engel check are read from the Engel
core G/Z*(G); on random groups with a centre they are compared with G's own
depth maps and with the element-by-element check, and the core with the
all-pairs upper central series and sympy.

A group remembers the lower central series it has computed; on catalog
groups of order at most 60 every subgroup query gives the same answer on
a warmed group as on a copy pickled before any query, and so does each
series the warmed group remembers.

Cycle notation is read by one token pattern; on lines drawn from tokens,
white space and digits of several kinds, it is compared with a character
scanner, which agrees wherever it does not hand int() a non-decimal digit.

Construction itself is checked on generators of mixed degree against the
product fixpoint and direct composition.

Rows of induced subgraphs, twin quotients and the degree-ordered rows of
the clique search are selected from the binary digits of the host rows;
on random graphs with planted false twins they are compared with
renumbering by one adjacency test per pair, for positions in any order.
On the same graphs the clique number is compared with subset enumeration
and checked not to move under a random relabelling of the vertices, since
the search breaks ties between equal degrees by vertex number.
"""

import pickle
import random
from functools import cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, event, given, seed, settings, strategies as st  # noqa: E402

import engelgraph.engel as engel_module  # noqa: E402
import engelgraph.graphs as graphs_module  # noqa: E402
from conftest import REPO_ROOT  # noqa: E402
from engelgraph import (  # noqa: E402
    IDENTITY,
    Group,
    NotASubgroup,
    ParseError,
    Permutation,
    SimpleGraph,
    build_engel_graph,
    build_group,
    catalog_plans,
    centralizer,
    clique_number,
    conjugacy_classes,
    engel_adjacent,
    engel_depths,
    fitting_subgroup,
    induced_subgraph,
    is_abelian,
    is_nilpotent,
    is_randomly_engel_conjugates,
    is_subgroup,
    left_engel_set,
    lower_central_series,
    normal_closure,
    parse_cycles,
    subgroup_generated,
)
from engelgraph.families import dihedral_group, family_generators, product_group  # noqa: E402
from engelgraph.groups import _Rows, _Span, _classes, _complete_table, _normal_span  # noqa: E402
from oracles import (  # noqa: E402
    brute_clique_number,
    class_mismatches,
    depth_map_by_preimages,
    direct_engel_graph,
    direct_left_engel_set,
    engel_core_mismatches,
    engel_depths_by_iteration,
    induced_rows_by_renumbering,
    left_engel_mismatches,
    mutated,
    naive_closure,
    parse_cycles_by_scanning,
    random_graph,
    randomly_engel_conjugates_by_elements,
    sympy_group,
    twin_quotient_by_neighbourhoods,
    with_planted_twins,
)
from test_groups import _relabelled_generator_file  # noqa: E402

SPECS = ("S3", "A4", "D12", "Dic3", "S4", "S3xC2", "@fixtures/c7_c3.gens")


@cache
def group(spec):
    return build_group(spec, base_dir=REPO_ROOT)


# each group is built on its first draw, so the tests set no deadline
groups = st.sampled_from(SPECS).map(group)


@settings(deadline=None)
@given(groups, st.data())
def test_engel_adjacency_is_conjugation_equivariant(G, data):
    elements = st.integers(0, G.order - 1)
    x = data.draw(elements, label="x")
    y = data.draw(elements.filter(lambda y: y != x), label="y")
    g = data.draw(elements, label="g")
    assert engel_adjacent(G, G.conjugate(x, g), G.conjugate(y, g)) == engel_adjacent(G, x, y)


@settings(deadline=None)
@given(groups, st.data())
def test_commuting_elements_are_not_adjacent(G, data):
    x = data.draw(st.integers(0, G.order - 1), label="x")
    y = data.draw(st.sampled_from([c for c in centralizer(G, x) if c != x]), label="y")
    assert G.mul(x, y) == G.mul(y, x)
    assert not engel_adjacent(G, x, y)


@st.composite
def generated_groups(draw):
    """The group generated by one to three random permutations of degree
    at most 5 (order at most 120)."""
    degree = draw(st.integers(2, 5), label="degree")
    images = st.permutations(range(1, degree + 1)).map(Permutation)
    gens = draw(st.lists(images, min_size=1, max_size=3), label="generators")
    return Group(gens, "random")


@settings(deadline=None, max_examples=60)
@given(generated_groups(), st.data())
def test_depth_maps_match_direct_iteration_and_conjugation(G, data):
    xs = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3), label="xs")
    for x in xs:
        assert engel_depths(G, x) == depth_map_by_preimages(G, x) == engel_depths_by_iteration(G, x), x
    least = {y: cls[0] for cls in conjugacy_classes(G) for y in cls}
    memo = _classes(G)
    depths = [engel_depths(G, x) for x in range(G.order)]
    for x in range(G.order):
        r, g = memo.leader[x], memo.via[x]
        assert G.conjugate(r, g) == x and r == least[x]
        # _core_rows reads depth_y[r] for y = s^h as depth_s[r^(h^-1)] on this identity
        assert all(depths[x][G.conjugate(a, g)] == d for a, d in enumerate(depths[r])), (r, g)


@st.composite
def generating_pairs(draw):
    """The group generated by two random permutations of degree at most 6
    (order at most 720)."""
    degree = draw(st.integers(2, 6), label="degree")
    images = st.permutations(range(1, degree + 1)).map(Permutation)
    return Group([draw(images, label="a"), draw(images, label="b")], "pair")


@settings(deadline=None, max_examples=40)
@given(generating_pairs())
def test_classes_match_sympy_and_the_orbit_oracle(G):
    pytest.importorskip("sympy.combinatorics")
    # the oracle pickles G before any class is cached on it
    assert class_mismatches(G) == []
    assert len(conjugacy_classes(G)) == len(sympy_group(G).conjugacy_classes())


@settings(deadline=None, max_examples=60)
@given(generated_groups(), st.data())
def test_left_engel_verdicts_match_depth_maps_and_iteration(G, data):
    xs = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3), label="xs")
    assert left_engel_mismatches(G, xs) == []


@st.composite
def centred_groups(draw):
    """A group with a non-trivial centre: Dic_n of order at most 120, or a
    random generated group or a generator-file group times C_k."""
    kind = draw(st.sampled_from(["dicyclic", "random", "file"]), label="kind")
    if kind == "dicyclic":
        return group(f"Dic{draw(st.integers(2, 30), label='n')}")
    if kind == "random":
        base = draw(generated_groups(), label="base")
        k = draw(st.integers(2, 4), label="k")
    else:
        base = group(draw(st.sampled_from(["@fixtures/c7_c3.gens", "@fixtures/s3_s3.gens"])))
        k = draw(st.integers(2, 6), label="k")
    factors = [[base.perm(g) for g in base.generators], [Permutation.from_cycles([range(1, k + 1)])]]
    return product_group(factors, f"{base.name}xC{k}", base.order * k)


@settings(deadline=None, max_examples=40)
@given(centred_groups(), st.data())
def test_centre_quotient_matches_the_direct_path(G, data):
    C, proj = engel_module._engel_core(G)
    assert C is not G
    assert engel_core_mismatches(G, C, proj) == []
    L = left_engel_set(G)
    assert L == direct_left_engel_set(G)
    if len(L) < G.order:
        got, want = build_engel_graph(G), direct_engel_graph(G)
        assert got.labels == want.labels
        assert got.adjacency == want.adjacency
    x = data.draw(st.integers(0, G.order - 1), label="x")
    assert is_randomly_engel_conjugates(G, x) == randomly_engel_conjugates_by_elements(G, x)


@cache
def warmed_catalog_group(plan):
    """A catalog group, shared by every draw of it so that its memo grows
    from draw to draw, and its pickle, taken before any query."""
    G = build_group(plan)
    return G, pickle.dumps(G)


def subgroup_answers(group, S):
    """Every subgroup query's answer on the member set S, each asked of the
    group that ``group()`` returns, NotASubgroup standing for the error
    where a query raises it."""
    def answer(query):
        try:
            return query(group(), S)
        except NotASubgroup:
            return NotASubgroup

    return [answer(query) for query in (
        subgroup_generated, normal_closure, lower_central_series, is_nilpotent,
        is_abelian, is_subgroup,
    )]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(catalog_plans(60)).map(warmed_catalog_group), st.data())
def test_subgroup_queries_on_a_warmed_group_match_a_cold_copy(warmed, data):
    # the warmed group remembers the lower central series of earlier draws
    # and of its own first pass; each cold copy, unpickled afresh for every
    # query, remembers none.  The second round of answers, and the normal
    # closure of L(G) and x, read the series the warmed group remembers
    G, cold = warmed
    elements = st.integers(0, G.order - 1)
    S = data.draw(st.sets(elements, max_size=4), label="S")
    H = subgroup_generated(pickle.loads(cold), S)
    x = data.draw(elements, label="x")
    L = set(fitting_subgroup(pickle.loads(cold)))
    sets = [
        S, S | {G.identity}, H, set(H) ^ {x}, normal_closure(pickle.loads(cold), S),
        normal_closure(pickle.loads(cold), L | {x}),
    ]
    for members in sets:
        want = subgroup_answers(lambda: pickle.loads(cold), members)
        assert subgroup_answers(lambda: G, members) == want, (G.name, sorted(members))
        assert subgroup_answers(lambda: G, members) == want, (G.name, sorted(members))
    for key, terms in G._memo["series"].items():
        assert list(terms) == lower_central_series(pickle.loads(cold), key), (G.name, key)


LAZY_SPECS = ("A5xC5", "S4xC12", "A5xC6", "S4xC15", "A6")


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(LAZY_SPECS), st.integers(0, 2**16), st.data())
def test_spans_above_order_256_match_a_copy_completed_first(tmp_path_factory, spec, seed, data):
    # cosets chained through the generators' rows, conjugates read from
    # columns or from the rows of inverses, and commutators read as
    # x^-1 (y^-1 (x y)), against the row reads of a copy whose table was
    # completed before any query: members, greedy generators and series
    path = tmp_path_factory.mktemp("gens") / "g.gens"
    G = build_group(_relabelled_generator_file(path, spec, seed, moves=16), base_dir=path.parent)
    completed = pickle.loads(pickle.dumps(G))
    _complete_table(completed)
    S = data.draw(st.sets(st.integers(0, G.order - 1), max_size=4), label="S")

    def answers(H):
        span, closure = _Span(H, S), _normal_span(H, S, H.generators)
        fitting = fitting_subgroup(H)
        return [span.key(), span.gens, subgroup_generated(H, S), closure.key(), closure.gens,
                normal_closure(H, S), lower_central_series(H, span.key()),
                lower_central_series(H, closure.key()), fitting,
                _normal_span(H, fitting, H.generators).gens]

    assert isinstance(G._table, _Rows) and not isinstance(completed._table, _Rows)
    assert answers(G) == answers(completed), (spec, seed, sorted(S))


@st.composite
def generator_lists(draw):
    """Up to three permutations of degree 0 to 7, shuffled with up to two
    repeats of them or of the identity.  On the wide side each acts, as
    one permutation, on enough copies of 1..7, spaced ``gap`` points
    apart, that the generators move at least 256 points."""
    perms = st.integers(0, 7).flatmap(lambda d: st.permutations(range(1, d + 1)))
    gens = draw(st.lists(perms.map(Permutation), max_size=3), label="drawn")
    extra = draw(st.lists(st.sampled_from(gens + [IDENTITY]), max_size=2), label="repeats")
    gens = draw(st.permutations(gens + extra), label="generators")
    moved = moved_point_count(gens)
    if moved and draw(st.booleans(), label="wide"):
        width = 7 + draw(st.integers(0, 3), label="gap")
        copies = range(0, -(-256 // moved) * width, width)
        gens = [Permutation([c + g(i) for c in copies for i in range(1, width + 1)]) for g in gens]
    return gens


def assert_matches_closure_oracle(G, gens, oracle):
    """Elements, generators, inverses and the Cayley table of G against the
    sorted oracle elements and direct composition, with no index or
    permutation read through G."""
    elements = sorted(oracle)
    index = {p: i for i, p in enumerate(elements)}
    assert list(G.elements) == elements
    assert G.generators == tuple(index[g] for g in dict.fromkeys(gens))
    assert G._inv == tuple(index[p.inverse()] for p in elements)
    table = _complete_table(G)
    assert G._inv == tuple(row.index(0) for row in table)
    # rows are bytes up to order 256 and tuples above
    assert [tuple(row) for row in table] == [
        tuple(index[p * q] for q in elements) for p in elements
    ]


def assert_round_trips(G, oracle):
    """``perm`` and ``index`` against the sorted oracle elements, on G and
    on a copy pickled before its elements were made."""
    copy = pickle.loads(pickle.dumps(G))
    elements = sorted(oracle)
    assert all(G.perm(i) == p and G.index(p) == i for i, p in enumerate(elements))
    assert list(copy.elements) == elements
    assert _complete_table(copy) == _complete_table(G)


def moved_point_count(gens):
    return len({i for p in gens for i in range(1, p.degree + 1) if p(i) != i})


@seed(2026)
@settings(deadline=None, max_examples=80)
@given(generator_lists())
def test_construction_matches_product_fixpoint_oracle(gens):
    oracle = naive_closure(gens, limit=120)
    assume(oracle is not None)
    G = Group(gens, "random")
    # the search runs on bytes exactly when fewer than 256 points move
    event("search on " + ("bytes" if moved_point_count(gens) < 256 else "tuple"))
    assert_round_trips(G, oracle)
    assert_matches_closure_oracle(G, gens, oracle)
    assert G.identity == 0 and G.perm(0) == IDENTITY


def test_construction_on_256_or_more_moved_points_matches_the_oracle():
    # D260 in the regular representation moves 260 points, so its search
    # runs on tuples
    gens = family_generators("dihedral", 260)
    G = dihedral_group(260)
    oracle = naive_closure(gens)
    assert moved_point_count(gens) == 260
    assert_round_trips(G, oracle)
    assert_matches_closure_oracle(G, gens, oracle)


def shuffled_twinned_graph(rng, n, twins):
    """A random graph on n vertices, ``twins`` of them planted false twins,
    with the vertices shuffled, so that a class's least member may be a
    planted one."""
    g = with_planted_twins(rng, random_graph(rng, n - twins, rng.random()), twins)
    order = rng.sample(range(n), n)
    return SimpleGraph(n, [(order[u], order[v]) for u, v in g.edges()])


def assert_selected_rows_match_renumbering(g, selections):
    """Rows of the subgraph induced on each sorted selection, and of the
    twin quotient, against renumbering by adjacency tests."""
    for vs in selections:
        sub = induced_subgraph(g, vs)
        assert sub.adjacency == induced_rows_by_renumbering(g, vs), vs
        assert sub.labels == tuple(g.labels[v] for v in vs)
    q, sizes = graphs_module._twin_quotient(g)
    assert (q.adjacency, sizes) == twin_quotient_by_neighbourhoods(g)


@st.composite
def twinned_graphs(draw):
    """A graph on 0 to 12 vertices, up to half of them planted false twins."""
    n = draw(st.integers(0, 12), label="vertices")
    twins = draw(st.integers(0, n // 2), label="twins")
    return shuffled_twinned_graph(draw(st.randoms(use_true_random=False)), n, twins)


@settings(deadline=None, max_examples=200)
@given(twinned_graphs(), st.data())
def test_selected_rows_match_renumbering(g, data):
    n = g.vertex_count
    vs = sorted(data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()), label="vs"))
    single = [data.draw(st.integers(0, n - 1), label="v")] if n else []
    assert_selected_rows_match_renumbering(g, [vs, [], single])


def test_selected_rows_match_renumbering_past_one_word():
    rng = random.Random(71)
    g = shuffled_twinned_graph(rng, 150, 40)
    assert g.vertex_count > 64 and len(twin_quotient_by_neighbourhoods(g)[1]) < 150
    vs = sorted(rng.sample(range(150), 90))
    assert_selected_rows_match_renumbering(g, [vs, [], [149], [0], list(range(150))])


def _graphs_with_zero_top_bits(rng, n):
    """A twinned graph on n - 3 vertices with three isolated vertices on
    top, so no row sets its top bits and the rows of those three are 0."""
    g = shuffled_twinned_graph(rng, n - 3, 10)
    return SimpleGraph(n, list(g.edges()))


def _selections_to_the_top(rng, n):
    return [sorted({*rng.sample(range(n), n // 2), n - 1}), [n - 1], [n - 2, n - 1],
            list(range(1, n)), list(range(n))]


@pytest.mark.parametrize("n", [63, 64, 65])
def test_selected_rows_with_zero_top_bits_match_renumbering(n):
    # bit v is read at character -1-v of the row's binary digits, which
    # the sentinel bit n keeps in range when the row's top bits are zero
    rng = random.Random(n)
    g = _graphs_with_zero_top_bits(rng, n)
    assert_selected_rows_match_renumbering(g, _selections_to_the_top(rng, n))


def test_a_selector_without_its_sentinel_bit_is_refused(monkeypatch):
    # the digits of a row whose top bits are zero end short of position
    # n-1, so a top position reads the "0b" prefix or past the digits
    monkeypatch.setattr(graphs_module, "_selector", mutated(
        graphs_module._selector, "bin(row | sentinel)", "bin(row)"))
    rng = random.Random(64)
    g = _graphs_with_zero_top_bits(rng, 64)
    with pytest.raises((AssertionError, IndexError, ValueError)):
        assert_selected_rows_match_renumbering(g, _selections_to_the_top(rng, 64))


@settings(deadline=None, max_examples=200)
@given(twinned_graphs(), st.data())
def test_selector_renumbers_positions_in_any_order(g, data):
    # the twin quotient renumbers its classes by degree, which is no
    # sorted order of the positions
    n = g.vertex_count
    vs = data.draw(st.permutations(range(n)), label="order")
    vs = vs[: data.draw(st.integers(0, n), label="kept")]
    select = graphs_module._selector(vs, n)
    assert tuple(select(g.adjacency[v]) for v in vs) == induced_rows_by_renumbering(g, vs)


@settings(deadline=None, max_examples=200)
@given(twinned_graphs(), st.randoms(use_true_random=False))
def test_clique_number_matches_enumeration_under_relabelling(g, rng):
    n = g.vertex_count
    omega = brute_clique_number(g)
    assert clique_number(g) == omega
    relabel = rng.sample(range(n), n)
    h = SimpleGraph(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
    assert clique_number(h) == omega


# tokens of cycle notation and the characters around them: "²" is a digit
# to str.isdigit but not a decimal, "٣" an Arabic-Indic decimal 3, and
# "\xa0" and "\x1c" are white space to str.isspace
CYCLE_POINTS = ("0", "1", "2", "3", "7", "10", "99999999999", "9" * 5000, "²", "٣")
CYCLE_SPACES = ("", " ", "\t", "\xa0", "\x1c")
CYCLE_PIECES = ("(", ")", ",", "a", *CYCLE_SPACES[1:], *CYCLE_POINTS)


@st.composite
def cycle_lines(draw):
    """A line of pieces in any order, or cycles of points with white space
    around every token, most of which parse."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(CYCLE_PIECES), max_size=16)))
    spaces = st.sampled_from(CYCLE_SPACES)
    point = st.tuples(spaces, st.sampled_from(CYCLE_POINTS), spaces).map("".join)
    cycle = st.lists(point, max_size=4).map(lambda ps: "(" + ",".join(ps) + ")")
    return draw(spaces).join(draw(st.lists(cycle, max_size=3)))


def _parsed(parse, line):
    try:
        return parse(line)
    except ParseError as err:
        return str(err), err.position


@settings(deadline=None, max_examples=500)
@given(cycle_lines())
def test_parse_cycles_matches_the_character_scanner(line):
    if any(c.isdigit() and not c.isdecimal() for c in line):
        # the scanner hands such digits to int(), which refuses them
        with pytest.raises(ParseError):
            parse_cycles(line)
    else:
        parsed = _parsed(parse_cycles, line)
        event("parsed" if isinstance(parsed, Permutation) else "refused")
        assert parsed == _parsed(parse_cycles_by_scanning, line)

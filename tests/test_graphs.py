import gc
import importlib
import math
import pickle
import random
import tracemalloc
from collections.abc import Sequence
from itertools import combinations

import networkx as nx
import pytest

import engelgraph.engel as engel_module
import engelgraph.graphs as graphs_module
from engelgraph import (
    EmptyGraphError,
    EngelGroupError,
    SameVertex,
    SimpleGraph,
    UnknownVertex,
    build_engel_graph,
    build_group,
    catalog_plans,
    clique_number,
    compute_metrics,
    conjugacy_class,
    conjugacy_classes,
    connected_components,
    diameter,
    find_isomorphism,
    graphs_isomorphic,
    induced_subgraph,
    is_planar,
    isolated_vertices,
    kuratowski_witness,
    left_engel_set,
    verify_kuratowski_witness,
)
from conftest import elem
from oracles import (
    bfs_distances,
    brute_clique_number,
    brute_distances,
    engel_reaches_by_iteration,
    find_k33_subdivision,
    planar_by_subdivision_search,
    random_graph,
    with_planted_twins,
)

# the package re-exports the function `survey` under the module's name
survey_module = importlib.import_module("engelgraph.survey")


def complete_graph(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def k33():
    return SimpleGraph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SimpleGraph(10, outer + inner + spokes)


def test_simple_graph_validation():
    with pytest.raises(SameVertex):
        SimpleGraph(2, [(0, 0)])
    with pytest.raises(UnknownVertex):
        SimpleGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [], labels=("a",))
    g = SimpleGraph(3, [(0, 1), (1, 0), (0, 1)])  # duplicates collapse
    assert g.edge_count == 1
    assert [g.neighbors(v) for v in range(3)] == [(1,), (0,), ()]
    assert [g.degree(v) for v in range(3)] == [1, 1, 0]


def test_graphs_are_equal_when_their_labels_and_rows_are(a4):
    g = build_engel_graph(a4)
    assert pickle.loads(pickle.dumps(g)) == g == build_engel_graph(a4)
    edges = list(g.edges())
    assert SimpleGraph(g.vertex_count, edges[1:], g.labels) != g
    assert SimpleGraph(g.vertex_count, edges) != g  # other labels
    assert g != (g.labels, g.adjacency)


def test_adjacency_is_symmetric_and_irreflexive(a4):
    g = build_engel_graph(a4)
    for u in range(g.vertex_count):
        assert u not in g.neighbors(u)
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_engel_graph_of_s3_is_k3(s3):
    g = build_engel_graph(s3)
    transpositions = sorted(
        elem(s3, c) for c in [(1, 2), (1, 3), (2, 3)]
    )
    assert list(g.labels) == transpositions
    assert g.edge_count == 3
    assert all(g.adjacent(u, v) for u in range(3) for v in range(u + 1, 3))


def test_engel_graph_vertices_are_complement_of_engel_set(s4, dic3):
    for G in (s4, dic3):
        g = build_engel_graph(G)
        expected = [x for x in range(G.order) if x not in set(left_engel_set(G))]
        assert list(g.labels) == expected


def test_engel_graph_matches_iteration_oracle(repo_root):
    # the graph carries each class representative's neighbourhood to the
    # rest of its class by conjugation; the oracle iterates every pair
    for spec in ("A4", "S4", "D12", "Dic3", "S3xC3", "@fixtures/c7_c3.gens"):
        G = build_group(spec, base_dir=repo_root)
        g = build_engel_graph(G)
        labels = g.labels
        edges = [
            (i, j)
            for i in range(g.vertex_count)
            for j in range(i + 1, g.vertex_count)
            if not engel_reaches_by_iteration(G, labels[i], labels[j])
            and not engel_reaches_by_iteration(G, labels[j], labels[i])
        ]
        assert g.adjacency == SimpleGraph(g.vertex_count, edges).adjacency, spec


def test_engel_graph_rejects_engel_groups(c6):
    with pytest.raises(EngelGroupError):
        build_engel_graph(c6)


def test_connected_components():
    assert connected_components(complete_graph(3)) == [(0, 1, 2)]
    assert connected_components(SimpleGraph(2, [])) == [(0,), (1,)]
    two = SimpleGraph(5, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(two) == [(0, 1), (2, 3, 4)]


def test_diameter():
    assert diameter(complete_graph(3)) == 1
    assert diameter(SimpleGraph(1, [])) == 0
    assert diameter(SimpleGraph(2, [])) == math.inf
    path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(path) == 3
    with pytest.raises(EmptyGraphError):
        diameter(SimpleGraph(0, []))


def test_diameter_one_means_complete():
    # also checks components and diameter against the Floyd-Warshall oracle
    rng = random.Random(13)
    graphs = [SimpleGraph(0, []), SimpleGraph(1, []), SimpleGraph(3, [(0, 1)])]
    graphs += [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(100)]
    for g in graphs:
        n = g.vertex_count
        dist = brute_distances(g)
        components = sorted(
            {tuple(v for v in range(n) if dist[u][v] < math.inf) for u in range(n)}
        )
        assert connected_components(g) == components
        if n == 0:
            with pytest.raises(EmptyGraphError):
                diameter(g)
            with pytest.raises(EmptyGraphError):
                compute_metrics(g)
            continue
        expected = max(max(row) for row in dist)
        assert diameter(g) == expected
        m = compute_metrics(g)
        assert (m.component_count, m.diameter) == (len(components), expected)
        if n >= 2:
            complete = all(g.adjacent(u, v) for u in range(n) for v in range(u + 1, n))
            assert (expected == 1) == complete


def test_searches_agree_with_networkx():
    # components, diameters and the layers of a search kept to a vertex
    # mask, which reads only rows inside the mask, on random graphs, sparse
    # and disconnected ones and ones with planted twins among them
    searches_agree_with_networkx(random.Random(43), 80, (1, 70), (0.01, 0.03, 0.1, 0.3, 0.8))


def test_searches_agree_with_networkx_past_one_word():
    # the same on 65-200 vertices, mostly dense (p = 0.8), where searches
    # turn bottom-up after the first layer
    searches_agree_with_networkx(random.Random(47), 20, (65, 200), (0.05, 0.8, 0.8))


def searches_agree_with_networkx(rng, count, sizes, densities):
    for _ in range(count):
        g = random_graph(rng, rng.randint(*sizes), rng.choice(densities))
        if rng.random() < 0.3:
            g = with_planted_twins(rng, g, rng.randint(1, 5))
        n = g.vertex_count
        gx = nx.Graph(g.edges())
        gx.add_nodes_from(range(n))
        components = sorted(tuple(sorted(c)) for c in nx.connected_components(gx))
        assert connected_components(g) == components
        assert diameter(g) == (nx.diameter(gx) if len(components) == 1 else math.inf)
        for vs in (range(n), sorted(rng.sample(range(n), rng.randint(1, n)))):
            mask = sum(1 << v for v in vs)
            want = [sum(1 << v for v in layer) for layer in nx.bfs_layers(gx.subgraph(vs), vs[0])]
            rows = CountingRows(g.adjacency)
            assert list(graphs_module._layers(rows, vs[0], mask)) == want
            assert all(mask >> v & 1 for v in rows.read)


class CountingRows(Sequence):
    """Bit rows that record the index of every row read."""

    def __init__(self, rows):
        self.rows, self.read = rows, []

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, v):
        self.read.append(v)
        return self.rows[v]


def test_bottom_up_steps_read_only_unseen_rows():
    # vertex 0 is joined to 1..n-3, and n-2 and n-1 to some of those: after
    # the first layer the frontier has n-3 vertices and two are unseen, so
    # the next layer is found from the two unseen rows alone.  On a path the
    # frontier is one vertex against many unseen, so every step is top-down
    # and reads the frontier's row.  Inside a vertex mask, only rows of
    # vertices in the mask are read
    n = 90
    edges = [(0, v) for v in range(1, n - 2)] + [(v, n - 2) for v in (5, 40)]
    edges += [(v, n - 1) for v in range(60, n - 2)]
    rows = CountingRows(list(SimpleGraph(n, edges).adjacency))
    first = (1 << n - 2) - 2
    assert list(graphs_module._layers(rows, 0)) == [1, first, 3 << n - 2]
    assert rows.read == [0, n - 2, n - 1]
    rows.read.clear()
    within = (1 << 70) - 1 | 1 << n - 1  # drops n-2 and the neighbours 70..n-3 of n-1
    assert list(graphs_module._layers(rows, 0, within)) == [1, (1 << 70) - 2, 1 << n - 1]
    assert rows.read == [0, n - 1]
    path = CountingRows(list(SimpleGraph(n, [(v, v + 1) for v in range(n - 1)]).adjacency))
    assert list(graphs_module._layers(path, 0)) == [1 << v for v in range(n)]
    assert path.read == list(range(n - 1))


def test_diameter_searches_from_the_least_member_of_each_twin_class(monkeypatch):
    # one search per twin class, from its least member and inside the mask
    # of those least members; no twin quotient is built
    calls = []
    layers = graphs_module._layers

    def recording(rows, source, within=None):
        calls.append((source, within))
        return layers(rows, source, within)

    def no_quotient(g):
        raise AssertionError("diameter built a twin quotient")

    monkeypatch.setattr(graphs_module, "_layers", recording)
    monkeypatch.setattr(graphs_module, "_twin_quotient", no_quotient)
    rng = random.Random(61)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 40), 0.7)
        g = with_planted_twins(rng, g, rng.randint(1, 6))
        n = g.vertex_count
        least = sorted({row: min(v for v in range(n) if g.adjacency[v] == row)
                        for row in g.adjacency}.values())
        calls.clear()
        d = diameter(g)
        if d == math.inf:
            continue
        mask = sum(1 << v for v in least)
        assert sorted(source for source, _ in calls) == least
        assert {within for _, within in calls} == {mask}


def recorded_sources(monkeypatch):
    """The list that every later ``_layers`` call appends its source to."""
    calls = []
    layers = graphs_module._layers

    def recording(rows, source, within=None):
        calls.append(source)
        return layers(rows, source, within)

    monkeypatch.setattr(graphs_module, "_layers", recording)
    return calls


def test_orbit_sources_of_the_path_p5(monkeypatch):
    # P5, 0-1-2-3-4, has the automorphism v -> 4 - v with the orbits {0, 4},
    # {1, 3} and {2}, and no twins.  With one source per orbit the distances
    # are searched from 0, 1 and 2 alone, and the diameter 4 is the ends'
    # eccentricity; sources that miss the orbit {0, 4} find only 3, the
    # eccentricity of 1.  No catalog graph can catch such a miss, since all
    # have diameter 1 or 2
    calls = recorded_sources(monkeypatch)
    rows = list(SimpleGraph(5, [(v, v + 1) for v in range(4)]).adjacency)
    p5 = SimpleGraph._from_rows(rows, tuple(range(5)), (0, 1, 2, 1, 0))
    assert diameter(p5) == compute_metrics(p5).diameter == 4
    assert calls == [0, 1, 2] * 2  # the first search also counts the components
    missing = SimpleGraph._from_rows(rows, tuple(range(5)), (1, 1, 2, 1, 1))
    assert diameter(missing) == compute_metrics(missing).diameter == 3
    calls.clear()
    assert diameter(SimpleGraph._from_rows(rows, tuple(range(5)))) == 4
    assert calls == [0, 1, 2, 3, 4]
    # the star K_{1,3} with its leaves 0, 1, 2 as twins and one source per
    # orbit, 2 and 3: the leaves' search starts at their least member
    star = SimpleGraph(4, [(v, 3) for v in range(3)])
    calls.clear()
    assert diameter(SimpleGraph._from_rows(star.adjacency, star.labels, (2, 2, 2, 3))) == 2
    assert calls == [0, 3]


@pytest.mark.parametrize("spec", ["S4", "A5xC6", "S4xC3"])
def test_engel_graph_leaves_one_orbit_source_per_class_of_the_core(monkeypatch, spec):
    # with (C, proj) the Engel core G/Z*(G), each vertex's source is the
    # least preimage of the least member of its image's class, so there is
    # one source per class of C outside L(C); the distances are searched
    # from the least member of each source's twin class, 0 among them
    G = build_group(spec)
    C, proj = engel_module._engel_core(G)
    g = build_engel_graph(G)
    first: dict[int, int] = {}
    for x in range(G.order):
        first.setdefault(proj[x], x)
    leader = {q: cls[0] for cls in conjugacy_classes(C) for q in cls}
    assert [g.labels[s] for s in g.orbit_sources] == [first[leader[proj[x]]] for x in g.labels]
    core_l = set(left_engel_set(C))
    outside = [first[cls[0]] for cls in conjugacy_classes(C) if cls[0] not in core_l]
    assert sorted(g.labels[s] for s in set(g.orbit_sources)) == outside
    least = {row: v for v, row in reversed(list(enumerate(g.adjacency)))}
    starts = sorted({least[g.adjacency[s]] for s in g.orbit_sources})
    calls = recorded_sources(monkeypatch)
    assert diameter(g) == 2
    assert calls == starts and starts[0] == 0
    assert len(starts) < len(least), spec


def test_orbit_sources_agree_with_the_search_from_every_twin_class():
    # every catalog Engel graph up to order 120 against a copy without
    # orbit sources, which diameter and compute_metrics search from every
    # twin class's least member; on each of them the sources are fewer than
    # the twin classes
    graphs, fewer = 0, 0
    for plan in catalog_plans(120):
        G = build_group(plan)
        if len(left_engel_set(G)) == G.order:
            continue
        g = build_engel_graph(G)
        bare = SimpleGraph._from_rows(list(g.adjacency), g.labels)
        assert bare == g and bare.orbit_sources is None
        m, oracle = compute_metrics(g), compute_metrics(bare)
        assert m == oracle, plan
        assert (len(connected_components(bare)), diameter(bare)) == (1, diameter(g)), plan
        assert (m.component_count, m.diameter) == (1, diameter(g)), plan
        graphs += 1
        fewer += len(set(g.orbit_sources)) < len(set(g.adjacency))
    assert graphs == fewer == 206


@pytest.mark.parametrize("n", [3, 64, 300])
def test_layers_read_no_row_after_the_first_layer_on_complete_graphs(n):
    # on K_n every vertex is seen once the source's row is read; so too
    # within a vertex mask, which induces a complete graph again
    rows = CountingRows(complete_rows(n))
    assert list(graphs_module._layers(rows, 0)) == [1, (1 << n) - 2]
    assert rows.read == [0]
    rows.read.clear()
    mask = (1 << n) - 2  # every vertex but 0
    assert list(graphs_module._layers(rows, 1, mask)) == [2, mask ^ 2]
    assert rows.read == [1]


def test_rows_match_a_plain_edge_set_across_word_boundaries():
    # the oracle tests above stop at 12 vertices, inside one machine word;
    # here rows run to 200 bits, and the graphs range from empty to dense,
    # with long paths and random trees so that distances grow
    rng = random.Random(37)
    for i in range(36):  # each density with each shape twice
        n = rng.randint(0, 200)
        p = (0.0, 0.005, 0.02, 0.1, 0.5, 0.95)[i // 3 % 6]
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        shape = ("none", "path", "tree")[i % 3]
        order = rng.sample(range(n), n)
        for j in range(1, n if shape != "none" else 0):
            a, b = order[j], order[j - 1 if shape == "path" else rng.randrange(j)]
            edges.add((min(a, b), max(a, b)))
        given = [e[::-1] if rng.random() < 0.5 else e for e in edges]
        g = SimpleGraph(n, rng.sample(given, len(given)))
        assert list(g.edges()) == sorted(edges)
        assert g.edge_count == len(edges)
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for u in range(n):
            assert g.neighbors(u) == tuple(sorted(nbrs[u]))
            assert g.degree(u) == len(nbrs[u])
            assert [g.adjacent(u, v) for v in range(n)] == [v in nbrs[u] for v in range(n)]
        vs = [v for v in range(n) if rng.random() < rng.random()]
        pos = {v: i for i, v in enumerate(vs)}
        sub = induced_subgraph(g, rng.sample(vs, len(vs)))
        assert sub.vertex_count == len(vs)
        assert list(sub.edges()) == sorted(
            (pos[u], pos[v]) for u, v in edges if u in pos and v in pos
        )
        dist = bfs_distances(n, edges)
        components = sorted(
            {tuple(v for v in range(n) if dist[u][v] < math.inf) for u in range(n)}
        )
        assert connected_components(g) == components
        if n == 0:
            continue
        expected = max(max(row) for row in dist)
        assert diameter(g) == expected
        m = compute_metrics(g)  # searched on the twin quotient
        assert (m.component_count, m.diameter) == (len(components), expected)


def test_isolated_vertices(s3):
    assert isolated_vertices(build_engel_graph(s3)) == ()
    assert isolated_vertices(SimpleGraph(2, [])) == (0, 1)
    assert isolated_vertices(SimpleGraph(3, [(0, 1)])) == (2,)


def test_induced_subgraph_names_the_least_vertex_outside_the_graph(d12):
    # the bounds are read at the two ends of the sorted vertices: below 0
    # the least vertex is named, otherwise the least one past the graph
    g = build_engel_graph(d12)
    n = g.vertex_count
    for vertices, named in (
        ([99], 99), ([0, n + 2, n, 1], n), ([n - 1, -2, -5, n], -5), ([3, -1], -1), ([n], n),
    ):
        with pytest.raises(UnknownVertex, match=rf"^vertex {named} is not in the graph$"):
            induced_subgraph(g, vertices)


def test_induced_subgraph(d12):
    g = build_engel_graph(d12)
    full = induced_subgraph(g, range(g.vertex_count))
    assert full.adjacency == g.adjacency and full.labels == g.labels
    empty = induced_subgraph(g, [])
    assert empty.vertex_count == 0
    with pytest.raises(UnknownVertex):
        induced_subgraph(g, [99])
    # the conjugacy class of the reflection r induces a triangle
    r = d12.generators[1]
    cls = conjugacy_class(d12, r)
    assert len(cls) == 3
    position = {x: v for v, x in enumerate(g.labels)}
    sub = induced_subgraph(g, [position[x] for x in cls])
    assert sub.edge_count == 3
    assert diameter(sub) == 1
    # against a plain filter of every host edge, on random labelled graphs
    # and random vertex subsets given in shuffled order
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(0, 12)
        host = random_graph(rng, n, rng.random())
        g = SimpleGraph(n, host.edges(), labels=[f"v{v}" for v in range(n)])
        vs = [v for v in range(n) if rng.random() < 0.5]
        pos = {v: i for i, v in enumerate(vs)}
        kept = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
        sub = induced_subgraph(g, rng.sample(vs, len(vs)))
        assert sub.adjacency == SimpleGraph(len(vs), kept).adjacency
        assert sub.labels == tuple(g.labels[v] for v in vs)
        # adjacency against a plain edge set, built from repeated edges in
        # both orientations and with isolated vertices past every neighbour
        edges = set(host.edges())
        extra = rng.randint(0, 3)
        given = [e[::-1] if rng.random() < 0.5 else e for e in edges for _ in range(2)]
        h = SimpleGraph(n + extra, rng.sample(given, len(given)))
        assert h.edge_count == len(edges) and set(h.edges()) == edges
        for u in range(n + extra):
            for v in range(n + extra):
                assert h.adjacent(u, v) == ((min(u, v), max(u, v)) in edges)


def test_engel_graph_keeps_one_bit_row_per_vertex():
    # E_A5xC6 has 48,600 edges on 354 vertices; a row of n bits takes n/8
    # bytes, and 64 more per vertex leave room for the int header, the
    # pointers to the row and the label, and the label itself, but not for
    # a neighbour list (8 bytes per edge end, 2,200 bytes per vertex here)
    G = build_group("A5xC6")
    left_engel_set(G)  # fills the Engel depth cache outside the trace
    tracemalloc.start()
    try:
        g = build_engel_graph(G)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = g.vertex_count
    assert (n, g.edge_count) == (354, 48_600)
    assert kept <= n * (n / 8 + 64) and peak <= n * (n / 8 + 256)


def test_clique_number_examples(s3, a4):
    assert clique_number(build_engel_graph(s3)) == 3
    assert clique_number(build_engel_graph(a4)) == 4
    assert clique_number(SimpleGraph(0, [])) == 0
    assert clique_number(SimpleGraph(4, [])) == 1
    assert clique_number(complete_graph(7)) == 7


def complete_rows(n):
    full = (1 << n) - 1
    return [full ^ 1 << v for v in range(n)]


@pytest.mark.parametrize("n", [993, 2048, 4096])
def test_clique_number_of_large_complete_graphs(n):
    # E_{D_2m} is K_m for odd m; the greedy clique meets the root colouring,
    # so the search ends at the root however large the clique
    assert clique_number(SimpleGraph._from_rows(complete_rows(n), tuple(range(n)))) == n


def test_twin_quotient_of_a_twin_free_regular_graph_keeps_its_rows():
    # K_300 and the cycle on 100 vertices have no twins and one degree, so
    # their classes are already in degree order and no row is renumbered
    cycle = [1 << (v - 1) % 100 | 1 << (v + 1) % 100 for v in range(100)]
    for rows in (complete_rows(300), cycle):
        g = SimpleGraph._from_rows(rows, tuple(range(len(rows))))
        q, sizes = graphs_module._twin_quotient(g)
        assert sizes == [1] * len(rows)
        assert all(a is b for a, b in zip(q.adjacency, g.adjacency))


def complete_beside_crown_rows(k, m):
    """K_k on the vertices 0..k-1, beside the crown graph on a_i = k + i
    and b_i = k + m + i for i < m, where a_i and b_j are adjacent iff
    i != j."""
    a, b = ((1 << m) - 1) << k, ((1 << m) - 1) << (k + m)
    return (complete_rows(k) + [b ^ 1 << (k + m + i) for i in range(m)]
            + [a ^ 1 << (k + i) for i in range(m)])


def test_clique_number_of_a_complete_graph_beside_a_crown_graph():
    # crown vertices have degree 1,001 and K_1000's 999, so the greedy
    # clique, taken by degree, is one crown edge; the root colouring's
    # 1,002 colours do not close the search, which goes 1,000 nodes deep
    rows = complete_beside_crown_rows(1000, 1002)
    assert clique_number(SimpleGraph._from_rows(rows, tuple(range(len(rows))))) == 1000


def test_clique_stack_memory_grows_with_depth_times_candidates():
    # K_300 beside the crown graph on 2 x 302 vertices: the search goes 300
    # frames deep.  A frame keeps one candidate bitset and its coloured
    # candidates as two int arrays, a 0.8 MiB traced peak (Python 3.11);
    # one bitset per pending branch took 5.2 MiB, and 91 MiB on K_1000
    rows = complete_beside_crown_rows(300, 302)
    q = SimpleGraph._from_rows(rows, tuple(range(len(rows))))
    tracemalloc.start()
    try:
        omega = graphs_module._max_clique_size(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert omega == 300 and peak < 2 * 2**20


def test_s5_and_a6_clique_searches_close_at_the_root(monkeypatch):
    # every node of the search colours its candidates once, the root
    # included.  In degree order the root colourings of the twin quotients
    # of E_S5 (72 vertices) and E_A6 (202) use as many colours as the
    # greedy clique has vertices, so no node below the root is searched;
    # in index order the S5 root colouring used 29 colours against 25
    colourings = []
    colour_classes = graphs_module._colour_classes

    def counting(*args):
        colourings.append(args)
        return colour_classes(*args)

    monkeypatch.setattr(graphs_module, "_colour_classes", counting)
    for spec, omega in (("S5", 25), ("A6", 81)):
        colourings.clear()
        assert clique_number(build_engel_graph(build_group(spec))) == omega
        assert len(colourings) == 1, spec
    # the count sees a search that branches: the greedy clique of K_10
    # beside a crown graph on 2 x 12 vertices is one crown edge
    colourings.clear()
    rows = complete_beside_crown_rows(10, 12)
    assert clique_number(SimpleGraph._from_rows(rows, tuple(range(len(rows))))) == 10
    assert len(colourings) > 1


def test_catalog_clique_searches_up_to_order_240_close_at_the_root(monkeypatch):
    # the twin quotient's order (ascending degree, ties by least member) is
    # the search's: one colouring per search means each ends at the root.
    # Every plan is evaluated, as the survey does not for the products it
    # lifts from their base
    searches, colourings = [], []
    search, colour_classes = graphs_module._max_clique_size, graphs_module._colour_classes

    def counted_search(q):
        searches.append(q.vertex_count)
        return search(q)

    def counted_colouring(*args):
        colourings.append(args)
        return colour_classes(*args)

    monkeypatch.setattr(graphs_module, "_max_clique_size", counted_search)
    monkeypatch.setattr(graphs_module, "_colour_classes", counted_colouring)
    records = [survey_module._catalog_record(plan) for plan in catalog_plans(240)]
    reports = [r for r in records if r is not None]
    assert len(searches) == len(reports) == 523
    assert len(colourings) == len(searches)


def test_clique_number_against_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert clique_number(g) == brute_clique_number(g)


def test_clique_search_leaves_no_cyclic_garbage():
    # a search that held itself in a reference cycle would keep the
    # quotient's rows alive until the next collection
    g = random_graph(random.Random(23), 60, 0.8)
    gc.collect()
    gc.disable()
    try:
        assert clique_number(g) >= 8
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_clique_search_refuses_a_row_that_holds_its_own_vertex():
    # the greedy clique would intersect with that row forever; the rows
    # come unchecked from _from_rows, so a broken producer must fail loudly
    g = SimpleGraph._from_rows([0b11, 0b01], (0, 1))
    with pytest.raises(ValueError, match="is its own neighbour"):
        compute_metrics(g)


def test_planarity_examples(s3, a4):
    assert is_planar(build_engel_graph(s3))
    assert not is_planar(build_engel_graph(a4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(k33())
    assert is_planar(complete_graph(4))
    assert not is_planar(petersen())


def test_kuratowski_witness_is_verified(a4):
    for g in (build_engel_graph(a4), complete_graph(5), k33(), petersen()):
        witness = kuratowski_witness(g)
        assert witness is not None
        kind = verify_kuratowski_witness(witness, g)
        assert kind in ("K5", "K33")
    assert kuratowski_witness(complete_graph(4)) is None


def test_witness_verifier_rejects_junk():
    host = complete_graph(4)
    with pytest.raises(ValueError):
        verify_kuratowski_witness(complete_graph(4), host)  # K4 is neither
    fake = complete_graph(5)
    with pytest.raises(ValueError, match=r"witness edge \(0, 2\) is not an edge"):
        verify_kuratowski_witness(fake, SimpleGraph(5, [(0, 1)]))  # not a subgraph
    with pytest.raises(ValueError, match=r"witness edge \(2, 4\) is not an edge"):
        verify_kuratowski_witness(fake, SimpleGraph(5, [e for e in fake.edges() if e != (2, 4)]))
    # a K33 with one edge subdivided still verifies against a host holding it
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (2, 5)]
    edges += [(2, 6), (5, 6)]
    subdivided = SimpleGraph(7, edges)
    assert verify_kuratowski_witness(subdivided, subdivided) == "K33"


def _witness_kind(g):
    try:
        return verify_kuratowski_witness(g, g)
    except ValueError:
        return None


def _minimal_nonplanar_kind(g):
    """Oracle: g subdivides K5 or K_{3,3} exactly when it is non-planar and
    deleting any one edge makes it planar; K5 has the vertices of degree 4."""
    edges = list(g.edges())
    if is_planar(g) or not all(
        is_planar(SimpleGraph(g.vertex_count, [f for f in edges if f != e])) for e in edges
    ):
        return None
    return "K5" if max(map(g.degree, range(g.vertex_count))) == 4 else "K33"


def _random_subdivision(rng):
    n, edges = rng.choice([(5, list(complete_graph(5).edges())), (6, list(k33().edges()))])
    for _ in range(rng.randint(0, 6)):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    n += rng.randint(0, 2)  # isolated vertices
    relabel = rng.sample(range(n), n)
    return SimpleGraph(n, [(relabel[u], relabel[v]) for u, v in edges])


def test_witness_verifier_against_minimal_nonplanar_oracle():
    graphs = []
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))
    cubic = [SimpleGraph(6, es) for es in combinations(list(combinations(range(6), 2)), 9)]
    cubic = [g for g in cubic if all(g.degree(v) == 3 for v in range(6))]
    assert len(cubic) == 70  # 10 labelled K_{3,3} and 60 prisms
    graphs += cubic
    rng = random.Random(23)
    for _ in range(200):
        g = _random_subdivision(rng)
        edges = list(g.edges())
        non_edges = [e for e in combinations(range(g.vertex_count), 2) if not g.adjacent(*e)]
        if non_edges and rng.random() < 0.5:
            edges.append(rng.choice(non_edges))
        else:
            edges.pop(rng.randrange(len(edges)))
        graphs += [g, SimpleGraph(g.vertex_count, edges)]
    kinds = [_witness_kind(g) for g in graphs]
    for g, kind in zip(graphs, kinds):
        assert kind == _minimal_nonplanar_kind(g), sorted(g.edges())
    assert kinds.count("K5") >= 50 and kinds.count("K33") >= 60


def test_planarity_against_subdivision_oracle():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
        assert is_planar(g) == planar_by_subdivision_search(g)


def test_find_k33_subdivision_in_a4_graph(a4):
    g = build_engel_graph(a4)
    witness = find_k33_subdivision(g)
    assert witness is not None
    assert verify_kuratowski_witness(witness, g) == "K33"


def test_isomorphism_on_engel_graphs(d12, dic3):
    gd, gt = build_engel_graph(d12), build_engel_graph(dic3)
    mapping = find_isomorphism(gd, gt)
    assert mapping is not None
    for u, v in gd.edges():
        assert gt.adjacent(mapping[u], mapping[v])
    assert graphs_isomorphic(gd, gd)


def test_isomorphism_counterexamples():
    assert not graphs_isomorphic(complete_graph(3), SimpleGraph(3, [(0, 1), (1, 2)]))
    assert not graphs_isomorphic(complete_graph(3), complete_graph(4))
    # same degree sequence, different structure: C6 vs two triangles
    c6_cycle = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not graphs_isomorphic(c6_cycle, triangles)


def test_small_graphs_of_different_degrees_are_refused_without_an_edge_replay(monkeypatch):
    # equal vertex and edge counts, different degree multisets: the path
    # and the star on four vertices, the star and the 5-cycle with an
    # isolated vertex on six
    calls = []
    replay = graphs_module._preserves_edges
    monkeypatch.setattr(
        graphs_module, "_preserves_edges", lambda *args: calls.append(args) or replay(*args)
    )
    pairs = [
        (SimpleGraph(4, [(0, 1), (1, 2), (2, 3)]), SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])),
        (SimpleGraph(6, [(0, v) for v in range(1, 6)]),
         SimpleGraph(6, [(v, (v + 1) % 5) for v in range(5)])),
    ]
    for g, h in pairs:
        assert g.edge_count == h.edge_count
        assert find_isomorphism(g, h) is None and find_isomorphism(h, g) is None
    assert calls == []


def test_isomorphism_under_random_relabeling():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, 0.4)
        relabel = list(range(n))
        rng.shuffle(relabel)
        h = SimpleGraph(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert graphs_isomorphic(h, g)  # symmetric


def _is_isomorphism(mapping, g, h):
    """Oracle: ``mapping`` is a bijection from the vertices of g onto those
    of h that sends edges to edges and non-edges to non-edges."""
    n = g.vertex_count
    return (
        h.vertex_count == n
        and sorted(mapping) == sorted(mapping.values()) == list(range(n))
        and all(g.adjacent(u, v) == h.adjacent(mapping[u], mapping[v])
                for u, v in combinations(range(n), 2))
    )


def _relabelled(rng, gx):
    """The networkx graph ``gx`` as a SimpleGraph, and as one under a random
    relabelling."""
    n = gx.number_of_nodes()
    relabel = list(range(n))
    rng.shuffle(relabel)
    edges = list(gx.edges())
    return SimpleGraph(n, edges), SimpleGraph(n, [(relabel[u], relabel[v]) for u, v in edges])


def test_six_vertex_planarity_and_isomorphism_match_the_atlas():
    # every graph on 1-6 vertices, up to isomorphism, decided without
    # networkx and checked against it; the atlas graphs are pairwise
    # non-isomorphic, so each pair of equal vertex and edge counts has no
    # isomorphism
    rng = random.Random(26)
    atlas = [gx for gx in nx.graph_atlas_g() if 1 <= gx.number_of_nodes() <= 6]
    assert len(atlas) == 208
    graphs = []
    for gx in atlas:
        g, h = _relabelled(rng, gx)
        planar = nx.is_planar(gx)
        assert is_planar(h) == planar, sorted(h.edges())
        witness = kuratowski_witness(h)
        assert (witness is None) == planar
        if witness is not None:
            assert verify_kuratowski_witness(witness, h) in ("K5", "K33")
        mapping = find_isomorphism(g, h)
        assert mapping is not None and _is_isomorphism(mapping, g, h), sorted(g.edges())
        graphs.append(g)
    pairs = [(g, h) for g, h in combinations(graphs, 2)
             if (g.vertex_count, g.edge_count) == (h.vertex_count, h.edge_count)]
    assert len(pairs) == 1340
    for g, h in pairs:
        assert find_isomorphism(g, h) is None, (sorted(g.edges()), sorted(h.edges()))


def test_seven_vertex_graphs_go_to_networkx(monkeypatch):
    # past six vertices planarity and isomorphism are networkx's, and the
    # six-vertex search is never called
    rng = random.Random(27)
    calls = []
    convert = graphs_module._to_networkx
    monkeypatch.setattr(graphs_module, "_to_networkx", lambda g: calls.append(g) or convert(g))
    monkeypatch.setattr(graphs_module, "_small_kuratowski_edges", None)
    atlas = [gx for gx in nx.graph_atlas_g() if gx.number_of_nodes() == 7]
    for gx in rng.sample(atlas, 120):
        g, h = _relabelled(rng, gx)
        sparse = g.edge_count <= 3 * 7 - 6
        calls.clear()
        assert is_planar(h) == nx.is_planar(gx)
        assert len(calls) == sparse
        witness = kuratowski_witness(h)
        assert (witness is None) == nx.is_planar(gx)
        calls.clear()
        mapping = find_isomorphism(g, h)
        assert mapping is not None and _is_isomorphism(mapping, g, h)
        assert len(calls) == 2


def test_compute_metrics_converts_to_networkx_once(monkeypatch, a4):
    # components, diameter and the clique number read the bit rows, so the
    # twin quotient is never converted; the full graph is converted once,
    # and only when planarity needs networkx: when it is sparse enough
    # (E <= 3V - 6) and has more than six vertices
    calls = []
    convert = graphs_module._to_networkx
    monkeypatch.setattr(graphs_module, "_to_networkx", lambda g: calls.append(g) or convert(g))
    e_a4 = build_engel_graph(a4)  # 8 vertices, 24 edges: K4 with every vertex doubled
    sparse, single = SimpleGraph(3, [(0, 1)]), SimpleGraph(1, [])
    octahedron = SimpleGraph(6, [(u, v) for u, v in combinations(range(6), 2) if v - u != 3])
    c7 = SimpleGraph(7, [(v, (v + 1) % 7) for v in range(7)])
    for g, full in ((e_a4, []), (sparse, []), (single, []), (octahedron, []), (c7, [c7])):
        calls.clear()
        compute_metrics(g)
        assert calls == full
        calls.clear()
        connected_components(g), diameter(g), clique_number(g)
        assert calls == []


def test_metrics_on_planted_twins():
    # the quotient formulas against the Floyd-Warshall, subset-enumeration
    # and subdivision-search oracles; compute_metrics and diameter both
    # search g in place, and the two agree
    with pytest.raises(EmptyGraphError):
        compute_metrics(SimpleGraph(0, []))
    rng = random.Random(31)
    graphs = [SimpleGraph(1, []), SimpleGraph(4, []), SimpleGraph(5, [(0, 1)]),
              with_planted_twins(rng, SimpleGraph(4, [(0, 1), (1, 2)]), 3)]
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        if rng.random() < 0.3:  # an isolated vertex to plant twins on
            g = SimpleGraph(g.vertex_count + 1, g.edges())
        graphs.append(with_planted_twins(rng, g, rng.randint(0, 4)))
    for g in graphs:
        n = g.vertex_count
        dist = brute_distances(g)
        components = {frozenset(v for v in range(n) if dist[u][v] < math.inf) for u in range(n)}
        expected = max(max(row) for row in dist)
        m = compute_metrics(g)
        assert (m.component_count, m.diameter) == (len(components), expected)
        assert m.clique_number == brute_clique_number(g) == clique_number(g)
        assert m.planar == planar_by_subdivision_search(g)
        assert diameter(g) == m.diameter == expected


def test_twin_quotient_at_scale():
    # Engel graphs of 119-719 vertices on which a clique search over the
    # full graph does not finish in seconds; each omega is checked against
    # networkx's exact clique search or meets the colouring bound
    # omega <= chi on the quotient
    for spec, omega in (("S5", 25), ("S5xC2", 25), ("A6", 81), ("S6", 201)):
        g = build_engel_graph(build_group(spec))
        m = compute_metrics(g)
        assert (m.clique_number, m.diameter, m.component_count, m.planar) == (omega, 2, 1, False)
        qx = graphs_module._to_networkx(graphs_module._twin_quotient(g)[0])
        if spec in ("S5", "S5xC2"):
            assert len(nx.max_weight_clique(qx, weight=None)[0]) == omega
        else:
            assert len(set(nx.greedy_color(qx, "largest_first").values())) == omega


def test_metrics_invariants(s3, a4, d12):
    for G in (s3, a4, d12):
        g = build_engel_graph(G)
        m = compute_metrics(g)
        assert (m.component_count == 1) == (not math.isinf(m.diameter))
        assert m.clique_number <= m.vertex_count
        assert m.vertex_count == g.vertex_count
        assert m.edge_count == g.edge_count
    disconnected = SimpleGraph(3, [(0, 1)])
    m = compute_metrics(disconnected)
    assert math.isinf(m.diameter) and m.component_count == 2

"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: closure by repeated set
products instead of BFS, clique number by subset enumeration, distances by
Floyd-Warshall instead of BFS, planarity by exhaustive search for
K5/K_{3,3} subdivisions (feasible up to ~12 vertices), and Engel
reachability by direct iteration of the commutator map.
"""

import math
from itertools import combinations

from engelgraph import IDENTITY, SimpleGraph


def naive_closure(perms):
    """Fixed-point iteration of pairwise products."""
    elems = {IDENTITY} | set(perms)
    while True:
        new = {p * q for p in elems for q in elems} - elems
        if not new:
            return elems
        elems |= new


def engel_reaches_by_iteration(G, a, x):
    """Does [a,_k x] hit the identity within |G| steps?  Plain loop over
    index arithmetic, no caching."""
    y = a
    for _ in range(G.order + 1):
        if y == G.identity:
            return True
        y = G.mul(G.mul(G.mul(G.inv(y), G.inv(x)), y), x)
    return False


def brute_clique_number(g):
    n = g.vertex_count
    for k in range(n, 0, -1):
        for combo in combinations(range(n), k):
            if all(g.adjacent(u, v) for u, v in combinations(combo, 2)):
                return k
    return 0


def brute_distances(g):
    """All shortest-path distances by Floyd-Warshall; math.inf between
    vertices in different components."""
    n = g.vertex_count
    dist = [[0 if u == v else 1 if g.adjacent(u, v) else math.inf for v in range(n)]
            for u in range(n)]
    for k in range(n):
        for u in range(n):
            for v in range(n):
                dist[u][v] = min(dist[u][v], dist[u][k] + dist[k][v])
    return dist


def _paths(g, a, b, blocked):
    # simple paths from a to b whose interior avoids `blocked`; the direct
    # edge (if any) comes first, keeping dense instances fast
    def extend(path, visited):
        cur = path[-1]
        if g.adjacent(cur, b):
            yield path + [b]
        for w in g.neighbors(cur):
            if w != b and w not in visited and w not in blocked:
                yield from extend(path + [w], visited | {w})

    yield from extend([a], {a})


def _realize_pairs(g, pairs, blocked):
    """Internally disjoint paths realizing every terminal pair, or None."""
    if not pairs:
        return []
    (a, b), rest = pairs[0], pairs[1:]
    for path in _paths(g, a, b, blocked):
        sub = _realize_pairs(g, rest, blocked | set(path[1:-1]))
        if sub is not None:
            return [path] + sub
    return None


def _paths_to_graph(g, paths):
    edges = set()
    for path in paths:
        for u, v in zip(path, path[1:]):
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph(g.vertex_count, sorted(edges), g.labels)


def find_k5_subdivision(g):
    """A subgraph of g that subdivides K5, or None."""
    candidates = [v for v in range(g.vertex_count) if g.degree(v) >= 4]
    for branch in combinations(candidates, 5):
        paths = _realize_pairs(g, list(combinations(branch, 2)), set(branch))
        if paths is not None:
            return _paths_to_graph(g, paths)
    return None


def find_k33_subdivision(g):
    """A subgraph of g that subdivides K_{3,3}, or None."""
    candidates = [v for v in range(g.vertex_count) if g.degree(v) >= 3]
    for six in combinations(candidates, 6):
        first, rest = six[0], six[1:]
        for pair in combinations(rest, 2):
            side_a = {first, *pair}
            side_b = [v for v in six if v not in side_a]
            pairs = [(a, b) for a in sorted(side_a) for b in side_b]
            paths = _realize_pairs(g, pairs, set(six))
            if paths is not None:
                return _paths_to_graph(g, paths)
    return None


def planar_by_subdivision_search(g):
    return find_k5_subdivision(g) is None and find_k33_subdivision(g) is None


def random_graph(rng, n, p):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph(n, edges)

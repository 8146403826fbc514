"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's algorithms: closure by repeated set
products instead of BFS, clique number by subset enumeration, distances by
Floyd-Warshall or, on larger graphs, by a queue-based search over plain
edge lists instead of the library's search over bit rows, Engel depth maps
by a reverse breadth-first search from the identity over preimage lists
instead of the library's forward walks, L(G) and the Engel graph from
those maps of G's own class representatives instead of the library's
reading of the Engel core G/Z*(G), the upper central series by
commutators with every element instead of the library's filter over
generators, planarity by
exhaustive search for K5/K_{3,3} subdivisions (feasible up to ~12
vertices), Engel reachability and depths by direct iteration of the
commutator map, the left Engel and left k-Engel verdicts from those
depth maps and from [a,_k x] for every a instead of the library's walks
from the commutator images, the randomly-Engel predicate element by
element from those depth maps instead of class by class from walks of the
Engel sequences, and subgroup queries by all-pairs loops over the members
(generation by a BFS that multiplies by every member) instead of work on
greedy generators, the greedy generators themselves, and the members and
lower central series of larger spans, by a breadth-first search over
right products resumed after each generator instead of the library's
powers and coset extension, the lower central series a group remembers
by the all-pairs series, and the rows of induced subgraphs
and twin quotients by one adjacency test per pair instead of the
library's selection of bits from binary digits.  Conjugacy classes are
checked against the orbits {r^g : g in G}, conjugating by every element
instead of walking the generators' conjugation maps.  The theorem-fact checks are kept here in the form that
calls the group's methods once per product, the product invariant
reads a catalog's reports of G x C_k against those of G, and catalog
groups' invariants are compared with those of sympy's ``PermutationGroup``.
The dihedral and dicyclic generators come from the normal-form
multiplication of words instead of the library's closed image formulas,
and cycle notation is read by a character scanner instead of the
library's token pattern.
"""

import math
import pickle
from collections import deque
from itertools import combinations

from engelgraph import (
    IDENTITY,
    NotASubgroup,
    ParseError,
    Permutation,
    SimpleGraph,
    build_group,
    catalog_plans,
    centralizer,
    conjugacy_class,
    conjugacy_classes,
    derived_subgroup,
    is_abelian,
    is_left_engel,
    is_left_k_engel,
    is_nilpotent,
    iterated_commutator,
    render_group_spec,
    subgroup_generated,
)
from engelgraph.engel import _walk
from engelgraph.graphs import _row
from engelgraph.groups import MAX_ORDER, _classes


def naive_closure(perms, limit=None):
    """Fixed-point iteration of pairwise products; None as soon as more
    than ``limit`` elements are found, when a limit is given."""
    elems = {IDENTITY} | set(perms)
    while limit is None or len(elems) <= limit:
        new = {p * q for p in elems for q in elems} - elems
        if not new:
            return elems
        elems |= new
    return None


def regular_representation_by_words(m, c):
    """x and y of <x, y | x^m = 1, y^2 = x^c, x^y = x^-1> acting by right
    multiplication on its words x^i y^j (at point j*m + i + 1), read off
    the normal-form product of two words."""
    forms = [(i, j) for j in (0, 1) for i in range(m)]

    def mul(a, b):
        (i1, j1), (i2, j2) = a, b
        i = i1 + (-i2 if j1 else i2) + (c if j1 and j2 else 0)
        return (j1 + j2) % 2 * m + i % m + 1

    return [Permutation(mul(u, w) for u in forms) for w in ((1, 0), (0, 1))]


def parse_cycles_by_scanning(line):
    """``io.parse_cycles`` as a character scanner that skips white space by
    ``str.isspace`` and reads a point as a run of ``str.isdigit``
    characters, with the same errors and positions.  ``isdigit`` also takes
    digits that are not decimal, such as "²", which ``int()`` then refuses
    with a ValueError: the reference for lines without them."""
    limit = MAX_ORDER**2
    s = line
    i = 0
    n = len(s)
    seen = {}  # point -> position it first appeared at
    cycles = []
    saw_any = False

    def skip_ws(j):
        while j < n and s[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    while i < n:
        if s[i] != "(":
            raise ParseError(f"expected '(' , got {s[i]!r}", i)
        saw_any = True
        i = skip_ws(i + 1)
        points = []
        if i < n and s[i] == ")":
            i = skip_ws(i + 1)
            continue  # "()" is the identity cycle
        while True:
            start = i
            while i < n and s[i].isdigit():
                i += 1
            if i == start:
                raise ParseError("expected a point number", i)
            digits = s[start:i]
            if len(digits) > len(str(limit)) or int(digits) > limit:
                shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
                raise ParseError(f"point {shown} is above the limit of {limit}", start)
            point = int(digits)
            if point < 1:
                raise ParseError(f"points are 1-based, got {point}", start)
            if point in seen:
                raise ParseError(f"point {point} repeated (first at position {seen[point]})", start)
            seen[point] = start
            points.append(point)
            i = skip_ws(i)
            if i < n and s[i] == ",":
                i = skip_ws(i + 1)
                continue
            if i < n and s[i] == ")":
                i = skip_ws(i + 1)
                break
            raise ParseError("expected ',' or ')'", i)
        cycles.append(points)
    if not saw_any:
        raise ParseError("expected a permutation in cycle notation", 0)
    return Permutation.from_cycles(cycles)


def naive_subgroup_generated(G, members):
    """Smallest subgroup of G containing ``members``, as sorted indices.

    Finite order makes closure under products imply closure under inverses.
    """
    gens = sorted(set(members))
    seen = {G.identity}
    queue = deque([G.identity])
    while queue:
        u = queue.popleft()
        for s in gens:
            v = G.mul(u, s)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return tuple(sorted(seen))


def greedy_span(G, members, conjugators=()):
    """(members, generators) of the smallest subgroup of G containing
    ``members`` that each of ``conjugators`` maps into itself, with the
    generators picked greedily: each member, in increasing order, outside
    the subgroup generated by the generators so far, then, for each
    generator in turn (those appended included) and each conjugator g, the
    conjugate g^-1 k g of that generator k when it is outside.

    After each new generator the subgroup is the closure under right
    products by the generators, as in ``naive_subgroup_generated``, resumed
    from the elements already found: every one of them times every
    generator is tried again, and each new element joins the search."""
    table = G._table
    seen, gens = {G.identity}, []

    def adjoin(s):
        gens.append(s)
        queue = list(seen)
        for u in queue:  # also visits the elements appended below
            row = table[u]
            for g in gens:
                v = row[g]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)

    for s in sorted(set(members)):
        if s not in seen:
            adjoin(s)
    for k in gens:  # also visits the generators appended below
        for g in conjugators:
            c = G.conjugate(k, g)
            if c not in seen:
                adjoin(c)
    return tuple(sorted(seen)), gens


def greedy_lower_central_series(G, members):
    """The lower central series of the subgroup on ``members``, each term
    [γ_i, H] the normal closure in H of the commutators of the greedy
    generators of γ_i with those of H, by ``greedy_span``; listed until it
    stabilizes."""
    H, hgens = greedy_span(G, members)
    series, gens = [H], hgens
    while True:
        comms = {G.commutator(x, y) for x in gens for y in hgens}
        term, gens = greedy_span(G, comms, hgens)
        if term == series[-1]:
            return series
        series.append(term)


def naive_normal_closure(G, members):
    """Smallest normal subgroup of G containing ``members``: the subgroup
    generated by all conjugates of the members."""
    conjugates = {
        G.conjugate(s, g) for s in set(members) for g in range(G.order)
    }
    return naive_subgroup_generated(G, conjugates)


def naive_derived_subgroup(G):
    """Subgroup generated by all commutators [x, y], computed on each call."""
    comms = {G.commutator(x, y) for x in range(G.order) for y in range(G.order)}
    return naive_subgroup_generated(G, comms)


def naive_is_subgroup(G, members):
    """True iff the set contains the identity and is closed under products."""
    ms = set(members)
    if G.identity not in ms:
        return False
    if any(not 0 <= m < G.order for m in ms):
        return False
    return all(G.mul(a, b) in ms for a in ms for b in ms)


def naive_is_abelian(G, members=None):
    ms = sorted(set(members)) if members is not None else range(G.order)
    return all(G.mul(a, b) == G.mul(b, a) for a in ms for b in ms)


def naive_lower_central_series(G, members):
    """Lower central series of the subgroup H on the given indices, computed
    inside G, listed until it stabilizes.

    Raises NotASubgroup if the member set is not a subgroup of G.
    """
    H = tuple(sorted(set(members)))
    if not naive_is_subgroup(G, H):
        raise NotASubgroup(f"member set of size {len(H)} is not a subgroup of {G.name!r}")
    series = [H]
    current = H
    while True:
        comms = {G.commutator(a, h) for a in current for h in H}
        nxt = naive_subgroup_generated(G, comms)
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
    return series


def series_memo_violations(G):
    """Each lower central series G remembers (``G._memo["series"]``, a
    sorted member tuple mapped to its terms) that differs from the all-pairs
    series of that subgroup."""
    violations = []
    for key, terms in G._memo.get("series", {}).items():
        want = naive_lower_central_series(G, key)
        if list(terms) != want:
            violations.append(
                f"{G.name}: the remembered series of a subgroup of {len(key)}, with "
                f"term orders {[len(t) for t in terms]}, is not the all-pairs series, "
                f"with {[len(t) for t in want]}"
            )
    return violations


def naive_upper_central_series(G):
    """The upper central series 1 = Z_0 < Z_1 < ... of G, listed until it
    stabilizes: Z_{i+1} is every x whose commutator [x, g] with every
    element g of G lies in Z_i."""
    series = [(G.identity,)]
    while True:
        below = set(series[-1])
        nxt = tuple(x for x in range(G.order)
                    if all(G.commutator(x, g) in below for g in range(G.order)))
        if nxt == series[-1]:
            return series
        series.append(nxt)


def class_mismatches(G):
    """How the conjugacy classes and transversals of G fail the orbit
    oracle, one line per failed check, on two copies of G with nothing
    cached (G is pickled first).  On the first, ``conjugacy_classes`` must
    partition G, each class must be the orbit {r^g : g in G} of its least
    member r, found by conjugating r with every element, and ``_classes``
    must give each x that r as its leader and an element g with r^g = x
    as its via, and walk each class from r: every other member v is u^t
    for an earlier member u and a generator t.  The second
    is first asked for the class of the greatest member of the largest
    class; right after that query its memo must already hold every class,
    and it must then give the same classes, transversals and walks that
    hold."""
    cold = pickle.dumps(G)
    first = pickle.loads(cold)
    classes = conjugacy_classes(first)
    least = {x: cls[0] for cls in classes for x in cls}
    problems = []
    if sorted(least) != list(range(G.order)) or len(least) != sum(map(len, classes)):
        problems.append(f"{G.name}: the classes do not partition the group")
    for cls in classes:
        orbit = tuple(sorted({G.conjugate(cls[0], g) for g in range(G.order)}))
        if orbit != cls:
            problems.append(f"{G.name}: class of {cls[0]} is not its orbit")
    copies = [first]
    largest = max(classes, key=len)
    if len(largest) > 1:
        second = pickle.loads(cold)
        if conjugacy_class(second, largest[-1]) != largest:
            problems.append(f"{G.name}: class of {largest[-1]} asked first")
        if list(second._memo["classes"][2].values()) != classes:
            problems.append(f"{G.name}: classes not all found by the first query")
        if conjugacy_classes(second) != classes:
            problems.append(f"{G.name}: classes after a first query of {largest[-1]}")
        copies.append(second)
    for H in copies:
        memo = _classes(H)
        for x in range(G.order):
            r, g = memo.leader[x], memo.via[x]
            if r != least[x] or H.conjugate(r, g) != x:
                problems.append(f"{G.name}: transversal ({r}, {g}) of {x}")
        for cls in classes:
            walk = memo.walks[cls[0]]
            if sorted(walk) != list(cls) or walk[0] != cls[0]:
                problems.append(f"{G.name}: walk of the class of {cls[0]}")
            earlier = {walk[0]}
            for v in walk[1:]:
                if not any(H.conjugate(v, H.inv(t)) in earlier for t in H.generators):
                    problems.append(f"{G.name}: {v} is no earlier member's conjugate by a generator")
                earlier.add(v)
    return problems


def engel_reaches_by_iteration(G, a, x):
    """Does [a,_k x] hit the identity within |G| steps?  Plain loop over
    index arithmetic, no caching."""
    y = a
    for _ in range(G.order + 1):
        if y == G.identity:
            return True
        y = G.mul(G.mul(G.mul(G.inv(y), G.inv(x)), y), x)
    return False


def depth_map_by_preimages(G, x):
    """For every a, the least k with [a,_k x] = 1, or -1: one reverse
    breadth-first search from the identity over the preimage lists of
    y -> [y, x], with no forward walk."""
    n, table, inv = G.order, G._table, G._inv
    # [y, x] = y^-1 * y^x, with y^x = (x^-1 y) x read from the row of x^-1
    step = [table[iy][table[u][x]] for iy, u in zip(inv, table[inv[x]])]
    preimages = [[] for _ in range(n)]
    for y, v in enumerate(step):
        preimages[v].append(y)
    depth = [-1] * n
    depth[G.identity] = 0
    queue = [G.identity]
    while queue:
        nxt = []
        for v in queue:
            for y in preimages[v]:
                if depth[y] < 0:
                    depth[y] = depth[v] + 1
                    nxt.append(y)
        queue = nxt
    return tuple(depth)


def engel_depths_by_iteration(G, x):
    """For every a, the least k <= |G| with [a,_k x] = 1, or -1: each
    sequence iterated with ``G.commutator``, no depth maps and no
    conjugation."""
    depths = []
    for a in range(G.order):
        y, depth = a, -1
        for k in range(G.order + 1):
            if y == G.identity:
                depth = k
                break
            y = G.commutator(y, x)
        depths.append(depth)
    return tuple(depths)


def bounded_left_engel_set(G):
    """All x that are left k-Engel for some k <= |G|.  In a finite group a
    reached Engel sequence needs fewer than |G| steps, so this coincides
    with ``left_engel_set``; the tests check that collapse."""
    return tuple(
        x for x in range(G.order) if all(d >= 0 for d in engel_depths_by_iteration(G, x))
    )


def left_engel_mismatches(G, xs):
    """The (x, k) at which ``is_left_k_engel(G, x, k)`` disagrees with x's
    depth map by preimages or with [a,_k x] for every a, and the (x, None)
    at which ``is_left_engel(G, x)`` disagrees with that map.  Each k runs
    from 1 to one past the largest depth, or to 3 when x is not left
    Engel."""
    e, mismatches = G.identity, []
    for x in xs:
        depths = depth_map_by_preimages(G, x)
        engel = min(depths) >= 0
        if is_left_engel(G, x) != engel:
            mismatches.append((x, None))
        for k in range(1, (max(depths) if engel else 2) + 2):
            by_depths = engel and max(depths) <= k
            by_iteration = all(iterated_commutator(G, a, x, k) == e for a in range(G.order))
            if not (is_left_k_engel(G, x, k) == by_depths == by_iteration):
                mismatches.append((x, k))
    return mismatches


def engel_degree_from_first_images(G, x):
    """A mutant of ``engel._engel_degree`` that reads S_1 = {[a, x]} alone:
    x is left 1-Engel when S_1 = {1}, that is when x is central, and not
    left Engel otherwise."""
    return 1 if all(G.commutator(a, x) == G.identity for a in range(G.order)) else None


def engel_degree_one_short(G, x):
    """A mutant of ``engel._engel_degree`` that returns the largest depth
    over S_1 = {[a, x]} instead of one more than it, so every x that is not
    central comes out one degree short."""
    images = {G.commutator(a, x) for a in range(G.order)}
    depth = _walk(G, x, images)
    depths = [depth[y] for y in images]
    return None if min(depths) < 0 else max(depths)


def walk_through_cycles(G, r, starts):
    """A mutant of ``engel._walk`` that gives a walk meeting itself the
    depths of one that met the identity there, as if a cycle of
    z -> [z, r] held 1."""
    table, inv = G._table, G._inv
    row = table[inv[r]]
    depth = [None] * G.order
    depth[G.identity] = 0
    for z in starts:
        path = []
        while depth[z] is None:
            depth[z] = -2  # on the walk in progress
            path.append(z)
            z = table[inv[z]][table[row[z]][r]]
        d = 0 if depth[z] == -2 else depth[z]
        for y in reversed(path):
            if d >= 0:
                d += 1
            depth[y] = d
    return depth


def direct_left_engel_set(G):
    """L(G) from G's own depth maps by preimages, one per class
    representative, with no Engel core: the union of the classes whose
    least member's map reaches the identity from every element."""
    return tuple(sorted(
        x for cls in conjugacy_classes(G)
        if min(depth_map_by_preimages(G, cls[0])) >= 0 for x in cls
    ))


def direct_engel_graph(G):
    """E_G from G's own depth maps by preimages, with no Engel core: the
    neighbourhood of each class's least member r, read from the class
    representatives' maps, carried to every x = r^g as N(r)^g."""
    L = set(direct_left_engel_set(G))
    verts = [x for x in range(G.order) if x not in L]
    position = {x: v for v, x in enumerate(verts)}
    table, inv = G._table, G._inv
    memo = _classes(G)
    where = [(memo.leader[y], memo.via[y]) for y in verts]  # (s, h) with s^h = y
    reps = [cls for cls in conjugacy_classes(G) if cls[0] not in L]
    depth_of = {cls[0]: depth_map_by_preimages(G, cls[0]) for cls in reps}
    rows = [0] * len(verts)
    for cls in reps:
        r = cls[0]
        nbrs = [
            y for y, (s, h) in zip(verts, where)
            if depth_of[r][y] < 0 and depth_of[s][table[table[h][r]][inv[h]]] < 0
        ]
        for x in cls:
            g = memo.via[x]
            rows[position[x]] = _row((position[G.conjugate(y, g)] for y in nbrs), len(verts))
    return SimpleGraph._from_rows(rows, tuple(verts))


def randomly_engel_conjugates_by_elements(G, x):
    """``is_randomly_engel_conjugates`` element by element: every conjugate
    x^g of x, over all g, against the depth maps by preimages of x and of
    x^g, each built once per call."""
    maps = {}

    def depths(y):
        if y not in maps:
            maps[y] = depth_map_by_preimages(G, y)
        return maps[y]

    for g in range(G.order):
        xg = G.conjugate(x, g)
        if depths(x)[xg] < 0 and depths(xg)[x] < 0:
            return False
    return True


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


def bfs_distances(n, edges):
    """All shortest-path distances on vertices 0..n-1 joined by ``edges``,
    by a queue-based breadth-first search from every vertex over adjacency
    lists; math.inf between vertices in different components."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = []
    for source in range(n):
        d = [math.inf] * n
        d[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if d[w] == math.inf:
                    d[w] = d[u] + 1
                    queue.append(w)
        dist.append(d)
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


def with_planted_twins(rng, g, count):
    """g plus ``count`` new vertices, each a copy of the neighbourhood of a
    random vertex (planted ones included), so twin classes grow."""
    nbrs = [list(g.neighbors(v)) for v in range(g.vertex_count)]
    for _ in range(count):
        twin = list(nbrs[rng.randrange(len(nbrs))])
        for v in twin:
            nbrs[v].append(len(nbrs))
        nbrs.append(twin)
    return SimpleGraph(len(nbrs), [(u, v) for u, vs in enumerate(nbrs) for v in vs])


def induced_rows_by_renumbering(g, vs):
    """Rows of the subgraph induced on the vertices ``vs``, in any order,
    vertex vs[i] renumbered i, one adjacency test per pair."""
    return tuple(sum(1 << j for j, w in enumerate(vs) if g.adjacent(v, w)) for v in vs)


def twin_quotient_by_neighbourhoods(g):
    """Rows and class sizes of the quotient of g by equal neighbour sets,
    classes in order of (quotient degree, least member), two classes
    adjacent when their least members are."""
    classes = {}
    for v in range(g.vertex_count):
        classes.setdefault(frozenset(g.neighbors(v)), []).append(v)
    least = [members[0] for members in classes.values()]
    degree = {v: sum(g.adjacent(v, w) for w in least) for v in least}
    order = sorted(range(len(least)), key=lambda c: (degree[least[c]], least[c]))
    rows = induced_rows_by_renumbering(g, [least[c] for c in order])
    sizes = [len(members) for members in classes.values()]
    return rows, [sizes[c] for c in order]


def _describe(G, x):
    return f"element {x} = {G.perm(x)}"


def diameter_one_violation_by_group_calls(G, L, graph):
    """The structure forced on a group whose Engel graph is complete, with
    one ``G.mul``, ``G.conjugate`` or subgroup call per (vertex, member)
    pair; the same checks, in the same order and with the same
    counterexamples, as ``survey._diameter_one_violation``, and one more,
    that <x> meets L only in the identity, which the library leaves out as
    it holds for every vertex x outside an L that holds the identity."""
    members = set(L)
    if not is_abelian(G, L):
        return "Engel set is not abelian"
    if len(L) % 2 == 0:
        return "Engel set has even order"
    if any(G.order_of(a) == 2 for a in L):
        return "Engel set contains an involution"
    if G.order != 2 * len(L):
        return f"Engel set has index {G.order // len(L)}, not 2"
    for v in range(graph.vertex_count):
        x = graph.labels[v]
        if G.mul(x, x) != G.identity:
            return f"vertex {_describe(G, x)} is not an involution"
        cyclic_x = subgroup_generated(G, [x])
        if members & set(cyclic_x) != {G.identity}:
            return f"<x> meets the Engel set beyond the identity for {_describe(G, x)}"
        if set(G.mul(a, x) for a in L) | members != set(range(G.order)):
            return f"G != L<x> for {_describe(G, x)}"
        for a in L:
            if G.conjugate(a, x) != G.inv(a):
                return f"{_describe(G, x)} does not invert {_describe(G, a)}"
    return None


def universal_vertex_violation_by_degree(G, graph):
    """Universal vertices found by their degree; otherwise as
    ``survey._universal_vertex_violation``."""
    n = graph.vertex_count
    if n < 2:
        return None
    for v in range(n):
        if graph.degree(v) != n - 1:
            continue
        x = graph.labels[v]
        if G.mul(x, x) != G.identity:
            return f"universal vertex {_describe(G, x)} has x^2 != 1"
        if set(centralizer(G, x)) != set(subgroup_generated(G, [x])):
            return f"centralizer of universal vertex {_describe(G, x)} exceeds <x>"
    return None


def product_invariant_mismatches(reports):
    """Read every report of a product ``<base>xC<k>`` against the report of
    its base, when that is among ``reports`` too.

    [(a,b),_n (c,d)] = ([a,_n c], 1) for n >= 1, so E_{G x C_k} is E_G with
    each vertex replaced by k pairwise non-adjacent copies: k|V| vertices,
    k^2|E| edges, L of order k|L(G)|, k times as many isolated vertices,
    the same clique number, and diameter max(diam E_G, 2).  Each of the C
    components of E_G with an edge stays one component, and each of its I
    isolated vertices becomes k of them, so there are C + (k - 1) I
    components.  Planarity does not carry over (E_S3 is a triangle,
    E_S3xC2 the octahedron), so it is not compared.  Returns the number of
    pairs read and one line per mismatch.
    """
    by_name = {r.name: r for r in reports}
    pairs, mismatches = 0, []
    for r in reports:
        base_name, product, k = r.name.rpartition("xC")
        base = by_name.get(base_name) if product else None
        if base is None:
            continue
        k = int(k)
        b, m = base.metrics, r.metrics
        expected = {
            "vertex_count": k * b.vertex_count,
            "edge_count": k * k * b.edge_count,
            "fitting_order": k * base.fitting_order,
            "isolated_count": k * b.isolated_count,
            "component_count": b.component_count + (k - 1) * b.isolated_count,
            "clique_number": b.clique_number,
            "diameter": max(b.diameter, 2),
        }
        actual = {
            "vertex_count": m.vertex_count,
            "edge_count": m.edge_count,
            "fitting_order": r.fitting_order,
            "isolated_count": m.isolated_count,
            "component_count": m.component_count,
            "clique_number": m.clique_number,
            "diameter": m.diameter,
        }
        pairs += 1
        mismatches += [
            f"{r.name}: {key} is {actual[key]}, {base_name} gives {expected[key]}"
            for key in expected
            if actual[key] != expected[key]
        ]
    return pairs, mismatches


def sympy_invariant_mismatches(max_order):
    """Build every plan of ``catalog_plans(max_order)`` and compare its
    order, number of conjugacy classes, derived subgroup order, nilpotency
    and number of central elements with sympy's ``PermutationGroup`` on the
    same generators, both sides counting their classes of one element:
    ``PermutationGroup.center`` searches for the centralizer, which on the
    regular representations of D_n x C_2 takes up to 0.25 s a group and
    quadruples the run at 240.
    Returns the number of plans compared and one line per mismatch."""
    plans = catalog_plans(max_order)
    mismatches = []
    for plan in plans:
        G = build_group(plan)
        P = sympy_group(G)
        ours_classes = conjugacy_classes(G)
        ours = (G.order, len(ours_classes), len(derived_subgroup(G)),
                is_nilpotent(G, range(G.order)), sum(len(c) == 1 for c in ours_classes))
        classes = P.conjugacy_classes()
        theirs = (P.order(), len(classes), P.derived_subgroup().order(),
                  P.is_nilpotent, sum(len(c) == 1 for c in classes))
        if ours != theirs:
            mismatches.append(f"{render_group_spec(plan)}: {ours} != {theirs}")
    return len(plans), mismatches


def sympy_group(G):
    """sympy's ``PermutationGroup`` on the generators of G."""
    # imported here so that the other oracles do not need sympy
    from sympy.combinatorics import Permutation as SympyPermutation
    from sympy.combinatorics import PermutationGroup

    gens = [G.perm(g) for g in G.generators]
    degree = max([1] + [p.degree for p in gens])
    return PermutationGroup(
        [SympyPermutation([p(i) - 1 for i in range(1, degree + 1)]) for p in gens]
    )


def engel_core_mismatches(G, C, proj):
    """How (C, proj) fails to be G/Z*(G) with its projection, one line per
    failed check, read against ``naive_upper_central_series`` and sympy:
    C is G with the identity projection exactly when Z(G) = 1; the kernel
    of proj is the series' top term Z*, and |G| = |Z*| |C|; proj is a
    homomorphism that maps inverses to inverses and G's generators onto
    C's; C has a trivial centre, and C is trivial exactly when sympy finds
    G nilpotent."""
    series = naive_upper_central_series(G)
    hypercentre = list(series[-1])
    checks = {
        "C is G exactly when Z(G) = 1": (C is G) == (len(series) == 1),
        "identity projection": C is not G or list(proj) == list(range(G.order)),
        "kernel": [x for x in range(G.order) if proj[x] == C.identity] == hypercentre,
        "order": C.order * len(hypercentre) == G.order,
        "homomorphism": all(proj[G.mul(x, y)] == C.mul(proj[x], proj[y])
                            for x in range(G.order) for y in G.generators),
        "inverses": all(proj[G.inv(x)] == C.inv(proj[x]) for x in range(G.order)),
        "generators": {proj[g] for g in G.generators} == set(C.generators),
        "trivial centre": len(naive_upper_central_series(C)) == 1,
        "nilpotent": (C.order == 1) == sympy_group(G).is_nilpotent,
    }
    return [f"{G.name}: {name}" for name, passed in checks.items() if not passed]

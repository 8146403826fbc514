"""The Engel graph and exact graph metrics.

A graph keeps one bit row per vertex: an int of n bits on n vertices.
The Engel graph sets each row as the complement of its vertex's
non-neighbour list, the shorter list on the dense Engel graphs measured.
All metrics are exact.  Vertices with equal neighbourhoods (false twins)
are never adjacent, so a clique meets each twin class at most once, and
the distance between two classes is the one between any member of each
(Gallai's modules, in their simplest form).  So the clique search runs on
the twin quotient, and the distances are searched in the graph in place,
inside the mask of the classes' least members, which induces a copy of
the quotient, from each of those least members.  Conjugation by G is an
automorphism of E_G, so eccentricity is constant on each orbit of twin
classes, and the Engel graph carries one source per class of its Engel
core (``orbit_sources``): its distances are searched from those sources'
classes alone, 8 on A7 where it has 1,312 twin classes.  A breadth-first
search builds each layer in the cheaper direction (Beamer, Asanovic and
Patterson, SC 2012): top-down, as the OR of the frontier's rows, while
the frontier is no larger than the unseen set, and bottom-up, as the
unseen vertices whose rows meet the frontier, once it is larger.  On a
dense Engel graph the first layer already holds most vertices, so the
steps after it read only the few unseen rows.
The clique number comes from MCQ (Tomita and Seki 2003) on the quotient
as it is numbered, by degree: branch and bound with a greedy-colouring
bound, on one explicit stack of lazily expanded frames rather than by
recursion; it starts from a greedy clique and, on every Engel graph of the
catalog up to order 480, ends at the root colouring.  A graph denser than
Euler's bound is not planar.  On at most six vertices, planarity and
isomorphism are decided here: a sparser graph is searched for K5, K5 with
one edge subdivided once, and K_{3,3} (Kuratowski's list on six vertices),
and isomorphism compares degree lists, then tries every bijection.  Past six
vertices networkx is used, imported only then: its linear-time planarity
test, which also extracts a Kuratowski subgraph on failure, and VF2++.
Every mapping is replayed edge by edge here, and every witness handed out
is re-verified here as a subdivision of K5 or K_{3,3} that lies inside the
host graph.  No catalog Engel graph up to order 480 needs networkx: the
only sparse ones are those of S3, D12, Dic3 and S3xC2, on three and six
vertices.

The rows of an induced subgraph and of the twin quotient are selected
from the binary digits of the host rows, by one ``itemgetter`` call per
row (``_selector``); ``_row`` builds a row bit by bit only where the bits
come as a list of indices (the Engel graph's lists, vertex masks).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress, count, permutations
from operator import or_
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Sequence

from .engel import _core_rows, _engel_core, left_engel_set
from .errors import EmptyGraphError, EngelGroupError, SameVertex, UnknownVertex
from .groups import Group, _classes, _getter

if TYPE_CHECKING:
    import networkx as nx


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with optional labels.

    Adjacency is one bit row per vertex: bit v of ``adjacency[u]`` is set
    when u and v are adjacent.  Duplicate edges collapse; loops fail.

    ``orbit_sources`` is None, or, on a graph from ``build_engel_graph``, a
    vertex per vertex v whose twin class an automorphism of the graph maps
    to v's: the distinct entries meet every orbit of twin classes, so the
    distances are searched from those alone.  Equality ignores it.
    """

    __slots__ = ("labels", "adjacency", "orbit_sources")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[Hashable] | None = None,
    ):
        if vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        labels = tuple(range(vertex_count) if labels is None else labels)
        if len(labels) != vertex_count:
            raise ValueError(f"{len(labels)} labels for {vertex_count} vertices")
        rows = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise UnknownVertex(f"edge ({u}, {v}) leaves 0..{vertex_count - 1}")
            if u == v:
                raise SameVertex(f"loop at vertex {u} is not allowed in a simple graph")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.labels = labels
        self.adjacency: tuple[int, ...] = tuple(rows)
        self.orbit_sources: tuple[int, ...] | None = None

    @classmethod
    def _from_rows(
        cls, rows: list[int], labels: tuple, orbit_sources: tuple[int, ...] | None = None
    ) -> "SimpleGraph":
        """The graph whose adjacency is ``rows``: symmetric bit rows without
        loops, taken as given, and so are the ``orbit_sources``."""
        g = cls.__new__(cls)
        g.labels, g.adjacency, g.orbit_sources = labels, tuple(rows), orbit_sources
        return g

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, SimpleGraph)
        return same and (self.labels, self.adjacency) == (other.labels, other.adjacency)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adjacency)) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _bits(self.adjacency[v])

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        return self.adjacency[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, in sorted order."""
        for u, row in enumerate(self.adjacency):
            for v in _bits(row >> (u + 1)):
                yield (u, u + 1 + v)

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self.vertex_count}, edges={self.edge_count})"


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(row: int) -> tuple[int, ...]:
    """The set bits of a row, ascending."""
    return tuple(compress(count(), bin(row)[:1:-1].encode().translate(_BINARY_DIGITS)))


def _row(bits: Iterable[int], n: int) -> int:
    """The row with the given bits set, each in 0..n-1."""
    digits = bytearray(b"0") * n
    for b in bits:
        digits[b] = 49  # ord("1")
    return int(digits[::-1] or b"0", 2)


def _selector(vs: Sequence[int], n: int) -> Callable[[int], int]:
    """The map from a row on n vertices to its bits at the positions ``vs``,
    in any order, renumbered 0..len(vs)-1: bit vs[i] becomes bit i.  When
    ``vs`` is 0..n-1, each row is returned as it is.

    Bit v of a row is character -1-v of ``bin(row | 1 << n)``: the
    sentinel bit n keeps every position 0..n-1 among the digits, however
    many top bits of the row are zero, and no digits are padded.  So the
    new row's digits are those characters for ``vs`` from last to first,
    picked by one ``itemgetter`` and read back with ``int``."""
    if len(vs) == n and all(map(int.__eq__, vs, range(n))):
        return lambda row: row
    pick, sentinel = _getter([-1 - v for v in reversed(vs)]), 1 << n
    return lambda row: int("".join(pick(bin(row | sentinel))) or "0", 2)


@dataclass(frozen=True)
class GraphMetrics:
    vertex_count: int
    edge_count: int
    component_count: int
    diameter: float  # non-negative int, or math.inf when disconnected
    clique_number: int
    planar: bool
    isolated_count: int


def build_engel_graph(G: Group) -> SimpleGraph:
    """Engel graph of a non-Engel group: vertices are the elements outside
    the left Engel set (labels carry their element indices, in canonical
    order); two vertices are joined when neither Engel sequence between
    them reaches the identity.

    Adjacency is read in the Engel core C = G/Z*(G): x and y are adjacent
    exactly when their images are, because a sequence reaches 1 in G
    exactly when its image does in C, and x is never adjacent to xz.  So
    E_G is E_C with each vertex replaced by the members of its coset, and
    every member of a coset gets the preimage of its image's row.  E_C's
    rows are lists of non-neighbours from ``engel._core_rows``, which
    conjugates only in C and keeps them on C, so the groups that share C,
    and a later graph of G, read them again.  The cosets outside L(G), met
    in increasing order of their least members, are C's vertices in order.
    A list becomes bits one of two ways: when Z(G) = 1, C is G and each
    coset one vertex, so its bits are cleared from the full row; otherwise
    the masks of its cosets are.

    Conjugation by G is an automorphism of E_G, and so is any swap of twins,
    so every vertex x is, up to twins, the image of the least preimage of
    its image's class leader in C.  Those preimages are the graph's
    ``orbit_sources``, read from C's classes, which ``left_engel_set`` has
    already found.

    Raises EngelGroupError when every element is left Engel.
    """
    L = set(left_engel_set(G))
    if len(L) == G.order:
        raise EngelGroupError(f"{G.name!r} is an Engel group, so its Engel graph is undefined")
    verts = [x for x in range(G.order) if x not in L]
    n = len(verts)
    full = (1 << n) - 1
    C, proj = _engel_core(G)
    cosets: dict[int, list[int]] = {}  # positions in verts, by image in C
    for v, x in enumerate(verts):
        cosets.setdefault(proj[x], []).append(v)
    leader = _classes(C).leader
    sources = tuple(cosets[leader[proj[x]]][0] for x in verts)
    if C is G:
        rows = [full ^ _row(ys, n) for ys in _core_rows(C)]
    else:
        members = list(cosets.values())
        masks, rows = [_row(vs, n) for vs in members], [0] * n
        for vs, ys in zip(members, _core_rows(C)):  # cosets are numbered by least member
            bits = full ^ reduce(or_, map(masks.__getitem__, ys), 0)
            for v in vs:
                rows[v] = bits
    return SimpleGraph._from_rows(rows, tuple(verts), sources)


def connected_components(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, each sorted, ordered by least vertex."""
    components, unseen = [], (1 << g.vertex_count) - 1
    while unseen:
        component = reduce(or_, _layers(g.adjacency, (unseen & -unseen).bit_length() - 1))
        components.append(_bits(component))
        unseen &= ~component
    return components


def _layers(rows: Sequence[int], source: int, within: int | None = None) -> Iterator[int]:
    """Breadth-first layers from ``source`` in the subgraph induced on the
    vertex mask ``within`` (all vertices by default), as bit masks.

    The first layer after the source is its row, read without scanning the
    bits of a one-vertex frontier.  Each later one is built in
    the cheaper direction (Beamer, Asanovic and Patterson, "Direction-
    optimizing breadth-first search", SC 2012): while the frontier has no
    more vertices than the unseen part of ``within``, top-down, as the OR
    of the frontier's rows minus every vertex already seen; once it has
    more, bottom-up, as the unseen vertices whose rows meet the frontier,
    so that only unseen rows are read.  Rows are symmetric, so both give
    the same layer.  Once every vertex of ``within`` is seen, the next
    layer is empty, so no row of the last layer is read."""
    if within is None:
        within = (1 << len(rows)) - 1
    layer = 1 << source
    unseen = within & ~layer
    yield layer
    layer = rows[source] & unseen if unseen else 0
    while layer:
        yield layer
        unseen ^= layer
        if not unseen:
            return
        if layer.bit_count() > unseen.bit_count():
            vs = _bits(unseen)
            met = compress(vs, map(layer.__and__, map(rows.__getitem__, vs)))
            layer = reduce(or_, map((1).__lshift__, met), 0)
        else:
            layer = reduce(or_, map(rows.__getitem__, _bits(layer))) & unseen


def diameter(g: SimpleGraph) -> float:
    """Largest shortest-path distance; math.inf when disconnected, 0 for a
    single vertex.  Raises EmptyGraphError for zero vertices.

    Searched in g itself, inside the mask of its twin classes' least
    members, which have the quotient's distances: from each of those
    members, or, when g has ``orbit_sources``, from those of the sources'
    classes alone (``_components_and_diameter``).  No quotient is built and
    nothing is sorted."""
    return _components_and_diameter(g, _least_members(g.adjacency))[1]


def _least_members(rows: Sequence[int]) -> dict[int, int]:
    """Each distinct row mapped to the least vertex that has it: one entry
    per false-twin class."""
    return dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))


def _twin_quotient(
    g: SimpleGraph, least: dict[int, int] | None = None
) -> tuple[SimpleGraph, list[int]]:
    """The quotient of g by its false twins and the size of each class, the
    classes in the clique search's order: by ascending quotient degree,
    ties by least member.  ``least`` is ``_least_members`` of g's rows, if
    the caller has it.

    Twins are never adjacent (a vertex is not its own neighbour), so the
    quotient is a simple graph; the isolated vertices of g form its one
    isolated vertex, if any."""
    sizes = Counter(g.adjacency)  # by row, in order of least member
    n = len(g.adjacency)
    if least is None:
        least = _least_members(g.adjacency)
    # a row meets a twin class in all of its members or in none, so its
    # bit at the class's least member says which
    leaders = _row(least.values(), n)
    classes = sorted(sizes, key=lambda row: (row & leaders).bit_count())  # stable sort
    rows = list(map(_selector([least[row] for row in classes], n), classes))
    return SimpleGraph._from_rows(rows, tuple(range(len(rows)))), [sizes[row] for row in classes]


def _components_and_diameter(g: SimpleGraph, least: dict[int, int]) -> tuple[int, float]:
    """Component count and diameter of g, searched in g's rows inside the
    mask of ``least``'s values, the least member of each false-twin class
    (``_least_members``).  Raises EmptyGraphError for zero vertices.

    Twins share rows, so a walk may swap each of its vertices for its
    class's least member: the distance between two vertices of different
    classes is that between their classes' least members inside the mask,
    which induce a copy of the twin quotient.  Two twins of a connected
    graph with an edge are at distance 2, through any common neighbour, so
    the diameter is at least 2 when some class has two members.  The
    isolated vertices form one class, and each of them is a component.

    The eccentricity is searched from every class's least member, or, when
    g has ``orbit_sources``, from the least member of each source's class
    only: an automorphism maps twin classes to twin classes and keeps
    eccentricities, and every class is the image of a source's."""
    rows, n = g.adjacency, len(g.adjacency)
    if not n:
        raise EmptyGraphError("the diameter of the empty graph is undefined")
    leaders = _row(least.values(), n)
    components, unseen = max(rows.count(0) - 1, 0), leaders
    while unseen:
        layers = list(_layers(rows, (unseen & -unseen).bit_length() - 1, leaders))
        unseen &= ~reduce(or_, layers)
        components += 1
    if components > 1:
        return components, math.inf
    if leaders == 1:  # vertex 0 alone
        return components, 0
    starts = leaders
    if g.orbit_sources is not None:
        starts = _row({least[rows[s]] for s in set(g.orbit_sources)}, n)
    # layers holds the search from vertex 0, the least member of its class
    depths = [len(layers)] if starts & 1 else []
    depths += [sum(1 for _ in _layers(rows, v, leaders)) for v in _bits(starts & ~1)]
    twins = len(least) < n
    return components, max(max(depths) - 1, 2 if twins else 1)


def isolated_vertices(g: SimpleGraph) -> tuple[int, ...]:
    return tuple(v for v in range(g.vertex_count) if not g.adjacency[v])


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Subgraph on the given vertices (labels carried over), with every edge
    of g joining two of them."""
    vs, n = sorted(set(vertices)), g.vertex_count
    if vs and (vs[0] < 0 or vs[-1] >= n):  # the least vertex outside 0..n-1
        v = vs[0] if vs[0] < 0 else vs[bisect_left(vs, n)]
        raise UnknownVertex(f"vertex {v} is not in the graph")
    at_vs = _getter(vs)
    rows = list(map(_selector(vs, n), at_vs(g.adjacency)))
    return SimpleGraph._from_rows(rows, at_vs(g.labels))


def clique_number(g: SimpleGraph) -> int:
    """Exact maximum clique size; 0 for the empty graph.

    A clique meets each twin class at most once, so the search runs on the
    twin quotient.
    """
    return _max_clique_size(_twin_quotient(g)[0])


def _max_clique_size(g: SimpleGraph) -> int:
    """Branch and bound over the bit rows: MCQ (Tomita and Seki 2003).

    The input order is the search order: the greedy clique and every
    sequential colouring take the highest bit first, found by
    ``bit_length``.  ``_twin_quotient`` puts the highest degree there, as
    MCQ does; any order gives the exact clique number, perhaps with more
    nodes searched.  The search keeps one explicit stack of lazily expanded
    frames [size, candidates, verts, colours]: a clique of ``size``
    vertices, the vertices adjacent to all of it, and those candidates
    coloured greedily and listed in colour order (``_colour_classes``).  A
    clique meets each colour class at most once, so a candidate of colour c
    extends the clique to at most size + c vertices, and only the candidates
    whose colour can beat the incumbent are listed.  The top frame branches
    on its last vertex v, of the highest colour: v leaves the candidates and
    the frame of ``candidates & nbr[v]`` is pushed.  A frame whose highest
    colour no longer beats the incumbent is dropped.  No bitset is kept per
    pending branch, so memory grows with the depth times the candidates, not
    as the cube of the depth.  The first incumbent is a greedy clique, so
    when the root colouring uses no more colours than that clique has
    vertices, no node below the root is searched.  Raises ValueError for a
    row that holds its own vertex, which no greedy clique would leave."""
    nbr = g.adjacency
    apart = []  # apart[v] may share v's colour
    for v, row in enumerate(nbr):
        if row >> v & 1:
            raise ValueError(f"vertex {v} of the clique search is its own neighbour")
        apart.append(~(1 << v | row))
    best, full = 0, (1 << len(nbr)) - 1
    candidates = full
    while candidates:  # the greedy clique: each vertex adjacent to all before it
        best += 1
        candidates &= nbr[candidates.bit_length() - 1]
    stack = [[0, full, *_colour_classes(apart, full, best)]]
    while stack:
        top = stack[-1]
        size, candidates, verts, colours = top
        if not colours or size + colours[-1] <= best:
            stack.pop()
            continue
        v = verts.pop()
        colours.pop()
        top[1] = candidates ^ 1 << v
        child = candidates & nbr[v]
        if child:
            stack.append([size + 1, child, *_colour_classes(apart, child, best - size - 1)])
        elif size + 1 > best:
            best = size + 1
    return best


def _colour_classes(apart: list[int], candidates: int, least: int) -> tuple[array, array]:
    """The candidates coloured greedily, highest vertex first, as two int
    arrays in colour order: the vertices whose colour is above ``least``,
    and their colours.  ``apart[v]`` is the mask of the vertices that may
    share v's colour: neither v nor its neighbours."""
    verts, colours = array("i"), array("i")
    rest, colour = candidates, 0
    while rest:
        colour += 1
        available = rest
        while available:
            v = available.bit_length() - 1
            available &= apart[v]
            rest ^= 1 << v
            if colour > least:
                verts.append(v)
                colours.append(colour)
    return verts, colours


def _to_networkx(g: SimpleGraph) -> nx.Graph:
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from(g.edges())
    return gx


# K_{3,3}, the larger of Kuratowski's two graphs, has six vertices; on at
# most six, a subdivision of K5 or K_{3,3} is K_{3,3} itself, K5, or K5 with
# one edge subdivided once, so ``_small_kuratowski_edges`` decides planarity
_SMALL = 6


def _small_kuratowski_edges(g: SimpleGraph) -> list[tuple[int, int]] | None:
    """The edges of a subdivision of K5 or K_{3,3} in g, which has at most
    ``_SMALL`` vertices, or None when g is planar.

    Each 5-subset is tried as the branch vertices of a K5 missing at most
    one edge (a, b), which the sixth vertex must then join to both a and b;
    each of the ten 3+3 splits of six vertices is tried as a K_{3,3}."""
    rows, n = g.adjacency, g.vertex_count
    for five in combinations(range(n), 5):
        pairs = list(combinations(five, 2))
        edges = [(a, b) for a, b in pairs if rows[a] >> b & 1]
        missing = [p for p in pairs if p not in edges]
        if not missing:
            return edges
        if len(missing) == 1 and n == 6:
            (a, b), (w,) = missing[0], set(range(6)).difference(five)
            if rows[w] >> a & 1 and rows[w] >> b & 1:
                return edges + [(a, w), (w, b)]
    if n == 6:
        for pair in combinations(range(1, 6), 2):
            side = (0, *pair)
            other = [v for v in range(6) if v not in side]
            edges = [(u, v) for u in side for v in other if rows[u] >> v & 1]
            if len(edges) == 9:
                return edges
    return None


def is_planar(g: SimpleGraph) -> bool:
    """Planarity.  A simple planar graph on V >= 3 vertices has at most
    3V - 6 edges (Euler), so a denser graph is answered at once; a sparser
    one on at most six vertices by ``_small_kuratowski_edges``, and a
    larger one by networkx's linear-time test."""
    v = g.vertex_count
    if v >= 3 and g.edge_count > 3 * v - 6:
        return False
    if v <= _SMALL:
        return _small_kuratowski_edges(g) is None
    import networkx as nx

    return nx.is_planar(_to_networkx(g))


def kuratowski_witness(g: SimpleGraph) -> SimpleGraph | None:
    """For a non-planar graph, a verified witness subgraph that is a
    subdivision of K5 or K_{3,3}; None when g is planar.  On at most six
    vertices the witness comes from ``_small_kuratowski_edges``, on more
    from networkx's planarity test."""
    if g.vertex_count <= _SMALL:
        edges = _small_kuratowski_edges(g)
        if edges is None:
            return None
    else:
        import networkx as nx

        planar, certificate = nx.check_planarity(_to_networkx(g), counterexample=True)
        if planar:
            return None
        edges = certificate.edges()
    witness = SimpleGraph(g.vertex_count, edges, g.labels)
    verify_kuratowski_witness(witness, g)
    return witness


def verify_kuratowski_witness(witness: SimpleGraph, host: SimpleGraph) -> str:
    """Check that ``witness`` is a subgraph of ``host`` and a subdivision of
    K5 or K_{3,3}; returns "K5" or "K33" accordingly, raises ValueError
    otherwise.

    The witness is smoothed: each degree-2 vertex is replaced by an edge
    between its two neighbours, which must not be adjacent already.  What
    remains must be five vertices of degree 4 (K5), or six of degree 3 with
    no edge inside {v0} plus the non-neighbours of v0 (K_{3,3})."""
    if witness.vertex_count != host.vertex_count:
        raise ValueError("witness must live on the host's vertex set")
    for u, (w, h) in enumerate(zip(witness.adjacency, host.adjacency)):
        if w & ~h:  # rows are symmetric: at the first such u, every such v > u
            v = _bits(w & ~h)[0]
            raise ValueError(f"witness edge {(u, v)} is not an edge of the host graph")
    nbrs = {v: set(witness.neighbors(v)) for v, w in enumerate(witness.adjacency) if w}
    for v in [v for v, a in nbrs.items() if len(a) == 2]:
        a, b = nbrs.pop(v)
        if b in nbrs[a]:
            raise ValueError(f"smoothing vertex {v} gives a second edge between {a} and {b}")
        nbrs[a].remove(v)
        nbrs[a].add(b)
        nbrs[b].remove(v)
        nbrs[b].add(a)
    degrees = sorted(len(a) for a in nbrs.values())
    if degrees == [4] * 5:
        return "K5"
    if degrees != [3] * 6:
        raise ValueError(f"smoothed witness has degrees {degrees}, not those of K5 or K33")
    v0 = min(nbrs)
    side = {v0} | (nbrs.keys() - nbrs[v0] - {v0})
    if any(nbrs[u] & side for u in side):
        raise ValueError("smoothed witness is 3-regular on 6 vertices but not K33")
    return "K33"


def find_isomorphism(g1: SimpleGraph, g2: SimpleGraph) -> dict[int, int] | None:
    """An edge-preserving vertex bijection from g1 to g2, or None.

    On at most six vertices, None unless the sorted degrees agree, else the
    first permutation of the vertices to pass the edge replay; on more, found
    by networkx's VF2++ and replayed edge by edge before being returned.
    """
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    if g1.vertex_count <= _SMALL:
        if sorted(map(int.bit_count, g1.adjacency)) != sorted(map(int.bit_count, g2.adjacency)):
            return None
        maps = (dict(enumerate(images)) for images in permutations(range(g1.vertex_count)))
        return next((m for m in maps if _preserves_edges(g1, g2, m)), None)
    import networkx as nx

    mapping = nx.vf2pp_isomorphism(_to_networkx(g1), _to_networkx(g2))
    if mapping is None:
        return None
    if not _preserves_edges(g1, g2, mapping):
        raise AssertionError("VF2++ produced a non-isomorphism")
    return dict(mapping)


def _preserves_edges(g1: SimpleGraph, g2: SimpleGraph, mapping: dict[int, int]) -> bool:
    """Whether ``mapping`` sends every edge of g1 to an edge of g2: with equal
    edge counts, whether the bijection is an isomorphism."""
    return all(g2.adjacent(mapping[u], mapping[v]) for u, v in g1.edges())


def graphs_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    return find_isomorphism(g1, g2) is not None


def compute_metrics(g: SimpleGraph) -> GraphMetrics:
    """All exact metrics for a graph with at least one vertex.  The
    component count and the diameter are searched in g in place, as
    ``diameter`` does, and the clique number in the twin quotient, both from
    one map of the twin classes' least members; planarity comes from
    ``is_planar``."""
    least = _least_members(g.adjacency)
    q = _twin_quotient(g, least)[0]
    components, diam = _components_and_diameter(g, least)
    return GraphMetrics(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        component_count=components,
        diameter=diam,
        clique_number=_max_clique_size(q),
        planar=is_planar(g),
        isolated_count=len(isolated_vertices(g)),
    )

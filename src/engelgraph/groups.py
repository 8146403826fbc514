"""Finite permutation groups with canonical element indexing.

A :class:`Group` is built from generating permutations in one breadth-first
search over the images of the points they move, as ``bytes`` when fewer
than 256 points move, which enumerates the elements without multiplying
any Permutation; each Cayley row is then one call on an earlier row.  A
group of order at most 256 has ``bytes`` rows, each one ``bytes.translate``,
all composed at construction; a larger group has tuple rows, each one
``itemgetter`` call, composed when first read (``_Rows``), so a group
whose questions are answered in a small Engel core composes few of them.
``Group._set_table`` builds every table, the Engel core's too, from its
generators' rows along a search tree: the construction's, or one over the
rows alone (``_search_tree``).
Every reader indexes a row, so all read alike; a reader that needs every
row completes the table first (``_complete_table``), and one that needs
x -> x z reads the column of z (``_column``), which above order 256 walks
the construction's search tree once, composes no row, and keeps the
column on the table for the next reader.  Elements are indexed in the
order of their image tuples, so building the same group twice, from any
generating set, yields identical indices, reports, and DOT output.
Elements are referred to by index everywhere; an "element set" is a
sorted, duplicate-free tuple of indices, and the elements become
Permutations only when asked for, from the table.

Multiplication is a lookup in the Cayley table, so orders are limited to
``MAX_ORDER`` (4096); larger groups raise ClosureTooLarge.

Subgroup queries work on generators, never on all pairs of members
(Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, ch. 3-4).
A member set is spanned from greedy generators, the members not yet in the
subgroup the earlier ones generate, found by one C-level scan
(``itertools.filterfalse``) that tests each member against the span as it
grows.  The first generator's cyclic group is walked along its Cayley
row, one read per power; every later generator extends the span by
Dimino's coset extension over left cosets x K, each read from x's Cayley
row by one ``itemgetter`` call.  Normal closures conjugate the generators
of the subgroup by ``G.generators``, which generate G; the lower central
series of H conjugates by the generators of H.  Conjugates and commutators
are read from the Cayley table and the inverses directly.  The all-pairs
versions are kept as test oracles.

Conjugacy classes are orbits under conjugation by ``G.generators``
(Holt, Eick and O'Brien, §4.1), walked over one conjugation map per
generator, v -> g^-1 v g, read from the column of g and the inverses
alone, so above order 256 the pass composes no row, and reads the
columns the Engel core walked.  The first class query of any kind
finds every class in one pass that visits the elements in increasing
order, so every class is walked once, from its least member r.  The pass
records, for each element x, r and an element g with r^g = x, in two flat
lists; the conjugation maps are not kept.

A group remembers, in ``G._memo["series"]``, the lower central series of
each subgroup it has computed one for: the sorted member tuple mapped to
the tuple of terms.  A later ``lower_central_series`` or ``is_nilpotent``
on that subgroup reads the terms from there, with no span and no
Cayley-table read; a tuple of members is looked up as given, and sorted
only when it is not found.  An entry is written only once its series has
stabilized, so a set that is not a subgroup is never remembered as one.
The series is formed from generators of H by ``_series``, which
``lower_central_series`` and ``engel.fitting_subgroup`` share, so the
Fitting check forms it from the generators of the one span of L(G) it
makes anyway.

The whole group needs no span: a sorted, duplicate-free member tuple of
|G| indices from 0 to |G| - 1 is G, which ``G.generators`` generate, so
its series starts from them and no member is scanned.  A normal span stops
adjoining conjugates once it holds all of G, and the key of a span of all
of G is ``tuple(range(|G|))``, made with no sort.  Any other subgroup is
spanned afresh by each query whose answer G does not remember.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import compress, count, filterfalse, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ClosureTooLarge, InvalidParameter, NotASubgroup
from .permutations import Permutation

MAX_ORDER = 4096


def _getter(keys: Iterable[int]) -> Callable[[Sequence], tuple]:
    """The map from a sequence to the tuple of its items at ``keys``, for
    any number of keys.  ``itemgetter`` returns a bare item for one key and
    fails for none, so those two cases read a snapshot of the keys taken
    now: a caller may grow its key list afterwards."""
    keys = tuple(keys)
    if len(keys) > 1:
        return itemgetter(*keys)
    if not keys:
        return lambda seq: ()
    (key,) = keys
    return lambda seq: (seq[key],)


class _Rows(dict):
    """The Cayley table of a group above order 256, as a dict from index to
    row: the identity's and the generators' rows are there from the start,
    and any other row is composed when it is first read, by
    ``__missing__``, and kept.  A row already there is read in C, as from a
    list.

    ``steps`` is the table's search tree, (x, j, u) for x = gens[j] * u
    in search order, so u comes before x; row x is u's row read through
    ``gen_rows[j]``, composed along the path from the nearest row already
    there.  ``column(z)`` walks the tree once, one Python step per element,
    reads no row but the generators', and keeps the column in
    ``columns``, where ``_column`` reads it again: the columns of the
    generators that the Engel core walks serve the class pass too."""

    def __init__(self, gen_rows: list[tuple[int, ...]], steps: list[tuple[int, int, int]]):
        self.gen_rows, self.steps = gen_rows, steps
        self.columns: dict[int, list[int]] = {}
        self.parent: list = [None] * (len(steps) + 1)  # x -> its step
        for step in steps:
            self.parent[step[0]] = step
        self[0] = tuple(range(len(self.parent)))
        for row in gen_rows:
            self[row[0]] = row

    def __missing__(self, x: int) -> tuple[int, ...]:
        path = []
        while x not in self:
            path.append(x)
            x = self.parent[x][2]
        row = self[x]
        for x in reversed(path):
            row = self[x] = itemgetter(*row)(self.gen_rows[self.parent[x][1]])
        return row

    def column(self, z: int) -> list[int]:
        """x -> x z: x = g u has x z = g (u z), read from g's row; kept in
        ``columns``."""
        col, rows = [z] * len(self.parent), self.gen_rows
        for x, j, u in self.steps:
            col[x] = rows[j][col[u]]
        self.columns[z] = col
        return col


def _column(G: "Group", z: int) -> list[int]:
    """The column of z in G's Cayley table, x -> x z: when G's rows are
    composed on first read, the column the table keeps, or else one walk
    of the search tree, so no row is composed; otherwise one C-level read
    of every row.  Callers only read the list."""
    table = G._table
    if isinstance(table, _Rows):
        return table.columns[z] if z in table.columns else table.column(z)
    return list(map(itemgetter(z), table))


def _complete_table(G: "Group") -> list:
    """G's Cayley table as a plain list: a table whose rows are composed on
    first read is completed once, and replaces it on G."""
    table = G._table
    if isinstance(table, _Rows):
        table = G._table = list(map(table.__getitem__, range(G.order)))
    return table


def _search_tree(gen_rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, int, int]]:
    """The breadth-first search tree from the identity, at index 0, of the
    group on the indices 0..n-1 generated by the elements whose Cayley rows,
    u -> g u, are ``gen_rows``: (x, j, u) for each other x, first reached
    as x = gens[j] * u, in search order, so u comes before x."""
    reached = [True] + [False] * (n - 1)
    steps, rows = [(0, 0, 0)], list(enumerate(gen_rows))  # a step to the identity, dropped below
    for u, _, _ in steps:  # also visits the steps appended below
        for j, row in rows:
            x = row[u]
            if not reached[x]:
                reached[x] = True
                steps.append((x, j, u))
    del steps[0]
    return steps


class Group:
    """The finite group generated by the given permutations.

    Parameters
    ----------
    generators:
        Generating permutations; duplicates are dropped and the rest kept,
        in the given order, as the indices ``self.generators``, which
        therefore always generate the group.
    name:
        Display name, also used to sort survey reports.

    One breadth-first search over left products ``g * u`` from the
    identity enumerates the elements and, as a by-product, fills the
    Cayley row of every generator.  The search runs on the m points the
    generators move, relabelled 1..m in increasing order, which keeps the
    order of image sequences.  Each generator's product u -> g * u is made
    once, before the search, and the search calls it once per element.
    For m < 256 an element is the ``bytes`` of its images, widened once,
    when first reached, to a translation table, and ``g * u`` is g's
    images translated through it by one ``bytes.translate`` bound to g
    with ``functools.partial``; otherwise an element is a tuple and
    ``g * u`` one ``itemgetter`` call.  Either way no Permutation is
    multiplied.
    Elements are indexed in sorted order, so the identity comes first, at
    index 0.  Every other row follows by associativity, along the search
    tree (``_set_table``): an element first reached as ``x = g * u`` has
    ``x * q = g * (u * q)``, so its row is u's row read through g's.  Up
    to order 256 a byte holds every index, so rows are ``bytes``, x's row
    is one ``bytes.translate`` of u's through g's row, padded once to 256
    bytes, every row is composed here, in search order, and x^-1 is where
    x's row holds the identity.  Above it rows are tuples, x's row is one
    ``itemgetter`` over u's row applied to g's, and the table is a
    ``_Rows`` that composes each row when it is first read, from the
    search tree it keeps; x^-1 = u^-1 * g^-1 is read from the column of
    g^-1 along that tree, so construction composes no row but the
    identity's and the generators'.
    Only the table, the inverses and the generators, ``_gens``, are kept;
    the elements become Permutations, on their original points, only when
    ``elements``, ``perm`` or ``index`` is first used.  Raises
    ClosureTooLarge as soon as more than ``MAX_ORDER`` elements are found.
    """

    def __init__(self, generators: Sequence[Permutation], name: str):
        gens = list(dict.fromkeys(generators))
        moves = [{p: q for p, q in enumerate(g.images, 1) if p != q} for g in gens]
        points = sorted(set().union(*moves))
        label = {p: k for k, p in enumerate(points, 1)}
        relabelled = [[label[move.get(p, p)] for p in points] for move in moves]
        m = len(points)
        # one product per generator, u -> g * u with (g * u)(i) = u(g(i)),
        # applied to u widened by head and pad
        if m < 256:
            # u as a translation table, fixing 0 and the points past m, so
            # g * u is g's images translated through it
            head, pad = b"\0", bytes(range(m + 1, 256))
            products = [partial(bytes.translate, bytes(r)) for r in relabelled]
            identity = bytes(range(1, m + 1))
        else:
            head = pad = ()  # concatenating () returns the tuple itself
            products = [itemgetter(*(i - 1 for i in r)) for r in relabelled]
            identity = tuple(range(1, m + 1))
        # Search-order indices: reached[x] is element x, widened, first
        # reached as gens[j] * reached[u] with j = by[x] and u = up[x];
        # gen_rows[j][u] is the index of gens[j] * reached[u].
        found = {identity: 0}
        reached = [head + identity + pad]
        by, up = [0], [0]
        gen_rows: list[list[int]] = [[] for _ in gens]
        steps = list(enumerate(zip(products, gen_rows)))
        for u, p in enumerate(reached):  # also visits the elements appended below
            for j, (product, gen_row) in steps:
                v = product(p)
                x = found.get(v)
                if x is None:
                    if len(reached) >= MAX_ORDER:
                        raise ClosureTooLarge(
                            f"{name!r} exceeds the limit of {MAX_ORDER} elements"
                        )
                    x = found[v] = len(reached)
                    reached.append(head + v + pad)
                    by.append(j)
                    up.append(u)
                gen_row.append(x)

        self.name = name
        self.order = n = len(reached)
        ordered = sorted(range(n), key=reached.__getitem__)
        del found, reached  # freed before the table, as large, is filled
        rank = [0] * n
        for i, x in enumerate(ordered):
            rank[x] = i
        self._gens: tuple[Permutation, ...] = tuple(gens)
        self._elements: tuple[Permutation, ...] | None = None
        self._index: dict[Permutation, int] | None = None
        self.identity: int = 0
        # Empty until queried: the conjugacy classes with their leader and
        # via lists and their walk, under "classes", written by the first
        # class query; the lower central series of subgroups, under
        # "series"; the Engel core, L(G) and the randomly-Engel answers,
        # written by engel.py, which keeps no Engel depth map
        self._memo: dict = {}
        in_sorted_order = _getter(ordered)
        # (x, j, u) for x = gens[j] * u, in search order, in sorted indices
        steps = list(zip(rank, by, map(rank.__getitem__, up)))
        del by, up, steps[0]  # the identity's
        self._set_table([_getter(in_sorted_order(r))(rank) for r in gen_rows], steps)

    @classmethod
    def _from_generator_rows(cls, gen_rows: Iterable[tuple[int, ...]], name: str) -> "Group":
        """The group on 0..n-1, identity at 0, generated by the elements
        whose Cayley rows, u -> g u, are ``gen_rows``, taken as given and
        kept once each, in order, as its generators; its table is built
        along ``_search_tree`` over them.  It has no permutations:
        ``elements`` is empty, so ``perm`` and ``index`` do not apply."""
        G = cls.__new__(cls)
        gen_rows = list(dict.fromkeys(gen_rows))
        G.name, G.order, G.identity = name, len(gen_rows[0]), 0
        G._elements, G._index, G._gens, G._memo = (), {}, (), {}
        G._set_table(gen_rows, _search_tree(gen_rows, G.order))
        return G

    def __setstate__(self, state: dict) -> None:
        """Restore an unpickled group one attribute at a time, as
        ``__init__`` sets them: an instance dict filled at once, as the
        unpickler fills it by default, made table-heavy queries about 18%
        slower on CPython 3.11."""
        for name, value in state.items():
            setattr(self, name, value)

    def _set_table(self, gen_rows: list[tuple[int, ...]], steps: list[tuple[int, int, int]]) -> None:
        """Set the generators, the Cayley table and the inverses, as the
        class docstring says, from the generators' rows, u -> g u, and a
        search tree over them, (x, j, u) for x = gens[j] * u in search
        order; the row type is picked from the order alone."""
        n = self.order
        # gens[j] = gens[j] * identity, at the identity's place in its row
        self.generators: tuple[int, ...] = tuple(row[0] for row in gen_rows)
        if n <= 256:  # a byte holds every index
            table = [bytes(range(n))] + [None] * (n - 1)
            for row in gen_rows:
                table[row[0]] = bytes(row)
            through = [table[g] + bytes(256 - n) for g in self.generators]  # translate reads 256
            for x, j, u in steps:
                if table[x] is None:
                    table[x] = table[u].translate(through[j])
            self._table: list | _Rows = table
            self._inv = tuple(map(bytes.index, table, repeat(0)))
            return
        self._table = _Rows(gen_rows, steps)
        inv_cols = [_column(self, row.index(0)) for row in gen_rows]
        inv = [0] * n
        for x, j, u in steps:
            inv[x] = inv_cols[j][inv[u]]
        self._inv = tuple(inv)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """The elements as Permutations of the original points, in index
        order, made on first use along the breadth-first tree over the
        generators' Cayley rows (``_search_tree``): an element first
        reached as g u is made as perm(g) * perm(u)."""
        if self._elements is None:
            perms = [Permutation._raw(())] * self.order
            rows = [self._table[g] for g in self.generators]
            for x, j, u in _search_tree(rows, self.order):
                perms[x] = self._gens[j] * perms[u]
            self._elements = tuple(perms)
        return self._elements

    # -- element arithmetic (by index); InvalidParameter for an index
    # outside 0..order-1, which the tables would read from their end --

    def mul(self, i: int, j: int) -> int:
        _check_element(self, i, j)
        return self._table[i][j]

    def inv(self, i: int) -> int:
        _check_element(self, i)
        return self._inv[i]

    def conjugate(self, x: int, y: int) -> int:
        """y^-1 x y."""
        _check_element(self, x, y)
        table = self._table
        return table[table[self._inv[y]][x]][y]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        _check_element(self, x, y)
        table, inv = self._table, self._inv
        return table[table[table[inv[x]][inv[y]]][x]][y]

    def power(self, x: int, k: int) -> int:
        _check_element(self, x)
        if k < 0:
            x, k = self._inv[x], -k
        table, result = self._table, self.identity
        while k:
            if k & 1:
                result = table[result][x]
            x = table[x][x]
            k >>= 1
        return result

    def order_of(self, x: int) -> int:
        _check_element(self, x)
        table, k, y = self._table, 1, x
        while y != self.identity:
            y = table[y][x]
            k += 1
        return k

    def perm(self, i: int) -> Permutation:
        _check_element(self, i)
        return self.elements[i]

    def index(self, p: Permutation) -> int:
        if self._index is None:
            self._index = {q: i for i, q in enumerate(self.elements)}
        idx = self._index.get(p)
        if idx is None:
            raise KeyError(f"{p} is not an element of {self.name!r}")
        return idx

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"


def closure(generators: Sequence[Permutation], name: str | None = None) -> Group:
    """The group generated by a non-empty list of permutations, named
    ``<g1,g2,...>`` unless a name is given."""
    if not generators:
        raise ValueError("generator list must be non-empty")
    if name is None:
        name = "<" + ",".join(str(g) for g in dict.fromkeys(generators)) + ">"
    return Group(generators, name)


class _Span:
    """The subgroup generated by greedy generators of ``members``: each
    member, in increasing order, that is not yet in the span of the earlier
    ones.  The members are scanned once, in C, by ``filterfalse`` over the
    ``members`` set, which sees the set grow as each generator is adjoined.
    Raises InvalidParameter for a member outside 0..order-1.

    ``elements`` lists the span in the order it was reached: the identity,
    the powers s, s^2, ... of the first generator s, then the cosets each
    later generator added.  On the trivial span, ``adjoin(s)`` walks those
    powers along s's row, s^(k+1) = s s^k, one read per power.  Every later
    ``adjoin`` is Dimino's algorithm: the span is kept as a union of left
    cosets x K of the subgroup K it had before the new generator came, so
    only coset representatives are multiplied by the generators, as g x
    read from the generators' Cayley rows; every other new element is a
    product x k with k in K, and the whole coset x K is read from x's row
    by one ``itemgetter`` over K, made once per ``adjoin``.  Adjoining s
    reads one table entry per new element plus one per (new coset,
    generator) pair.
    """

    __slots__ = ("G", "gens", "elements", "members")

    def __init__(self, G: Group, members: Iterable[int] = ()):
        self.G = G
        self.gens: list[int] = []
        self.elements: list[int] = [G.identity]
        self.members: set[int] = {G.identity}
        members = sorted(set(members))
        if members:
            _check_element(G, members[0], members[-1])
        # lazy, so each member is tested against the set adjoin grows in place
        for s in filterfalse(self.members.__contains__, members):
            self.adjoin(s)

    def adjoin(self, s: int) -> None:
        """Grow the span to ``<gens, s>``, for an s outside it: on the
        trivial span, the powers of s read along s's row until they return
        to the identity, with no coset and no queue; otherwise by Dimino's
        coset extension."""
        table, members = self.G._table, self.members
        self.gens.append(s)
        if len(self.gens) == 1:
            row, identity, powers = table[s], self.G.identity, self.elements
            while s != identity:  # s^(k+1) = s s^k, one read per power
                powers.append(s)
                s = row[s]
            members.update(powers)
            return
        coset_of = _getter(self.elements)  # x K, from x's row
        gen_rows = [table[g] for g in self.gens]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if x in members:
                continue
            coset = coset_of(table[x])
            members.update(coset)
            self.elements.extend(coset)
            for row in gen_rows:
                y = row[x]  # g x
                if y not in members:
                    queue.append(y)

    def key(self) -> tuple[int, ...]:
        """The members as a sorted tuple; ``tuple(range(|G|))``, with no
        sort, when the span holds every element of G."""
        n = self.G.order
        return tuple(range(n)) if len(self.elements) == n else tuple(sorted(self.members))


def _check_element(G: Group, *xs: int) -> None:
    """Raise InvalidParameter unless each x indexes an element of G."""
    for x in xs:
        if not 0 <= x < G.order:
            raise InvalidParameter(
                f"element index {x} is outside 0..{G.order - 1} of {G.name!r}"
            )


def _is_whole(G: Group, H: tuple[int, ...]) -> bool:
    """True iff H, a sorted, duplicate-free member tuple, is all of G: |G|
    members from 0 to |G| - 1, so every index once."""
    n = G.order
    return len(H) == n and H[0] == 0 and H[-1] == n - 1


def _subgroup_gens(G: Group, H: tuple[int, ...]) -> Sequence[int] | None:
    """Generators of H, a sorted member tuple, when H is a subgroup of G, or
    None when it is not one.  All of G is generated by ``G.generators``, so
    its members are not scanned.  Any other H is spanned from greedy
    generators; the span contains H and the identity, so H is a subgroup
    exactly when its span has ``len(H)`` elements."""
    if _is_whole(G, H):
        return G.generators
    if G.identity not in H or H[0] < 0 or H[-1] >= G.order:
        return None
    span = _Span(G, H)
    return span.gens if len(span.elements) == len(H) else None


def _normal_span(G: Group, members: Iterable[int], conjugators: Sequence[int]) -> _Span:
    """Smallest subgroup containing ``members`` that each of ``conjugators``
    maps into itself: each generator k of the span, those adjoined on the
    way included, is conjugated by every conjugator, and k^g is adjoined
    when it lies outside.  When the conjugators generate a group H, this is
    the normal closure in H of the members of H.  The search stops once the
    span holds all of G, where no conjugate falls outside, so the
    generators are the same."""
    table, inv, n = G._table, G._inv, G.order
    span = _Span(G, members)
    for k in span.gens:  # also visits the generators adjoined below
        if len(span.elements) == n:
            break
        for g in conjugators:
            c = table[table[inv[g]][k]][g]  # k^g = g^-1 k g
            if c not in span.members:
                span.adjoin(c)
    return span


def subgroup_generated(G: Group, members: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup of G containing ``members``, as sorted indices,
    spanned from greedy generators of the members.  Raises InvalidParameter
    for a member outside 0..order-1, as do ``normal_closure`` and
    ``is_abelian``."""
    return _Span(G, members).key()


def normal_closure(G: Group, members: Iterable[int]) -> tuple[int, ...]:
    """Smallest normal subgroup of G containing ``members``.

    Starts from the subgroup the members generate and conjugates its
    generators by ``G.generators`` only, which generate G, never by all of
    G."""
    return _normal_span(G, members, G.generators).key()


def derived_subgroup(G: Group) -> tuple[int, ...]:
    """The derived subgroup G' = [G, G], computed on each call, as the
    members of ``_derived_span``."""
    return _derived_span(G).key()


def _derived_span(G: Group) -> _Span:
    """The span of G': the normal closure of the commutators [a, b] of pairs
    of ``G.generators``."""
    gens = G.generators
    return _normal_span(G, {G.commutator(a, b) for a in gens for b in gens}, gens)


def is_subgroup(G: Group, members: Iterable[int]) -> bool:
    """True iff the set contains the identity and is closed under products.

    Tested on generators: the subgroup generated by greedy generators of
    the set contains the set and the identity, so the set is a subgroup
    exactly when that span has as many elements.  False for a set with an
    index outside 0..order-1."""
    return _subgroup_gens(G, tuple(sorted(set(members)))) is not None


def is_abelian(G: Group, members: Iterable[int] | None = None) -> bool:
    """True iff the members (all of G by default) commute pairwise.

    Only generators are compared: ``G.generators`` for the whole group,
    greedy generators of the members otherwise.  Generators that commute
    pairwise generate an abelian group, which contains every member."""
    return _commute(G, G.generators if members is None else _Span(G, members).gens)


def _commute(G: Group, gens: Sequence[int]) -> bool:
    """True iff the elements ``gens`` commute pairwise, so that the group
    they generate is abelian."""
    table = G._table
    return all(
        table[a][b] == table[b][a] for i, a in enumerate(gens) for b in gens[i + 1:]
    )


def lower_central_series(G: Group, members: Iterable[int]) -> list[tuple[int, ...]]:
    """Lower central series of the subgroup H on the given indices, computed
    inside G, listed until it stabilizes, as a new list on each call.

    Each term is γ_{i+1} = [γ_i, H], the normal closure in H (conjugating by
    generators of H) of the commutators [x, y] with x over the generators
    of γ_i and y over those of H.  G remembers the series once it has
    stabilized, so a later call on H reads it with no span: a tuple of
    members is looked up as given, since a tuple equal to a remembered
    sorted member tuple is that tuple, and only on a miss are the members
    sorted.  All of G takes ``G.generators`` as H's generators and scans no
    member; any other H is spanned once, to check that it is a subgroup,
    and its greedy generators are H's.  The series is formed from those
    generators by ``_series``.

    Raises NotASubgroup if the member set is not a subgroup of G.
    """
    memo = G._memo.setdefault("series", {})
    if isinstance(members, tuple) and members in memo:
        return list(memo[members])
    H = tuple(sorted(set(members)))
    if H in memo:
        return list(memo[H])
    gens = _subgroup_gens(G, H)
    if gens is None:
        raise NotASubgroup(f"member set of size {len(H)} is not a subgroup of {G.name!r}")
    return _series(G, H, gens)


def _series(G: Group, H: tuple[int, ...], gens: Sequence[int]) -> list[tuple[int, ...]]:
    """The lower central series of the subgroup H, a sorted member tuple,
    from ``gens``, generators of H; read from G's series memo when it holds
    H, and written there otherwise."""
    memo = G._memo.setdefault("series", {})
    if H in memo:
        return list(memo[H])
    table, inv = G._table, G._inv
    series, term_gens = [H], gens
    while True:
        # [x, y] = x^-1 y^-1 x y
        comms = {table[table[table[inv[x]][inv[y]]][x]][y] for x in term_gens for y in gens}
        span = _normal_span(G, comms, gens)
        nxt = span.key()
        if nxt == series[-1]:
            break
        series.append(nxt)
        term_gens = span.gens
    memo[H] = tuple(series)
    return series


def is_nilpotent(G: Group, members: Iterable[int]) -> bool:
    """True iff the lower central series of the subgroup reaches {identity}:
    on a subgroup whose series G remembers, one memo read and no span; on
    all of G, a series formed from ``G.generators`` with no member
    scanned."""
    series = lower_central_series(G, members)
    return series[-1] == (G.identity,)


class _ClassPass(NamedTuple):
    """What the one pass of ``_classes`` leaves on G."""

    leader: list[int]  # the least member of each element's class
    via: list[int]  # for each v, an element t with leader[v]^t = v
    classes: dict[int, tuple[int, ...]]  # each class, sorted, by least member
    walks: dict[int, list[int]]  # each class in the order reached, by least member


def _classes(G: Group) -> _ClassPass:
    """G's conjugacy classes, made on the first class query of any kind by
    one pass, then read from ``G._memo``.

    The pass visits x in increasing order, so each x not yet reached is the
    least member of its class, and the class is walked once, from x, over
    one conjugation map per generator g, v -> g^-1 v g: with h the map
    v -> v^-1 g, the column of g, w -> w g, read at the inverses, it is
    h(h(v)) = (v^-1 g)^-1 g, so two ``itemgetter`` calls make it from the
    column and ``G._inv``, and above order 256 no row is composed.  Each
    member v gets x as ``leader[v]`` and an element t with x^t = v as
    ``via[v]``, the product of the generators on its way from x;
    ``classes[x]`` is the sorted class and ``walks[x]`` the class in the
    order reached, in which each member after x is u^g for some earlier u
    and generator g.  The maps are dropped after the pass."""
    memo = G._memo.get("classes")
    if memo is None:
        n, at_inv = G.order, _getter(G._inv)
        conjugation = []  # per generator g, w -> w g and v -> g^-1 v g
        for g in G.generators:
            col = _column(G, g)
            half = at_inv(col)  # v -> v^-1 g, so half[half[v]] = g^-1 v g
            conjugation.append((col, _getter(half)(half)))
        leader, via, classes, walks = [-1] * n, [G.identity] * n, {}, {}
        for x in range(n):
            if leader[x] >= 0:
                continue
            leader[x], orbit = x, [x]
            for u in orbit:  # also visits the members appended below
                t = via[u]
                for col, conj in conjugation:
                    v = conj[u]  # u^g
                    if leader[v] < 0:
                        leader[v] = x
                        via[v] = col[t]  # x^(t g) = u^g
                        orbit.append(v)
            classes[x] = tuple(sorted(orbit))
            walks[x] = orbit
        memo = G._memo["classes"] = _ClassPass(leader, via, classes, walks)
    return memo


def conjugacy_class(G: Group, x: int) -> tuple[int, ...]:
    """Orbit of x under conjugation, as sorted indices, from ``_classes``.
    Raises InvalidParameter for an x outside 0..order-1."""
    _check_element(G, x)
    memo = _classes(G)
    return memo.classes[memo.leader[x]]


def conjugacy_classes(G: Group) -> list[tuple[int, ...]]:
    """All conjugacy classes, ordered by least member, as a new list on each
    call, from ``_classes``."""
    return list(_classes(G).classes.values())


def centralizer(G: Group, x: int) -> tuple[int, ...]:
    """The elements g with g x = x g, as sorted indices, read from the
    Cayley rows of g and of x.  Raises InvalidParameter for an x outside
    0..order-1."""
    _check_element(G, x)
    return tuple(compress(count(), map(eq, _column(G, x), G._table[x])))

"""Engel sequences, Engel element classification, and the Fitting subgroup.

The iterated commutator [a,_k x] is defined by [a,_0 x] = a and
[a,_k x] = [[a,_{k-1} x], x].  For fixed x the map y -> [y, x] is a
deterministic self-map of a finite group, so every question about the Engel
sequence of (a, x) is a question about the functional graph of that map,
and one walk answers them all.  ``_walk`` follows z -> [z, x] from each
start until it meets an element already mapped, and maps every element met,
in one list of |G| entries, to its depth, the least k with [z,_k x] = 1,
or to -1 when the sequence never reaches the identity.  ``engel_depths``
walks from every element; the pointwise tests and the set predicates walk
from the elements asked about only.  No walk is kept: each reader drops
its map when it is done.  The test suite cross-checks the walks against a
reverse breadth-first search from the identity and against direct
iteration of the commutator map.

Whether x is left Engel, or left k-Engel, asks only where the whole map
leads, so it is read from the images S_k = {[a,_k x] : a in G}.
S_1 = {(x^-1)^a x} = (x^-1)^G x comes from x's conjugacy class, and
S_{k+1} = [S_k, x] lies in S_k, since S_2 = [S_1, x] lies in [G, x] = S_1.
So the walks from S_1 stay in S_1: x is left Engel exactly when every
member of S_1 reaches 1, and left k-Engel exactly when each does in fewer
than k steps.  That reads one table entry per member of S_1, where a walk
from every element reads all of G.

Conjugation is an automorphism of the relation: [a^g,_k x^g] = [a,_k x]^g,
so depth_{x^g}[a^g] = depth_x[a].  L(G) is therefore decided at the least
member r of each conjugacy class only, and the Engel graph walks from
every element for those r outside L only.  The randomly-Engel check walks
from the members of r's class only.
``_core_rows`` decides adjacency only at r, reading each vertex
y = s^h as its class's least member s and h from the one pass that finds
all of G's classes at its first class query (``groups._classes``), and
carries r's list to the rest of r's class in the order that pass walked
it, one generator's conjugation map at a time.  The list is of r's
non-neighbours: the Engel graphs measured are dense (74% to 100% of all
pairs on the large groups), so it is the shorter one.

L(G), the Engel graph and the randomly-Engel check read only whether a
sequence reaches 1, and that is decided in the Engel core C = G/Z*(G), the
quotient by the hypercentre (``_engel_core``, built in one step from G's
generator rows and columns, so above order 256, where G's rows are composed
on first read, it composes no other row of G; C's table is built by the
code that builds G's, from C's generator rows, and when the centre is
trivial C is G; either way C's table is completed before any walk):
[Z_i, G] lies in Z_{i-1}, so a sequence reaches 1 in G exactly when
its image does in C, whose centre is trivial.  L(G) is the preimage of
L(C), E_G is E_C with each vertex replaced by the pairwise non-adjacent
members of its coset, and the randomly-Engel check of x is read in C.
Z*(G) lies in the Fitting subgroup (Baer, 1957), so nothing Engel is lost.
Exact depths do not transfer, since the depth in G exceeds the depth in C
by up to the length of the upper central series, so ``engel_depths`` and
the pointwise tests stay on G.

Groups share their Engel core.  C's table, inverses and generators are a
function of C's generator rows, so the cores of order at most 256 are kept
in one process-wide cache keyed by those rows (``_shared_core``), and every
group whose core has the same rows, such as H x C_k for k = 2, 3, ..., or
D12, Dic3, D24, Dic6 and D12 x C2, reads one C.  C is its own core, since G/Z*(G) has
a trivial centre, and it keeps what is decided in it: its class pass, L(C),
its randomly-Engel answers and E_C's non-neighbour lists.  Each G reads
them only through its own projection onto C, so what one group asked of C
answers the next.  A group with a trivial centre is its own core and keeps
the same on its own memo, so E_C's lists have one maker, ``_core_rows``,
whether C is G or shared.  The Fitting subgroup's span and series stay on G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, count, islice
from math import lcm
from typing import Iterable, Sequence

from .errors import BaerViolation, PreconditionFailed, SameVertex
from .groups import (
    Group,
    _Rows,
    _check_element,
    _classes,
    _column,
    _complete_table,
    _getter,
    _normal_span,
    _series,
    _subgroup_gens,
    conjugacy_class,
    conjugacy_classes,
    is_abelian,
)


@dataclass(frozen=True)
class EngelOutcome:
    """Result of following one Engel sequence.

    ``steps`` is the smallest k with [a,_k x] = 1 when ``reached`` is true,
    and None otherwise.  k = 0 occurs only for a = identity.
    """

    reached: bool
    steps: int | None = None

    def __post_init__(self):
        if self.reached != (self.steps is not None):
            raise ValueError("steps must be present exactly when reached is true")


def iterated_commutator(G: Group, a: int, x: int, k: int) -> int:
    """[a,_k x]; k = 0 returns a itself.  Raises InvalidParameter for an a
    or x outside 0..order-1."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    _check_element(G, a, x)
    y = a
    for _ in range(k):
        y = G.commutator(y, x)
    return y


def engel_reaches_identity(G: Group, a: int, x: int) -> EngelOutcome:
    """Smallest k with [a,_k x] = 1, or reached=False when the sequence
    never reaches the identity; read from one walk from a.
    Raises InvalidParameter for an a or x outside 0..order-1."""
    _check_element(G, a, x)
    depth = _walk(G, x, (a,))[a]
    return EngelOutcome(True, depth) if depth >= 0 else EngelOutcome(False)


def engel_depths(G: Group, x: int) -> tuple[int, ...]:
    """For every element a, the smallest k with [a,_k x] = 1, or -1 when the
    Engel sequence of (a, x) never reaches the identity.

    The map is one ``_walk`` from every element, and nothing is cached, so
    each call walks again.  Raises InvalidParameter for an x outside
    0..order-1.
    """
    _check_element(G, x)
    return tuple(_walk(G, x, range(G.order)))


def _walk(G: Group, r: int, starts: Iterable[int]) -> list[int | None]:
    """For each z of ``starts`` and each element met on the way, the least
    k with [z,_k r] = 1, or -1 when the Engel sequence z, [z, r],
    [z,_2 r], ... never reaches the identity; None for the elements not met.

    The depths go into a new list of |G| entries.  Each sequence is
    followed until it meets an element already mapped: the identity at
    depth 0, or an element met before.  Its elements are mapped to -1 as
    they are met, so an element of the same walk, which closes a cycle
    without the identity, leaves them all at -1, as one mapped to -1 by an
    earlier walk does; one at depth d gives them the depths d + 1, d + 2,
    ... back to the start.  [z, r] = z^-1 ((r^-1 z) r) is read from the
    row of r^-1."""
    table, inv = G._table, G._inv
    row = table[inv[r]]
    depth: list[int | None] = [None] * G.order
    depth[G.identity] = 0
    for z in starts:
        path = []
        while depth[z] is None:
            depth[z] = -1
            path.append(z)
            z = table[inv[z]][table[row[z]][r]]
        d = depth[z]
        if d >= 0:
            for y in reversed(path):
                d += 1
                depth[y] = d
    return depth


def _engel_degree(G: Group, x: int) -> int | None:
    """The least k >= 1 with S_k = {[a,_k x] : a in G} = {1}, or None when
    no S_k is.

    [a, x] = (x^a)^-1 x, so S_1 is read from the class of x.  S_1 holds the
    identity, [1, x], and the walks from S_1 stay in S_1, so one walk from
    S_1 gives every depth read here; k is one more than the largest depth
    over S_1, and there is none when a member of S_1 never reaches 1.
    Raises InvalidParameter for an x outside 0..order-1."""
    _check_element(G, x)
    table, inv = G._table, G._inv
    images = {table[inv[c]][x] for c in conjugacy_class(G, x)}
    depths = list(map(_walk(G, x, images).__getitem__, images))
    return None if min(depths) < 0 else 1 + max(depths)


def is_left_engel(G: Group, x: int) -> bool:
    """True iff every Engel sequence [a,_k x] reaches the identity."""
    return _engel_degree(G, x) is not None


def is_left_k_engel(G: Group, x: int, k: int) -> bool:
    """True iff [a,_k x] = 1 for every a, with the single exponent k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    degree = _engel_degree(G, x)
    return degree is not None and degree <= k


def _engel_core(G: Group) -> tuple[Group, Sequence[int]]:
    """(C, proj): C = G/Z*(G) for the hypercentre Z*(G), and proj[x] the
    index of xZ* in C; cached on G.  When Z(G) = 1, C is G and proj the
    identity.

    Z_{i+1} is the union of the cosets of Z_i whose least member x has xg
    and gx in one coset of Z_i for each g in ``G.generators``, filtered one
    generator at a time, until no new coset passes.  The last cosets, by
    least member, are C's elements, so no intermediate quotient is built.
    C's generator rows, (gZ*)(rZ*) = (g r)Z*, are read from G's generator
    rows at the representatives r, each once and the identity's left out,
    and C is taken from ``_shared_core`` by those rows, so every group
    whose core has the same rows reads one C and the answers kept on it.

    That is sound because C's table, inverses and generators are a function
    of its generator rows alone (``Group._from_generator_rows`` is
    deterministic), C is its own core, as G/Z*(G) has a trivial centre, and
    G reads C only through its own ``proj``.  Cores above order 256 are
    built for G alone, by the same function uncached.

    When G's rows are composed on first read (above order 256), xg is read
    from the column of g, and each coset x Z_{i+1} is x's orbit under
    right products by generators of Z_{i+1} (``_cosets_by_columns``), so
    no row of G is composed but the identity's and the generators'; G's
    table keeps those columns, which G's class pass reads again.  C's
    table, G's when C is G, is completed here, so no walk composes a row.
    A complete table is read as it is: xg from x's row, for the candidates
    left only, and x Z from x's row at the members of Z, which costs less
    there than columns and orbits do."""
    if "engel_core" not in G._memo:
        table, n = G._table, G.order
        lazy = isinstance(table, _Rows)  # then x g is read from g's column
        proj: Sequence[int] = range(n)
        reps: Sequence[int] = proj  # the cosets of Z_0 = 1, by least member
        span, zcols = {G.identity}, []  # Z_i and the columns of its generators, when lazy
        while True:
            central = reps
            for g in G.generators:
                row_g = table[g]
                if lazy:
                    col = _column(G, g)
                    central = [x for x in central if proj[col[x]] == proj[row_g[x]]]
                else:
                    central = [x for x in central if proj[table[x][g]] == proj[row_g[x]]]
            if len(central) == 1:  # only the identity's coset
                break
            if lazy:
                proj, reps = _cosets_by_columns(G, central, span, zcols)
                continue
            upper = {proj[x] for x in central}
            members = [x for x in range(n) if proj[x] in upper]
            proj, reps = [-1] * n, []
            for x, row in enumerate(table):  # x Z, read from x's row
                if proj[x] < 0:
                    for z in members:
                        proj[row[z]] = len(reps)
                    reps.append(x)
        if len(reps) < n:
            # gZ rZ = (g r)Z: C's generator rows, read from G's at the reps,
            # each once and none of the identity's (g in Z*), so D12 and
            # D12 x C2 key one core; C = 1 keeps the identity's
            at_reps = _getter(reps)
            rows = dict.fromkeys(_getter(at_reps(table[g]))(proj) for g in G.generators)
            rows = tuple(row for row in rows if row[0]) or tuple(rows)
            build = _shared_core if len(reps) <= 256 else _shared_core.__wrapped__
            G._memo["engel_core"] = build(rows), proj
        else:
            G._memo["engel_core"] = None  # C is G, which G's memo must not hold
            _complete_table(G)  # every walk reads G's rows
    core = G._memo["engel_core"]
    return (G, range(G.order)) if core is None else core


@lru_cache(maxsize=16)
def _shared_core(rows: tuple[tuple[int, ...], ...]) -> Group:
    """The Engel core whose generator rows are ``rows``, with its table
    complete and marked as its own core, so no centre filter runs on it;
    one per distinct ``rows`` among the last 16 asked for.  16 is the
    least power of two at which ``survey(120)`` and the catalog groups of
    order at most 96 build as few cores as with no bound (11 and 15; 8
    entries build 14 and 34).  Its name is the same for every group that
    reads it."""
    C = Group._from_generator_rows(rows, "Engel core")
    C._memo["engel_core"] = None
    _complete_table(C)  # every walk reads C's rows
    return C


def _cosets_by_columns(
    G: Group, central: list[int], span: set[int], zcols: list[list[int]]
) -> tuple[list[int], list[int]]:
    """(proj, reps) for the cosets of Z_{i+1}, the union of the cosets of
    Z_i whose least members are ``central``, read from columns only, so
    that no row of G is composed.  ``span`` holds Z_i and ``zcols`` the
    columns of its generators; both grow to Z_{i+1} in place, which is
    generated by Z_i and greedy generators from ``central``.  Each coset x
    Z_{i+1} is x's orbit under right products by those generators, so it is
    walked from its least member, and is numbered in increasing order of
    that member."""
    for z in central:
        if z not in span:
            zcols.append(_column(G, z))
            queue = list(span)
            for y in queue:  # also visits the members appended below
                for col in zcols:
                    if col[y] not in span:
                        span.add(col[y])
                        queue.append(col[y])
    proj, reps = [-1] * G.order, []
    for x in range(len(proj)):
        if proj[x] < 0:
            proj[x], orbit = len(reps), [x]
            for y in orbit:  # also visits the members appended below
                for col in zcols:
                    if proj[col[y]] < 0:
                        proj[col[y]] = proj[x]
                        orbit.append(col[y])
            reps.append(x)
    return proj, reps


def left_engel_set(G: Group) -> tuple[int, ...]:
    """All left Engel elements of G, as sorted indices; cached on the group.

    x is left Engel exactly when its image in the Engel core C = G/Z*(G)
    is, so L(G) is the preimage of L(C), which C keeps.  Each class is
    tested at its least member only, since conjugation preserves the Engel
    relation, and by walks from its commutator images S_1 only."""
    cached = G._memo.get("left_engel_set")
    if cached is None:
        C, proj = _engel_core(G)
        if C is G:
            passing = {q for cls in conjugacy_classes(G) if is_left_engel(G, cls[0]) for q in cls}
        else:
            passing = set(left_engel_set(C))
        cached = tuple(x for x, q in enumerate(proj) if q in passing)
        G._memo["left_engel_set"] = cached
    return cached


def is_engel_group(G: Group) -> bool:
    return len(left_engel_set(G)) == G.order


def fitting_subgroup(G: Group) -> tuple[int, ...]:
    """The Fitting subgroup, obtained as the left Engel set and then
    *verified* to be a subgroup, normal, and nilpotent.

    The verifications are assertions, not assumptions: for finite groups
    they are guaranteed, so a failure raises BaerViolation and means the
    implementation is wrong.  One span decides the first two: the normal
    closure of L, spanned from greedy generators of L whose conjugates by
    ``G.generators`` are adjoined when they fall outside, contains L, so L
    is a normal subgroup exactly when that span has |L| elements.  The
    lower central series of L is then formed from the generators of the
    same span, so L is spanned once per call, and G remembers the series,
    so a later call reads it with no further span.  Only when the span is
    larger is L spanned again, to tell a set that is not a subgroup from a
    subgroup that is not normal.
    """
    L = left_engel_set(G)
    span = _normal_span(G, L, G.generators)
    if len(span.elements) != len(L):
        if _subgroup_gens(G, L) is None:
            raise BaerViolation(f"left Engel set of {G.name!r} is not a subgroup")
        raise BaerViolation(f"left Engel set of {G.name!r} is not normal")
    if _series(G, L, span.gens)[-1] != (G.identity,):
        raise BaerViolation(f"left Engel set of {G.name!r} is not nilpotent")
    return L


def is_randomly_engel_conjugates(G: Group, x: int) -> bool:
    """True iff for every g, at least one of the Engel sequences of
    (x^g, x) and (x, x^g) reaches the identity.

    Read from ``_randomly_engel_answers``, whose first call answers every
    element of G at once and caches the answers on G as one tuple; once
    they are cached, a call is one check of x and one read of that tuple.
    Raises InvalidParameter for an x outside 0..order-1."""
    if not 0 <= x < G.order:
        _check_element(G, x)  # raises
    answers = G._memo.get("randomly_engel")
    if answers is None:
        answers = _randomly_engel_answers(G)
    return answers[x]


def _randomly_engel_answers(G: Group) -> tuple[bool, ...]:
    """``is_randomly_engel_conjugates`` of every element of G, in index
    order, cached on G.

    Read in the Engel core C = G/Z*(G), whose answers C keeps, at the least
    member r of each class of C.  A member y = r^h (h = ``via[y]`` of
    ``groups._classes``) is no Engel neighbour of r when [y,_k r] = 1 or
    [r,_k y] = 1 for some k, and the second is [r^(h^-1),_k r] = 1
    conjugated by h, with r^(h^-1) = h r h^-1 in the class too.  So both
    orientations are sequences of the one map z -> [z, r], walked by
    ``_walk`` from the members of the class only, and the class passes when
    every member reaches 1 or its partner h r h^-1 does."""
    answers = G._memo.get("randomly_engel")
    if answers is None:
        C, proj = _engel_core(G)
        if C is G:
            table, inv = G._table, G._inv
            memo = _classes(G)
            passes = [False] * G.order
            for r, cls in memo.classes.items():
                depth = _walk(G, r, cls)
                partners = (table[table[h][r]][inv[h]] for h in map(memo.via.__getitem__, cls))
                if all(depth[y] >= 0 or depth[p] >= 0 for y, p in zip(cls, partners)):
                    for y in cls:
                        passes[y] = True
            answers = tuple(passes)
        else:
            answers = tuple(map(_randomly_engel_answers(C).__getitem__, proj))
        G._memo["randomly_engel"] = answers
    return answers


def _core_rows(C: Group) -> list[tuple[int, ...]]:
    """For each element of C outside L(C), in increasing order, the
    positions there of its Engel non-neighbours, itself among them; cached
    on C, so every group whose Engel core is C, C itself included, reads
    them.

    Each class is decided at its least member r, by one depth test on every
    vertex y = s^h, where depth_y[r] = depth_s[r^(h^-1)], read from one walk
    from every element for each such r and s.  Conjugation by a
    generator t preserves the relation, so it maps the list of u to that of
    u^t.  The other members come in the order the class was walked in
    ``groups._classes``, so each member v is u^t for some generator t and
    some u listed before it, found as u = t v t^-1, and gets u's list mapped
    by t's conjugation map on positions in one ``itemgetter`` call.  A list
    not yet made is empty, since every list holds its own vertex."""
    rows = C._memo.get("engel_rows")
    if rows is None:
        table, inv = C._table, C._inv
        memo = _classes(C)
        leader, via = memo.leader, memo.via
        L = set(left_engel_set(C))
        vertices = [x for x in range(C.order) if x not in L]
        at = [-1] * C.order  # at[y] is the position of y
        for i, y in enumerate(vertices):
            at[y] = i
        where = [(leader[y], via[y]) for y in vertices]  # (s, h) with s^h = y
        depth_of = {s: _walk(C, s, range(C.order)) for s in dict.fromkeys(s for s, _ in where)}
        rows = [()] * len(vertices)
        steps: list[tuple[int, list[int]]] | None = None  # built when a row is first mapped
        for r, depth_r in depth_of.items():
            nonadjacent = [depth_r[y] >= 0 or depth_of[s][table[table[h][r]][inv[h]]] >= 0
                           for y, (s, h) in zip(vertices, where)]
            rows[at[r]] = tuple(compress(count(), nonadjacent))
            for v in islice(memo.walks[r], 1, None):
                if steps is None:  # for each generator t, the position of y^t = t^-1 (y t)
                    steps = [(t, [at[table[inv[t]][table[y][t]]] for y in vertices])
                             for t in C.generators]
                for t, step in steps:
                    u = table[table[t][v]][inv[t]]
                    if rows[at[u]]:
                        break
                rows[at[v]] = _getter(rows[at[u]])(step)
        C._memo["engel_rows"] = rows
    return rows


def is_engel_set(G: Group, members: Iterable[int]) -> bool:
    """True iff every ordered pair (x, y) of members has [x,_k y] = 1 for
    some k.  Raises InvalidParameter for a member outside 0..order-1."""
    ms = sorted(set(members))
    _check_element(G, *ms)
    return all(min(map(_walk(G, y, ms).__getitem__, ms)) >= 0 for y in ms)


def is_randomly_engel_set(G: Group, members: Iterable[int]) -> bool:
    """True iff every pair {x, y} of members vanishes in at least one
    orientation: [x,_k y] = 1 or [y,_k x] = 1 for some k.  Raises
    InvalidParameter for a member outside 0..order-1."""
    ms = sorted(set(members))
    _check_element(G, *ms)
    depth = {y: _walk(G, y, ms) for y in ms}
    return all(depth[y][x] >= 0 or depth[x][y] >= 0 for x, y in combinations(ms, 2))


def engel_adjacent(G: Group, x: int, y: int) -> bool:
    """Engel-graph adjacency: neither [x,_k y] nor [y,_k x] ever equals 1.
    Raises InvalidParameter for an x or y outside 0..order-1."""
    _check_element(G, x, y)
    if x == y:
        raise SameVertex(f"adjacency needs two distinct elements, got index {x} twice")
    return _walk(G, y, (x,))[x] < 0 and _walk(G, x, (y,))[y] < 0


def lcm_power_engel_check(G: Group, a: int, g: int, ts: Sequence[int]) -> bool:
    """Check the abelian-normal-closure collapse: when the normal closure of
    <a> in <a, g> is abelian and [a, g^t1, ..., g^tk] = 1, the iterated
    Engel word [a,_k g^m] with m = lcm(ts) must also be trivial.

    Both hypotheses are verified here rather than trusted (the implication
    is vacuous otherwise); PreconditionFailed identifies the one that does
    not hold.  A correct implementation returns True whenever the
    hypotheses pass.  Raises InvalidParameter for an a or g outside
    0..order-1.
    """
    ts = list(ts)
    if not ts or any(t < 1 for t in ts):
        raise ValueError(f"ts must be a non-empty list of positive integers, got {ts}")
    _check_element(G, g)
    # The normal closure of <a> in <a, g>: conjugation by a maps every
    # subgroup containing a into itself, so conjugating by g alone suffices.
    ncl = _normal_span(G, [a], [g])
    if not is_abelian(G, ncl.gens):
        raise PreconditionFailed(
            "hypothesis failed: the normal closure of <a> in <a,g> is not abelian"
        )
    c = a
    for t in ts:
        c = G.commutator(c, G.power(g, t))
    if c != G.identity:
        raise PreconditionFailed(
            f"hypothesis failed: [a, g^t1, ..., g^tk] is not the identity for ts={ts}"
        )
    m = lcm(*ts)
    return iterated_commutator(G, a, G.power(g, m), len(ts)) == G.identity

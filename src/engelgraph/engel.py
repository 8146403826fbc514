"""Engel sequences, Engel element classification, and the Fitting subgroup.

The iterated commutator [a,_k x] is defined by [a,_0 x] = a and
[a,_k x] = [[a,_{k-1} x], x].  For fixed x the map y -> [y, x] is a
deterministic self-map of a finite group, so every question about the Engel
sequence of (a, x) is a question about the functional graph of that map:
``engel_depths`` computes, in one reverse breadth-first search from the
identity, the least k with [a,_k x] = 1 for every a at once.  Every Engel
question here, pointwise ones included, reads those depth maps; the test
suite cross-checks them against direct iteration of the commutator map.

Conjugation is an automorphism of the relation: [a^g,_k x^g] = [a,_k x]^g,
so depth_{x^g}[a^g] = depth_x[a].  A map is therefore built only for the
least member r of each conjugacy class.  For x = r^g, with g read from the
transversal that ``groups.conjugacy_class`` records, depth_x[a] is
depth_r[a^(g^-1)], one lookup.  L(G), the Engel graph and the
randomly-Engel check read only representatives' maps.

Those three read only whether a sequence reaches 1, and that is decided in
G/Z(G): for a central z, [y,_k x] in Z(G) gives [y,_{k+1} x] = 1.  So when
Z(G) != 1 they are read from the quotient Q = G/Z(G) (``_centre_quotient``),
recursively, so Q reduces by Z(Q) in turn: L(G) is the preimage of L(Q),
x and y are Engel-adjacent in G exactly when xZ and yZ are in Q, and the
randomly-Engel check of x is that of xZ.  Z(G) lies in the Fitting
subgroup (Baer, 1957), so nothing Engel is lost.  Exact depths do not
transfer, since the depth in G is d or d + 1 for the depth d in Q, so
``engel_depths`` and everything read from it stay on G.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .errors import BaerViolation, PreconditionFailed, SameVertex
from .groups import (
    Group,
    _normal_span,
    _subgroup_span,
    _transversal,
    conjugacy_class,
    conjugacy_classes,
    is_abelian,
    is_nilpotent,
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
    """[a,_k x]; k = 0 returns a itself."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    y = a
    for _ in range(k):
        y = G.commutator(y, x)
    return y


def engel_reaches_identity(G: Group, a: int, x: int) -> EngelOutcome:
    """Smallest k with [a,_k x] = 1, or reached=False when the sequence
    never reaches the identity; read from the Engel depth map of x."""
    depth = engel_depths(G, x)[a]
    return EngelOutcome(True, depth) if depth >= 0 else EngelOutcome(False)


def engel_depths(G: Group, x: int) -> tuple[int, ...]:
    """For every element a, the smallest k with [a,_k x] = 1, or -1 when the
    Engel sequence of (a, x) never reaches the identity.

    For the least member r of its conjugacy class the map is computed for
    all a at once, by reverse BFS from the identity in the functional graph
    of y -> [y, x].  Any other x = r^g gets r's map relabelled,
    depth_x[a] = depth_r[a^(g^-1)], with no commutators.  Each map is built
    once per group and cached on it.
    """
    key = ("engel_depths", x)
    cached = G._memo.get(key)
    if cached is None:
        r, g = _transversal(G, x)
        if r == x:
            cached = _depth_map(G, x)
        else:
            depth_r, table, g_inv = engel_depths(G, r), G._table, G._inv[g]
            cached = tuple(depth_r[table[b][g_inv]] for b in table[g])
        G._memo[key] = cached
    return cached


def _depth_map(G: Group, x: int) -> tuple[int, ...]:
    n, table, inv = G.order, G._table, G._inv
    # [y, x] = y^-1 * y^x, with y^x = (x^-1 y) x read from the row of x^-1
    step = [table[iy][table[u][x]] for iy, u in zip(inv, table[inv[x]])]
    preimages: list[list[int]] = [[] for _ in range(n)]
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


def is_left_engel(G: Group, x: int) -> bool:
    """True iff every Engel sequence [a,_k x] reaches the identity."""
    return all(d >= 0 for d in engel_depths(G, _transversal(G, x)[0]))


def is_left_k_engel(G: Group, x: int, k: int) -> bool:
    """True iff [a,_k x] = 1 for every a, with the single exponent k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return all(0 <= d <= k for d in engel_depths(G, _transversal(G, x)[0]))


def _centre_quotient(G: Group) -> tuple[Group, list[int]] | None:
    """None when the centre Z of G is trivial; otherwise (Q, proj) with Q
    the group G/Z and proj[x] the index of xZ in Q; cached on G.

    Z is the set of elements that commute with ``G.generators``.  Q's
    elements are the cosets in order of least member, so the identity's
    coset comes first, and its Cayley table is read from G's table over
    those least members."""
    if "centre_quotient" not in G._memo:
        table, centre = G._table, range(G.order)
        for g in G.generators:
            row_g = table[g]
            centre = [x for x in centre if table[x][g] == row_g[x]]
        quotient = None
        if len(centre) > 1:
            proj, reps = [-1] * G.order, []
            for x, row in enumerate(table):
                if proj[x] < 0:
                    for z in centre:
                        proj[row[z]] = len(reps)
                    reps.append(x)
            rows = [[proj[row[s]] for s in reps] for row in map(table.__getitem__, reps)]
            Q = Group._from_table(rows, [proj[g] for g in G.generators], f"{G.name}/Z")
            quotient = Q, proj
        G._memo["centre_quotient"] = quotient
    return G._memo["centre_quotient"]


def left_engel_set(G: Group) -> tuple[int, ...]:
    """All left Engel elements of G, as sorted indices; cached on the group.

    When Z(G) != 1 this is the preimage of L(G/Z(G)): x is left Engel
    exactly when xZ is.  Otherwise each class is tested at its least member
    only, since the map of any other member relabels that member's map, and
    L(G) is the union of the classes that pass."""
    cached = G._memo.get("left_engel_set")
    if cached is None:
        quotient = _centre_quotient(G)
        if quotient is None:
            cached = tuple(sorted(
                x for cls in conjugacy_classes(G) if is_left_engel(G, cls[0]) for x in cls
            ))
        else:
            Q, proj = quotient
            members = set(left_engel_set(Q))
            cached = tuple(x for x, q in enumerate(proj) if q in members)
        G._memo["left_engel_set"] = cached
    return cached


def is_engel_group(G: Group) -> bool:
    return len(left_engel_set(G)) == G.order


def fitting_subgroup(G: Group) -> tuple[int, ...]:
    """The Fitting subgroup, obtained as the left Engel set and then
    *verified* to be a subgroup, normal, and nilpotent.

    The verifications are assertions, not assumptions: for finite groups
    they are guaranteed, so a failure raises BaerViolation and means the
    implementation is wrong.  They run on every call; only L(G) itself
    is cached.  Normality is checked on generators: the greedy generators
    of L conjugated by ``G.generators``, which generate G.  A subgroup that
    each generator of G maps into itself is normal.
    """
    L = left_engel_set(G)
    span = _subgroup_span(G, L)
    if span is None:
        raise BaerViolation(f"left Engel set of {G.name!r} is not a subgroup")
    for g in G.generators:
        if any(G.conjugate(a, g) not in span.members for a in span.gens):
            raise BaerViolation(f"left Engel set of {G.name!r} is not normal")
    if not is_nilpotent(G, L):
        raise BaerViolation(f"left Engel set of {G.name!r} is not nilpotent")
    return L


def is_randomly_engel_conjugates(G: Group, x: int) -> bool:
    """True iff for every g, at least one of the Engel sequences of
    (x^g, x) and (x, x^g) reaches the identity.

    When Z(G) != 1 it is the answer for xZ in G/Z(G), since a sequence
    reaches 1 in G exactly when its image does in the quotient.  Otherwise
    the answer is the same for every member of x's class, so it is read
    from the map of its least member r alone: for y = r^t in the class,
    depth_y[r] = depth_r[r^(t^-1)]."""
    quotient = _centre_quotient(G)
    if quotient is not None:
        Q, proj = quotient
        return is_randomly_engel_conjugates(Q, proj[x])
    r = _transversal(G, x)[0]
    depth_r, table, inv = engel_depths(G, r), G._table, G._inv
    for y in conjugacy_class(G, r):
        t = _transversal(G, y)[1]
        if depth_r[y] < 0 and depth_r[table[table[t][r]][inv[t]]] < 0:
            return False
    return True


def is_engel_set(G: Group, members: Iterable[int]) -> bool:
    """True iff every ordered pair (x, y) of members has [x,_k y] = 1 for
    some k."""
    ms = sorted(set(members))
    return all(engel_depths(G, y)[x] >= 0 for x in ms for y in ms)


def is_randomly_engel_set(G: Group, members: Iterable[int]) -> bool:
    """True iff every pair {x, y} of members vanishes in at least one
    orientation: [x,_k y] = 1 or [y,_k x] = 1 for some k."""
    ms = sorted(set(members))
    for i, x in enumerate(ms):
        for y in ms[i:]:
            if engel_depths(G, y)[x] < 0 and engel_depths(G, x)[y] < 0:
                return False
    return True


def engel_adjacent(G: Group, x: int, y: int) -> bool:
    """Engel-graph adjacency: neither [x,_k y] nor [y,_k x] ever equals 1."""
    if x == y:
        raise SameVertex(f"adjacency needs two distinct elements, got index {x} twice")
    return engel_depths(G, y)[x] < 0 and engel_depths(G, x)[y] < 0


def lcm_power_engel_check(G: Group, a: int, g: int, ts: Sequence[int]) -> bool:
    """Check the abelian-normal-closure collapse: when the normal closure of
    <a> in <a, g> is abelian and [a, g^t1, ..., g^tk] = 1, the iterated
    Engel word [a,_k g^m] with m = lcm(ts) must also be trivial.

    Both hypotheses are verified here rather than trusted (the implication
    is vacuous otherwise); PreconditionFailed identifies the one that does
    not hold.  A correct implementation returns True whenever the
    hypotheses pass.
    """
    ts = list(ts)
    if not ts or any(t < 1 for t in ts):
        raise ValueError(f"ts must be a non-empty list of positive integers, got {ts}")
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

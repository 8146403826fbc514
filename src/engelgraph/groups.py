"""Finite permutation groups with canonical element indexing.

A :class:`Group` stores its elements sorted by image tuple, so building the
same set of permutations twice yields identical indices, reports, and DOT
output.  Elements are referred to by index everywhere; an "element set" is a
sorted, duplicate-free tuple of indices.

Multiplication is a lookup in a full Cayley table, so orders are limited to
``MAX_ORDER`` (4096); larger groups raise ClosureTooLarge.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import ClosureTooLarge, NotASubgroup
from .permutations import IDENTITY, Permutation

MAX_ORDER = 4096


class Group:
    """A finite group of permutations, closed under product and inverse.

    Parameters
    ----------
    elements:
        The full element list, at most ``MAX_ORDER`` of them (more raise
        ClosureTooLarge).  Closure is verified while the Cayley table is
        built (a product falling outside the set raises ValueError).
    name:
        Display name, also used to sort survey reports.
    generators:
        Optional generating permutations, kept in the given order.  When
        omitted, all elements are taken as generators.  Supplying a small
        generating set makes table construction O(n^2) instead of O(n^2 d):
        only generator rows are composed from permutations, and every other
        row is derived through associativity.
    """

    def __init__(
        self,
        elements: Iterable[Permutation],
        name: str,
        generators: Sequence[Permutation] | None = None,
    ):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group needs at least the identity element")
        if len(elems) > MAX_ORDER:
            raise ClosureTooLarge(
                f"{name!r} has {len(elems)} elements, above the limit of {MAX_ORDER}"
            )
        self.name = name
        self.elements: tuple[Permutation, ...] = tuple(elems)
        self.order = len(elems)
        self._index = {p: i for i, p in enumerate(self.elements)}
        if IDENTITY not in self._index:
            raise ValueError("element set does not contain the identity")
        self.identity: int = self._index[IDENTITY]

        if generators is None:
            gen_perms = list(self.elements)
        else:
            gen_perms = list(generators)
        gens: list[int] = []
        for g in gen_perms:
            idx = self._index.get(g)
            if idx is None:
                raise ValueError(f"generator {g} is not in the element list")
            if idx not in gens:
                gens.append(idx)
        self.generators: tuple[int, ...] = tuple(gens) or (self.identity,)

        self._table = self._build_table()
        self._inv = tuple(row.index(self.identity) for row in self._table)
        # Engel depth maps and L(G); read and written only by engel.py
        self._memo: dict = {}

    # -- construction internals --

    def _compose_row(self, i: int) -> list[int]:
        p = self.elements[i]
        row = []
        for q in self.elements:
            idx = self._index.get(p * q)
            if idx is None:
                raise ValueError(
                    f"element set of {self.name!r} is not closed: {p} * {q} missing"
                )
            row.append(idx)
        return row

    def _build_table(self) -> list[list[int]]:
        n = self.order
        rows: list[list[int] | None] = [None] * n
        rows[self.identity] = list(range(n))
        for g in self.generators:
            if rows[g] is None:
                rows[g] = self._compose_row(g)
        # Derive the remaining rows along a Cayley-graph BFS from the known
        # rows: if x = u*g with rows for u and g known, then x*q = u*(g*q).
        queue = deque(dict.fromkeys((self.identity, *self.generators)))
        while queue:
            u = queue.popleft()
            row_u = rows[u]
            for g in self.generators:
                x = row_u[g]
                if rows[x] is None:
                    rows[x] = [row_u[k] for k in rows[g]]
                    queue.append(x)
        for i in range(n):
            if rows[i] is None:  # generators do not span; fall back per row
                rows[i] = self._compose_row(i)
        return rows  # type: ignore[return-value]

    # -- element arithmetic (by index) --

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conjugate(self, x: int, y: int) -> int:
        """y^-1 x y."""
        return self.mul(self.mul(self._inv[y], x), y)

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return self.mul(self.mul(self.mul(self._inv[x], self._inv[y]), x), y)

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[x], -k)
        result = self.identity
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def order_of(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul(y, x)
            k += 1
        return k

    def perm(self, i: int) -> Permutation:
        return self.elements[i]

    def index(self, p: Permutation) -> int:
        idx = self._index.get(p)
        if idx is None:
            raise KeyError(f"{p} is not an element of {self.name!r}")
        return idx

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"


def closure(
    generators: Sequence[Permutation],
    name: str | None = None,
    *,
    cap: int = MAX_ORDER,
) -> Group:
    """The group generated by the given permutations, by breadth-first
    enumeration of right products.

    Raises ClosureTooLarge once more than ``cap`` elements have been found;
    ``cap`` can only lower the limit, never raise it above ``MAX_ORDER``.
    """
    if not generators:
        raise ValueError("generator list must be non-empty")
    gens = list(dict.fromkeys(generators))
    cap = min(cap, MAX_ORDER)
    seen = {IDENTITY}
    queue = deque([IDENTITY])
    while queue:
        u = queue.popleft()
        for g in gens:
            v = u * g
            if v not in seen:
                if len(seen) >= cap:
                    raise ClosureTooLarge(
                        f"closure exceeded the limit of {cap} elements"
                    )
                seen.add(v)
                queue.append(v)
    if name is None:
        name = "<" + ",".join(str(g) for g in gens) + ">"
    return Group(seen, name, generators=gens)


def subgroup_generated(G: Group, members: Iterable[int]) -> tuple[int, ...]:
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


def normal_closure(G: Group, members: Iterable[int]) -> tuple[int, ...]:
    """Smallest normal subgroup of G containing ``members``: the subgroup
    generated by all conjugates of the members."""
    conjugates = {
        G.conjugate(s, g) for s in set(members) for g in range(G.order)
    }
    return subgroup_generated(G, conjugates)


def derived_subgroup(G: Group) -> tuple[int, ...]:
    """Subgroup generated by all commutators [x, y], computed on each call."""
    comms = {G.commutator(x, y) for x in range(G.order) for y in range(G.order)}
    return subgroup_generated(G, comms)


def is_subgroup(G: Group, members: Iterable[int]) -> bool:
    """True iff the set contains the identity and is closed under products."""
    ms = set(members)
    if G.identity not in ms:
        return False
    if any(not 0 <= m < G.order for m in ms):
        return False
    return all(G.mul(a, b) in ms for a in ms for b in ms)


def is_abelian(G: Group, members: Iterable[int] | None = None) -> bool:
    ms = sorted(set(members)) if members is not None else range(G.order)
    return all(G.mul(a, b) == G.mul(b, a) for a in ms for b in ms)


def lower_central_series(G: Group, members: Iterable[int]) -> list[tuple[int, ...]]:
    """Lower central series of the subgroup H on the given indices, computed
    inside G, listed until it stabilizes.

    Raises NotASubgroup if the member set is not a subgroup of G.
    """
    H = tuple(sorted(set(members)))
    if not is_subgroup(G, H):
        raise NotASubgroup(f"member set of size {len(H)} is not a subgroup of {G.name!r}")
    series = [H]
    current = H
    while True:
        comms = {G.commutator(a, h) for a in current for h in H}
        nxt = subgroup_generated(G, comms)
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
    return series


def is_nilpotent(G: Group, members: Iterable[int]) -> bool:
    """True iff the lower central series of the subgroup reaches {identity}."""
    series = lower_central_series(G, members)
    return series[-1] == (G.identity,)


def conjugacy_class(G: Group, x: int) -> tuple[int, ...]:
    """Orbit of x under conjugation, as sorted indices."""
    seen = {x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for g in G.generators:
            v = G.conjugate(u, g)
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return tuple(sorted(seen))


def conjugacy_classes(G: Group) -> list[tuple[int, ...]]:
    """All conjugacy classes, ordered by least member, as a new list on each
    call."""
    classes = []
    assigned: set[int] = set()
    for x in range(G.order):
        if x not in assigned:
            cls = conjugacy_class(G, x)
            assigned.update(cls)
            classes.append(cls)
    return classes


def centralizer(G: Group, x: int) -> tuple[int, ...]:
    return tuple(g for g in range(G.order) if G.mul(g, x) == G.mul(x, g))

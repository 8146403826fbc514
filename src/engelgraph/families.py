"""The built-in group families, one ``Family`` row each in ``FAMILIES``,
their constructors and direct products.  The spec parser, the constructors
and the survey catalog all read the rows.  Dihedral groups are named by
ORDER (``D12`` has 12 elements), dicyclic groups by a quarter of it
(``Dic3`` has 12: x^(2n) = 1, y^2 = x^n, x^y = x^-1).

A row holds its family's generating permutations, and every group made
here is one generator list handed to one :class:`Group`, which enumerates
the elements; a product shifts its factors' generators onto disjoint
points, so no factor group is built.  The dihedral and dicyclic
generators are x and y in the regular permutation representation, read
off the normal-form multiplication of words x^i y^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ClosureTooLarge, InvalidParameter
from .groups import MAX_ORDER, Group, closure
from .permutations import IDENTITY, Permutation


@dataclass(frozen=True)
class Family:
    """A family's spec code, its valid numbers ``least``, ``least + step``,
    ..., the group order for a number, the first number the survey catalog
    takes (None: the family enters the catalog only as a product factor),
    and the generators for a number."""

    code: str
    least: int
    step: int
    order: Callable[[int], int]
    catalog_least: int | None
    generators: Callable[[int], list[Permutation]]

    def check(self, n: int) -> None:
        """Raise InvalidParameter unless ``n`` is a valid number."""
        if n < self.least or (n - self.least) % self.step:
            valid = ", ".join(str(self.least + k * self.step) for k in range(3))
            raise InvalidParameter(f"{self.code}<n> needs n in {valid}, ..., got {n}")


def _regular_representation(m: int, c: int) -> list[Permutation]:
    """x and y of <x, y | x^m = 1, y^2 = x^c, x^y = x^-1> as permutations
    of its words x^i y^j."""
    forms = [(i, j) for j in (0, 1) for i in range(m)]
    pos = {w: k for k, w in enumerate(forms)}

    def mul(a, b):
        i1, j1 = a
        i2, j2 = b
        i = i1 + (-i2 if j1 else i2) + (c if j1 and j2 else 0)
        return pos[i % m, (j1 + j2) % 2]

    # Right-regular action: each generating word w becomes the permutation
    # of word positions sending u to u*w.  With left-to-right composition
    # this is a faithful homomorphism.
    x, y = (1, 0), (0, 1)
    return [Permutation(mul(u, w) + 1 for u in forms) for w in (x, y)]


def _cycle(n: int) -> Permutation:
    return Permutation.from_cycles([range(1, n + 1)])


FAMILIES = {
    "symmetric": Family(
        "S", 1, 1, math.factorial, 3,
        lambda n: [Permutation.from_cycles([[1, 2]]), _cycle(n)] if n > 1 else [IDENTITY],
    ),
    "alternating": Family(
        "A", 2, 1, lambda n: math.factorial(n) // 2, 4,
        lambda n: [Permutation.from_cycles([[1, 2, k]]) for k in range(3, n + 1)] or [IDENTITY],
    ),
    "cyclic": Family("C", 1, 1, lambda n: n, None, lambda n: [_cycle(n)]),
    # D6..D10 stay out of the catalog: D6 duplicates S3
    "dihedral": Family(
        "D", 6, 2, lambda n: n, 12, lambda n: _regular_representation(n // 2, 0)
    ),
    "dicyclic": Family(
        "Dic", 2, 1, lambda n: 4 * n, 2, lambda n: _regular_representation(2 * n, n)
    ),
}


def family_generators(kind: str, n: int) -> list[Permutation]:
    """The generators of a family's group for a valid number ``n``."""
    FAMILIES[kind].check(n)
    return FAMILIES[kind].generators(n)


def family_group(kind: str, n: int) -> Group:
    """The group of the spec term ``<code><n>``, named by that term."""
    return closure(family_generators(kind, n), f"{FAMILIES[kind].code}{n}")


def symmetric_group(n: int) -> Group:
    return family_group("symmetric", n)


def alternating_group(n: int) -> Group:
    return family_group("alternating", n)


def cyclic_group(n: int) -> Group:
    return family_group("cyclic", n)


def dihedral_group(order: int) -> Group:
    """Dihedral group OF ORDER ``order`` (even, >= 6): s^n = r^2 = 1 and
    s^r = s^-1 with n = order/2."""
    return family_group("dihedral", order)


def dicyclic_group(order: int) -> Group:
    """Dicyclic group of order 4n (order divisible by 4, >= 8): x^(2n) = 1,
    y^2 = x^n, x^y = x^-1.  Generators are returned in the order [x, y]."""
    if order % 4:
        raise InvalidParameter(f"dicyclic order must be divisible by 4, got {order}")
    return family_group("dicyclic", order // 4)


def product_group(factors: Iterable[Sequence[Permutation]], name: str, order: int) -> Group:
    """The direct product, of ``order`` elements, of the groups generated by
    the lists ``factors``, each shifted past the points the earlier ones
    move.  Raises ClosureTooLarge, before any factor is read, when ``order``
    exceeds ``MAX_ORDER``."""
    if order > MAX_ORDER:
        raise ClosureTooLarge(f"{name} has {order} elements, above the limit of {MAX_ORDER}")
    gens: list[Permutation] = []
    for factor in factors:
        shift = max((g.degree for g in gens), default=0)
        for g in factor:
            images = (*range(1, shift + 1), *(shift + i for i in g.images))
            gens.append(Permutation(images))
    return Group(gens, name)


def direct_product(a: Group, b: Group) -> Group:
    """Direct product ``AxB`` acting on disjoint point sets (b is shifted
    past the largest point a moves), generated by the embedded generators of
    a and then of b.  Raises ClosureTooLarge, before building any element, when
    the product order exceeds ``MAX_ORDER``."""
    factors = ([G.perm(i) for i in G.generators] for G in (a, b))
    return product_group(factors, f"{a.name}x{b.name}", a.order * b.order)

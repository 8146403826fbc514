"""The built-in group families, one ``Family`` row each in ``FAMILIES``,
and their constructors.  The spec parser, the constructors and the survey
catalog all read the rows.  Dihedral groups are named by ORDER (``D12`` has
12 elements), dicyclic groups by a quarter of it (``Dic3`` has 12:
x^(2n) = 1, y^2 = x^n, x^y = x^-1).

Every family hands a few generating permutations to :class:`Group`, which
enumerates the elements.  The dihedral and dicyclic generators are x and y
in the regular permutation representation, read off the normal-form
multiplication of words x^i y^j, which avoids any coset enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ClosureTooLarge, InvalidParameter
from .groups import MAX_ORDER, Group, closure
from .permutations import IDENTITY, Permutation


@dataclass(frozen=True)
class Family:
    """A family's spec code, its valid numbers ``least``, ``least + step``,
    ..., the group order for a number, and the first number the survey
    catalog takes (None: the family enters the catalog only as a product
    factor)."""

    code: str
    least: int
    step: int
    order: Callable[[int], int]
    catalog_least: int | None

    def check(self, n: int) -> None:
        """Raise InvalidParameter unless ``n`` is a valid number."""
        if n < self.least or (n - self.least) % self.step:
            valid = ", ".join(str(self.least + k * self.step) for k in range(3))
            raise InvalidParameter(f"{self.code}<n> needs n in {valid}, ..., got {n}")


FAMILIES = {
    "symmetric": Family("S", 1, 1, math.factorial, 3),
    "alternating": Family("A", 2, 1, lambda n: math.factorial(n) // 2, 4),
    "cyclic": Family("C", 1, 1, lambda n: n, None),
    # D6..D10 stay out of the catalog: D6 duplicates S3
    "dihedral": Family("D", 6, 2, lambda n: n, 12),
    "dicyclic": Family("Dic", 2, 1, lambda n: 4 * n, 2),
}


def symmetric_group(n: int) -> Group:
    FAMILIES["symmetric"].check(n)
    if n == 1:
        return Group([IDENTITY], "S1")
    gens = [Permutation.from_cycles([[1, 2]]), Permutation.from_cycles([range(1, n + 1)])]
    return closure(gens, f"S{n}")


def alternating_group(n: int) -> Group:
    FAMILIES["alternating"].check(n)
    name = f"A{n}"
    if n == 2:
        return Group([IDENTITY], name)
    gens = [Permutation.from_cycles([[1, 2, k]]) for k in range(3, n + 1)]
    return closure(gens, name)


def cyclic_group(n: int) -> Group:
    FAMILIES["cyclic"].check(n)
    if n == 1:
        return Group([IDENTITY], "C1")
    g = Permutation.from_cycles([range(1, n + 1)])
    return closure([g], f"C{n}")


def _regular_representation(forms: list, mul, name: str, gen_forms: list) -> Group:
    # Right-regular action: each generating word w becomes the permutation
    # of word positions sending x to x*w.  With left-to-right composition
    # this is a faithful homomorphism.
    pos = {w: k for k, w in enumerate(forms)}
    gens = [Permutation(tuple(pos[mul(x, w)] + 1 for x in forms)) for w in gen_forms]
    return Group(gens, name)


def dihedral_group(order: int) -> Group:
    """Dihedral group OF ORDER ``order`` (even, >= 6): s^n = r^2 = 1 and
    s^r = s^-1 with n = order/2."""
    FAMILIES["dihedral"].check(order)
    n = order // 2

    def mul(a, b):
        i1, j1 = a
        i2, j2 = b
        return ((i1 + (i2 if j1 == 0 else -i2)) % n, (j1 + j2) % 2)

    forms = [(i, j) for j in (0, 1) for i in range(n)]
    return _regular_representation(forms, mul, f"D{order}", [(1, 0), (0, 1)])


def dicyclic_group(order: int) -> Group:
    """Dicyclic group of order 4n (order divisible by 4, >= 8): x^(2n) = 1,
    y^2 = x^n, x^y = x^-1.  Generators are returned in the order [x, y]."""
    if order % 4:
        raise InvalidParameter(f"dicyclic order must be divisible by 4, got {order}")
    n = order // 4
    FAMILIES["dicyclic"].check(n)
    two_n = 2 * n

    def mul(a, b):
        i1, j1 = a
        i2, j2 = b
        i = i1 + (i2 if j1 == 0 else -i2)
        if j1 and j2:  # y^2 = x^n
            i += n
        return (i % two_n, (j1 + j2) % 2)

    forms = [(i, j) for j in (0, 1) for i in range(two_n)]
    return _regular_representation(forms, mul, f"Dic{n}", [(1, 0), (0, 1)])


def direct_product(a: Group, b: Group) -> Group:
    """Direct product ``AxB`` acting on disjoint point sets (b is shifted
    past the largest point a moves), generated by the embedded generators of
    a and then of b.  Raises ClosureTooLarge, before building any element, when
    the product order exceeds ``MAX_ORDER``."""
    if a.order * b.order > MAX_ORDER:
        raise ClosureTooLarge(
            f"{a.name}x{b.name} has {a.order * b.order} elements, above the limit of {MAX_ORDER}"
        )
    # a point moved by some element of a is moved by one of its generators
    shift = max((a.perm(i).degree for i in a.generators), default=0)

    def embed(p: Permutation, q: Permutation) -> Permutation:
        degree = shift + q.degree
        imgs = [p(i) for i in range(1, shift + 1)]
        imgs += [shift + q(i) for i in range(1, degree - shift + 1)]
        return Permutation(imgs)

    gens = [embed(a.perm(i), IDENTITY) for i in a.generators]
    gens += [embed(IDENTITY, b.perm(j)) for j in b.generators]
    return Group(gens, f"{a.name}x{b.name}")

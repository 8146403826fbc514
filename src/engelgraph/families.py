"""Constructors for the built-in group families.

Dihedral and dicyclic groups are built from their normal-form multiplication
(words x^i y^j) and then converted to the regular permutation representation,
which avoids any coset enumeration.  Dihedral groups are named by ORDER
(``dihedral_group(12)`` has 12 elements), dicyclic groups by order as well,
with ``dicyclic_group(4*n)`` the order-4n group with presentation
x^(2n) = 1, y^2 = x^n, x^y = x^-1.
"""

from __future__ import annotations

from .errors import ClosureTooLarge, InvalidParameter
from .groups import MAX_ORDER, Group, closure
from .permutations import IDENTITY, Permutation


def symmetric_group(n: int) -> Group:
    if n < 1:
        raise InvalidParameter(f"symmetric group needs n >= 1, got {n}")
    if n == 1:
        return Group([IDENTITY], "S1", generators=[IDENTITY])
    gens = [Permutation.from_cycles([[1, 2]]), Permutation.from_cycles([range(1, n + 1)])]
    return closure(gens, f"S{n}")


def alternating_group(n: int) -> Group:
    if n < 2:
        raise InvalidParameter(f"alternating group needs n >= 2, got {n}")
    name = f"A{n}"
    if n == 2:
        return Group([IDENTITY], name, generators=[IDENTITY])
    gens = [Permutation.from_cycles([[1, 2, k]]) for k in range(3, n + 1)]
    return closure(gens, name)


def cyclic_group(n: int) -> Group:
    if n < 1:
        raise InvalidParameter(f"cyclic group needs n >= 1, got {n}")
    if n == 1:
        return Group([IDENTITY], "C1", generators=[IDENTITY])
    g = Permutation.from_cycles([range(1, n + 1)])
    return closure([g], f"C{n}")


def _regular_representation(forms: list, mul, name: str, gen_forms: list) -> Group:
    # Right-regular action: each word w becomes the permutation of word
    # positions sending x to x*w.  With left-to-right composition this is a
    # faithful homomorphism.
    pos = {w: k for k, w in enumerate(forms)}
    perm_of = {
        w: Permutation(tuple(pos[mul(x, w)] + 1 for x in forms)) for w in forms
    }
    return Group(perm_of.values(), name, generators=[perm_of[w] for w in gen_forms])


def dihedral_group(order: int) -> Group:
    """Dihedral group OF ORDER ``order`` (even, >= 6): s^n = r^2 = 1 and
    s^r = s^-1 with n = order/2."""
    if order < 6 or order % 2:
        raise InvalidParameter(f"dihedral order must be even and >= 6, got {order}")
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
    if order < 8 or order % 4:
        raise InvalidParameter(f"dicyclic order must be divisible by 4 and >= 8, got {order}")
    n = order // 4
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


def direct_product(a: Group, b: Group, name: str | None = None) -> Group:
    """Direct product acting on disjoint point sets (b is shifted past the
    largest point a moves).  Raises ClosureTooLarge, before building any
    element, when the product order exceeds ``MAX_ORDER``."""
    if a.order * b.order > MAX_ORDER:
        raise ClosureTooLarge(
            f"{a.name}x{b.name} has {a.order * b.order} elements, above the limit of {MAX_ORDER}"
        )
    shift = max((p.degree for p in a.elements), default=0)

    def embed(p: Permutation, q: Permutation) -> Permutation:
        degree = shift + q.degree
        imgs = [p(i) for i in range(1, shift + 1)]
        imgs += [shift + q(i) for i in range(1, degree - shift + 1)]
        return Permutation(imgs)

    elems = [embed(p, q) for p in a.elements for q in b.elements]
    gens = [embed(a.perm(i), IDENTITY) for i in a.generators]
    gens += [embed(IDENTITY, b.perm(j)) for j in b.generators]
    return Group(elems, name if name is not None else f"{a.name}x{b.name}", generators=gens)

"""Permutations of 1-based points in minimal-degree canonical form.

A permutation is stored as the tuple of images of ``1..n``.  Trailing fixed
points are stripped on construction, so permutations that differ only by
padding compare equal and the identity has degree 0.  Products compose left
to right: ``(p * q)(i) == q(p(i))``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable


def _strip(imgs: tuple[int, ...]) -> tuple[int, ...]:
    """The images without their trailing fixed points, sliced once."""
    end = len(imgs)
    while end and imgs[end - 1] == end:
        end -= 1
    return imgs[:end]


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images: Iterable[int] = ()):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a bijection on 1..{len(imgs)}: {imgs!r}")
        self.images = _strip(imgs)

    @classmethod
    def _raw(cls, imgs: tuple[int, ...]) -> "Permutation":
        # Trusted path for products and parsed cycles: normalizes, skips the
        # bijection check (both always give bijections).
        p = object.__new__(cls)
        p.images = _strip(imgs)
        return p

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles of 1-based points, e.g. [[1,2,3],[4,5]]."""
        seen: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for cycle in cycles:
            pts = list(cycle)
            for a in pts:
                if not isinstance(a, int) or a < 1:
                    raise ValueError(f"cycle points must be positive integers, got {a!r}")
                if a in seen:
                    raise ValueError(f"point {a} appears in more than one cycle")
                seen.add(a)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                pairs.append((a, b))
        degree = max(seen, default=0)
        imgs = list(range(1, degree + 1))
        for a, b in pairs:
            imgs[a - 1] = b
        return cls._raw(tuple(imgs))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return not self.images

    def __call__(self, point: int) -> int:
        """Image of a 1-based point; points past the degree are fixed."""
        if point < 1:
            raise ValueError(f"points are 1-based, got {point}")
        return self.images[point - 1] if point <= len(self.images) else point

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self.images, other.images
        n = max(len(a), len(b))
        if n == 0:
            return self
        # pad both to degree n (0 or >= 2, so itemgetter returns a tuple)
        # and read b at every image of a in one call
        a += tuple(range(len(a) + 1, n + 1))
        b = (0,) + b + tuple(range(len(b) + 1, n + 1))
        return Permutation._raw(itemgetter(*a)(b))

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            out[j - 1] = i
        return Permutation._raw(tuple(out))

    def order(self) -> int:
        """Smallest k >= 1 with p**k the identity (lcm of cycle lengths)."""
        from math import lcm

        return lcm(*(len(c) for c in self.cycles())) if self.images else 1

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point,
        sorted by that point."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, len(self.images) + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cycle = [start]
            seen.add(start)
            cur = self.images[start - 1]
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = self.images[cur - 1]
            out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.from_cycles({[list(c) for c in self.cycles()]!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __bool__(self) -> bool:
        return bool(self.images)


IDENTITY = Permutation()

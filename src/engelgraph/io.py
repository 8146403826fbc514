"""Group-spec and cycle-notation parsing, DOT and JSON serialization.

Group specs
-----------
A family term is a code and a number, both read from the rows of
``families.FAMILIES``, whose ``check`` says which numbers are valid:
``S<n>`` symmetric (n >= 1), ``A<n>`` alternating (n >= 2), ``C<n>`` cyclic
(n >= 1), ``D<n>`` dihedral of ORDER n (even, >= 6), ``Dic<n>`` dicyclic
of order 4n (n >= 2).  ``T`` is an alias for ``Dic3``, ``<spec>x<spec>`` a
direct product of family terms, and ``@<path>`` a generator file.  A ``@``
spec consumes the rest of the text (file groups cannot appear inside
products; list extra generators in the file instead).

Generator files hold one permutation per line in disjoint-cycle notation,
read as tokens after any white space: "(", ",", ")" and points, which are
runs of decimal digits.  ``#`` starts a comment and blank lines are ignored.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Union

from .errors import InvalidParameter, LabelMismatch, ParseError
from .families import FAMILIES, _bounded_product, family_generators, family_group, product_group
from .graphs import GraphMetrics, SimpleGraph
from .groups import MAX_ORDER, Group, closure
from .permutations import Permutation

if TYPE_CHECKING:  # pragma: no cover
    from .survey import GroupReport

_KIND_OF_CODE = {family.code: kind for kind, family in FAMILIES.items()}
_TERM_RE = re.compile(f"({'|'.join(_KIND_OF_CODE)})(\\d+)")
# one token of cycle notation after any white space: a point, or any other
# single character
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(\S))")
# what may follow each token, with "0" for a point, and the error when
# something else does
_NEXT = {"(": "0)", "0": ",)", ",": "0", ")": "("}
_EXPECTED = {"0)": "expected a point number", "0": "expected a point number",
             ",)": "expected ',' or ')'"}


@dataclass(frozen=True)
class FamilySpec:
    """One family constructor; ``param`` is the number in the code (so the
    order for dihedral, a quarter of the order for dicyclic)."""

    kind: str
    param: int

    def order(self) -> int:
        return FAMILIES[self.kind].order(self.param)


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple[FamilySpec, ...]

    def order(self) -> int:
        return _bounded_product(f.order() for f in self.factors)


@dataclass(frozen=True)
class FileSpec:
    path: str


GroupSpec = Union[FamilySpec, ProductSpec, FileSpec]


def _parse_term(term: str, position: int) -> FamilySpec:
    if term == "T":
        return FamilySpec("dicyclic", 3)
    m = _TERM_RE.fullmatch(term)
    if m is None:
        raise ParseError(
            f"expected a family code like S4, D12, Dic3, or T, got {term!r}", position
        )
    kind = _KIND_OF_CODE[m.group(1)]
    try:
        number = int(m.group(2))
    except ValueError as err:  # more digits than int() converts
        raise ParseError(
            f"the number after {m.group(1)} has {len(m.group(2))} digits, too many to read",
            position,
        ) from err
    try:
        FAMILIES[kind].check(number)
    except InvalidParameter as err:
        raise ParseError(f"{err} in {term!r}", position) from err
    return FamilySpec(kind, number)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group spec; raises ParseError with the offending position."""
    s = text.strip()
    if not s:
        raise ParseError("empty group spec", 0)
    offset = text.index(s[0])
    if s.startswith("@"):
        path = s[1:].strip()
        if not path:
            raise ParseError("expected a file path after '@'", offset + 1)
        return FileSpec(path)
    factors = []
    position = offset
    for term in s.split("x"):
        if not term:
            raise ParseError("expected a family code before/after 'x'", position)
        factors.append(_parse_term(term, position))
        position += len(term) + 1
    if len(factors) == 1:
        return factors[0]
    return ProductSpec(tuple(factors))


def render_group_spec(spec: GroupSpec) -> str:
    """Canonical text for a spec; parsing it back yields an equal plan."""
    if isinstance(spec, FamilySpec):
        return f"{FAMILIES[spec.kind].code}{spec.param}"
    if isinstance(spec, ProductSpec):
        return "x".join(render_group_spec(f) for f in spec.factors)
    return f"@{spec.path}"


def parse_cycles(line: str) -> Permutation:
    """Permutation from disjoint-cycle notation such as "(1,2,3)(4,5)".

    The line is read as tokens, each after any white space: a point is a
    run of decimal digits, and any other character is a token of its own,
    of which "(", "," and ")" are the valid ones.  "()" is the identity.
    Raises ParseError for any other token, repeated points, points < 1, or
    points above MAX_ORDER**2, where one element's images would outgrow
    the largest Cayley table the order limit allows.
    """
    limit = MAX_ORDER**2
    seen: dict[int, int] = {}  # point -> position it first appeared at
    cycles: list[list[int]] = []
    expect = "("
    for token in _TOKEN_RE.finditer(line):
        digits, char = token.groups()
        start = token.start(token.lastindex)
        kind = "0" if digits else char
        if kind not in expect:
            if expect == "(":
                raise ParseError(f"expected '(' , got {line[start]!r}", start)
            raise ParseError(_EXPECTED[expect], start)
        if kind == "(":
            cycles.append([])  # "()" leaves its empty cycle
        elif digits:
            # the length first, as int() refuses more than 4300 digits
            if len(digits) > len(str(limit)) or int(digits) > limit:
                shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
                raise ParseError(f"point {shown} is above the limit of {limit}", start)
            point = int(digits)
            if point < 1:
                raise ParseError(f"points are 1-based, got {point}", start)
            if point in seen:
                raise ParseError(f"point {point} repeated (first at position {seen[point]})", start)
            seen[point] = start
            cycles[-1].append(point)
        expect = _NEXT[kind]
    if not cycles:
        raise ParseError("expected a permutation in cycle notation", 0)
    if expect != "(":
        raise ParseError(_EXPECTED[expect], len(line))
    return Permutation.from_cycles(cycles)


def read_generator_file(path: str | os.PathLike) -> list[Permutation]:
    """Generators from a file, one permutation per line in cycle notation.

    Raises ParseError when the file cannot be read or holds no generators."""
    perms = []
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            perms.append(parse_cycles(line))
        except ParseError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from err
    if not perms:
        raise ParseError(f"no generators found in {path}")
    return perms


def build_group(spec: GroupSpec | str, *, base_dir: str | os.PathLike = ".") -> Group:
    """Realize a spec (or spec text) as a Group named by its canonical
    rendering.  A family term or a product of them is one list of generators
    and one Group; no factor group is built.  Raises ClosureTooLarge for a
    group of more than ``groups.MAX_ORDER`` elements, for a family term or a
    product from the spec's order before anything is built."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, FileSpec):
        gens = read_generator_file(Path(base_dir) / spec.path)
        return closure(gens, render_group_spec(spec))
    if isinstance(spec, ProductSpec):
        factors = (family_generators(f.kind, f.param) for f in spec.factors)
        return product_group(factors, render_group_spec(spec), spec.order())
    return family_group(spec.kind, spec.param)


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def write_dot(g: SimpleGraph, labels: list[str] | tuple[str, ...]) -> str:
    """Deterministic DOT text: vertices in canonical order, each edge once."""
    return "".join(_dot_chunks(g, labels))


def _dot_chunks(g: SimpleGraph, labels: list[str] | tuple[str, ...]) -> Iterator[str]:
    """The text of ``write_dot`` in chunks, to be written as they come: one
    per line up to the last vertex, one per vertex for the edges to its
    higher neighbours, and the closing line."""
    if len(labels) != g.vertex_count:
        raise LabelMismatch(
            f"{len(labels)} labels for {g.vertex_count} vertices"
        )
    yield "graph {\n"
    for i, label in enumerate(labels):
        yield f'  v{i} [label="{_dot_escape(str(label))}"];\n'
    for u, edges in groupby(g.edges(), key=itemgetter(0)):
        yield "".join(f"  v{u} -- v{v};\n" for _, v in edges)
    yield "}\n"


# what a report shows for an Engel group, whose graph is empty (and planar)
_EMPTY_GRAPH = GraphMetrics(0, 0, 0, 0, 0, True, 0)


# json.dumps(payload, indent=2) of a report, as one template
_REPORT = """{{
  "name": {},
  "order": {},
  "isEngel": {},
  "fittingOrder": {},
  "vertexCount": {},
  "edgeCount": {},
  "componentCount": {},
  "diameter": {},
  "cliqueNumber": {},
  "planar": {},
  "isolatedCount": {},
  "checks": {}
}}
"""
_JSON_BOOL = {True: "true", False: "false"}


def write_report(report: "GroupReport") -> str:
    """Deterministic JSON for a group report, with this fixed key order:
    name, order, isEngel, fittingOrder, vertexCount, edgeCount,
    componentCount, diameter, cliqueNumber, planar, isolatedCount, checks.

    A disconnected diameter serializes as the string "inf" (JSON has no
    infinity literal); an Engel group reports the metrics of the empty
    graph, zeros and planar (``_EMPTY_GRAPH``).  The text is that of
    ``json.dumps`` with ``indent=2`` and a final newline, filled into one
    template: the name goes through ``json.dumps``, so any name escapes as
    it would there, and the check names, which are identifiers, are quoted
    as they are.
    """
    m = report.metrics or _EMPTY_GRAPH
    checks = ",\n".join(
        f'    "{name}": {_JSON_BOOL[report.checks[name].passed]}' for name in sorted(report.checks)
    )
    return _REPORT.format(
        json.dumps(report.name),
        report.order,
        _JSON_BOOL[report.is_engel],
        report.fitting_order,
        m.vertex_count,
        m.edge_count,
        m.component_count,
        '"inf"' if math.isinf(m.diameter) else int(m.diameter),
        m.clique_number,
        _JSON_BOOL[m.planar],
        m.isolated_count,
        "{\n" + checks + "\n  }" if checks else "{}",
    )

import copy
import pickle
import random
import sys
import tracemalloc
from operator import itemgetter

import pytest

import engelgraph.groups as groups_module
from engelgraph import (
    ClosureTooLarge,
    Group,
    InvalidParameter,
    NotASubgroup,
    Permutation,
    build_group,
    catalog_plans,
    closure,
    conjugacy_class,
    conjugacy_classes,
    centralizer,
    dihedral_group,
    left_engel_set,
    derived_subgroup,
    fitting_subgroup,
    is_abelian,
    is_nilpotent,
    is_subgroup,
    lower_central_series,
    normal_closure,
    subgroup_generated,
)
from engelgraph.engel import _engel_core
from engelgraph.groups import _Rows, _Span, _complete_table, _getter, _normal_span
from engelgraph.survey import evaluate_group
from conftest import elem
from oracles import (
    class_mismatches,
    greedy_lower_central_series,
    greedy_span,
    lazy_table_mismatches,
    naive_closure,
    naive_derived_subgroup,
    naive_is_abelian,
    naive_is_subgroup,
    naive_lower_central_series,
    naive_normal_closure,
    naive_subgroup_generated,
    series_memo_violations,
    span_filtering_members_once,
    table_by_products,
    whole_group_from_one_generator,
)

T12 = Permutation.from_cycles([(1, 2)])
C123 = Permutation.from_cycles([(1, 2, 3)])


def test_closure_s3_matches_product_fixpoint_oracle():
    G = closure([T12, C123], "S3")
    assert G.order == 6
    assert set(G.elements) == naive_closure([T12, C123])


def test_closure_is_idempotent(s3):
    again = closure(list(s3.elements), "S3-again")
    assert again.elements == s3.elements


def test_closure_of_identity_is_trivial():
    G = closure([Permutation()])
    assert G.order == 1
    assert G.identity == 0


def test_a_group_with_no_generator_has_the_identity_as_its_one_element():
    # it has no generator row to size a search tree from, only its order
    G = Group([], "1")
    assert (G.order, G.generators, G.elements) == (1, (), (Permutation(),))


def test_closure_frobenius_21():
    gens = [
        Permutation.from_cycles([(1, 2, 3, 4, 5, 6, 7)]),
        Permutation.from_cycles([(2, 3, 5), (4, 7, 6)]),
    ]
    G = closure(gens, "F21")
    assert G.order == 21
    assert set(G.elements) == naive_closure(gens)


def test_order_limit_cannot_be_raised():
    s7_gens = [T12, Permutation.from_cycles([range(1, 8)])]
    with pytest.raises(ClosureTooLarge):
        closure(s7_gens)
    with pytest.raises(ClosureTooLarge):
        Group(s7_gens, "S7")


def test_identity_and_inverse_laws(s4, d12):
    for G in (s4, d12):
        e = G.identity
        for x in range(G.order):
            assert G.mul(e, x) == x == G.mul(x, e)
            assert G.mul(x, G.inv(x)) == e == G.mul(G.inv(x), x)


def test_associativity_on_random_triples(s4, dic3):
    rng = random.Random(3)
    for G in (s4, dic3):
        for _ in range(1000):
            x, y, z = (rng.randrange(G.order) for _ in range(3))
            assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


def test_mul_table_agrees_with_direct_composition(repo_root):
    # every construction route, all pairs: closure (S, A, C), the regular
    # representation (D, Dic), direct products and generator files
    specs = [*catalog_plans(24), "@fixtures/c7_c3.gens", "@fixtures/s3_s3.gens"]
    for spec in specs:
        G = build_group(spec, base_dir=repo_root)
        for i in range(G.order):
            for j in range(G.order):
                assert G.perm(G.mul(i, j)) == G.perm(i) * G.perm(j), (G.name, i, j)
    # and samples for larger groups, on both sides of order 256, where the
    # rows change from bytes composed by translate to tuples
    for spec in ("S5", "C256", "Dic64", "C257", "S4xC11"):
        G = build_group(spec)
        rng = random.Random(5)
        for _ in range(2000):
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            assert G.perm(G.mul(i, j)) == G.perm(i) * G.perm(j), (G.name, i, j)
        assert G._inv == tuple(row.index(0) for row in _complete_table(G)), G.name


def test_generators_generate_the_group():
    for plan in catalog_plans(120):
        G = build_group(plan)
        assert subgroup_generated(G, G.generators) == tuple(range(G.order)), G.name


def test_inverses_from_search_parents_match_the_index_scan():
    # the inverses are read from the search's parent pairs, one table read
    # per element; every catalog group up to 240 against row.index(0)
    for plan in catalog_plans(240):
        G = build_group(plan)
        assert G._inv == tuple(row.index(0) for row in G._table), G.name


def test_construction_composes_no_permutations(monkeypatch, repo_root):
    # every construction route: closure (S, A, C), the regular
    # representation (D, Dic), direct products and generator files
    products = 0
    compose = Permutation.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return compose(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    specs = {"S1": 1, "S5": 120, "A5": 60, "C7": 7, "D12": 12, "Dic3": 12,
             "S4xC5": 120, "A4xC3": 36, "@fixtures/c7_c3.gens": 21}
    for spec, order in specs.items():
        assert build_group(spec, base_dir=repo_root).order == order, spec
    assert products == 0


def test_wide_point_labels_cost_only_the_moved_points():
    # C2xC2 on the points 1, 2, 3 and 1,000,000: the search runs on the
    # four moved points, so nothing of the largest label's size is made
    gens = [T12, Permutation.from_cycles([(3, 1_000_000)])]
    tracemalloc.start()
    try:
        G = Group(gens, "wide")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 4
    assert peak < 1024 * 1024
    assert G.elements == tuple(sorted(naive_closure(gens)))
    assert G.generators == (G.index(gens[0]), G.index(gens[1]))


def test_cayley_rows_are_bytes_up_to_order_256_and_tuples_above():
    # a byte holds every index of a group of order at most 256, so the
    # order alone picks the row type
    for spec, row_type in (("C256", bytes), ("Dic64", bytes), ("C257", tuple), ("S4xC11", tuple)):
        G = build_group(spec)
        assert {type(row) for row in _complete_table(G)} == {row_type}, spec
    # the 178 catalog tables up to order 96 held 6.11 MiB as tuple rows
    held = sum(
        sys.getsizeof(G._table) + sum(map(sys.getsizeof, G._table))
        for G in map(build_group, catalog_plans(96))
    )
    assert held < 1.5 * 2**20


def _relabelled_generator_file(path, spec, seed, moves=0):
    """The spec of a generator file for ``spec``'s group: ``moves`` seeded
    Nielsen moves on its generators (x -> x y, x -> x^-1 or a swap, each
    of which keeps them generating the group), then its points relabelled
    by a seeded shuffle, as the benchmark's ``large`` workload makes its
    files: the same group up to isomorphism, whose elements sort, and so
    are indexed, differently."""
    rng = random.Random(seed)
    gens = list(build_group(spec)._gens)
    for _ in range(moves):
        i, j = rng.sample(range(len(gens)), 2)
        move = rng.randrange(3)
        if move == 0:
            gens[i] = gens[i] * gens[j]
        elif move == 1:
            gens[i] = gens[i].inverse()
        else:
            gens[i], gens[j] = gens[j], gens[i]
    points = list(range(1, max(p.degree for p in gens) + 1))
    rng.shuffle(points)
    sigma = Permutation(points)
    path.write_text("".join(f"{sigma.inverse() * p * sigma}\n" for p in gens))
    return f"@{path.name}"


def test_rows_above_order_256_read_on_a_cold_group_match_permutation_products(tmp_path):
    # each row is composed on first read; on cold groups every row read in
    # a seeded random order, every inverse, and every generator column,
    # from the construction tree and from the completed table
    specs = ["A5xC5", "S4xC12", _relabelled_generator_file(tmp_path / "a5xc6.gens", "A5xC6", 3)]
    for spec in specs:
        G = build_group(spec, base_dir=tmp_path)
        assert G.order > 256 and isinstance(G._table, _Rows), spec
        rows, inverses = table_by_products(G._gens)
        assert lazy_table_mismatches(G, rows, inverses, random.Random(11)) == [], spec
        assert G._table == rows, spec


class _ThroughTheNextGenerator(_Rows):
    """A mutant that composes each row through the row of the generator
    after its own."""

    def __missing__(self, x):
        _, j, u = self.parent[x]
        row = self[x] = itemgetter(*self[u])(self.gen_rows[(j + 1) % len(self.gen_rows)])
        return row


def test_a_row_composed_through_the_wrong_generator_is_refused():
    G = build_group("S4xC12")
    rows, inverses = table_by_products(G._gens)
    mutant = _ThroughTheNextGenerator(G._table.gen_rows, G._table.steps)
    mutant.update(G._table)  # the identity's and the generators' rows
    G._table = mutant
    # the generators' rows are right, so are the tree's columns and the
    # inverses; the rows composed, and the columns read from them, are not
    found = lazy_table_mismatches(G, rows, inverses, random.Random(11))
    assert {kind for kind, _ in found} == {"row", "table column"}


def test_a_row_deep_in_the_construction_tree_is_composed_without_recursion():
    # C1200 has one generator g, so the search reaches g^k after k steps;
    # the row of the last element reached is composed through 1,198 rows
    # not yet there, past the interpreter's recursion limit of 1,000
    G = build_group("C1200")
    x = G._table.steps[-1][0]
    assert G._table[x][G.inv(x)] == G.identity
    assert len(G._table) == G.order
    rng = random.Random(2)
    for _ in range(200):
        q = rng.randrange(G.order)
        assert G.perm(G.mul(x, q)) == G.perm(x) * G.perm(q), q


@pytest.mark.parametrize("spec, composed", [("A5xC6", 9), ("S4xC15", 23), ("@A5xC6", 12), ("@S4xC15", 28)])
def test_the_engel_core_composes_no_row_and_an_evaluation_few(tmp_path, spec, composed):
    # the core reads G's generator rows and columns only; the whole
    # evaluation composed the pinned number of G's 360 rows when measured,
    # on the family's generators and, for "@", on a generator file made as
    # the benchmark makes its files.  When spans read each coset from its
    # representative's row, these were 15, 57, 34 and 87 rows
    if spec.startswith("@"):
        spec = _relabelled_generator_file(tmp_path / "g.gens", spec[1:], 0, moves=16)
    G = build_group(spec, base_dir=tmp_path)
    C, _ = _engel_core(G)
    assert C.order < G.order and set(G._table) == {0, *G.generators}
    assert len(evaluate_group(spec, base_dir=tmp_path).group._table) <= composed


def test_orders_are_walked_along_the_row_of_the_element_itself():
    # x^(k+1) = x x^k composes x's row and the rows on its way down the
    # construction tree; x^(k+1) = x^k x composed the rows of the powers,
    # 71 for these three elements of S4xC15, against 29
    G = build_group("S4xC15")
    xs = (17, 200, 359)
    assert [G.order_of(x) for x in xs] == [G.perm(x).order() for x in xs]
    assert set(G._table) == {0, *G.generators} | _on_the_way(G, xs)
    assert len(G._table) - 1 - len(G.generators) == 29
    assert [G.order_of(x) for x in range(G.order)] == [p.order() for p in G.elements]


def test_conjugates_and_commutators_compose_no_row_of_a_product():
    # y^-1 (x y) and x^-1 (y^-1 (x y)) read the rows of x, y and their
    # inverses only; each against Permutation products
    G = build_group("A5xC6")
    xs = [5, 77, 300]
    for x in xs:
        for y in xs:
            p, q = G.perm(x), G.perm(y)
            assert G.perm(G.conjugate(x, y)) == q.inverse() * p * q
            assert G.perm(G.commutator(x, y)) == p.inverse() * q.inverse() * p * q
    assert set(G._table) <= {0, *G.generators} | _on_the_way(G, [*xs, *map(G.inv, xs)])


def _on_the_way(G, xs):
    """The members of xs and every element on their way to the identity
    along the construction tree of G, whose rows are composed on first
    read: the rows that composing the rows of xs may compose."""
    met = set()
    for x in xs:
        while x and x not in met:
            met.add(x)
            x = G._table.parent[x][2]
    return met


def test_the_class_pass_above_order_256_composes_no_row():
    # v -> g^-1 v g is read from the column of g and the inverses; read
    # through the row of g^-1, the pass composed 42 rows of S3xC43
    G = build_group("S3xC43")
    assert isinstance(G._table, _Rows)
    conjugacy_classes(G)
    assert set(G._table) == {0, *G.generators}
    assert class_mismatches(G) == []  # which composes every row


def test_each_column_is_walked_once_across_an_evaluation_and_the_class_pass(tmp_path, monkeypatch):
    # the Engel core's generator columns stay on the table, where the
    # class pass reads them; walked again, the calls came to 14
    spec = _relabelled_generator_file(tmp_path / "a5xc6.gens", "A5xC6", 3)
    walked = []
    column = _Rows.column
    monkeypatch.setattr(_Rows, "column", lambda table, z: walked.append(z) or column(table, z))
    G = evaluate_group(spec, base_dir=tmp_path).group
    evaluation_walks = list(walked)
    assert set(G.generators) <= set(walked)
    conjugacy_classes(G)
    assert walked == evaluation_walks and len(walked) == len(set(walked)) == 10


@pytest.mark.parametrize("spec", ["A6", "S6"])
def test_a_group_that_is_its_own_core_holds_its_complete_table(spec):
    # every Engel walk reads G's rows, so no read goes through __missing__
    G = build_group(spec)
    assert isinstance(G._table, _Rows)
    left_engel_set(G)
    assert type(G._table) is list and len(G._table) == G.order
    assert {type(row) for row in G._table} == {tuple}


def test_a_group_with_rows_composed_on_first_read_survives_a_pickle_round_trip():
    # cold, and with some rows composed; each copy answers as the original
    G = build_group("A5xC6")
    cold = pickle.dumps(G)
    _engel_core(G)
    G.power(11, 4)  # composes the rows of 11 and of its powers
    assert len(G._table) > 1 + len(G.generators)
    warm = pickle.dumps(G)
    answers = [left_engel_set(G), fitting_subgroup(G), conjugacy_classes(G),
               derived_subgroup(G), [G.mul(x, x) for x in range(G.order)]]
    for blob in (cold, warm):
        H = pickle.loads(blob)
        assert isinstance(H._table, _Rows) and H._inv == G._inv
        assert [left_engel_set(H), fitting_subgroup(H), conjugacy_classes(H),
                derived_subgroup(H), [H.mul(x, x) for x in range(H.order)]] == answers
        assert _complete_table(H) == _complete_table(G)


def test_construction_keeps_the_cayley_table_and_no_image_copy():
    # D520 moves 520 points, so each element's images would be a tuple as
    # large as its Cayley row; a group that kept them held twice its table
    order = 520
    tracemalloc.start()
    try:
        G = dihedral_group(order)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table = order * (56 + 8 * order)  # bytes of the rows, tuples of order ints
    assert G.order == order and kept < 1.5 * table


def test_canonical_indexing_is_reproducible():
    once = closure([T12, C123])
    again = closure([C123, T12])  # different generator order
    assert once.elements == again.elements
    assert once.identity == again.identity == 0


def test_getter_returns_a_tuple_for_any_number_of_keys():
    seq = "abcd"
    assert _getter([])(seq) == ()
    assert _getter([2])(seq) == ("c",)
    assert _getter([3, 0])(seq) == ("d", "a")
    # a key list that grows after the call, as the span's elements do
    # while a generator is adjoined, does not change the getter
    for keys in ([], [1], [1, 2]):
        pick = _getter(keys)
        expected = tuple(seq[k] for k in keys)
        keys.append(0)
        assert pick(seq) == expected


def test_subgroup_generated(s3):
    rot = elem(s3, (1, 2, 3))
    assert subgroup_generated(s3, [rot]) == (
        s3.identity,
        rot,
        elem(s3, (1, 3, 2)),
    )
    assert subgroup_generated(s3, []) == (s3.identity,)
    assert subgroup_generated(s3, [elem(s3, (1, 2)), elem(s3, (1, 3))]) == tuple(
        range(6)
    )


def test_normal_closure(s3):
    assert normal_closure(s3, [elem(s3, (1, 2))]) == tuple(range(6))
    a3 = subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert normal_closure(s3, [elem(s3, (1, 2, 3))]) == a3
    assert normal_closure(s3, [s3.identity]) == (s3.identity,)


def test_normal_closure_is_normal(s4):
    rng = random.Random(9)
    for _ in range(10):
        seed = [rng.randrange(s4.order) for _ in range(2)]
        N = set(normal_closure(s4, seed))
        assert all(s4.conjugate(x, g) in N for x in N for g in range(s4.order))


def test_derived_subgroup(s3, a4, c6):
    a3 = subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert derived_subgroup(s3) == a3
    assert derived_subgroup(c6) == (c6.identity,)
    v4 = {
        a4.identity,
        elem(a4, (1, 2), (3, 4)),
        elem(a4, (1, 3), (2, 4)),
        elem(a4, (1, 4), (2, 3)),
    }
    assert set(derived_subgroup(a4)) == v4


def test_commutators_land_in_derived_subgroup(s4):
    derived = set(derived_subgroup(s4))
    for x in range(s4.order):
        for y in range(s4.order):
            assert s4.commutator(x, y) in derived


def test_derived_subgroup_is_normal(s4, dic3):
    for G in (s4, dic3):
        derived = set(derived_subgroup(G))
        for x in derived:
            for g in range(G.order):
                assert G.conjugate(x, g) in derived


def test_conjugate_example(s3):
    # (1,2) conjugated by (1,2,3), under left-to-right action
    assert s3.conjugate(elem(s3, (1, 2)), elem(s3, (1, 2, 3))) == elem(s3, (2, 3))
    assert s3.conjugate(s3.identity, elem(s3, (1, 2))) == s3.identity
    x = elem(s3, (1, 2, 3))
    assert s3.conjugate(x, x) == x


def test_commutator_examples(s3, c6):
    t = elem(s3, (1, 2))
    assert s3.commutator(t, t) == s3.identity
    rot = s3.commutator(t, elem(s3, (1, 2, 3)))
    assert rot in subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert rot != s3.identity
    for x in range(c6.order):
        for y in range(c6.order):
            assert c6.commutator(x, y) == c6.identity


def test_nilpotency(s3, d12):
    a3 = subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert is_nilpotent(s3, a3)
    assert not is_nilpotent(s3, range(6))
    # the series of S3 stabilizes at A3
    assert lower_central_series(s3, range(6))[-1] == a3
    # and for D12 at <s^2>, a subgroup of order 3
    s = d12.generators[0]
    s2 = subgroup_generated(d12, [d12.mul(s, s)])
    assert len(s2) == 3
    assert lower_central_series(d12, range(12))[-1] == s2
    assert not is_nilpotent(d12, range(12))


def test_not_a_subgroup(s3):
    with pytest.raises(NotASubgroup):
        is_nilpotent(s3, [elem(s3, (1, 2))])  # no identity, not closed


def test_is_subgroup_and_abelian(s3):
    a3 = subgroup_generated(s3, [elem(s3, (1, 2, 3))])
    assert is_subgroup(s3, a3)
    assert not is_subgroup(s3, [s3.identity, elem(s3, (1, 2)), elem(s3, (1, 3))])
    assert is_abelian(s3, a3)
    assert not is_abelian(s3)


def _member_sets(G, rng):
    """Member sets to query: random sets with and without the identity,
    the subgroup generated by each conjugacy class with and without one
    more element (and that subgroup plus the element, rarely a subgroup),
    and L(G) plus the representative of each class outside it."""
    for _ in range(6):
        S = set(rng.sample(range(G.order), rng.randint(1, min(G.order, 5))))
        yield S
        yield S | {G.identity}
    L = set(left_engel_set(G))
    for cls in conjugacy_classes(G):
        x = rng.randrange(G.order)
        H = set(subgroup_generated(G, cls))
        yield H
        yield H | {x}
        yield set(subgroup_generated(G, [*cls, x]))
        if cls[0] not in L:
            yield L | {cls[0]}


def _series_or_error(lower_central_series, G, S):
    try:
        return lower_central_series(G, S)
    except NotASubgroup:
        return NotASubgroup


def test_subgroup_queries_match_all_pairs_oracles():
    rng = random.Random(48)
    mismatches = []
    cases = 0
    for plan in catalog_plans(48):
        G = build_group(plan)
        if derived_subgroup(G) != naive_derived_subgroup(G):
            mismatches.append(f"{G.name}: derived_subgroup")
        for S in _member_sets(G, rng):
            cases += 1
            where = f"{G.name} {sorted(S)}"
            if subgroup_generated(G, S) != naive_subgroup_generated(G, S):
                mismatches.append(f"{where}: subgroup_generated")
            if is_subgroup(G, S) != naive_is_subgroup(G, S):
                mismatches.append(f"{where}: is_subgroup")
            if normal_closure(G, S) != naive_normal_closure(G, S):
                mismatches.append(f"{where}: normal_closure")
            if is_abelian(G, S) != naive_is_abelian(G, S):
                mismatches.append(f"{where}: is_abelian")
            ours = _series_or_error(lower_central_series, G, S)
            theirs = _series_or_error(naive_lower_central_series, G, S)
            if ours is NotASubgroup or theirs is NotASubgroup:
                if ours is not theirs:
                    mismatches.append(f"{where}: NotASubgroup raised by one side only")
                continue
            for i, (a, b) in enumerate(zip(ours, theirs)):
                if a != b:
                    mismatches.append(f"{where}: lower central series term {i}: {a} != {b}")
                    break
            else:
                if len(ours) != len(theirs):
                    mismatches.append(f"{where}: {len(ours)} terms != {len(theirs)}")
        mismatches.extend(series_memo_violations(G))
    assert cases > 3000
    assert mismatches == []


@pytest.mark.parametrize("spec", ["S5", "A5xC2", "A5xC5"])
def test_normal_closures_past_order_48_match_all_pairs_oracles(spec):
    # L(G) plus a representative outside it: every adjoin after the first
    # extends a large subgroup K by cosets of K.  A5xC5, of order 300, has
    # tuple rows
    G = build_group(spec)
    L = set(fitting_subgroup(G))
    reps = [cls[0] for cls in conjugacy_classes(G) if cls[0] not in L]
    assert len(reps) >= 5
    for rep in reps:
        H = normal_closure(G, L | {rep})
        assert H == naive_normal_closure(G, L | {rep}), (spec, rep)
        nilpotent = naive_lower_central_series(G, H)[-1] == (G.identity,)
        assert is_nilpotent(G, H) == nilpotent, (spec, rep)


class CountingRow(tuple):
    """A Cayley row that counts the entries read from it, through
    ``__getitem__``, which ``itemgetter`` also calls on a tuple subclass."""

    reads = 0

    def __getitem__(self, key):
        CountingRow.reads += 1
        return tuple.__getitem__(self, key)


@pytest.mark.parametrize("spec", ["S5", "A5xC5"])
def test_a_span_of_one_element_walks_its_powers_one_read_each(spec, monkeypatch):
    # bytes rows for S5, tuple rows for A5xC5; s^(k+1) is read from s's
    # row at s^k, so order(s) - 1 reads reach s^order(s) = 1.  A span
    # writes nothing to its group, so one counted copy serves every s
    G = build_group(spec)
    counted = pickle.loads(pickle.dumps(G))
    monkeypatch.setattr(counted, "_table", [CountingRow(row) for row in _complete_table(G)])
    for s in range(1, G.order):
        powers = [G.identity]
        while len(powers) < G.order_of(s):
            powers.append(G.mul(s, powers[-1]))
        CountingRow.reads = 0
        span = _Span(counted, [s])
        assert (span.elements, span.gens) == (powers, [s]), (spec, s)
        assert span.members == set(powers)
        assert CountingRow.reads == len(powers) - 1, (spec, s, CountingRow.reads)


def _greedy_generator_mismatches(max_order, rng):
    """The random member sets of every catalog group up to ``max_order``
    whose span, or normal span under ``G.generators``, differs from the
    greedy-generator oracle in its members, its generators or, for a plain
    span, the order of its first generator's powers."""
    mismatches = []
    for plan in catalog_plans(max_order):
        G = build_group(plan)
        for _ in range(30):
            S = rng.sample(range(G.order), rng.randint(1, min(G.order, 6)))
            span, normal = _Span(G, S), _normal_span(G, S, G.generators)
            if (span.key(), span.gens) != greedy_span(G, S):
                mismatches.append(f"{G.name} {sorted(S)}: span")
            if (normal.key(), normal.gens) != greedy_span(G, S, G.generators):
                mismatches.append(f"{G.name} {sorted(S)}: normal span")
            if span.gens:
                s, k = span.gens[0], G.order_of(span.gens[0])
                if span.elements[:k] != [G.power(s, i) for i in range(k)]:
                    mismatches.append(f"{G.name} {sorted(S)}: powers of {s}")
    return mismatches


def test_spans_pick_the_greedy_generators_of_the_oracle():
    assert _greedy_generator_mismatches(48, random.Random(43)) == []


def test_greedy_generator_oracle_refuses_a_scan_that_filters_the_members_once(monkeypatch):
    # the mutant drops the members inside the trivial span before any
    # adjoin, so a member that an earlier generator's span already holds
    # still becomes a generator
    monkeypatch.setattr(_Span, "__init__", span_filtering_members_once)
    assert len(_greedy_generator_mismatches(24, random.Random(43))) > 10


def test_a_cold_fitting_subgroup_spans_its_left_engel_set_once(monkeypatch):
    # one normal span of L decides the subgroup and normal checks and
    # starts L's lower central series; no term of the series of a
    # nontrivial nilpotent L is L again
    spans = []
    init = _Span.__init__

    def recorded(self, G, members=()):
        init(self, G, members)
        spans.append(self)

    monkeypatch.setattr(_Span, "__init__", recorded)
    for spec in ("S4", "D12", "Dic3", "S5xC2", "A5xC5"):
        G = build_group(spec)
        L = left_engel_set(G)
        assert len(L) > 1
        spans.clear()
        assert fitting_subgroup(G) == L
        assert sum(span.members == set(L) for span in spans) == 1, spec
        assert L in G._memo["series"]
        assert series_memo_violations(G) == []


def test_subgroup_queries_work_on_generators(monkeypatch):
    # an all-pairs loop over a subgroup H reads at least |H|^2 Cayley-table
    # entries; working on generators stays far below.  Each entry is read
    # through its row's __getitem__, which itemgetter also calls on a
    # tuple subclass; every member but the identity of an H other than G
    # is read at least once by a query on a cold copy of G, which
    # remembers no series.  All of G is generated by G.generators, so no
    # span scans its members, and at least the members of γ_2 but the
    # identity are read, since γ_2 is spanned.  Once G remembers H's lower
    # central series, is_nilpotent reads none
    scanned = []  # the member count of each span made
    init = _Span.__init__

    def recorded(self, G, members=()):
        members = set(members)
        scanned.append(len(members))
        init(self, G, members)

    monkeypatch.setattr(_Span, "__init__", recorded)

    def work(query, G, *args):
        with monkeypatch.context() as m:
            m.setattr(G, "_table", [CountingRow(row) for row in G._table])
            CountingRow.reads = 0
            scanned.clear()
            return query(G, *args), CountingRow.reads

    def cold_is_nilpotent(cold, H):
        G = pickle.loads(cold)
        answer, n = work(is_nilpotent, G, H)
        if len(H) < G.order:
            assert len(H) - 1 <= n <= len(H) ** 2 // 8, (G.name, "is_nilpotent", len(H), n)
        else:
            series = lower_central_series(G, H)
            gamma2 = series[min(1, len(series) - 1)]
            assert max(scanned) < G.order, (G.name, "is_nilpotent scanned G", scanned)
            assert len(gamma2) - 1 <= n <= G.order ** 2 // 8, (G.name, "is_nilpotent", n)
        return answer

    for spec in ("S5", "D12xC5", "A5xC4"):
        G = build_group(spec)
        cold = pickle.dumps(G)
        L = set(fitting_subgroup(G))
        reps = [cls[0] for cls in conjugacy_classes(G) if cls[0] not in L]
        D, n = work(derived_subgroup, pickle.loads(cold))
        assert len(D) - 1 <= n <= G.order ** 2 // 8, (spec, "derived_subgroup", n)
        assert not cold_is_nilpotent(cold, range(G.order))
        for rep in reps:
            H, n = work(normal_closure, pickle.loads(cold), L | {rep})
            assert len(H) - 1 <= n <= len(H) ** 2 // 8, (spec, "normal_closure", rep, n)
            cold_answer = cold_is_nilpotent(cold, H)
            assert normal_closure(G, L | {rep}) == H
            warm_answer, _ = work(is_nilpotent, G, H)
            assert not cold_answer and warm_answer == cold_answer
            again, n = work(is_nilpotent, G, H)
            assert again == warm_answer and n == 0, (spec, "is_nilpotent again", rep, n)
            series, n = work(lower_central_series, G, H)
            assert series[0] == H and n == 0, (spec, "lower_central_series again", rep, n)


def _whole_group_impostors(G):
    """The sets of |G| indices other than 0..|G|-1 that a subgroup query on
    G takes for a subgroup: one without the identity, one below 0 and one
    past |G| - 1."""
    n, impostors = G.order, []
    for members in (range(1, n + 1), range(-1, n - 1), [*range(n - 1), n]):
        for query in (is_nilpotent, lower_central_series):
            try:
                query(G, members)
                impostors.append((query.__name__, members))
            except NotASubgroup:
                pass
        if is_subgroup(G, members):
            impostors.append(("is_subgroup", members))
    return impostors


@pytest.mark.parametrize("spec", ["S3", "D12xC5", "A5xC5"])
def test_sets_of_order_many_indices_other_than_the_group_are_not_subgroups(spec):
    # all of G is recognised without a span, so these sets, as long as G,
    # must still be refused; bytes rows for S3 and D12xC5, tuples for A5xC5
    G = build_group(spec)
    assert _whole_group_impostors(G) == []
    assert G._memo["series"] == {}


def test_whole_group_check_on_length_alone_is_refused(monkeypatch):
    monkeypatch.setattr(groups_module, "_is_whole", lambda G, H: len(H) == G.order)
    assert len(_whole_group_impostors(build_group("S3"))) == 9


_NONABELIAN = ("S3", "S4", "Dic3", "D12xC5", "A5xC5")


def _whole_group_series_mismatches(specs):
    """The specs whose group, built afresh, gives a lower central series of
    all of G that differs from the greedy-generator oracle's, or leaves a
    remembered series that differs from the all-pairs one."""
    mismatches = []
    for spec in specs:
        G = build_group(spec)
        whole = range(G.order)
        if (lower_central_series(G, whole) != greedy_lower_central_series(G, whole)
                or series_memo_violations(G)):
            mismatches.append(spec)
    return mismatches


def test_whole_group_series_from_its_generators_match_the_oracles():
    assert _whole_group_series_mismatches(_NONABELIAN) == []


def test_whole_group_series_from_one_generator_is_refused(monkeypatch):
    # one generator of a non-abelian group generates a proper abelian
    # subgroup, so the series formed from it stops at 1 after one term
    monkeypatch.setattr(groups_module, "_subgroup_gens", whole_group_from_one_generator)
    assert _whole_group_series_mismatches(_NONABELIAN) == list(_NONABELIAN)


def _remembering_group(spec):
    """The group, after the queries of the subgroups workload: L(G), its
    classes and derived subgroup, and the normal closure of L and each
    representative outside it, with its nilpotency."""
    G = build_group(spec)
    L = set(fitting_subgroup(G))
    derived_subgroup(G)
    for cls in conjugacy_classes(G):
        if cls[0] not in L:
            is_nilpotent(G, normal_closure(G, L | {cls[0]}))
    return G


def _remembered_subgroups(G):
    """The subgroups in G's series memo, each once, in order of first
    appearance: the terms of each series, whose first term is its key."""
    return list(dict.fromkeys(H for terms in G._memo["series"].values() for H in terms))


def test_series_memo_oracle_catches_a_dropped_term_and_a_swapped_term():
    G = _remembering_group("S4")
    series = G._memo["series"]
    assert len(series) >= 3
    assert series_memo_violations(G) == []
    for key, terms in list(series.items()):
        series[key] = terms[:-1]
        assert len(series_memo_violations(G)) == 1, key
        series[key] = terms
    # each term replaced by a remembered subgroup of another order, so
    # never by itself
    remembered = _remembered_subgroups(G)
    for key, terms in list(series.items()):
        for i, term in enumerate(terms):
            other = next(H for H in remembered if len(H) != len(term))
            series[key] = (*terms[:i], other, *terms[i + 1:])
            assert len(series_memo_violations(G)) == 1, (key, i)
        series[key] = terms
    assert series_memo_violations(G) == []


def test_lower_central_series_returns_a_new_list():
    G = build_group("S4")
    series = lower_central_series(G, range(G.order))
    expected = list(series)
    series.append((G.identity,))
    series[0] = ()
    assert lower_central_series(G, range(G.order)) == expected
    assert not is_nilpotent(G, range(G.order))


@pytest.mark.parametrize("spec", ["S4", "D12xC5"])
def test_sets_one_element_off_a_remembered_subgroup_are_not_subgroups(spec):
    # a subgroup H of order at least 3 is never one element off another
    # subgroup, which would have |H| - 1, |H| or |H| + 1 elements and meet
    # H in a subgroup of order |H| - 1 or contain it.  A series refused
    # for such a set leaves no memo entry
    G = _remembering_group(spec)
    series = dict(G._memo["series"])
    remembered = [key for key in _remembered_subgroups(G) if 3 <= len(key) < G.order]
    assert len(remembered) >= 2
    assert any(key in series for key in remembered)
    for key in remembered:
        outside = next(x for x in range(G.order) if x not in key)
        for members in (key[:-1], (*key, outside), (*key[:-1], outside)):
            assert not naive_is_subgroup(G, members)
            assert not is_subgroup(G, members), (key, members)
            with pytest.raises(NotASubgroup):
                is_nilpotent(G, members)
            with pytest.raises(NotASubgroup):
                lower_central_series(G, members)
    assert G._memo["series"] == series
    assert series_memo_violations(G) == []


def test_conjugacy_classes(s4):
    classes = conjugacy_classes(s4)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24
    for cls in classes:
        members = set(cls)
        for x in cls:
            assert conjugacy_class(s4, x) == cls
            for g in range(s4.order):
                assert s4.conjugate(x, g) in members


def test_first_class_query_finds_every_class_in_one_pass(monkeypatch):
    # asked first about a member that is not the least of its class, the
    # group still walks every class once, from its least member, and keeps
    # only the classes, their two lists and the order of the walk, not the
    # conjugation maps
    expected = conjugacy_classes(build_group("S4"))
    largest = max(expected, key=len)
    G = build_group("S4")
    cls = conjugacy_class(G, largest[-1])
    assert cls == largest and list(G._memo) == ["classes"]
    classes = G._memo["classes"][2]
    assert list(classes.values()) == expected and classes[largest[0]] is cls
    made = []
    monkeypatch.setattr(groups_module, "_getter", lambda keys: made.append(keys))
    again = conjugacy_classes(G)
    assert made == [] and all(a is b for a, b in zip(again, classes.values()))
    assert len(again) == len(expected)


def test_classes_and_transversals_match_the_orbit_oracle(repo_root):
    # every catalog group up to order 120, the fixture generator files, and
    # an Engel core, which Group._from_generator_rows makes with no
    # permutations
    groups = [build_group(plan) for plan in catalog_plans(120)]
    groups += [build_group(f"@fixtures/{path.name}", base_dir=repo_root)
               for path in sorted((repo_root / "fixtures").glob("*.gens"))]
    core, _ = _engel_core(build_group("S4xC3"))
    assert (core.order, core.elements) == (24, ())
    groups.append(core)
    assert len(groups) == 246
    assert [problem for G in groups for problem in class_mismatches(G)] == []


def test_conjugacy_classes_returns_a_new_list():
    # a group of its own, so a shared result cannot leak into other tests
    G = build_group("S4")
    classes = conjugacy_classes(G)
    expected = list(classes)
    classes.clear()
    assert conjugacy_classes(G) == expected
    assert sum(len(c) for c in expected) == G.order


def test_centralizer(s3):
    t = elem(s3, (1, 2))
    assert set(centralizer(s3, t)) == {s3.identity, t}
    assert centralizer(s3, s3.identity) == tuple(range(6))


@pytest.mark.parametrize("x", [-1, 6])
def test_conjugacy_class_refuses_an_index_outside_the_group(x):
    # a group of its own, so that a memo write would not leak into other
    # tests; a negative index would otherwise alias element 5 and enter the
    # class memo as a member
    G = build_group("S3")
    conjugacy_class(G, 1)
    memo = copy.deepcopy(G._memo)
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S3'"):
        conjugacy_class(G, x)
    assert G._memo == memo
    classes = conjugacy_classes(G)
    assert sorted(y for cls in classes for y in cls) == list(range(G.order))


@pytest.mark.parametrize("x", [-1, 6])
def test_centralizer_refuses_an_index_outside_the_group(s3, x):
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S3'"):
        centralizer(s3, x)


@pytest.mark.parametrize("query", [subgroup_generated, normal_closure, is_abelian])
@pytest.mark.parametrize("x", [-1, 6])
def test_spans_refuse_an_index_outside_the_group(s3, query, x):
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S3'"):
        query(s3, [0, 3, x])


@pytest.mark.parametrize("x", [-1, 6])
def test_sets_with_an_index_outside_the_group_are_not_subgroups(x):
    G = build_group("S3")
    assert not is_subgroup(G, [0, x])
    with pytest.raises(NotASubgroup):
        lower_central_series(G, [0, x])
    with pytest.raises(NotASubgroup):
        is_nilpotent(G, [0, x])
    assert G._memo["series"] == {}


def test_centralizer_matches_its_definition_on_the_catalog():
    # centralizer reads Cayley rows; the universal-vertex oracle calls it too
    for plan in catalog_plans(60):
        G = build_group(plan)
        for x in range(G.order):
            want = tuple(g for g in range(G.order) if G.mul(g, x) == G.mul(x, g))
            assert centralizer(G, x) == want, (G.name, x)


def test_power_and_order_of(d12):
    s = d12.generators[0]
    assert d12.order_of(s) == 6
    assert d12.power(s, 6) == d12.identity
    assert d12.power(s, -1) == d12.inv(s)
    assert d12.power(s, 0) == d12.identity


ELEMENT_METHODS = {
    "mul": lambda G, x: G.mul(x, 1),
    "mul (second)": lambda G, x: G.mul(1, x),
    "inv": lambda G, x: G.inv(x),
    "conjugate": lambda G, x: G.conjugate(x, 1),
    "conjugate (second)": lambda G, x: G.conjugate(1, x),
    "commutator": lambda G, x: G.commutator(x, 1),
    "commutator (second)": lambda G, x: G.commutator(1, x),
    "power": lambda G, x: G.power(x, 2),
    "power (negative)": lambda G, x: G.power(x, -2),
    "order_of": lambda G, x: G.order_of(x),
    "perm": lambda G, x: G.perm(x),
}


@pytest.mark.parametrize("method", ELEMENT_METHODS)
@pytest.mark.parametrize("x", [-1, 24])
def test_element_methods_refuse_an_index_outside_the_group(method, x):
    # -1 would read the last element's row and 24 raise a bare IndexError;
    # a group of its own, so that nothing is made on it
    G = build_group("S4")
    memo = copy.deepcopy(G._memo)
    with pytest.raises(InvalidParameter, match=rf"index {x} .*'S4'"):
        ELEMENT_METHODS[method](G, x)
    assert G._memo == memo
    assert G._elements is None


def test_element_methods_agree_with_permutations(s4):
    for x in range(s4.order):
        p = s4.perm(x)
        for y in range(s4.order):
            q = s4.perm(y)
            assert s4.perm(s4.mul(x, y)) == p * q
            assert s4.perm(s4.conjugate(x, y)) == q.inverse() * p * q
            assert s4.perm(s4.commutator(x, y)) == p.inverse() * q.inverse() * p * q
        assert s4.perm(s4.inv(x)) == p.inverse()
        k = s4.order_of(x)
        assert p ** k == Permutation() and all(p ** j != Permutation() for j in range(1, k))
        for j in range(-5, 6):
            assert s4.perm(s4.power(x, j)) == p ** j

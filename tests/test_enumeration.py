import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from unsharp import (
    EffectAlgebra,
    canonical_form,
    enumerate_effect_algebras,
    find_isomorphism,
    fixture,
    is_isomorphic,
    load_algebra,
    relabel,
    validate_tables,
)
from unsharp.cli import SUITES, run_suite
import unsharp.enumeration as enumeration
from unsharp.enumeration import (
    _antitone_involutions,
    _canonical_labeling,
    _count_free,
    _default_labels,
    _free_tables,
    _free_types,
    _relabelings,
    _restricted_tables,
    _type_tables,
)

import oracles
from conftest import idx


def test_two_elements_unique():
    res = enumerate_effect_algebras(2)
    assert res.labeled_count == res.iso_count == 1
    E = res.algebras[0]
    assert E.sums[1][1] is None and E.comp == (1, 0)


def test_three_elements_against_filter_oracle():
    """Independent oracle: run every conceivable 3x3 table (each cell empty
    or one of the three elements) through the validator and collect the
    distinct completed algebras."""
    seen = set()
    options = (None, 0, 1, 2)
    for cells in itertools.product(options, repeat=9):
        sums = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        rep = validate_tables(("0", "x1", "1"), sums, 0, 2)
        if rep.ok:
            seen.add(rep.algebra.sums)
    res = enumerate_effect_algebras(3)
    assert {E.sums for E in res.algebras} == seen
    assert res.labeled_count == len(seen) == 1
    assert res.iso_count == 1


@pytest.mark.parametrize("n,labeled,iso", [(2, 1, 1), (3, 1, 1), (4, 4, 3), (5, 16, 4)])
def test_pinned_counts(n, labeled, iso):
    res = enumerate_effect_algebras(n)
    assert (res.labeled_count, res.iso_count) == (labeled, iso)


def test_pinned_counts_larger():
    res6 = enumerate_effect_algebras(6)
    assert (res6.labeled_count, res6.iso_count) == (142, 10)
    res7 = enumerate_effect_algebras(7, up_to_iso=True)
    assert (res7.labeled_count, res7.iso_count) == (1006, 14)


@functools.cache
def classes(n):
    return enumerate_effect_algebras(n, up_to_iso=True)


def test_pinned_counts_at_eight():
    res = classes(8)
    assert (res.labeled_count, res.iso_count) == (15136, 40)
    assert len(res.algebras) == 40 and res.nodes == FREE_NODES[8]


def automorphisms(E):
    'The 0,1-fixing permutations that carry the sum table onto itself, counted one by one.'
    n, sums = E.n, E.sums
    count = 0
    for inner in itertools.permutations(range(1, n - 1)):
        p = (0, *inner, n - 1)
        count += all(
            sums[p[x]][p[y]] == (None if v is None else p[v])
            for x, row in enumerate(sums)
            for y, v in enumerate(row)
        )
    return count


@pytest.mark.parametrize("n", range(5, 9))
def test_labeled_count_is_the_orbit_sum(n):
    # independent of the relabeling step: each class contributes (n-2)!/|Aut(E)|
    res = classes(n)
    orbits = [math.factorial(n - 2) // automorphisms(E) for E in res.algebras]
    assert sum(orbits) == res.labeled_count == _count_free(n)[0]


@pytest.mark.parametrize("n", range(2, 9))
def test_count_path_equals_the_listing(n):
    # the count path sums the orbits of the base tables; the listing path
    # relabels, sorts and builds them
    res = classes(n)
    assert _count_free(n) == (res.labeled_count, res.iso_count, res.nodes)


def test_orbit_identity_small():
    # labeled count = sum over class representatives of orbit size
    for n in (2, 3, 4):
        res = enumerate_effect_algebras(n, up_to_iso=True)
        interior = list(range(1, n - 1))
        total = 0
        for E in res.algebras:
            orbit = set()
            for perm_int in itertools.permutations(interior):
                perm = [0, *perm_int, n - 1] if n > 2 else [0, 1]
                orbit.add(relabel(E, perm).sums)
            total += len(orbit)
        assert total == enumerate_effect_algebras(n).labeled_count


def test_everything_enumerated_passes_the_battery():
    for n in (2, 3, 4):
        for E in enumerate_effect_algebras(n).algebras:
            for suite in SUITES:
                passed, detail = run_suite(E, suite)
                assert passed, (E.name, suite, detail)


def test_isomorphism_recovery(e9):
    # swap the complementary pairs (b,f) and (c,e): a genuine relabeling
    perm = [0, 1, 3, 2, 4, 6, 5, 7, 8]
    F = relabel(e9, perm, name="E9-shuffled")
    iso = find_isomorphism(e9, F)
    assert iso is not None
    for x in range(9):
        for y in range(9):
            v = e9.sums[x][y]
            w = F.sums[iso[x]][iso[y]]
            assert (v is None and w is None) or iso[v] == w
    assert canonical_form(F) == canonical_form(e9)


def test_non_isomorphic_same_order(e9):
    res = enumerate_effect_algebras(9, induced_order=e9.order)
    assert res.labeled_count == 2
    tables = {E.sums for E in res.algebras}
    assert e9.sums in tables
    other = next(E for E in res.algebras if E.sums != e9.sums)
    assert not is_isomorphic(e9, other)
    assert other.order.up == e9.order.up
    # the second structure swaps which elements are complementary
    assert other.comp[idx(e9, "a")] == idx(e9, "e")
    for suite in SUITES:
        assert run_suite(other, suite)[0], suite


def test_e6_sits_among_the_six_element_classes(e6):
    reps = enumerate_effect_algebras(6, up_to_iso=True).algebras
    matches = [E for E in reps if is_isomorphic(E, e6)]
    assert len(matches) == 1
    assert canonical_form(matches[0]) == canonical_form(e6)
    others = [canonical_form(E) for E in reps if E is not matches[0]]
    assert canonical_form(e6) not in others


def test_trivial_iso_cases(e9, e6):
    chain = fixture("CHAIN-2")
    assert find_isomorphism(chain, chain) == (0, 1)
    assert not is_isomorphic(e6, fixture("BOOL-2"))  # sizes differ
    assert is_isomorphic(fixture("BOOL-1"), chain)
    # one element, where zero is one
    point = EffectAlgebra.from_tables(("0",), [[None]], 0, 0)
    assert canonical_form(point) == (1, 0)
    assert find_isomorphism(point, point) == (0,)


def test_canonical_form_invariance(e9):
    base = canonical_form(e9)
    import random

    rng = random.Random(5)
    interior = list(range(1, 8))
    for _ in range(6):
        shuffled = interior[:]
        rng.shuffle(shuffled)
        F = relabel(e9, [0, *shuffled, 8])
        assert canonical_form(F) == base


# -- the canonical labeling against the block-product oracle in oracles.py ---


def partition(forms) -> list[int]:
    'Each form numbered by its first appearance, as perfbench/make_corpus.py numbers classes.'
    ids: dict = {}
    return [ids.setdefault(f, len(ids)) for f in forms]


def carries(E, F, iso) -> bool:
    'iso maps every sum of E, defined or not, onto the same sum of F.'
    return iso is not None and all(
        F.sums[iso[x]][iso[y]] == (None if v is None else iso[v])
        for x, row in enumerate(E.sums)
        for y, v in enumerate(row)
    )


def relabelings(E, seed: int, count: int = 2):
    'E under seeded permutations of its whole carrier, which move 0 and 1 too.'
    rng = random.Random(seed)
    return [relabel(E, rng.sample(range(E.n), E.n)) for _ in range(count)]


@pytest.mark.parametrize("n", range(2, 8))
def test_canonical_form_partitions_like_oracle(n):
    # 1 + 1 + 4 + 16 + 142 + 1,006 = 1,170 labeled algebras over the six n
    # canonical_form reads the form the listing seeded; the labeling itself
    # runs afresh on every algebra
    algebras = enumerate_effect_algebras(n).algebras
    ids = partition(map(canonical_form, algebras))
    assert ids == partition(_canonical_labeling(E)[0] for E in algebras)
    assert ids == partition(map(oracles.canonical_form, algebras))
    firsts = {}
    for E, i in zip(algebras, ids):
        first = firsts.setdefault(i, E)
        assert carries(first, E, find_isomorphism(first, E)), E.name
    if len(firsts) > 1:  # each against the first member of another class
        for E, i in zip(algebras, ids):
            assert find_isomorphism(firsts[(i + 1) % len(firsts)], E) is None, E.name


SMALL_FIXTURES = ("E9", "E6", "BOOL-1", "BOOL-2", "BOOL-3", *(f"CHAIN-{n}" for n in range(2, 17)))


def test_fixture_isomorphism_matches_oracle():
    algebras = [
        F for seed, name in enumerate(SMALL_FIXTURES)
        for E in [fixture(name)] for F in (E, *relabelings(E, seed))
    ]
    assert partition(map(canonical_form, algebras)) == partition(
        map(oracles.canonical_form, algebras)
    )
    for E, F in itertools.product(algebras, repeat=2):
        if E.n == F.n:
            iso, want = find_isomorphism(E, F), oracles.find_isomorphism(E, F)
            assert (iso is None) == (want is None), (E.name, F.name)
            assert iso is None or carries(E, F, iso), (E.name, F.name)


def horizontal_sum(A, B):
    'A and B, both with 0 first and 1 last, glued at 0 and 1: no other sum crosses over.'
    n = A.n + B.n - 2
    sums = [[None] * n for _ in range(n)]
    for X, moved in ((A, [*range(A.n - 1), n - 1]), (B, [0, *range(A.n - 1, n)])):
        for x, row in enumerate(X.sums):
            for y, v in enumerate(row):
                if v is not None:
                    sums[moved[x]][moved[y]] = moved[v]
    labels = tuple(f"e{x}" for x in range(n))
    return EffectAlgebra.from_tables(labels, sums, 0, n - 1, name=f"{A.name}+{B.name}")


def test_horizontal_sum_isomorphism_matches_oracle():
    # here the search meets an automorphism before it has seen every kind of
    # leaf, so leaving more of the tree than the automorphism covers would
    # change the form
    reps = {E.name: E for n in (6, 7) for E in classes(n).algebras}
    E = horizontal_sum(reps["EA6-16"], reps["EA7-4"])
    algebras = [E, *relabelings(E, seed=1, count=6)]
    assert len({canonical_form(F) for F in algebras}) == 1
    assert len({oracles.canonical_form(F) for F in algebras}) == 1
    for F in algebras:
        assert carries(E, F, find_isomorphism(E, F))


@pytest.mark.parametrize("name", ["BOOL-4", "BOOL-5", "BOOL-6", "CHAIN-32", "CHAIN-64"])
def test_canonical_labeling_on_large_fixtures(name):
    # beyond the oracle's reach: invariance and the returned maps
    E = fixture(name)
    form = canonical_form(E)
    for F in relabelings(E, seed=E.n, count=3):
        assert canonical_form(F) == form
        assert carries(E, F, find_isomorphism(E, F))


@pytest.mark.parametrize("k", range(2, 7))
def test_boolean_algebra_is_not_the_chain_of_its_size(k):
    assert find_isomorphism(fixture(f"BOOL-{k}"), fixture(f"CHAIN-{2 ** k}")) is None


def labeling_digest(algebras) -> str:
    'sha256 over the (form, slot) of each canonical labeling, in order.'
    digest = hashlib.sha256()
    for E in algebras:
        form, slot = _canonical_labeling(E)
        digest.update(repr((form, tuple(slot))).encode())
    return digest.hexdigest()


PINNED_FIXTURES = ("E9", "E6", *(f"BOOL-{k}" for k in range(1, 7)),
                   *(f"CHAIN-{k}" for k in range(2, 65)))


def test_canonical_labelings_are_pinned():
    # forms, slots and so the find_isomorphism maps may change only on purpose
    labeled = (E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras)
    assert labeling_digest(labeled) == (
        "d48d775ec0a47757ea3c8123db3044f72d3c14169efab1a32b15f051b2ff996b"
    )
    assert labeling_digest(classes(8).algebras) == (
        "3849cd0e06ed918313348e5bec337ddf1146d0a5b1cbbc2e3df409bf988811f3"
    )
    assert labeling_digest(map(fixture, PINNED_FIXTURES)) == (
        "65824147742b00e8d3ac1ea5d6c62b4b467e2d29d584fc17d3bf3686134517a9"
    )


def test_corpus_class_ids_follow_canonical_form():
    # perfbench/corpus numbers its classes by first appearance of the form;
    # the files are only read here
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    for n in range(2, 8):
        text = (corpus / f"n{n}.ea").read_text(encoding="utf-8")
        chunks = [chunk.partition("\n") for chunk in text.split("# class ")[1:]]
        pinned = [int(head) for head, _, _ in chunks]
        assert partition(canonical_form(load_algebra(doc)) for _, _, doc in chunks) == pinned, n


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        enumerate_effect_algebras(1)
    with pytest.raises(ValueError):
        enumerate_effect_algebras(9)
    with pytest.raises(ValueError):
        enumerate_effect_algebras(9, induced_order=fixture("CHAIN-4").order)


def test_relabel_rejects_non_permutation(e9):
    with pytest.raises(ValueError):
        relabel(e9, [0] * 9)


def test_relabel_equals_validating_the_transported_table(e9):
    import random

    rng = random.Random(12)
    for E in [e9, *(F for n in range(2, 7) for F in classes(n).algebras)]:
        n = E.n
        perms = [list(range(n)), list(range(n))[::-1]]  # the second swaps 0 and 1
        for _ in range(3):
            perms.append(rng.sample(range(n), n))
        for perm in perms:
            labels, sums = [""] * n, [[None] * n for _ in range(n)]
            for x, row in enumerate(E.sums):
                labels[perm[x]] = E.labels[x]
                for y, v in enumerate(row):
                    if v is not None:
                        sums[perm[x]][perm[y]] = perm[v]
            want = EffectAlgebra.from_tables(labels, sums, perm[E.zero], perm[E.one], name=E.name)
            got = relabel(E, perm)
            assert oracles.algebra_fields(got) == oracles.algebra_fields(want), (E.name, perm)


# -- the search against the full-scan oracles in oracles.py ------------------


def _restricted_orders():
    'The orders of E9, CHAIN-10 and every isomorphism class with n <= 7.'
    orders = [("E9", fixture("E9").order), ("CHAIN-10", fixture("CHAIN-10").order)]
    for n in range(2, 8):
        for i, E in enumerate(enumerate_effect_algebras(n, up_to_iso=True).algebras):
            orders.append((f"n{n}-class{i}", E.order))
    return orders


# search nodes that pass every prune, summed over the complement types:
# a change here changes the search's work
FREE_NODES = {2: 0, 3: 0, 4: 6, 5: 20, 6: 207, 7: 663, 8: 7738, 9: 30244}
RESTRICTED_NODES = {"E9": 22, "CHAIN-10": 339}
# base tables over the complement types: one per orbit of relabelings
BASE_TABLES = {2: 1, 3: 1, 4: 4, 5: 6, 6: 41, 7: 71, 8: 800, 9: 1588}


@pytest.mark.parametrize("n", range(2, 8))
def test_free_search_matches_oracle(n):
    types = _free_types(n)
    assert [tab for tab, _ in _free_tables(types)] == oracles.free_tables(n)
    assert sum(nodes for *_, nodes in types) == FREE_NODES[n]


def test_count_free_at_nine():
    # the count path alone reaches n = 9; n = 10 (3,719,836 labeled, 172
    # classes, 449,132 nodes) runs as a CI step under a timeout
    assert _count_free(9) == (165544, 60, FREE_NODES[9])


def test_search_keeps_inverse_rows(monkeypatch):
    # at each completed table w is exactly the inverse of t (w[x][v] the a
    # with x + a = v, -1 where there is none), and a search leaves t and w
    # at their presets; every complement type with n <= 7 and the
    # restricted presets of E9 and CHAIN-10
    real = enumeration._search
    checked = []

    class Checked(list):
        def __init__(self, t, w):
            super().__init__()
            self.t, self.w = t, w

        def append(self, tab):
            n = len(self.t)
            assert self.w == [[row.index(v) if v in row else -1 for v in range(n)]
                              for row in self.t]
            super().append(tab)

    def search(t, w, cells, choices, idx, n, out):
        if idx:
            return real(t, w, cells, choices, idx, n, out)
        preset = [row[:] for row in t], [row[:] for row in w]
        found = Checked(t, w)
        nodes = real(t, w, cells, choices, idx, n, found)
        assert (t, w) == preset
        checked.append(len(found))
        out.extend(found)
        return nodes

    monkeypatch.setattr(enumeration, "_search", search)
    for n in range(2, 8):
        types = [_type_tables(n, j) for j in range((n - 2) // 2 + 1)]
        assert sum(nodes for *_, nodes in types) == FREE_NODES[n]
    for name, nodes in RESTRICTED_NODES.items():
        assert _restricted_tables(fixture(name).order)[1] == nodes
    # every base table with n <= 7, E9's two tables and CHAIN-10's one
    assert sum(checked) == sum(BASE_TABLES[n] for n in range(2, 8)) + 3


def test_restricted_search_and_involutions_match_oracle():
    orders = _restricted_orders()
    assert len(orders) == 2 + 33
    for name, order in orders:
        assert _antitone_involutions(order) == oracles.antitone_involutions(order), name
        res = enumerate_effect_algebras(order.n, induced_order=order)
        got = res.algebras
        want = oracles.restricted_algebras(order)
        if name in RESTRICTED_NODES:
            assert res.nodes == RESTRICTED_NODES[name]
        assert [(E.name, E.labels, E.sums) for E in got] == [
            (E.name, E.labels, E.sums) for E in want
        ], name
        assert got, name  # the order of an effect algebra admits at least that one


def test_threads_is_ignored():
    # the search runs in one process whatever threads says, and starts none
    seq = enumerate_effect_algebras(5)
    for threads in (64, 2, 0, -3, None):
        res = enumerate_effect_algebras(5, threads=threads)
        assert [(E.name, E.sums) for E in res.algebras] == [(E.name, E.sums) for E in seq.algebras]
        assert (res.labeled_count, res.iso_count, res.nodes) == (
            seq.labeled_count, seq.iso_count, seq.nodes) == (16, 4, FREE_NODES[5])
    code = ("import sys; from unsharp import enumerate_effect_algebras; "
            "res = enumerate_effect_algebras(6, threads=64); "
            "print(res.labeled_count, res.iso_count, 'multiprocessing' in sys.modules)")
    src = str(Path(enumeration.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["142", "10", "False"]


@pytest.mark.parametrize("n", range(2, 9))
def test_transported_algebras_match_full_validation(n):
    # the enumerator validates no table and reads each off its rows;
    # validating every labeled table must build the same algebras
    want, refused = oracles.validate_each_table(
        _default_labels(n), [tab for tab, _ in _free_tables(_free_types(n))]
    )
    res = enumerate_effect_algebras(n)
    assert refused == 0
    assert list(map(oracles.algebra_fields, res.algebras)) == list(
        map(oracles.algebra_fields, want)
    )
    reps = classes(n).algebras
    if n < 8:  # the first labeled member of each class
        firsts = {}
        for E in want:
            firsts.setdefault(canonical_form(E), E)
        assert [E.name for E in reps] == [E.name for E in firsts.values()]
    by_name = {E.name: E for E in want}
    assert [oracles.algebra_fields(E) for E in reps] == [
        oracles.algebra_fields(by_name[E.name]) for E in reps
    ]


def complement_pairs(tab) -> int:
    'The complement type j of a table: its interior pairs x + y = 1 with x < y.'
    one = len(tab) - 1
    return sum(tab[x].index(one) > x for x in range(1, one))


@pytest.mark.parametrize("n", range(2, 8))
def test_one_validation_per_base_table(monkeypatch, n):
    # nothing is validated; the one thing done per base table rather than
    # per labeled table is its canonical labeling, whose form every algebra
    # listed from it carries, so grouping the listing into classes labels nothing
    calls = []
    real = enumeration._canonical_labeling
    monkeypatch.setattr(enumeration, "_canonical_labeling", lambda E: calls.append(E) or real(E))
    res = enumerate_effect_algebras(n)
    assert len({canonical_form(E) for E in res.algebras}) == res.iso_count
    types = [complement_pairs(E.sums) for E in res.algebras]
    # each base table of type j stands for |relabelings of type j| labeled tables
    bases = sum(types.count(j) // len(_relabelings(n, j)) for j in set(types))
    assert len(calls) == bases == BASE_TABLES[n]


def _listings():
    """The free listings with n <= 8, with and without up_to_iso, and the
    restricted listings of E9 and CHAIN-10."""
    for n in range(2, 9):
        for up_to_iso in (False, True):
            yield f"n{n}-iso{up_to_iso:d}", enumerate_effect_algebras(n, up_to_iso)
    for name in RESTRICTED_NODES:
        order = fixture(name).order
        yield name, enumerate_effect_algebras(order.n, induced_order=order)


def test_listed_algebras_carry_their_own_form():
    # the seed is the form of the base table an algebra was moved from; a
    # relabeling keeps the form, so it must be the algebra's own
    for name, res in _listings():
        for E in res.algebras:
            assert canonical_form(E) == _canonical_labeling(E)[0], (name, E.name)
    # a relabeled algebra is a new instance: it carries no form and computes its own
    E = enumerate_effect_algebras(7).algebras[-1]
    F = relabel(E, [0, *range(E.n - 2, 0, -1), E.n - 1])
    assert enumeration._FORM in E.__dict__ and enumeration._FORM not in F.__dict__
    assert canonical_form(F) == canonical_form(E) == _canonical_labeling(F)[0]


@pytest.mark.parametrize("n", range(2, 10))
def test_free_search_rejects_no_completed_table(n):
    # the search is its own validator: every base table of every complement
    # type passes the oracle's validator
    base = [tab for j in range((n - 2) // 2 + 1) for tab in _type_tables(n, j)[1]]
    assert oracles.validate_each_table(_default_labels(n), base)[1] == 0
    assert len(base) == BASE_TABLES[n]


def test_restricted_search_agrees_with_free_listing(e9):
    # no order filter runs: for every order among the free listing's
    # algebras with n <= 7 (892 orders), the restricted search finds exactly
    # the free tables inducing it, in the free listing's order, and each is
    # valid and induces it; on the orders of E9 and CHAIN-10 it finds valid
    # tables inducing them
    orders = nodes = 0
    for n, total in zip(range(2, 8), (1, 1, 4, 16, 142, 1006)):
        by_order: dict = {}
        for E in enumerate_effect_algebras(n).algebras:
            by_order.setdefault(E.order.up, (E.order, []))[1].append(E.sums)
        counted = 0
        for order, sums in by_order.values():
            res = enumerate_effect_algebras(n, induced_order=order)
            tables = [E.sums for E in res.algebras]
            assert res.labeled_count == len(tables), (n, order.up)
            assert tables == sums, (n, order.up)
            assert oracles.validate_each_table(order.labels, tables, order)[1] == 0
            counted += res.labeled_count
            nodes += res.nodes
        assert counted == total, n
        orders += len(by_order)
    assert orders == 1 + 1 + 3 + 13 + 103 + 771
    # no preset is checked for associativity; 4,815 is the count with each one checked
    assert nodes == 4815
    for order in (e9.order, fixture("CHAIN-10").order):
        tables = [E.sums for E in enumerate_effect_algebras(order.n, induced_order=order).algebras]
        assert tables and oracles.validate_each_table(order.labels, tables, order)[1] == 0

from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp import (
    Subset,
    element_implication_suite,
    fixture,
    implication_table,
    implies,
    implies_sets,
    set_implication_suite,
)

import e9_data
from conftest import idx


def test_full_table_matches_transcription(e9):
    table = implication_table(e9)
    for x_lab, row in e9_data.IMPLICATION.items():
        for y_lab, cell in row.items():
            got = table[idx(e9, x_lab), idx(e9, y_lab)]
            assert {e9.labels[i] for i in got} == cell, (x_lab, y_lab)


def test_implies_definition_directly(e9):
    # x -> y is x' + L(x,y), checked cell by cell from first principles
    p = e9.order
    for x in range(9):
        for y in range(9):
            lower = [
                z for z in range(9) if p.leq(z, x) and p.leq(z, y)
            ]
            expect = {e9.sums[e9.comp[x]][z] for z in lower}
            assert set(implies(e9, x, y)) == expect


def test_worked_hand_values(e9):
    def imp(x, y):
        return e9.render(implies(e9, idx(e9, x), idx(e9, y)))

    assert imp("e", "a") == "{c,f}"
    assert imp("g", "c") == "{a,f}"
    assert imp("a", "d") == "{g}"
    assert imp("d", "g") == "{d,f}"
    assert imp("1", "f") == "{0,a,b,c,d,f}"


def test_set_arguments_and_empty_convention(e9):
    b = e9.subset(idx(e9, "b"))
    res = implies_sets(e9, Subset.empty(9), b)
    assert res == Subset.empty(9)
    # singleton sets agree with the element form
    for x in range(9):
        for y in range(9):
            assert implies_sets(e9, x, y) == implies(e9, x, y)


def test_product_examples(e9):
    g, a, e, f = (idx(e9, lab) for lab in "gaef")
    assert e9.odot(g, a) == e9.zero
    assert e9.odot(e, f) == a
    assert e9.odot(a, a) is None  # a' = g is not below a


def test_element_suite_clean_on_corpus(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = element_implication_suite(E)
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


def test_meet_collapse_skipped_only_off_lattices(e9, e6):
    rep9 = element_implication_suite(e9)
    meet9 = rep9.clause("meet_consequent_collapse")
    assert meet9.skipped and "lattice" in meet9.detail
    rep6 = element_implication_suite(e6)
    meet6 = rep6.clause("meet_consequent_collapse")
    assert not meet6.skipped and meet6.passed


def test_set_suite_clean_on_corpus(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = set_implication_suite(E)
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_implication_on_chains_is_interval(n, data):
    # on a chain, x -> y = [x', x'+min(x,y)] so it is always an interval
    E = fixture(f"CHAIN-{n}")
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    got = sorted(implies(E, x, y))
    xc = E.comp[x]
    assert got == list(range(xc, xc + min(x, y) + 1))

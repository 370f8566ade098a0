"""`Subset` as an immutable value: equality, hashing, repr, copies, and the
checks its public constructors make.

The package builds the Subsets it returns without re-checking them, so
these tests hold its results to freshly checked ones.  The module imports
only the package, so it also runs without pytest, as a plain script:

    PYTHONPATH=src python tests/test_subset.py
"""

import copy
import dataclasses
import pickle

from unsharp import Subset, fixture, implies


def raises(message, fn, *args):
    'Assert that fn(*args) raises ValueError with exactly `message`.'
    try:
        fn(*args)
    except ValueError as exc:
        assert str(exc) == message, (fn, args, str(exc))
    else:
        raise AssertionError(f"{fn.__name__}{args} did not raise")


def package_results():
    'Subsets the package builds itself: cones, implication cells and set sums.'
    for name in ("E9", "BOOL-3"):
        E = fixture(name)
        p, n = E.order, E.n
        for a in range(n):
            low_comp = p.lower_cone(E.subset(E.comp[a]))
            for b in range(n):
                low, upp = p.cone_pair(a, b)
                assert set(low) == {z for z in range(n) if p.leq(z, a) and p.leq(z, b)}
                assert set(upp) == {z for z in range(n) if p.leq(a, z) and p.leq(b, z)}
                yield from (low, upp, implies(E, a, b), E.add_sets(low_comp, low))


def test_equality_hash_and_repr():
    s = Subset(0b101, 5)
    assert s == Subset.of(5, (2, 0)) == Subset.single(5, 0) | Subset.single(5, 2)
    assert s != Subset(0b101, 6) and s != (0b101, 5) and s != 0b101
    assert hash(s) == hash(Subset.of(5, (0, 2))) and len({s, Subset.of(5, (0, 2))}) == 1
    assert repr(s) == "Subset(bits=5, n=5)" and repr(Subset.empty(0)) == "Subset(bits=0, n=0)"
    assert dataclasses.is_dataclass(Subset)
    assert [f.name for f in dataclasses.fields(Subset)] == ["bits", "n"]
    for name in ("bits", "n", "other"):
        for change in (lambda: setattr(s, name, 1), lambda: delattr(s, name)):
            try:
                change()
            except AttributeError:
                pass
            else:
                raise AssertionError(f"changing {name} did not raise")
    assert (s.bits, s.n) == (0b101, 5)


def test_pickle_and_copies_round_trip():
    E = fixture("E9")
    wrapped = E.order.cone_pair(1, 2)
    for s in (Subset.empty(0), Subset.of(9, (1, 8)), Subset.full(64), *wrapped):
        copies = [pickle.loads(pickle.dumps(s, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for t in (*copies, copy.copy(s), copy.deepcopy(s)):
            assert type(t) is Subset and t == s and hash(t) == hash(s) and repr(t) == repr(s)


def test_public_constructors_keep_their_checks():
    for n in (-1, 65):
        raises(f"carrier size {n} outside 0..64", Subset, 0, n)
        raises(f"carrier size {n} outside 0..64", Subset.empty, n)
        raises(f"carrier size {n} outside 0..64", Subset.of, n, ())
    raises("carrier size 65 outside 0..64", Subset.full, 65)
    raises("carrier size -1 outside 0..64", Subset.full, -1)
    raises("carrier size 65 outside 0..64", Subset.of, 65, (0, 64))
    raises("carrier size 65 outside 0..64", Subset.single, 65, 3)
    raises("carrier size -1 outside 0..64", Subset.of, -1, (0,))
    raises("carrier size -1 outside 0..64", Subset.single, -1, 0)
    raises("subset bits fall outside the carrier", Subset, 0b1000, 3)
    raises("subset bits fall outside the carrier", Subset, -1, 3)
    raises("subset bits fall outside the carrier", Subset, 1, 0)
    raises("element 3 outside carrier 0..2", Subset.of, 3, (0, 3))
    raises("element -1 outside carrier 0..2", Subset.of, 3, (-1,))
    raises("element 5 outside carrier 0..4", Subset.single, 5, 5)
    raises("element 5 outside carrier", Subset.of(5, ()).add, 5)
    assert Subset.of(64, (63,)).bits == 1 << 63 and Subset.full(0) == Subset.empty(0)


def test_package_results_equal_checked_subsets():
    count = 0
    for s in package_results():
        fresh = Subset(s.bits, s.n)
        assert type(s) is Subset and s == fresh and hash(s) == hash(fresh), s
        assert repr(s) == repr(fresh) and vars(s) == vars(fresh)
        assert pickle.loads(pickle.dumps(s)) == fresh
        count += 1
    assert count == 4 * (9 * 9 + 8 * 8)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
    print(f"{len(tests)} Subset tests passed")

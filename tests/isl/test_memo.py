"""The global isl memo tables: correctness, counters, determinism."""

import pytest

from repro.isl import memo
from repro.isl.affine import AffineExpr
from repro.isl.constraint import Constraint
from repro.isl.sets import BasicSet


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test sees empty, enabled tables; global state is restored."""
    previous = memo.set_enabled(True)
    memo.clear_all()
    for table in memo.active().tables():
        table.reset_counters()
    yield
    memo.clear_all()
    memo.set_enabled(previous)


def _triangle(n=8):
    # { [i, j] : 0 <= i <= n-1 and 0 <= j <= i }
    i, j = AffineExpr.var("i"), AffineExpr.var("j")
    return BasicSet(
        ("i", "j"),
        [
            Constraint.ge(i, 0),
            Constraint.le(i, n - 1),
            Constraint.ge(j, 0),
            Constraint.le(j, i),
        ],
    )


class TestMemoTable:
    def test_counters_and_values(self):
        table = memo.MemoTable("t")
        assert table.get("k") is None
        assert (table.hits, table.misses) == (0, 1)
        table.put("k", 42)
        assert table.get("k") == 42
        assert (table.hits, table.misses) == (1, 1)

    def test_false_values_are_hits(self):
        table = memo.MemoTable("t")
        table.put("k", False)
        assert table.get("k") is False
        assert table.hits == 1

    def test_cap_clears_wholesale(self):
        table = memo.MemoTable("t", cap=2)
        table.put(1, "a")
        table.put(2, "b")
        table.put(3, "c")  # exceeds cap: table cleared first
        assert table.get(1) is None
        assert table.get(3) == "c"

    def test_set_enabled_returns_previous(self):
        assert memo.set_enabled(False) is True
        assert memo.set_enabled(True) is False
        assert memo.enabled()

    def test_stats_snapshot_keys(self):
        snapshot = memo.stats_snapshot()
        assert set(snapshot) == {t.name for t in memo.active().tables()}
        assert set(snapshot) == {"projection", "emptiness", "bounds"}
        assert all(v == (0, 0) for v in snapshot.values())


class TestProjectionMemo:
    def test_drop_dim_hit_is_identical(self):
        bset = _triangle()
        first = bset.drop_dim("j")
        second = bset.drop_dim("j")
        assert second is first  # memo returns the cached object
        assert memo.active().projection.hits >= 1

    def test_memoized_matches_uncached_exactly(self):
        bset = _triangle()
        cached = bset.drop_dim("j")
        memo.set_enabled(False)
        fresh = _triangle().drop_dim("j")
        # Bit-identical: same constraint tuple in the same order.
        assert cached.dims == fresh.dims
        assert cached.constraints == fresh.constraints

    def test_disabled_tables_stay_cold(self):
        memo.set_enabled(False)
        _triangle().drop_dim("j")
        assert memo.active().projection.hits == 0
        assert memo.active().projection.misses == 0


class TestEmptinessMemo:
    def test_emptiness_memoized(self):
        bset = _triangle()
        assert bset.is_empty() is False
        assert bset.is_empty() is False
        assert memo.active().emptiness.hits >= 1

    def test_empty_set_memoized(self):
        i = AffineExpr.var("i")
        empty = BasicSet(("i",), [Constraint.ge(i, 1), Constraint.le(i, 0)])
        assert empty.is_empty() is True
        assert BasicSet(("i",), [Constraint.ge(i, 1), Constraint.le(i, 0)]).is_empty() is True
        assert memo.active().emptiness.hits >= 1


class TestBoundsMemo:
    def test_dim_bounds_returns_fresh_lists(self):
        bset = _triangle()
        lowers, uppers = bset.dim_bounds("j", context=("i",))
        lowers.append("sentinel")
        lowers2, _ = bset.dim_bounds("j", context=("i",))
        assert "sentinel" not in lowers2

    def test_dim_bounds_hit_matches_uncached(self):
        bset = _triangle()
        bset.dim_bounds("j", context=("i",))
        cached = bset.dim_bounds("j", context=("i",))
        memo.set_enabled(False)
        fresh = _triangle().dim_bounds("j", context=("i",))
        assert cached == fresh


class TestInternedKeys:
    """Eviction and hit/miss accounting with hash-consed atom keys.

    Memo keys are tuples of interned AffineExpr/Constraint atoms; the
    tables must behave identically whether a key's atoms are the
    canonical interned objects or structurally equal strays (from a
    cleared intern table or another context).
    """

    def test_interned_and_stray_keys_collide(self):
        from repro.isl import intern as _intern

        table = memo.MemoTable("t")
        canonical = Constraint.ge(AffineExpr({"i": 1}), 2)
        table.put(("k", canonical), "v")
        stray_context = _intern.InternContext()
        previous = _intern.activate(stray_context)
        try:
            stray = Constraint.ge(AffineExpr({"i": 1}), 2)
        finally:
            _intern.activate(previous)
        assert stray is not canonical
        assert table.get(("k", stray)) == "v"
        assert (table.hits, table.misses) == (1, 0)

    def test_eviction_under_interned_keys(self):
        table = memo.MemoTable("t", cap=3)
        keys = [(AffineExpr({"i": 1}, n),) for n in range(4)]
        for n, key in enumerate(keys):
            table.put(key, n)
        # Cap-3 table cleared wholesale before the 4th insert.
        assert table.get(keys[0]) is None
        assert table.get(keys[3]) == 3
        assert (table.hits, table.misses) == (1, 1)

    def test_projection_key_survives_intern_table_clear(self):
        from repro.isl import intern as _intern

        bset = _triangle()
        first = bset.drop_dim("j")
        _intern.active().clear()  # live atoms stay valid, table forgets
        second = _triangle().drop_dim("j")
        assert second.dims == first.dims
        assert second.constraints == first.constraints


class TestMemoOnOffIdentity:
    """Property: memo on/off is bit-identical across all workloads."""

    WORKLOADS = ("gemm", "bicg", "mm2", "mm3", "gesummv")

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_bit_identity(self, name):
        from repro.dse import auto_dse
        from repro.dse.options import DseOptions
        from repro.workloads import polybench

        factory = getattr(polybench, name)
        memo.clear_all()
        cached = auto_dse(factory(16), options=DseOptions(cache=True))
        memo.clear_all()
        uncached = auto_dse(factory(16), options=DseOptions(cache=False))
        assert cached.report == uncached.report
        assert cached.tile_vectors() == uncached.tile_vectors()
        assert cached.evaluations == uncached.evaluations
        assert [d.fingerprint() for d in cached.schedule] == [
            d.fingerprint() for d in uncached.schedule
        ]

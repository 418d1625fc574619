import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genforest.data import CATEGORICAL, REAL, dataset_from_rows
from genforest.measure import (
    LOSSES,
    CatSubset,
    IntRange,
    NumericInterval,
    Support,
    cell_risk,
    full_restriction,
    get_loss,
    uniform_mass,
)
from oracles import compatible_rows, empirical_mass, mixture_mass, partial_loss, poprisk_from_cells


class TestRestrictions:
    def test_interval_half_open_tiling(self):
        parent = NumericInterval(0.0, 1.0)
        left = NumericInterval(0.0, 0.4)
        right = NumericInterval(0.4, 1.0, lo_open=True)
        for x in [0.0, 0.2, 0.4, 0.4000001, 0.7, 1.0]:
            assert left.contains(x) != right.contains(x) or not parent.contains(x)
        assert left.contains(0.4) and not right.contains(0.4)

    def test_interval_emptiness(self):
        assert NumericInterval(0.5, 0.4).is_empty()
        assert NumericInterval(0.4, 0.4, lo_open=True).is_empty()
        assert not NumericInterval(0.4, 0.4).is_empty()

    @given(
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.booleans()),
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.booleans()),
        st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_intersection_pointwise(self, a, b, x):
        ia = NumericInterval(min(a[0], a[1]), max(a[0], a[1]), a[2])
        ib = NumericInterval(min(b[0], b[1]), max(b[0], b[1]), b[2])
        inter = ia.intersect(ib)
        assert inter.contains(x) == (ia.contains(x) and ib.contains(x))

    def test_int_range(self):
        r = IntRange(2, 5)
        assert r.count() == 4
        assert r.contains(2) and r.contains(5) and not r.contains(6)
        assert r.intersect(IntRange(4, 9)) == IntRange(4, 5)
        assert IntRange(3, 2).is_empty()

    def test_cat_subset(self):
        s = CatSubset(frozenset({0, 2}))
        assert s.contains(0) and not s.contains(1)
        assert s.intersect(CatSubset(frozenset({2, 3}))) == CatSubset(frozenset({2}))
        assert CatSubset(frozenset()).is_empty()


class TestSupport:
    def test_full_support_mass_one(self, mixed_ds):
        s = Support.full(mixed_ds.schema)
        assert uniform_mass(mixed_ds.schema, s) == pytest.approx(1.0)

    def test_uniform_mass_additive_under_split(self, toy2d):
        s = Support.full(toy2d.schema)
        dom = toy2d.schema.domains[0]
        t = 0.5 * (dom.lo + dom.hi)
        left = s.replace(0, NumericInterval(dom.lo, t))
        right = s.replace(0, NumericInterval(t, dom.hi, lo_open=True))
        total = uniform_mass(toy2d.schema, left) + uniform_mass(toy2d.schema, right)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_intersect_and_empty(self, toy2d):
        s = Support.full(toy2d.schema)
        a = s.replace(0, NumericInterval(0.1, 0.3))
        b = s.replace(0, NumericInterval(0.5, 0.9, lo_open=True))
        assert a.intersect(b).is_empty()
        c = s.replace(0, NumericInterval(0.2, 0.6))
        inter = a.intersect(c)
        assert inter.restrictions[0] == NumericInterval(0.2, 0.3)

    def test_contains_matches_compatible_rows(self, toy2d):
        s = Support.full(toy2d.schema).replace(0, NumericInterval(0.0, 0.5))
        rows = compatible_rows(toy2d, s)
        manual = [i for i in range(toy2d.m) if s.contains(toy2d.row(i))]
        assert sorted(rows.tolist()) == manual


class TestEmpiricalMass:
    def test_counts(self, toy2d):
        s = Support.full(toy2d.schema).replace(0, NumericInterval(0.0, 0.5))
        assert empirical_mass(toy2d, s) == pytest.approx(4 / 8)

    def test_missing_cell_is_wildcard(self):
        ds = dataset_from_rows(
            ["x", "k"],
            [REAL, CATEGORICAL],
            [[0.1, "a"], [0.9, "b"], [0.5, None]],
        )
        s = Support.full(ds.schema).replace(1, CatSubset(frozenset({0})))
        # row 2 has a missing category, so it is compatible with any subset
        assert empirical_mass(ds, s) == pytest.approx(2 / 3)


class TestLosses:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_bayes_risk_symmetric_bounded(self, name):
        loss = get_loss(name)
        u = np.linspace(0.0, 1.0, 101)
        br = loss.bayes_risk(u)
        assert np.allclose(br, loss.bayes_risk(1.0 - u), atol=1e-12)
        assert br[0] == pytest.approx(0.0) and br[-1] == pytest.approx(0.0)
        assert np.max(br) == pytest.approx(loss.bayes_risk(0.5))

    def test_square_kappa_lower_bound(self):
        loss = get_loss("square")
        u = np.linspace(1e-6, 1 - 1e-6, 2001)
        h = 1e-7
        dm1 = (partial_loss(loss, 0, u + h) - partial_loss(loss, 0, u - h)) / (2 * h)
        dp1 = (partial_loss(loss, 1, u + h) - partial_loss(loss, 1, u - h)) / (2 * h)
        assert np.min(dm1 - dp1) >= loss.kappa - 1e-6

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_g_pi_concave(self, name):
        loss = get_loss(name)
        t = np.linspace(0.0, 5.0, 200)
        g = loss.g_pi(t, 0.5)
        second = np.diff(g, 2)
        assert np.all(second <= 1e-10)

    def test_cell_risk_square_fast_path_matches_generic(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0, 1, 50)
        u = rng.uniform(0, 1, 50)
        pi = 0.3
        loss = get_loss("square")
        pm = mixture_mass(r, u, pi)
        generic = pm * loss.bayes_risk(np.clip(pi * r / np.maximum(pm, 1e-300), 0, 1))
        assert np.allclose(cell_risk(loss, r, u, pi), generic, atol=1e-12)

    def test_poprisk_full_partition_reference(self):
        # one-cell partition with r=u=1 has risk L(pi)
        loss = get_loss("square")
        assert poprisk_from_cells(loss, [(1.0, 1.0)], 0.5) == pytest.approx(0.25)

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            get_loss("hinge")


def test_full_restriction_kinds(mixed_ds):
    r0 = full_restriction(mixed_ds.schema.domains[0])
    r1 = full_restriction(mixed_ds.schema.domains[1])
    assert isinstance(r0, NumericInterval)
    assert isinstance(r1, CatSubset)

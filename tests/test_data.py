import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genforest.data import (
    CATEGORICAL,
    INTEGER,
    MISSING_CODE,
    REAL,
    SYNTH_SIZES,
    DataError,
    Dataset,
    apply_mcar,
    load_csv,
    load_mask,
    save_mask,
    synth_domain,
)
from tests.conftest import dataset_from_rows


class TestSynth:
    @pytest.mark.parametrize("name", sorted(SYNTH_SIZES))
    def test_sizes_and_shape(self, name):
        ds = synth_domain(name, seed=0)
        assert ds.m == SYNTH_SIZES[name]
        assert ds.d == 2
        assert all(dom.kind == REAL for dom in ds.schema.domains)

    def test_seed_determinism(self):
        a = synth_domain("ringGauss", seed=7)
        b = synth_domain("ringGauss", seed=7)
        c = synth_domain("ringGauss", seed=8)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_unknown_name(self):
        with pytest.raises(DataError):
            synth_domain("nope", seed=0)


class TestCsv:
    def test_roundtrip_with_missing(self, tmp_path, mixed_ds):
        path = tmp_path / "d.csv"
        mixed_ds.to_csv(path)
        back = load_csv(path)
        assert back.schema.names == mixed_ds.schema.names
        assert [d.kind for d in back.schema.domains] == [REAL, CATEGORICAL]
        assert back.content_hash() == mixed_ds.content_hash()

    def test_type_inference(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2.5,y\n3,3.5,x\n")
        ds = load_csv(path)
        kinds = [d.kind for d in ds.schema.domains]
        assert kinds == [INTEGER, REAL, CATEGORICAL]

    def test_question_mark_is_missing(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("a\n1.0\n?\n3.0\n")
        ds = load_csv(path)
        assert ds.missing_mask()[1, 0]

    def test_given_schema_keeps_its_codes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2.5,y\n3,3.5,x\n")
        schema = load_csv(path).schema
        path.write_text("a,b,c\n7,-1.0,y\n,2.5,?\n")
        ds = load_csv(path, schema=schema)
        assert ds.schema is schema
        assert ds.columns[2].tolist() == [1, MISSING_CODE]
        assert ds.columns[0][0] == 7.0 and ds.missing_mask()[1, 0]  # outside the domain, kept

    @pytest.mark.parametrize("body, message", [
        ("a,c,b\n1,x,1.5\n", "does not match"),
        ("a,b,c\n1,1.5,z\n", "column 'c': 'z' is not a known category"),
        ("a,b,c\n1,1.5,x\n1.5,1.5,x\n", "row 3, column 'a': '1.5' is not an integer"),
        ("a,b,c\n1,inf,x\n", "column 'b': 'inf' is not a finite number"),
    ], ids=["header", "category", "integer", "number"])
    def test_given_schema_names_a_bad_token(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,1.5,x\n2,2.5,y\n")
        schema = load_csv(path).schema
        path.write_text(body)
        with pytest.raises(DataError, match=message):
            load_csv(path, schema=schema)


class TestMcar:
    def test_rate_and_determinism(self):
        ds = synth_domain("circGauss", seed=0)
        masked1, mask1 = apply_mcar(ds, 0.05, seed=3)
        masked2, mask2 = apply_mcar(ds, 0.05, seed=3)
        assert np.array_equal(mask1, mask2)
        assert masked1.content_hash() == masked2.content_hash()
        rate = mask1.mean()
        assert 0.03 < rate < 0.07
        # masked cells really are missing, unmasked cells untouched
        assert np.array_equal(masked1.missing_mask(), mask1)
        for j in range(ds.d):
            keep = ~mask1[:, j]
            assert np.array_equal(masked1.columns[j][keep], ds.columns[j][keep])

    def test_mask_roundtrip(self, tmp_path):
        ds = synth_domain("ringGauss", seed=0)
        _, mask = apply_mcar(ds, 0.1, seed=1)
        p = tmp_path / "m.npy"
        save_mask(mask, p)
        assert np.array_equal(load_mask(p), mask)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 3), (4, 3)])
    def test_mask_roundtrip_keeps_its_shape(self, tmp_path, shape):
        mask = np.arange(np.prod(shape)).reshape(shape) % 3 == 1
        p = tmp_path / "m.csv"
        save_mask(mask, p)
        assert np.array_equal(load_mask(p), mask)


class TestRoutingColumns:
    def test_no_missing_and_observed_preserved(self, mixed_ds):
        route = mixed_ds.routing_columns()
        miss = mixed_ds.missing_mask()
        for j, dom in enumerate(mixed_ds.schema.domains):
            col = route[j]
            if dom.kind == CATEGORICAL:
                assert (col != MISSING_CODE).all()
            else:
                assert not np.isnan(col).any()
            keep = ~miss[:, j]
            assert np.array_equal(col[keep], mixed_ds.columns[j][keep])

    def test_fill_values_from_observed_marginal(self, mixed_ds):
        route = mixed_ds.routing_columns()
        j = 1
        observed = set(mixed_ds.columns[j][mixed_ds.columns[j] != MISSING_CODE])
        filled = route[j][mixed_ds.missing_mask()[:, j]]
        assert set(filled) <= observed

    def test_content_determinism(self, mixed_ds):
        # a fresh Dataset with the same content fills identically
        clone = Dataset(mixed_ds.schema, [c.copy() for c in mixed_ds.columns])
        a = mixed_ds.routing_columns()
        b = clone.routing_columns()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestDataset:
    def test_take_rows_relearns_numeric_domain(self, mixed_ds):
        sub = mixed_ds.take_rows(np.array([2, 3, 4]))
        assert sub.schema.domains[0].lo == pytest.approx(0.3)
        assert sub.schema.domains[0].hi == pytest.approx(0.5)
        raw = mixed_ds.take_rows(np.array([2, 3, 4]), relearn_numeric=False)
        assert raw.schema.domains[0].lo == mixed_ds.schema.domains[0].lo

    def test_content_hash_sensitivity(self, toy2d):
        cols = [c.copy() for c in toy2d.columns]
        cols[0][0] += 1e-9
        changed = toy2d.with_columns(cols)
        assert changed.content_hash() != toy2d.content_hash()

    @given(st.lists(st.floats(0, 1, width=32), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_from_rows_roundtrip_values(self, vals):
        ds = dataset_from_rows(["x"], [REAL], [[float(v)] for v in vals])
        assert ds.m == len(vals)
        assert np.allclose(ds.columns[0], np.asarray(vals, dtype=np.float64))

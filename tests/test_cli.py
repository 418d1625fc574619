import numpy as np
import pytest

from genforest.cli import build_parser, run
from genforest.data import apply_mcar, load_csv, save_mask
from genforest.forest import GenerativeForest
from tests.conftest import empty_a_subtree


@pytest.fixture
def toy_csv(tmp_path, toy2d):
    p = tmp_path / "toy.csv"
    toy2d.to_csv(p)
    return p


@pytest.fixture
def model_path(tmp_path, toy_csv):
    out = tmp_path / "model.json"
    code = run(["train", "--data", str(toy_csv), "--out", str(out),
                "--trees", "2", "--splits", "3"])
    assert code == 0
    return out


class TestFlows:
    def test_train_writes_model_and_history(self, tmp_path, toy_csv):
        model = tmp_path / "m.json"
        hist = tmp_path / "h.csv"
        code = run(["train", "--data", str(toy_csv), "--out", str(model),
                    "--trees", "2", "--splits", "3", "--history", str(hist)])
        assert code == 0
        assert model.exists()
        assert len(hist.read_text().strip().split("\n")) == 4

    def test_generate(self, tmp_path, toy_csv, model_path):
        out = tmp_path / "gen.csv"
        code = run(["generate", "--model", str(model_path), "--train", str(toy_csv),
                    "--n", "20", "--out", str(out)])
        assert code == 0
        assert load_csv(out).m == 20

    def test_density(self, tmp_path, toy_csv, model_path):
        out = tmp_path / "dens.csv"
        code = run(["density", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(toy_csv), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 9
        assert all(float(l.split(",")[0]) > 0 for l in lines[1:])

    def test_convert_then_generate_without_train(self, tmp_path, toy_csv, model_path):
        eogt = tmp_path / "eogt.json"
        assert run(["convert", "--model", str(model_path), "--train", str(toy_csv),
                    "--out", str(eogt)]) == 0
        out = tmp_path / "gen.csv"
        assert run(["generate", "--model", str(eogt), "--n", "10",
                    "--out", str(out)]) == 0
        assert load_csv(out).m == 10

    def test_impute_with_mask(self, tmp_path, toy2d, toy_csv, model_path):
        _, mask = apply_mcar(toy2d, 0.3, seed=1)
        mask_path = tmp_path / "mask.csv"
        save_mask(mask, mask_path)
        out = tmp_path / "imp.csv"
        code = run(["impute", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(toy_csv), "--mask", str(mask_path),
                    "--out", str(out)])
        assert code == 0
        imputed = load_csv(out)
        assert not imputed.missing_mask().any()
        # unmasked cells survive the round trip
        for j in range(toy2d.d):
            keep = ~mask[:, j]
            assert np.allclose(imputed.columns[j][keep], toy2d.columns[j][keep])

    def test_eval_impute_metrics(self, tmp_path, toy2d, toy_csv, model_path, capsys):
        _, mask = apply_mcar(toy2d, 0.3, seed=1)
        mask_path = tmp_path / "mask.csv"
        save_mask(mask, mask_path)
        out = tmp_path / "imp.csv"
        run(["impute", "--model", str(model_path), "--train", str(toy_csv),
             "--data", str(toy_csv), "--mask", str(mask_path), "--out", str(out)])
        code = run(["eval", "impute-metrics", "--imputed", str(out),
                    "--truth", str(toy_csv), "--mask", str(mask_path)])
        assert code == 0
        assert '"rmse"' in capsys.readouterr().out

    def test_impute_one_feature_with_mask(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("x\n" + "".join(f"{v}\n" for v in (0.1, 0.2, 0.25, 0.8, 0.9, 0.95)))
        model = tmp_path / "one.json"
        assert run(["train", "--data", str(data), "--out", str(model),
                    "--trees", "1", "--splits", "2"]) == 0
        mask_path = tmp_path / "mask.csv"
        save_mask(np.array([[False], [True], [False], [False], [True], [False]]), mask_path)
        out = tmp_path / "imp.csv"
        assert run(["impute", "--model", str(model), "--train", str(data), "--data", str(data),
                    "--mask", str(mask_path), "--out", str(out)]) == 0
        imputed = load_csv(out)
        assert imputed.m == 6 and not imputed.missing_mask().any()

    def test_synth_with_mcar(self, tmp_path):
        out = tmp_path / "s.csv"
        mask_out = tmp_path / "s_mask.csv"
        code = run(["synth", "--name", "ringGauss", "--out", str(out),
                    "--mcar", "0.05", "--mask-out", str(mask_out)])
        assert code == 0
        ds = load_csv(out)
        assert ds.m == 1600
        assert ds.missing_mask().any()
        assert mask_out.exists()

    def test_eval_lifelike_uniform(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        run(["synth", "--name", "circGauss", "--out", str(data)])
        code = run(["eval", "lifelike", "--data", str(data), "--k", "3",
                    "--generator", "uniform", "--trees", "1", "--splits", "0"])
        assert code == 0
        assert '"fold_costs"' in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error(self):
        assert run(["no-such-command"]) == 2

    def test_bad_config_value(self, tmp_path, toy_csv):
        code = run(["train", "--data", str(toy_csv), "--out", str(tmp_path / "m.json"),
                    "--trees", "0", "--splits", "1"])
        assert code == 2

    def test_unreadable_model(self, tmp_path, toy_csv):
        code = run(["generate", "--model", str(tmp_path / "missing.json"),
                    "--train", str(toy_csv), "--n", "5",
                    "--out", str(tmp_path / "g.csv")])
        assert code == 3

    def test_model_missing_a_key(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"format": "genforest-model", "version": 1, "mode": "eogt", "pi": 0.5}')
        code = run(["generate", "--model", str(model), "--n", "5", "--out", str(tmp_path / "g.csv")])
        assert code == 3

    def test_negative_row_count(self, tmp_path, toy_csv, model_path, capsys):
        code = run(["generate", "--model", str(model_path), "--train", str(toy_csv),
                    "--n", "-1", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "n must be a non-negative row count, got -1" in capsys.readouterr().err

    def test_convert_names_an_internal_node_without_rows(self, tmp_path, toy_csv, model_path, capsys):
        forest = GenerativeForest.load(model_path, dataset=load_csv(toy_csv))
        t_idx, node = empty_a_subtree(model_path, forest)
        code = run(["convert", "--model", str(model_path), "--train", str(toy_csv),
                    "--out", str(tmp_path / "eogt.json")])
        assert code == 3
        assert f"tree {t_idx}: internal node {node} holds no training rows" in capsys.readouterr().err

    def test_impute_without_a_consistent_cell(self, tmp_path, toy_csv, model_path):
        data = tmp_path / "far.csv"
        data.write_text("x,y\n5.0,\n0.15,0.25\n")
        code = run(["impute", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(data), "--out", str(tmp_path / "imp.csv")])
        assert code == 3

    def test_impute_names_a_row_outside_the_domain(self, tmp_path, toy_csv, model_path, capsys):
        data = tmp_path / "far.csv"
        data.write_text("x,y\n0.15,\n5.0,\n")
        code = run(["impute", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(data), "--out", str(tmp_path / "imp.csv")])
        assert code == 3
        assert "row 3: x=5.0 lies outside the learned domain" in capsys.readouterr().err

    def test_thread_count_below_one(self, tmp_path, toy_csv, model_path, capsys):
        code = run(["--threads", "0", "generate", "--model", str(model_path), "--train", str(toy_csv),
                    "--n", "5", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "threads must be at least 1, got 0" in capsys.readouterr().err

    def test_eval_impute_metrics_rejects_a_mask_of_another_shape(self, tmp_path, toy2d, toy_csv, capsys):
        mask_path = tmp_path / "mask.csv"
        save_mask(np.zeros((toy2d.d, toy2d.m), dtype=bool), mask_path)
        code = run(["eval", "impute-metrics", "--imputed", str(toy_csv),
                    "--truth", str(toy_csv), "--mask", str(mask_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"({toy2d.d}, {toy2d.m})" in err and f"({toy2d.m}, {toy2d.d})" in err

    def test_density_rejects_missing_cells(self, tmp_path, toy_csv, model_path):
        holes = tmp_path / "holes.csv"
        holes.write_text("x,y\n0.15,0.25\n0.7,\n")
        code = run(["density", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(holes)])
        assert code == 3

    @pytest.mark.parametrize("body, message", [
        ("x,z\n0.15,0.25\n", "does not match"),
        ("x,y\n0.15,0.25\n0.2,high\n", "row 3, column 'y': 'high'"),
        ("x,y\n0.15,0.25\n0.2,1.5\n", "row 3: y=1.5"),
    ], ids=["header", "not-a-number", "outside-the-domain"])
    def test_density_names_a_bad_query_value(self, tmp_path, toy_csv, model_path, capsys, body, message):
        data = tmp_path / "q.csv"
        data.write_text(body)
        code = run(["density", "--model", str(model_path), "--train", str(toy_csv),
                    "--data", str(data)])
        assert code == 3
        assert message in capsys.readouterr().err


class TestQuerySchema:
    """Query files are read in the model's schema, whatever categories they
    happen to hold."""

    @pytest.fixture
    def cat_model(self, tmp_path):
        # x <= 0.425 holds only "a"; the other rows mix "b" and "c"
        train = tmp_path / "cat.csv"
        rows = [f"{0.05 * i!r},a" for i in range(1, 10)]
        rows += ["0.55,b", "0.6,b", "0.65,c", "0.7,c", "0.75,b", "0.8,b", "0.85,b", "0.9,c", "0.95,c"]
        train.write_text("x,c\n" + "\n".join(rows) + "\n")
        model = tmp_path / "cat.json"
        assert run(["train", "--data", str(train), "--out", str(model), "--trees", "1", "--splits", "3"]) == 0
        return model, train

    def test_density_does_not_depend_on_the_other_rows(self, tmp_path, cat_model, capsys):
        model, train = cat_model
        answers = []
        for other in ("0.9,c", "0.2,a"):
            data = tmp_path / "q.csv"
            data.write_text(f"x,c\n0.85,b\n{other}\n")
            capsys.readouterr()
            assert run(["density", "--model", str(model), "--train", str(train), "--data", str(data)]) == 0
            answers.append(capsys.readouterr().out.split("\n")[0])
        forest = GenerativeForest.load(model, dataset=load_csv(train))
        want = forest.density([0.85, forest.schema.domains[1].categories.index("b")])[0]
        assert answers == [repr(want)] * 2

    def test_impute_writes_the_model_category(self, tmp_path, cat_model):
        model, train = cat_model
        data, out = tmp_path / "holes.csv", tmp_path / "imp.csv"
        data.write_text("x,c\n0.15,\n0.85,b\n")
        assert run(["impute", "--model", str(model), "--train", str(train),
                    "--data", str(data), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["x,c", "0.15,a", "0.85,b"]


def test_threads_default_to_one():
    # pool threads contend for the interpreter lock, so one thread is the
    # fastest default; outputs are the same for any value
    args = build_parser().parse_args(["generate", "--model", "m.json", "--train", "t.csv",
                                      "--n", "1", "--out", "o.csv"])
    assert args.threads == 1

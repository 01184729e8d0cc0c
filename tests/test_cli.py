import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import cli, data, evaluation, extract, mlp, rules


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """A fast, learnable dataset on disk: two offset blobs."""
    path = tmp_path_factory.mktemp("cli") / "blobs.csv"
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.5, (60, 3)), rng.normal(3, 0.5, (60, 3))])
    y = np.array(["neg"] * 60 + ["pos"] * 60)
    lines = ["a,b,c,label"]
    lines += [",".join(repr(float(v)) for v in row) + f",{label}" for row, label in zip(X, y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def small_weights(small_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "net.json"
    code = run([
        "train", "--data", small_csv, "--hidden", "6", "--activation", "tanh",
        "--epochs", "20", "--batch", "16", "--seed", "1", "--out", str(path),
    ])
    assert code == 0
    return str(path)


class TestGenXor:
    def test_writes_expected_line_count(self, tmp_path):
        out = tmp_path / "xor.csv"
        assert run(["gen-xor", "--n", "50", "--dims", "4", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 51
        assert lines[0] == "x1,x2,x3,x4,label"

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen-xor", "--n", "40", "--dims", "3", "--seed", "9", "--out", str(a)])
        run(["gen-xor", "--n", "40", "--dims", "3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_cells_are_the_repr_of_each_float(self, tmp_path):
        values = [5e-324, 1.7e308, -1.7e308, -0.0, float(2**53 + 1), float(np.nextafter(0.3, 1))]
        ds = data.Dataset(np.array([values, values[::-1]]), np.array([0, 1]),
                          tuple(f"x{i}" for i in range(6)), ("p", "q"))
        out = tmp_path / "edge.csv"
        cli._write_dataset_csv(ds, out)
        want = ["x0,x1,x2,x3,x4,x5,label", ",".join(map(repr, values)) + ",p",
                ",".join(map(repr, values[::-1])) + ",q"]
        assert out.read_bytes() == ("\r\n".join(want) + "\r\n").encode()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                          | st.sampled_from([5e-324, -0.0, 1.7e308, float(2**53 + 1)]), min_size=2, max_size=2),
                 min_size=1, max_size=5),
        st.lists(st.text(st.sampled_from('ab ,"\r\n'), max_size=3), min_size=2, max_size=3, unique=True),
        st.randoms(use_true_random=False),
    )
    def test_writes_what_csv_writer_writes(self, tmp_path_factory, rows, class_names, rand):
        # class names that hold a comma, a quote or nothing are quoted as
        # csv quotes them among other fields
        labels = [rand.randrange(len(class_names)) for _ in rows]
        ds = data.Dataset(np.array(rows), np.array(labels), ("x1", "x2"), tuple(class_names))
        out = tmp_path_factory.mktemp("csv") / "rows.csv"
        cli._write_dataset_csv(ds, out)
        want = io.StringIO()
        csv.writer(want).writerows([["x1", "x2", "label"]] + [[*r, class_names[k]] for r, k in zip(rows, labels)])
        assert out.read_bytes() == want.getvalue().encode()

    def test_labels_obey_generator_rule_after_reparse(self, tmp_path):
        out = tmp_path / "xor.csv"
        run(["gen-xor", "--n", "200", "--dims", "5", "--seed", "4", "--out", str(out)])
        ds = data.load_csv(out, "label")
        recomputed = data.xor_labels(ds.features)
        names = np.array([ds.class_names[v] for v in recomputed])
        stored = np.array([ds.class_names[v] for v in ds.labels])
        assert np.array_equal(stored, names)


class TestTrainCommand:
    def test_writes_loadable_weights(self, small_weights, small_csv):
        net = mlp.load(small_weights)
        ds = data.load_csv(small_csv, "label")
        acc = np.mean(mlp.predict_labels(net, ds.features) == ds.labels)
        assert acc >= 0.95

    def test_missing_data_file_exits_3(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "w.json")])
        assert code == 3

    @pytest.mark.parametrize("hidden", ["-2", "4,x", "0", "4,0"])
    def test_bad_hidden_exits_2_without_writing(self, small_csv, tmp_path, hidden):
        out = tmp_path / "w.json"
        code = run(["train", "--data", small_csv, "--hidden", hidden, "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_zero_width_weight_file_exits_2(self, small_csv, tmp_path):
        weights = tmp_path / "zero.json"
        weights.write_text(json.dumps({
            "version": 1,
            "input_width": 3,
            "layers": [
                {"activation": "tanh", "rows": 0, "cols": 3, "weights": [], "bias": []},
                {"activation": "softmax", "rows": 2, "cols": 0, "weights": [], "bias": [0.0, 0.0]},
            ],
        }))
        code = run(["extract", "--data", small_csv, "--weights", str(weights),
                    "--method", "eclaire", "--out", str(tmp_path / "rules.json")])
        assert code == 2

    def test_weight_file_without_input_width_exits_2(self, small_csv, small_weights, tmp_path):
        with open(small_weights) as fh:
            payload = json.load(fh)
        del payload["input_width"]
        weights = tmp_path / "no_width.json"
        weights.write_text(json.dumps(payload))
        code = run(["extract", "--data", small_csv, "--weights", str(weights),
                    "--method", "eclaire", "--out", str(tmp_path / "rules.json")])
        assert code == 2

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_diverged_training_exits_3_without_writing(self, tmp_path, capsys, activation):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text(
            "a,b,label\n1.7e308,-1.7e308,p\n-1.7e308,1.7e308,n\n"
            "1.7e308,1.7e308,p\n-1.7e308,-1.7e308,n\n"
        )
        out = tmp_path / "w.json"
        with np.errstate(all="ignore"):
            code = run(["train", "--data", str(csv_path), "--hidden", "4",
                        "--activation", activation, "--epochs", "1", "--out", str(out)])
        assert code == 3
        assert "data error: training loss became non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_adam_moment_exits_3_without_writing(self, tmp_path, capsys):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text(
            "a,b,label\n1e300,-2e300,p\n-3e300,1e300,n\n2e300,3e300,p\n-1e300,-3e300,n\n"
        )
        out = tmp_path / "w.json"
        with np.errstate(all="ignore"):
            code = run(["train", "--data", str(csv_path), "--hidden", "4",
                        "--activation", "relu", "--epochs", "20", "--out", str(out)])
        assert code == 3
        assert "data error: Adam's squared-gradient average became non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_adam_moment_prints_only_the_error(self, tmp_path, capsys):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text(
            "a,b,label\n1e300,-2e300,p\n-3e300,1e300,n\n2e300,3e300,p\n-1e300,-3e300,n\n"
        )
        code = run(["train", "--data", str(csv_path), "--hidden", "4", "--activation", "relu",
                    "--epochs", "20", "--out", str(tmp_path / "w.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: Adam's squared-gradient average")


class TestExtractCommand:
    def test_eclaire_writes_rules_and_metrics(self, small_csv, small_weights, tmp_path):
        out = tmp_path / "rules.json"
        code = run([
            "extract", "--data", small_csv, "--weights", small_weights,
            "--method", "eclaire", "--mu", "3", "--out", str(out),
        ])
        assert code == 0
        rs = rules.deserialize(out)
        assert len(rs.rules) >= 1
        metrics = json.loads((tmp_path / "rules.json.metrics.json").read_text())
        assert metrics["train_accuracy"] >= 90.0
        assert "train_fidelity" in metrics

    def test_rerun_is_byte_identical(self, small_csv, small_weights, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["extract", "--data", small_csv, "--weights", small_weights,
                "--method", "eclaire", "--mu", "3", "--seed", "5"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_c5_needs_no_weights(self, small_csv, tmp_path):
        out = tmp_path / "c5.json"
        code = run(["extract", "--data", small_csv, "--method", "c5", "--mu", "2", "--out", str(out)])
        assert code == 0

    def test_explosion_guard_exit_code(self, small_csv, small_weights, tmp_path):
        code = run([
            "extract", "--data", small_csv, "--weights", small_weights,
            "--method", "remd", "--mu", "2", "--rule-cap", "1",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 4

    @pytest.mark.parametrize("method", ["c5", "pedc5", "eclaire", "remd"])
    def test_subsample_of_no_rows_exits_2(self, small_csv, small_weights, tmp_path, capsys, method):
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run(["extract", "--data", small_csv, "--weights", small_weights, "--method", method,
                    "--sample-fraction", "0.001", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "sample_fraction 0.001 keeps none of the 120 rows" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_network_exits_2(self, small_csv, tmp_path, capsys):
        # finite features at the float limit overflow a relu layer to inf
        weights = str(tmp_path / "relu.json")
        run(["train", "--data", small_csv, "--hidden", "8", "--activation", "relu",
             "--epochs", "20", "--seed", "1", "--out", weights])
        X = np.random.default_rng(0).choice([-1.7e308, 1.7e308], size=(40, 3))
        big = tmp_path / "big.csv"
        big.write_text("a,b,c,label\n" + "".join(
            ",".join(repr(float(v)) for v in row) + f",{'neg' if i % 2 else 'pos'}\n"
            for i, row in enumerate(X)
        ))
        capsys.readouterr()
        code = run(["extract", "--data", str(big), "--weights", weights,
                    "--method", "eclaire", "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_network_prints_only_the_error(self, small_csv, tmp_path, capsys):
        weights = str(tmp_path / "relu.json")
        run(["train", "--data", small_csv, "--hidden", "8", "--activation", "relu",
             "--epochs", "20", "--seed", "1", "--out", weights])
        X = np.random.default_rng(0).choice([-1.7e308, 1.7e308], size=(40, 3))
        big = tmp_path / "big.csv"
        big.write_text("a,b,c,label\n" + "".join(
            ",".join(repr(float(v)) for v in row) + f",{'neg' if i % 2 else 'pos'}\n"
            for i, row in enumerate(X)
        ))
        capsys.readouterr()
        code = run(["extract", "--data", str(big), "--weights", weights,
                    "--method", "eclaire", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_method_is_usage_error(self, small_csv, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["extract", "--data", small_csv, "--method", "sorcery", "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestEvaluateCommand:
    def test_prints_metrics(self, small_csv, small_weights, tmp_path, capsys):
        out = tmp_path / "rules.json"
        run(["extract", "--data", small_csv, "--weights", small_weights,
             "--method", "pedc5", "--mu", "3", "--out", str(out)])
        capsys.readouterr()
        code = run(["evaluate", "--rules", str(out), "--data", small_csv,
                    "--weights", small_weights])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"accuracy", "fidelity", "rule_count", "avg_rule_length", "auc"}

    def test_missing_rules_file_exits_3(self, small_csv, tmp_path):
        code = run(["evaluate", "--rules", str(tmp_path / "no.json"), "--data", small_csv])
        assert code == 3

    def test_rule_on_a_feature_past_the_data_exits_2(self, tmp_path, capsys):
        rules_path = one_rule_file(tmp_path, feature=3, names=None)
        data_path = tmp_path / "b.csv"
        data_path.write_text("x1,x2,label\n0.1,0.9,0\n0.8,0.2,1\n")
        assert run(["evaluate", "--rules", rules_path, "--data", str(data_path)]) == 2
        assert "feature index 3 out of range" in capsys.readouterr().err

    def test_rule_on_a_negative_feature_exits_2(self, tmp_path, capsys):
        # a negative index would silently score the last column
        rules_path = one_rule_file(tmp_path, feature=-1, names=None)
        data_path = tmp_path / "b.csv"
        data_path.write_text("x1,x2,x3,x4,label\n0.1,0.9,0.1,0.2,0\n0.8,0.2,0.7,0.9,1\n")
        assert run(["evaluate", "--rules", rules_path, "--data", str(data_path)]) == 2
        assert "feature index -1 out of range" in capsys.readouterr().err

    def test_rules_over_other_named_features_exit_2(self, tmp_path, capsys):
        rules_path = one_rule_file(tmp_path, feature=1, names=["height", "width"])
        data_path = tmp_path / "b.csv"
        data_path.write_text("x,y,z,label\n0.1,0.9,0.3,0\n0.8,0.2,0.6,1\n")
        assert run(["evaluate", "--rules", rules_path, "--data", str(data_path)]) == 2
        assert "feature 0 is 'height' there but 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [None, ["x", "y", "z"]])
    def test_rules_with_no_or_matching_names_are_scored(self, tmp_path, capsys, names):
        rules_path = one_rule_file(tmp_path, feature=1, names=names)
        data_path = tmp_path / "b.csv"
        data_path.write_text("x,y,z,label\n0.1,0.9,0.3,0\n0.8,0.2,0.6,1\n")
        assert run(["evaluate", "--rules", rules_path, "--data", str(data_path)]) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 0.0


def one_rule_file(tmp_path, feature, names):
    """A rule file holding the one rule x_feature > 0.5 -> class 1."""
    payload = {
        "version": 1, "num_classes": 2, "default_label": 0, "feature_names": names,
        "rules": [{"terms": [{"feature": feature, "op": ">", "threshold": 0.5}],
                   "conclusion": 1, "confidence": 0.9}],
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestFeatureUsageCommand:
    def test_prints_fraction_per_feature(self, small_csv, small_weights, tmp_path, capsys):
        out = tmp_path / "rules.json"
        run(["extract", "--data", small_csv, "--weights", small_weights,
             "--method", "eclaire", "--mu", "3", "--out", str(out)])
        capsys.readouterr()
        assert run(["feature-usage", "--rules", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("a,")

    @pytest.mark.parametrize("feature, names", [(3, ["x1"]), (-1, None)])
    def test_rule_on_a_feature_without_a_column_exits_2(self, tmp_path, capsys, feature, names):
        assert run(["feature-usage", "--rules", one_rule_file(tmp_path, feature, names)]) == 2
        assert f"feature index {feature} out of range" in capsys.readouterr().err


class TestCrossvalCommand:
    def test_runs_from_config_and_writes_reports(self, small_csv, small_weights, tmp_path, capsys,
                                                 monkeypatch):
        config = {
            "task": f"csv:{small_csv}",
            "label_column": "label",
            "weights": small_weights,
            "method": "eclaire",
            "mu_min": 2, "mu_max": 3, "mu_step": 1,
            "k": 3,
            "seed": 2,
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        tables = []
        original = evaluation.report_table

        def recording_table(reports):
            tables.append(original(reports))
            return tables[-1]

        monkeypatch.setattr(evaluation, "report_table", recording_table)
        assert run(["crossval", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "report_mu_2.json").exists()
        assert (out / "report_mu_3.json").exists()
        assert (out / "best_summary.json").exists()
        # rendered once, written to the file and printed; from a weights
        # file, the file ends with the stderr note
        assert len(tables) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("note: ")
        assert (out / "report_table.txt").read_text() == tables[0] + "\n" + captured.err
        assert captured.out.startswith(tables[0] + "\n\nbest mu: ")
        assert (out / "folds.json").exists()
        usage = (out / "feature_usage.csv").read_text().strip().split("\n")
        assert usage[0] == "feature,fraction_of_rules"
        assert len(usage) == 4
        best = json.loads((out / "best_summary.json").read_text())
        assert best["method"] == "eclaire"

    def test_flag_overrides_config(self, small_csv, small_weights, tmp_path):
        config = {
            "task": f"csv:{small_csv}",
            "label_column": "label",
            "weights": small_weights,
            "method": "eclaire",
            "mu_min": 2, "mu_max": 2,
            "k": 3,
            "out_dir": str(tmp_path / "eclaire_dir"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["crossval", "--config", str(cfg_path), "--method", "pedc5",
                    "--out-dir", str(tmp_path / "ped_dir")]) == 0
        best = json.loads((tmp_path / "ped_dir" / "best_summary.json").read_text())
        assert best["method"] == "pedc5"

    def test_rerun_outputs_byte_identical_modulo_measurements(self, small_csv, small_weights, tmp_path):
        config = {
            "task": f"csv:{small_csv}",
            "label_column": "label",
            "weights": small_weights,
            "method": "eclaire",
            "mu_min": 2, "mu_max": 2,
            "k": 3, "seed": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        for out in ("run1", "run2"):
            assert run(["crossval", "--config", str(cfg_path), "--out-dir", str(tmp_path / out)]) == 0
        a, b = tmp_path / "run1", tmp_path / "run2"
        for name in ("folds.json", "feature_usage.csv", "rules_best.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        # reports match exactly once the measured-resource fields are dropped
        ra = json.loads((a / "best_summary.json").read_text())
        rb = json.loads((b / "best_summary.json").read_text())
        for rep in (ra, rb):
            rep.pop("fold_seconds"), rep.pop("fold_peak_bytes")
            rep["aggregates"].pop("seconds"), rep["aggregates"].pop("peak_bytes")
        assert ra == rb

    def test_xor_task_uses_bundled_grid(self, tmp_path):
        config = {"task": "xor", "method": "c5", "k": 5, "seed": 3,
                  "out_dir": str(tmp_path / "xor_c5")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["crossval", "--config", str(cfg_path)]) == 0
        # the bundled direct-induction grid spans mu = 2..15
        assert (tmp_path / "xor_c5" / "report_mu_2.json").exists()
        assert (tmp_path / "xor_c5" / "report_mu_15.json").exists()

    def test_preset_nets_trained_once_per_fold(self, small_csv, tmp_path, monkeypatch):
        config = {
            "task": f"csv:{small_csv}", "net_preset": "xor", "method": "eclaire",
            "mu_min": 4, "mu_max": 4, "k": 3, "seed": 5, "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        original = mlp.train_many
        calls = []

        def counting_train_many(*args, **kwargs):
            calls.append([cfg.seed for cfg in args[3]])
            return original(*args, **kwargs)

        # one call trains the k nets; mlp.train goes through mlp.train_many too
        monkeypatch.setattr(mlp, "train_many", counting_train_many)
        monkeypatch.setattr(evaluation, "train_many", counting_train_many)
        assert run(["crossval", "--config", str(cfg_path)]) == 0
        assert calls == [[5, 6, 7]]
        monkeypatch.undo()
        # rules_best.json is what a fold-0 net trained alone gives at the best mu
        ds = data.load_csv(small_csv, "label")
        fold = data.stratified_kfold(ds, 3, 5)[0]
        idx = list(fold.train_indices)
        preset = evaluation.NET_PRESETS["xor"]
        net0 = mlp.train(
            data.Dataset(ds.features[idx], ds.labels[idx], ds.feature_names, ds.class_names),
            preset.hidden_sizes, preset.activation,
            mlp.TrainConfig(epochs=preset.epochs, batch_size=preset.batch_size, seed=5),
        )
        rs = extract.eclaire(
            net0, ds.features[idx], extract.ExtractionConfig(min_samples=4, seed=5), ds.feature_names
        )
        assert (tmp_path / "out" / "rules_best.json").read_text() == rules.to_json(rs) + "\n"

    def test_validation_mode_writes_the_best_reports_fold0_rules(self, small_csv, small_weights, tmp_path):
        config = {
            "task": f"csv:{small_csv}", "weights": small_weights, "method": "eclaire",
            "mu_min": 2, "mu_max": 4, "k": 3, "seed": 6, "select_by": "validation",
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["crossval", "--config", str(cfg_path)]) == 0
        ds = data.load_csv(small_csv, "label")
        net = mlp.load(small_weights)
        result = evaluation.crossval(
            ds, "eclaire", (2, 4, 1), net_preset=None, k=3, seed=6,
            base_cfg=extract.ExtractionConfig(seed=6), nets=[net] * 3, select_by="validation",
        )
        best = result.best_rules[0]
        assert (tmp_path / "out" / "rules_best.json").read_text() == rules.to_json(best) + "\n"
        test_idx = list(result.folds[0].test_indices)
        acc = evaluation.accuracy(best, ds.features[test_idx], ds.labels[test_idx])
        assert acc == result.best.fold_accuracy[0]

    def test_weights_file_notes_that_test_folds_are_not_held_out(self, small_csv, small_weights, tmp_path,
                                                                 capsys):
        config = {"task": f"csv:{small_csv}", "mu_min": 4, "mu_max": 4, "k": 3}
        for extra, notes in (({"method": "eclaire", "weights": small_weights}, 1), ({"method": "c5"}, 0)):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**config, **extra, "out_dir": str(tmp_path / extra["method"])}))
            assert run(["crossval", "--config", str(cfg_path)]) == 0
            err = capsys.readouterr().err
            assert err.count("note: ") == notes
            assert ("not held out" in err) == bool(notes)

    def test_reports_from_a_weights_file_say_the_test_folds_are_not_held_out(
        self, small_csv, small_weights, tmp_path, capsys
    ):
        config = {"task": f"csv:{small_csv}", "method": "pedc5", "mu_min": 4, "mu_max": 5, "k": 3}
        names = ("report_mu_4.json", "report_mu_5.json", "best_summary.json")
        keys, tables, errs = {}, {}, {}
        for source in ({"weights": small_weights}, {"net_preset": "xor"}):
            kind = next(iter(source))
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**config, **source, "out_dir": str(tmp_path / kind)}))
            assert run(["crossval", "--config", str(cfg_path)]) == 0
            errs[kind] = capsys.readouterr().err
            reports = [json.loads((tmp_path / kind / name).read_text()) for name in names]
            keys[kind] = [set(report) for report in reports]
            if kind == "weights":
                assert all(report["held_out"] is False for report in reports)
            tables[kind] = (tmp_path / kind / "report_table.txt").read_text().splitlines()
        # a preset run's reports carry no such key and its table no note
        assert keys["weights"] == [k | {"held_out"} for k in keys["net_preset"]]
        assert all("held_out" not in k for k in keys["net_preset"])
        assert tables["weights"][-1] == errs["weights"].strip() and tables["weights"][-1].startswith("note: ")
        assert errs["net_preset"] == "" and tables["net_preset"][-1].startswith("pedc5")

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"task": "xor", "method": "eclaire", "typo_key": 1}')
        assert run(["crossval", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("winnow", "false"), ("class_weighted", 0), ("mu_min", 2.9), ("k", True),
        ("seed", "1"), ("sample_fraction", True), ("rule_drop_pct", "5"), ("method", 3),
    ])
    def test_mistyped_value_is_config_error(self, tmp_path, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "xor", "method": "eclaire", "net_preset": "xor", key: value}))
        with pytest.raises(cli.ConfigError, match=repr(key)):
            cli._load_experiment_config(cfg_path, {})

    def test_values_keep_their_json_types(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"task": "xor", "method": "eclaire", "net_preset": "xor", '
                            '"winnow": false, "k": 3, "rule_drop_pct": 5}')
        cfg = cli._load_experiment_config(cfg_path, {})
        assert cfg["winnow"] is False and cfg["k"] == 3
        assert cfg["rule_drop_pct"] == 5.0 and isinstance(cfg["rule_drop_pct"], float)

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run(["crossval", "--config", str(tmp_path / "missing.json")]) == 2


# One non-default value for every ExtractionConfig field.
NON_DEFAULT_KNOBS = {
    "min_samples": 5, "layer_stride": 2, "sample_fraction": 0.5, "rule_drop_pct": 10.0,
    "winnow": False, "class_weighted": True, "seed": 7,
}


class Captured(Exception):
    pass


class TestExtractionKnobs:
    def test_extract_flags_reach_run_method(self, small_csv, small_weights, tmp_path, monkeypatch):
        defaults = extract.ExtractionConfig()
        assert NON_DEFAULT_KNOBS.keys() == {f.name for f in dataclasses.fields(defaults)}
        assert all(getattr(defaults, key) != v for key, v in NON_DEFAULT_KNOBS.items())
        seen = []

        def capture(method, X, y, net, cfg, **kwargs):
            seen.append(cfg)
            raise Captured

        monkeypatch.setattr(extract, "run_method", capture)
        with pytest.raises(Captured):
            run(["extract", "--data", small_csv, "--weights", small_weights, "--method", "eclaire",
                 "--mu", "5", "--layer-stride", "2", "--sample-fraction", "0.5",
                 "--rule-drop-pct", "10", "--no-winnow", "--class-weighted", "--seed", "7",
                 "--out", str(tmp_path / "rules.json")])
        assert seen == [extract.ExtractionConfig(**NON_DEFAULT_KNOBS)]

    def test_crossval_config_reaches_base_cfg(self, small_csv, small_weights, tmp_path, monkeypatch):
        knobs = {key: v for key, v in NON_DEFAULT_KNOBS.items() if key != "min_samples"}
        config = {"task": f"csv:{small_csv}", "weights": small_weights, "method": "eclaire",
                  "mu_min": 2, "mu_max": 2, "k": 3, **knobs}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        seen = []

        def capture(*args, base_cfg, **kwargs):
            seen.append(base_cfg)
            raise Captured

        monkeypatch.setattr(evaluation, "crossval", capture)
        with pytest.raises(Captured):
            run(["crossval", "--config", str(cfg_path)])
        assert seen == [extract.ExtractionConfig(**knobs)]

    def test_min_samples_is_not_a_crossval_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"task": "xor", "method": "eclaire", "min_samples": 3}')
        assert run(["crossval", "--config", str(cfg_path)]) == 2
        assert "unknown config key 'min_samples'" in capsys.readouterr().err

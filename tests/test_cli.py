import json

import pytest

from mergepipe.cli import main

GEN_CONFIG = {
    "n_deals": 260,
    "cancel_rate": 0.25,
    "n_numeric": 6,
    "n_categorical": 3,
    "levels_per_categorical": 3,
    "sentiment_length": 0,
    "missing_rate": 0.05,
    "signal_strength": 2.5,
}

RUN_CONFIG = {
    "split": {"train_fraction": 0.8},
    "framework": "f1",
    "network": {
        "layers": [{"kind": "dense", "width": 8, "activation": "selu"}],
        "loss": {"kind": "cross_entropy"},
        "seed": 0,
    },
    "pca_dims": 4,
    "mca_dims": 3,
    "use_smote": True,
    "train": {"epochs": 6, "batch_size": 32, "learning_rate": 0.01,
              "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
              "patience": 5, "threshold": 0.5},
    "seed": 1,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture()
def deals_csv(tmp_path):
    cfg = tmp_path / "gen.json"
    write_json(cfg, GEN_CONFIG)
    out = tmp_path / "deals.csv"
    assert main(["generate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_configured_rows(self, deals_csv):
        lines = deals_csv.read_text().splitlines()
        assert len(lines) == GEN_CONFIG["n_deals"] + 1
        assert deals_csv.with_suffix(".schema.json").exists()
        manifest = json.loads((deals_csv.parent / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert "deals.csv" in manifest["artifacts"]

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(
            ["generate", "--config", str(tmp_path / "nope.json"), "--seed", "1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "gen.json"
        write_json(cfg, GEN_CONFIG)
        a = tmp_path / "a" / "deals.csv"
        b = tmp_path / "b" / "deals.csv"
        assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(a)]) == 0
        assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "gen.json"
        write_json(cfg, {**GEN_CONFIG, "cancel_rate": 1.5})
        assert main(
            ["generate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv")]
        ) == 2


class TestRun:
    def test_framework_run_writes_reports(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        out_dir = tmp_path / "results"
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("accuracy", "precision", "recall", "f1", "auroc", "aupr"):
            assert key in report
        assert (out_dir / "roc.csv").read_text().startswith("fpr,tpr")
        assert (out_dir / "pr.csv").read_text().startswith("recall,precision")
        assert (out_dir / "model.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == [
            "model.json", "pr.csv", "report.json", "roc.csv",
        ]

    def test_baseline_same_report_shape(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {"split": {"train_fraction": 0.8},
                             "train": RUN_CONFIG["train"], "pca_dims": 4, "mca_dims": 3,
                             "seed": 2})
        out_dir = tmp_path / "baseline"
        code = main(
            ["run", "--baseline", "weighted-logit", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(out_dir)]
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("accuracy", "precision", "recall", "f1", "auroc", "aupr"):
            assert key in report

    def test_f2_without_sentiment_exit_3(self, deals_csv, tmp_path, capsys):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "framework": "f2"})
        code = main(
            ["run", "--framework", "f2", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "r2")]
        )
        assert code == 3
        assert "MissingSentiment" in capsys.readouterr().err

    def test_rerun_byte_identical_artifacts(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        dirs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert main(
                ["run", "--framework", "f1", "--data", str(deals_csv),
                 "--config", str(run_cfg), "--out-dir", str(out_dir)]
            ) == 0
            dirs.append(out_dir)
        for artifact in ("report.json", "roc.csv", "pr.csv", "model.json"):
            assert (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()

    def test_invalid_config_exit_2(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "objective": "nonsense"})
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2

    def test_requires_framework_xor_baseline(self, deals_csv, tmp_path):
        assert main(["run", "--data", str(deals_csv), "--out-dir", str(tmp_path / "x")]) == 2


SPACE = {
    "base": {**RUN_CONFIG},
    "space": {
        "network.layers": [
            [{"kind": "dense", "width": 8, "activation": "selu"}],
            [{"kind": "dense", "width": 16, "activation": "elu"}],
            [{"kind": "dense", "width": 4, "activation": "selu"}],
        ],
        "train.learning_rate": [0.02, 0.005, 0.01],
    },
    "strategy": "random",
}


class TestSearch:
    def test_budget_rows_and_ranking(self, deals_csv, tmp_path):
        space = tmp_path / "space.json"
        write_json(space, SPACE)
        out_dir = tmp_path / "search"
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "8", "--objective", "recall", "--seed", "3",
             "--out-dir", str(out_dir)]
        )
        assert code == 0
        lines = (out_dir / "trials.csv").read_text().splitlines()
        assert len(lines) == 9  # header + 8 trials
        header = lines[0].split(",")
        col = header.index("objective_value")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
        report = json.loads((out_dir / "report.json").read_text())
        assert report["objective"] == "recall"
        assert "out_of_sample" in report

    def test_rerun_identical_trials(self, deals_csv, tmp_path):
        space = tmp_path / "space.json"
        write_json(space, SPACE)
        outs = []
        for name in ("s1", "s2"):
            out_dir = tmp_path / name
            assert main(
                ["search", "--data", str(deals_csv), "--space", str(space),
                 "--budget", "4", "--objective", "accuracy", "--seed", "5",
                 "--out-dir", str(out_dir)]
            ) == 0
            outs.append(out_dir)
        assert (outs[0] / "trials.csv").read_bytes() == (outs[1] / "trials.csv").read_bytes()

    def test_empty_space_exit_2(self, deals_csv, tmp_path):
        space = tmp_path / "space.json"
        write_json(space, {"base": RUN_CONFIG, "space": {}})
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2

    def test_unknown_strategy_exit_2(self, deals_csv, tmp_path):
        space = tmp_path / "space.json"
        write_json(space, {"base": RUN_CONFIG, "space": {"train.learning_rate": [0.02, 0.005]},
                           "strategy": "bogus"})
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2

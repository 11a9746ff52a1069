import csv
import dataclasses
import json

import numpy as np
import pytest

from mergepipe import cli, dataset, pipeline
from mergepipe.cli import main
from mergepipe.dataset import CACHE_SUFFIX
from mergepipe.neural import TrainConfig
from mergepipe.pipeline import (
    FittedPipeline,
    FrameworkConfig,
    fit_pipeline,
    logit_config,
    logit_fields,
    run_config,
)

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


def refuse(*args, **kwargs):
    raise AssertionError("must not be called")


def deny_write(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def _with_bad_cell(deals_csv, tmp_path):
    """Copy of the generated CSV and schema whose second deal has 'abc' as
    its first numeric cell."""
    lines = deals_csv.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "abc"
    lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    bad.with_suffix(".schema.json").write_text(deals_csv.with_suffix(".schema.json").read_text())
    return bad


BAD_SCHEMAS = ("missing categorical_names", "a JSON list", "text sentiment_length",
               "invalid JSON")


def _bad_schema(deals_csv, tmp_path, case):
    """A copy of the generated schema, broken as ``case`` names."""
    doc = json.loads(deals_csv.with_suffix(".schema.json").read_text())
    path = tmp_path / "bad.schema.json"
    if case == "invalid JSON":
        path.write_text(json.dumps(doc)[:-1])
    else:
        write_json(path, {
            "missing categorical_names": {k: v for k, v in doc.items() if k != "categorical_names"},
            "a JSON list": [doc],
            "text sentiment_length": {**doc, "sentiment_length": "x"},
        }[case])
    return path


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

    def test_config_is_a_directory_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.mkdir()
        code = main(
            ["generate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ") and str(cfg) in err

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


    @pytest.mark.parametrize("doc", [[1, 2], "gen", 3])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "gen.json"
        write_json(cfg, doc)
        assert main(
            ["generate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv")]
        ) == 2
        assert f"bad generator config: {cfg} is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"date_start": "2001-13-01"},
        {"cutoff_date": "2010-02-30", "n_before_cutoff": 100},
        {"levels_per_categorical": [3, None, 3]},
        {"levels_per_categorical": [3, 3]},
        {"cutoff_date": "2030-01-01", "n_before_cutoff": 100},
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, override):
        cfg = tmp_path / "gen.json"
        write_json(cfg, {**GEN_CONFIG, **override})
        assert main(
            ["generate", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: bad generator config: ")
        assert next(iter(override)) in err


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

    def test_one_class_slice_reports_null_metrics(self, tmp_path, capsys):
        # 300 deals at a 5% cancel rate: the validation slice (and, with a
        # 95% training split, the test slice) holds no cancelled deal
        gen = tmp_path / "gen.json"
        write_json(gen, {"n_deals": 300, "cancel_rate": 0.05, "n_numeric": 20,
                         "n_categorical": 10, "levels_per_categorical": 3,
                         "sentiment_length": 121, "missing_rate": 0.05,
                         "signal_strength": 2.0, "sentiment_signal": 0.5})
        data = tmp_path / "deals.csv"
        assert main(["generate", "--config", str(gen), "--seed", "0", "--out", str(data)]) == 0
        out_dir = tmp_path / "paper_split"
        argv = ["run", "--preset", "f1/nn-recall", "--data", str(data)]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        validation = json.loads((out_dir / "report.json").read_text())["validation"]
        assert validation["auroc"] is None and validation["aupr"] is None
        assert validation["roc_points"] == [] and validation["pr_points"] == []

        split = tmp_path / "split.json"
        write_json(split, {"split": {"train_fraction": 0.95}})
        out_dir = tmp_path / "late_split"
        capsys.readouterr()
        assert main([*argv, "--config", str(split), "--out-dir", str(out_dir)]) == 0
        assert "auroc=None" in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["auroc"] is None and report["aupr"] is None
        assert (out_dir / "roc.csv").read_text() == "fpr,tpr\n"

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

    @pytest.mark.parametrize("framework", ["f2", "f3"])
    def test_sequence_rerun_byte_identical_artifacts(self, tmp_path, framework):
        gen = tmp_path / "gen.json"
        write_json(gen, {**GEN_CONFIG, "n_deals": 120, "cancel_rate": 0.3,
                         "sentiment_length": 16})
        data = tmp_path / "deals.csv"
        assert main(["generate", "--config", str(gen), "--seed", "4", "--out", str(data)]) == 0
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "framework": framework, "lstm_width": 3,
                             "autoencoder_hidden": 3, "autoencoder_epochs": 2,
                             "embedding_dim": 2, "train": {**RUN_CONFIG["train"], "epochs": 3}})
        dirs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert main(
                ["run", "--framework", framework, "--data", str(data),
                 "--config", str(run_cfg), "--out-dir", str(out_dir)]
            ) == 0
            dirs.append(out_dir)
        for artifact in ("report.json", "roc.csv", "pr.csv", "model.json"):
            assert (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()

    def test_unparsable_cell_exit_2(self, deals_csv, tmp_path, capsys):
        bad = _with_bad_cell(deals_csv, tmp_path)
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        code = main(
            ["run", "--framework", "f1", "--data", str(bad), "--config", str(run_cfg),
             "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load data: {bad}:3: column 'num_00' cannot parse 'abc'" in err

    def test_invalid_config_exit_2(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "objective": "nonsense"})
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2

    @pytest.mark.parametrize("framework, field, value", [
        ("f1", "pca_dims", 0), ("f1", "pca_dims", -1), ("f1", "mca_dims", 0),
        ("f1", "mca_dims", -1), ("f1", "impute_k", 0), ("f1", "impute_k", -1),
        ("f2", "autoencoder_hidden", 0), ("f2", "autoencoder_hidden", -1),
        ("f2", "autoencoder_epochs", -1), ("f3", "lstm_width", 0), ("f3", "lstm_width", -1),
    ])
    def test_config_field_out_of_range_exit_2_before_any_stage(
            self, deals_csv, tmp_path, capsys, monkeypatch, framework, field, value):
        monkeypatch.setattr(pipeline, "fit_imputer", refuse)
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "framework": framework, field: value})
        code = main(
            ["run", "--framework", framework, "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2
        floor = 0 if field == "autoencoder_epochs" else 1
        assert f"invalid run config: {field} must be >= {floor}" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_weighted_loss_with_smote_exit_2(self, deals_csv, tmp_path, capsys):
        network = {**RUN_CONFIG["network"], "loss": {"kind": "weighted_cross_entropy"}}
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "network": network, "use_smote": True})
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2
        assert "weighted_cross_entropy replaces SMOTE" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], {**RUN_CONFIG, "split": [0.8]}])
    def test_config_not_an_object_exit_2(self, deals_csv, tmp_path, capsys, doc):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, doc)
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2
        assert "is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_SCHEMAS)
    def test_malformed_schema_exit_2(self, deals_csv, tmp_path, capsys, case):
        schema = _bad_schema(deals_csv, tmp_path, case)
        code = main(
            ["run", "--preset", "f1/nn-recall", "--data", str(deals_csv),
             "--schema", str(schema), "--out-dir", str(tmp_path / "bad")]
        )
        assert code == 2
        assert f"cannot load data: schema {schema}: " in capsys.readouterr().err

    def test_out_dir_is_a_file_exit_1(self, deals_csv, tmp_path, capsys):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(
            ["run", "--framework", "f1", "--data", str(deals_csv),
             "--config", str(run_cfg), "--out-dir", str(taken)]
        )
        assert code == 1
        assert "mergepipe: error: cannot write artifacts:" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("flag", ["--config", "--data", "--schema"])
    def test_input_is_a_directory_exit_1(self, deals_csv, tmp_path, capsys, flag):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        paths = {"--config": run_cfg, "--data": deals_csv,
                 "--schema": deals_csv.with_suffix(".schema.json")}
        paths[flag] = tmp_path / "a-directory"
        paths[flag].mkdir()
        argv = ["run", "--framework", "f1", "--out-dir", str(tmp_path / "out")]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ") and str(paths[flag]) in err
        assert not (tmp_path / "out").exists()

    def test_requires_framework_xor_baseline(self, deals_csv, tmp_path):
        assert main(["run", "--data", str(deals_csv), "--out-dir", str(tmp_path / "x")]) == 2

    def test_framework_flag_decides_before_the_config_is_checked(self, deals_csv, tmp_path):
        # valid for f1, not for the f3 the file names
        network = {**RUN_CONFIG["network"], "layers": []}
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "framework": "f3", "network": network})
        out_dir = tmp_path / "out"
        assert main(["run", "--framework", "f1", "--data", str(deals_csv),
                     "--config", str(run_cfg), "--out-dir", str(out_dir)]) == 0
        saved = json.loads((out_dir / "model.json").read_text())["config"]
        assert saved["framework"] == "f1" and saved["network"]["layers"] == []


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

    def test_unparsable_cell_exit_2(self, deals_csv, tmp_path, capsys):
        bad = _with_bad_cell(deals_csv, tmp_path)
        space = tmp_path / "space.json"
        write_json(space, SPACE)
        code = main(
            ["search", "--data", str(bad), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load inputs: {bad}:3: column 'num_00' cannot parse 'abc'" in err

    @pytest.mark.parametrize("case", BAD_SCHEMAS)
    def test_malformed_schema_exit_2(self, deals_csv, tmp_path, capsys, case):
        schema = _bad_schema(deals_csv, tmp_path, case)
        space = tmp_path / "space.json"
        write_json(space, SPACE)
        code = main(
            ["search", "--data", str(deals_csv), "--schema", str(schema), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        assert f"cannot load inputs: schema {schema}: " in capsys.readouterr().err

    def test_space_is_a_directory_exit_1(self, deals_csv, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.mkdir()
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ") and str(space) in err

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "cannot load inputs"),
            ({"base": [1, 2], "space": SPACE["space"]}, "search base is not a JSON object"),
            ({"base": RUN_CONFIG, "space": [1, 2]}, "lists of candidates"),
            ({"base": RUN_CONFIG, "space": {"train.learning_rate": 0.1}}, "lists of candidates"),
        ],
    )
    def test_space_not_an_object_exit_2(self, deals_csv, tmp_path, capsys, doc, message):
        space = tmp_path / "space.json"
        write_json(space, doc)
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ") and message in err

    def test_space_path_indexes_a_list(self, deals_csv, tmp_path):
        space = tmp_path / "space.json"
        write_json(space, {**SPACE, "space": {"network.layers.0.width": [4, 12]}})
        out_dir = tmp_path / "s"
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(out_dir)]
        )
        assert code == 0
        widths = {json.loads(row["config"])["network"]["layers"][0]["width"]
                  for row in csv.DictReader((out_dir / "trials.csv").read_text().splitlines())}
        assert widths == {4, 12}

    @pytest.mark.parametrize(
        "path, entry",
        [
            ("network.layers.1.width", "'1'"),
            ("network.layers.first.width", "'first'"),
            ("network.stack.0.width", "'stack'"),
        ],
    )
    def test_bad_space_path_exit_2(self, deals_csv, tmp_path, capsys, path, entry):
        space = tmp_path / "space.json"
        write_json(space, {**SPACE, "space": {path: [4, 12]}})
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        assert f"space path {path!r} has no entry {entry}" in capsys.readouterr().err

    def test_invalid_trial_config_exit_2_before_any_trial(
            self, deals_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_pipeline", refuse)
        space = tmp_path / "space.json"
        write_json(space, {"base": {**RUN_CONFIG, "framework": "f3"},
                           "space": {"lstm_width": [4, 0]}, "strategy": "grid"})
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        assert "invalid search setup: lstm_width must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("path", ["seed", "network.seed"])
    def test_seed_space_path_exit_2_before_any_trial(
            self, deals_csv, tmp_path, capsys, monkeypatch, path):
        monkeypatch.setattr(pipeline, "fit_pipeline", refuse)
        space = tmp_path / "space.json"
        write_json(space, {"base": RUN_CONFIG, "space": {path: [0, 1]}, "strategy": "grid"})
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "2", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 2
        assert "draws each trial's seed itself" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_out_dir_is_a_file_exit_1(self, deals_csv, tmp_path, capsys):
        space = tmp_path / "space.json"
        write_json(space, {**SPACE, "space": {"train.learning_rate": [0.02]}})
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(
            ["search", "--data", str(deals_csv), "--space", str(space),
             "--budget", "1", "--out-dir", str(taken)]
        )
        assert code == 1
        assert "mergepipe: error: cannot write artifacts:" in capsys.readouterr().err


class TestExitCodes:
    """run and search report the same failure with the same exit code."""

    LEARNING_RATES = {"train.learning_rate": [0.02, 0.01]}

    @staticmethod
    def main(command, data, doc, out_dir, route=("--framework", "f1"), space=LEARNING_RATES):
        """``run`` with ``doc`` as --config, or a 2-trial grid ``search`` over
        ``space`` with ``doc`` as its base."""
        path = out_dir.parent / f"{out_dir.name}.json"
        if command == "run":
            write_json(path, doc)
            return main(["run", *route, "--data", str(data), "--config", str(path),
                         "--out-dir", str(out_dir)])
        write_json(path, {"base": doc, "space": space, "strategy": "grid"})
        return main(["search", "--data", str(data), "--space", str(path), "--budget", "2",
                     "--out-dir", str(out_dir)])

    @pytest.mark.parametrize("command", ["run", "search"])
    @pytest.mark.parametrize("split, field", [
        ({"cutoff_date": 5}, "cutoff_date"),
        ({"train_fraction": None}, "train_fraction"),
        ({"cutoff_date": "2019-02-30"}, "cutoff_date"),
    ])
    def test_mistyped_split_exit_2_names_the_field(
            self, deals_csv, tmp_path, capsys, command, split, field):
        out_dir = tmp_path / "out"
        assert self.main(command, deals_csv, {**RUN_CONFIG, "split": split}, out_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ") and f"{field}: expected" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_split_with_cutoff_and_fraction_exit_2(self, deals_csv, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        split = {"cutoff_date": "2019-01-01", "train_fraction": 0.7}
        assert self.main(command, deals_csv, {**RUN_CONFIG, "split": split}, out_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ")
        assert "give cutoff_date or train_fraction, not both" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "search"])
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_train_fraction_outside_unit_interval_exit_2(
            self, deals_csv, tmp_path, capsys, command, fraction):
        out_dir = tmp_path / "out"
        split = {"train_fraction": fraction}
        assert self.main(command, deals_csv, {**RUN_CONFIG, "split": split}, out_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("mergepipe: error: ")
        assert "split.train_fraction must lie in (0, 1)" in err
        assert "train_fraction_override" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_embedding_as_long_as_the_sentiment_path_exit_3(self, tmp_path, capsys, command):
        gen = tmp_path / "gen.json"
        write_json(gen, {**GEN_CONFIG, "n_deals": 120, "sentiment_length": 5})
        data = tmp_path / "deals.csv"
        assert main(["generate", "--config", str(gen), "--seed", "4", "--out", str(data)]) == 0
        doc = {**RUN_CONFIG, "framework": "f2", "embedding_dim": 5}
        out_dir = tmp_path / "out"
        assert self.main(command, data, doc, out_dir, route=("--framework", "f2")) == 3
        assert ("pipeline failure [ShapeMismatch]: embedding_dim=5 must be smaller than "
                "the 5-day sentiment path") in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "search"])
    def test_weighted_logit_on_one_class_exit_3(self, deals_csv, tmp_path, capsys, command):
        lines = deals_csv.read_text().splitlines()
        data = tmp_path / "one-class.csv"
        data.write_text("\n".join([lines[0]] + [line[:-1] + "0" for line in lines[1:]]) + "\n")
        data.with_suffix(".schema.json").write_text(
            deals_csv.with_suffix(".schema.json").read_text())
        network = {**RUN_CONFIG["network"], "layers": [],
                   "loss": {"kind": "weighted_cross_entropy"}}
        doc = {**RUN_CONFIG, "network": network, "use_smote": False}
        out_dir = tmp_path / "out"
        code = self.main(command, data, doc, out_dir, route=("--baseline", "weighted-logit"))
        assert code == 3
        assert ("pipeline failure [SingleClass]: class weights need both classes present"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_every_trial_failing_at_a_stage_exit_3(self, deals_csv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        space = {"impute_k": [100000, 200000]}
        assert self.main("search", deals_csv, RUN_CONFIG, out_dir, space=space) == 3
        assert "pipeline failure [TooFewRows]: k=100000 exceeds" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_value_error_inside_a_trial_is_not_exit_2(self, deals_csv, tmp_path, monkeypatch):
        def fails(*args, **kwargs):
            raise ValueError("a fault of the program")

        monkeypatch.setattr(pipeline, "fit_pipeline", fails)
        with pytest.raises(ValueError, match="a fault of the program"):
            self.main("search", deals_csv, RUN_CONFIG, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestDataCache:
    """The CLI reads a deals CSV through the binary cache beside it."""

    ARTIFACTS = ("report.json", "roc.csv", "pr.csv", "model.json")

    @staticmethod
    def run(data, out_dir, run_cfg):
        return main(["run", "--framework", "f1", "--data", str(data),
                     "--config", str(run_cfg), "--out-dir", str(out_dir)])

    def test_run_artifacts_identical_on_miss_and_hit(self, deals_csv, tmp_path, monkeypatch):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        cache = deals_csv.with_name(deals_csv.name + CACHE_SUFFIX)
        assert not cache.exists()
        assert self.run(deals_csv, tmp_path / "miss", run_cfg) == 0
        assert cache.is_file()
        monkeypatch.setattr(dataset, "load_deals_csv", refuse)  # a hit parses nothing
        assert self.run(deals_csv, tmp_path / "hit", run_cfg) == 0
        for name in self.ARTIFACTS:
            assert (tmp_path / "miss" / name).read_bytes() == (tmp_path / "hit" / name).read_bytes()

    def test_search_reads_the_cache_run_wrote(self, deals_csv, tmp_path, monkeypatch):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        assert self.run(deals_csv, tmp_path / "r", run_cfg) == 0
        monkeypatch.setattr(dataset, "load_deals_csv", refuse)
        space = tmp_path / "space.json"
        write_json(space, {**SPACE, "space": {"train.learning_rate": [0.02]}})
        assert main(["search", "--data", str(deals_csv), "--space", str(space),
                     "--budget", "1", "--out-dir", str(tmp_path / "s")]) == 0

    def test_regenerated_data_replaces_the_cache(self, deals_csv, tmp_path):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        assert self.run(deals_csv, tmp_path / "old", run_cfg) == 0
        gen = tmp_path / "gen.json"
        fresh = tmp_path / "fresh" / "deals.csv"
        for out in (deals_csv, fresh):
            assert main(["generate", "--config", str(gen), "--seed", "8", "--out", str(out)]) == 0
        assert self.run(deals_csv, tmp_path / "reused", run_cfg) == 0
        assert self.run(fresh, tmp_path / "fresh-run", run_cfg) == 0
        cache = deals_csv.name + CACHE_SUFFIX
        assert (deals_csv.parent / cache).read_bytes() == (fresh.parent / cache).read_bytes()
        for name in self.ARTIFACTS:
            reused = (tmp_path / "reused" / name).read_bytes()
            assert reused == (tmp_path / "fresh-run" / name).read_bytes()
        assert reused != (tmp_path / "old" / "model.json").read_bytes()

    def test_read_only_data_directory_exit_0(self, deals_csv, tmp_path, monkeypatch):
        data_dir = tmp_path / "read-only"
        data_dir.mkdir()
        data = data_dir / "deals.csv"
        data.write_bytes(deals_csv.read_bytes())
        data.with_suffix(".schema.json").write_bytes(
            deals_csv.with_suffix(".schema.json").read_bytes())
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)
        # the mode bits do not stop a superuser, so the temporary file is refused too
        monkeypatch.setattr(dataset.tempfile, "mkstemp", deny_write)
        data_dir.chmod(0o555)
        try:
            assert self.run(data, tmp_path / "out", run_cfg) == 0
        finally:
            data_dir.chmod(0o755)
        assert sorted(p.name for p in data_dir.iterdir()) == ["deals.csv", "deals.schema.json"]


class TestReload:
    @pytest.fixture()
    def data(self, tmp_path):
        gen = tmp_path / "gen.json"
        write_json(gen, {**GEN_CONFIG, "n_deals": 150, "cancel_rate": 0.3,
                         "sentiment_length": 12, "sentiment_signal": 0.5})
        data = tmp_path / "deals.csv"
        assert main(["generate", "--config", str(gen), "--seed", "5", "--out", str(data)]) == 0
        return data

    @pytest.fixture()
    def fits(self, monkeypatch):
        """(fitted, train, test, schema) of every run_config call the CLI makes."""
        fits = []

        def recorded(train, test, schema, config):
            result = run_config(train, test, schema, config)
            fits.append((result[0], train, test, schema))
            return result

        monkeypatch.setattr(cli, "run_config", recorded)
        return fits

    @pytest.mark.parametrize("framework", ["f1", "f2", "f3"])
    def test_model_json_reloads_to_the_same_scores(self, tmp_path, data, fits, framework):
        out_dir = tmp_path / "run"
        assert main(["run", "--preset", f"{framework}/smote-nn-f1", "--data", str(data),
                     "--seed", "2", "--out-dir", str(out_dir)]) == 0
        [(fitted, _, test, _)] = fits
        text = (out_dir / "model.json").read_text()
        loaded = FittedPipeline.from_json(json.loads(text))
        assert loaded.scores(test).tobytes() == fitted.scores(test).tobytes()
        assert np.isfinite(loaded.scores(test)).all()
        assert json.dumps(loaded.to_json()) + "\n" == text

    @pytest.mark.parametrize(
        "route", [["--preset", "f1/smote-nn-f1"], ["--baseline", "logit"],
                  ["--baseline", "weighted-logit"]],
        ids=lambda route: route[1],
    )
    def test_saved_config_alone_reproduces_the_fit(self, tmp_path, data, fits, route):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {"split": {"train_fraction": 0.8}, "use_smote": True, "pca_dims": 4,
                             "mca_dims": 3, "train": RUN_CONFIG["train"]})
        out_dir = tmp_path / "run"
        config = [] if route[0] == "--preset" else ["--config", str(run_cfg)]
        assert main(["run", *route, "--data", str(data), *config, "--seed", "2",
                     "--out-dir", str(out_dir)]) == 0
        [(fitted, train, _, schema)] = fits
        saved = FittedPipeline.from_json(json.loads((out_dir / "model.json").read_text()))
        refit = fit_pipeline(train, schema, saved.config)
        assert refit.params.values.tobytes() == fitted.params.values.tobytes()

    def test_model_json_records_the_seed_the_network_trained_on(self, tmp_path, data, fits):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, RUN_CONFIG)  # network seed 0, seed 1
        out_dir = tmp_path / "run"
        assert main(["run", "--framework", "f1", "--data", str(data), "--config", str(run_cfg),
                     "--out-dir", str(out_dir)]) == 0
        saved = json.loads((out_dir / "model.json").read_text())["config"]
        assert saved["seed"] == saved["network"]["seed"] == 1
        [(fitted, train, _, schema)] = fits
        doc = {k: v for k, v in RUN_CONFIG.items() if k != "split"}
        refit = fit_pipeline(train, schema, FrameworkConfig.from_json(
            {**doc, "network": {**doc["network"], "seed": 1}}))
        assert refit.params.values.tobytes() == fitted.params.values.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_baseline_config_is_the_library_logit(self, tmp_path, data, fits, weighted):
        run_cfg = tmp_path / "run.json"
        write_json(run_cfg, {**RUN_CONFIG, "seed": 2})  # its network is replaced
        out_dir = tmp_path / "run"
        baseline = "weighted-logit" if weighted else "logit"
        assert main(["run", "--baseline", baseline, "--data", str(data),
                     "--config", str(run_cfg), "--out-dir", str(out_dir)]) == 0
        [(fitted, _, _, _)] = fits
        library = logit_config(
            seed=2, use_smote=True, pca_dims=4, mca_dims=3,
            train=TrainConfig.from_json(RUN_CONFIG["train"]),
        )
        if weighted:
            library = dataclasses.replace(library, **logit_fields(weighted=True))
        assert fitted.config == library

    def test_baselines_have_distinct_config_digests(self, tmp_path, data):
        digests = set()
        for baseline in ("logit", "weighted-logit"):
            out_dir = tmp_path / baseline
            assert main(["run", "--baseline", baseline, "--data", str(data),
                         "--out-dir", str(out_dir)]) == 0
            digests.add(json.loads((out_dir / "manifest.json").read_text())["config_digest"])
        assert len(digests) == 2

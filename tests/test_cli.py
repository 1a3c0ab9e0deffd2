"""End-to-end command pipelines, exit codes, reproducibility."""

import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from quadsurv import cli
from quadsurv.data import Standardizer, load_csv
from quadsurv.model import FittedModel, HazardModel, ModelConfig
from quadsurv.quadrature import build_rule
from quadsurv.simulation import GeneratorSpec, generate, evaluation_grid, l1_error
from quadsurv.training import TrainResult, TrainingConfig, train

TINY_CONFIG = {
    "k_nodes": 4, "hidden": [8], "rank": 2, "time_embed_dim": 4,
    "modulation_hidden": 4, "activation": "tanh", "max_epochs": 2,
    "batch_size": 64, "val_grid_points": 16, "seed": 0,
}


def run(argv):
    return cli.main([str(a) for a in argv])


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_CONFIG, **overrides}))
    return path


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "exponential", "--seed", 3, "--n-train", 300,
                "--n-test", 120, "--out", out]) == 0
    return out


# --- simulate ---------------------------------------------------------------------

def test_simulate_outputs_and_row_counts(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "exponential", "--seed", 0, "--out", out]) == 0
    for name in ("train.csv", "test.csv", "truth.csv", "manifest.json"):
        assert (out / name).exists()
    train_rows = (out / "train.csv").read_text().strip().split("\n")
    test_rows = (out / "test.csv").read_text().strip().split("\n")
    assert len(train_rows) == 2001 and len(test_rows) == 2001
    data = load_csv(out / "train.csv")
    assert 0.17 <= data.censoring_rate <= 0.23


def test_simulate_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "weibull", "--seed", 5, "--n-train", 200, "--n-test", 50,
         "--out", a])
    run(["simulate", "weibull", "--seed", 5, "--n-train", 200, "--n-test", 50,
         "--out", b])
    for name in ("train.csv", "test.csv", "truth.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_roundtrip_exact(tmp_path):
    out = tmp_path / "sim"
    run(["simulate", "gompertz", "--seed", 2, "--n-train", 100, "--n-test", 10,
         "--out", out])
    sim = generate(GeneratorSpec(family="gompertz", n_train=100, n_test=10), 2)
    loaded = load_csv(out / "train.csv")
    np.testing.assert_array_equal(loaded.x, sim.train.x)
    np.testing.assert_array_equal(loaded.time, sim.train.time)
    np.testing.assert_array_equal(loaded.event, sim.train.event)


@pytest.mark.parametrize("argv, message", [
    (["cauchy"], "unknown family"),
    (["weibull", "--n-train", -5], "n_train"),
    (["weibull", "--n-train", 0], "n_train"),
    (["weibull", "--n-test", 0], "n_test"),
    (["weibull", "--seed", -1], "seed"),
], ids=["unknown-family", "negative-n-train", "zero-n-train", "zero-n-test",
        "negative-seed"])
def test_simulate_unknown_family_exit_2(tmp_path, capsys, argv, message):
    assert run(["simulate", *argv, "--out", tmp_path / "x"]) == 2
    assert message in capsys.readouterr().err


# sha256 of simulate --seed 0 --n-train 60 --n-test 30, taken before the
# families moved into one table; the bytes must not change with the code
SIMULATE_SHA256 = {
    "exponential": ("3a401a9276312e2887d736d0dca5ffb94770f78108500daa8bf3057bb9ed2dd4",
                    "958b976823bbe95c4f15bd3a28a9df7d51a2028d6e85b4d1176cb2f097343394",
                    "5b3a102f7cdd140171bfe5482e7d460d1e2914672a869e2c81fb5d299bef4a10"),
    "weibull": ("30649f694874f7994ead18e5a48a916bb783dccf2cbc15d5269dcdb4663f18f2",
                "ad4fcfdfef6d0a8014470a7072e0b4cea2a16be01f8a600c64da1ebce1ce6b4a",
                "2dd75db94256187d0303db66ed454b59661a7e02a2bfc94eedf64ab5c6596e5d"),
    "gamma": ("046e65bef3d18872e205e4e72ed6a770ff4e0c7e167ab43f47a581c10e9a6926",
              "4d49c2c54f173d31fc661b664db1268675c85d373c4da9d7aef88560bea8d944",
              "c406f96ee4347d8560b0f9818b39f7b0df7201602561cc79023272d988a81b77"),
    "gompertz": ("b8329672c4441a7bff7f71b15ac5c6c992bf7eb3996c9fb4f48523cce75cf1e0",
                 "e94a210580fc3859da8d9900714ec126f6f3a881a178bf9727bf4ec12a5fe469",
                 "fbe44f4c8f78e087694bb4b7c7635192d4ae9e3434ffbc084fb691f44b4a0423"),
    "lognormal": ("5c7c9c6c612dd88f668fc80749b97dcf9c3e055f8e51a345a74384f580704d1b",
                  "b3f7d7a5cb8f0c2416badb0c5663b8bacd6caf0cfbd49d2de7863a9f09f3a6ca",
                  "45f517bcc35826828bfd7d622a015b6f7cb1e5243811cee99f342e465e3feba3"),
    "loglogistic": ("49f0b67e2f85bce8817de79e30e4e138431c8735cb493eb5f8a93c453d48e582",
                    "e818dfd7c028052dceed59dbfb7f9209d0bb9215e76fe1b5dc91e27c0b57eea8",
                    "ebe04259a511ffe31e34d838a82b8f197b230a523f58cdd30fbf306d67d243d3"),
    "scenario1": ("5d86b93b1070a72e3a7fb96766702297ab62c8c5742819672da4c68ce9419ca3",
                  "11e467d0b92a49ff81d859dfa84b4437046ce406ef3463362e5fb230c516123d",
                  "c3dc1e041988d29e1d01712cdc764c497c3249db2c0f80bb75038405d8df0126"),
    "scenario2": ("280d0465663e8f13812da97d1e848bd429af73617efb4cf0e563bd278ef2c2d4",
                  "173534732a1e18af1b46d5bfb180ba99c3c3aeab73e4a6c53698f04c90a1ebd9",
                  "2044b281711f62f2c06235e1e4f8c85e75158da4cc2b42b5c1c7d85b0e085d26"),
}


@pytest.mark.parametrize("family", sorted(SIMULATE_SHA256))
def test_simulate_golden_bytes(tmp_path, family):
    out = tmp_path / family
    assert run(["simulate", family, "--seed", 0, "--n-train", 60, "--n-test", 30,
                "--out", out]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("train.csv", "test.csv", "truth.csv"))
    assert digests == SIMULATE_SHA256[family]


def test_simulate_truth_groups(tmp_path):
    out = tmp_path / "s1"
    run(["simulate", "scenario1", "--seed", 1, "--n-train", 200, "--n-test", 50,
         "--out", out])
    with open(out / "truth.csv") as fh:
        groups = {row["group"] for row in csv.DictReader(fh)}
    assert groups == {"x=0", "x=1", "marginal"}


def test_manifest_contents(sim_dir):
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert set(manifest["outputs"]) >= {str(sim_dir / "train.csv")}
    for digest in manifest["outputs"].values():
        assert len(digest) == 64
    assert manifest["library_version"] == cli.__version__


# --- train -------------------------------------------------------------------------

def test_train_writes_checkpoint_and_log(tmp_path, sim_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(["train", cfg, sim_dir / "train.csv", "--out", out]) == 0
    assert (out / "checkpoint.json").exists()
    lines = (out / "log.ndjson").read_text().strip().split("\n")
    assert len(lines) == TINY_CONFIG["max_epochs"]
    assert set(json.loads(lines[0])) == {"epoch", "train_loss", "val_loss",
                                         "val_ctd", "lr"}


def test_train_seed_reproducible_checkpoint_bytes(tmp_path, sim_dir):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    run(["train", cfg, sim_dir / "train.csv", "--out", a])
    run(["train", cfg, sim_dir / "train.csv", "--out", b])
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def test_train_abort_reason_reaches_stdout(tmp_path, sim_dir, capsys):
    cfg = write_config(tmp_path, learning_rate=1e6, grad_clip=1e12, max_epochs=5)
    assert run(["train", cfg, sim_dir / "train.csv", "--out", tmp_path / "r"]) == 0
    out = capsys.readouterr().out
    assert "training aborted (non-finite loss (subject index " in out
    assert "non-finite values produced by" in out


def test_train_rejects_invalid_k(tmp_path, sim_dir):
    cfg = write_config(tmp_path, k_nodes=0)
    assert run(["train", cfg, sim_dir / "train.csv", "--out", tmp_path / "r"]) == 2


@pytest.mark.parametrize("command, content, flags, code", [
    ("train", "{not json", [], 3),
    ("train", "[1]", [], 3),
    ("train", None, [], 3),
    ("train", '{"max_epochs": "3"}', [], 2),
    ("train", '{"hidden": 5}', [], 2),
    ("train", '{"seed": -3}', [], 2),
    ("train", '{"epochs": 3}', [], 2),
    ("train", json.dumps(TINY_CONFIG), ["--seed", -1], 2),
    ("hpo", "", [], 3),
    ("hpo", "[]", [], 3),
    ("hpo", '{"hidden": 5}', [], 2),
    ("hpo", '{"width": [8]}', [], 2),
    ("hpo", "{}", ["--seed", -1], 2),
], ids=["train-not-json", "train-list", "train-missing", "train-str-epochs",
        "train-int-hidden", "train-negative-seed", "train-unknown-field",
        "train-seed-flag", "hpo-empty", "hpo-list", "hpo-int-hidden",
        "hpo-unknown-field", "hpo-seed-flag"])
def test_config_and_space_file_exit_codes(tmp_path, sim_dir, capsys, command,
                                          content, flags, code):
    """A bad file exits 3 and a bad value 2, naming the file (the flag for
    ``--seed``), never as an internal error."""
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    extra = ["--trials", 1, "--epochs", 1] if command == "hpo" else []
    capsys.readouterr()
    assert run([command, path, sim_dir / "train.csv", *flags, *extra,
                "--out", tmp_path / "r"]) == code
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert ("seed must be >= 0" if flags else f"{path}: ") in err
    assert not (tmp_path / "r").exists()


def test_train_all_censored_exit_3(tmp_path):
    path = tmp_path / "cens.csv"
    with open(path, "w") as fh:
        fh.write("x,time,event\n")
        for i in range(40):
            fh.write(f"{i / 40},{1.0 + i / 10},0\n")
    cfg = write_config(tmp_path)
    assert run(["train", cfg, path, "--out", tmp_path / "r"]) == 3


def test_train_cli_overrides(tmp_path, sim_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "r"
    assert run(["train", cfg, sim_dir / "train.csv", "--out", out,
                "--k-nodes", 3, "--conditioning", "film", "--seed", 9]) == 0
    payload = json.loads((out / "checkpoint.json").read_text())
    assert payload["architecture"]["k_nodes"] == 3
    assert payload["architecture"]["conditioning"] == "film"


# --- evaluate -----------------------------------------------------------------------

@pytest.fixture()
def trained(tmp_path, sim_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    run(["train", cfg, sim_dir / "train.csv", "--out", out])
    return out / "checkpoint.json"


def test_evaluate_report(tmp_path, sim_dir, trained):
    report_path = tmp_path / "report.json"
    assert run(["evaluate", trained, sim_dir / "test.csv", sim_dir / "train.csv",
                "--out", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["horizons"]) == {"full", "q1", "q2"}
    for block in report["horizons"].values():
        assert math.isfinite(block["ibs"])
        assert math.isfinite(block["ibll"])
    assert 0.0 <= report["dcal_p"] <= 1.0
    assert report["schema_version"] == 1


def test_evaluate_dimension_mismatch_exit_3(tmp_path, trained):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,time,event\n0.1,0.2,1.0,1\n0.3,0.1,2.0,0\n")
    assert run(["evaluate", trained, bad, bad, "--out", tmp_path / "r.json"]) == 3


# --- predict -------------------------------------------------------------------------

def test_predict_curves(tmp_path, sim_dir, trained):
    out = tmp_path / "curves.csv"
    assert run(["predict", trained, sim_dir / "test.csv", "--grid-max", 2.0,
                "--grid-points", 5, "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120 * 5
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert float(first["survival"]) == 1.0
    for row in rows[:25]:
        s, ch = float(row["survival"]), float(row["cumhaz"])
        assert abs(-math.log(s) - ch) < 1e-9
    # spot row equals the library call
    fitted, _ = cli.load_checkpoint(trained)
    test = load_csv(sim_dir / "test.csv")
    grid = np.linspace(0.0, 2.0, 5)
    lam, _, _ = fitted.curves_matrix(test.x, grid)
    probe = rows[7]      # subject 1, grid index 2
    assert float(probe["hazard"]) == pytest.approx(
        lam[int(probe["subject_id"]), 2], abs=1e-12)


def test_predict_nan_covariate_fails_without_curves(tmp_path, sim_dir, trained, capsys):
    lines = (sim_dir / "test.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = "nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    out = tmp_path / "curves.csv"
    assert run(["predict", trained, bad, "--grid-max", 2.0, "--out", out]) == 3
    assert "column 'x', row 2" in capsys.readouterr().err
    assert not out.exists()


def _run_with_bad_cell(tmp_path, sim_dir, trained, capsys, command, column, cell):
    """Run ``command`` on test.csv with ``cell`` in row 4 of ``column``; (code, stderr)."""
    lines = (sim_dir / "test.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    argv = {"train": ["train", write_config(tmp_path), bad],
            "evaluate": ["evaluate", trained, bad, sim_dir / "train.csv"],
            "predict": ["predict", trained, bad, "--grid-max", 2.0]}[command]
    capsys.readouterr()
    code = run(argv + ["--out", tmp_path / "out"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
@pytest.mark.parametrize("cell", ["", "abc", "inf", "-inf", "nan"])
def test_bad_covariate_cell_exit_3(tmp_path, sim_dir, trained, capsys, command, cell):
    code, err = _run_with_bad_cell(tmp_path, sim_dir, trained, capsys, command, "x", cell)
    assert code == 3
    assert "column 'x', row 4" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_time_cell_exit_3(tmp_path, sim_dir, trained, capsys, command):
    code, err = _run_with_bad_cell(tmp_path, sim_dir, trained, capsys, command,
                                   "time", "-1.0")
    assert code == 3
    assert "negative value '-1.0' in column 'time', row 4" in err


def test_predict_covariates_only_file_matches_full_file(tmp_path, sim_dir, trained):
    with open(sim_dir / "test.csv") as fh:
        rows = [[row["x"]] for row in csv.DictReader(fh)]
    only = tmp_path / "x.csv"
    cli._write_rows(only, ["x"], rows)
    args = ["--grid-max", 2.0, "--grid-points", 5]
    assert run(["predict", trained, sim_dir / "test.csv", *args,
                "--out", tmp_path / "full.csv"]) == 0
    assert run(["predict", trained, only, *args, "--out", tmp_path / "only.csv"]) == 0
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "only.csv").read_bytes()


@pytest.mark.parametrize("key", ["time_scale", "lora_position"])
def test_checkpoint_architecture_keys_must_match_exit_3(tmp_path, sim_dir, trained,
                                                        capsys, key):
    payload = json.loads(trained.read_text())
    arch = payload["architecture"]
    if key in arch:
        del arch[key]
    else:
        arch[key] = "penultimate"
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(payload))
    assert run(["predict", bad, sim_dir / "test.csv", "--grid-max", 2.0,
                "--out", tmp_path / "curves.csv"]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["not json", "architecture", "standardization",
                                    "params", "k_nodes=0", "columns+1", "mean+1",
                                    "scale+1"])
def test_malformed_checkpoint_exit_3(tmp_path, sim_dir, trained, capsys, damage):
    bad = tmp_path / "checkpoint.json"
    payload = json.loads(trained.read_text())
    if damage == "not json":
        bad.write_text(trained.read_text()[:-20])
    elif damage == "k_nodes=0":
        payload["architecture"]["k_nodes"] = 0
        bad.write_text(json.dumps(payload))
    elif damage.endswith("+1"):
        entry = payload["standardization"][damage[:-2]]
        entry.append("x2" if damage == "columns+1" else 1.0)
        bad.write_text(json.dumps(payload))
    else:
        del payload[damage]
        bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["evaluate", bad, sim_dir / "test.csv", sim_dir / "train.csv",
                "--out", tmp_path / "r.json"]) == 3
    assert run(["predict", bad, sim_dir / "test.csv", "--grid-max", 2.0,
                "--out", tmp_path / "curves.csv"]) == 3
    if damage.endswith("+1"):
        err = capsys.readouterr().err
        assert f"{bad}: standardization has" in err
        assert "the model's input width is 1" in err


# --- round trip through checkpoint and CSV ----------------------------------------------

COVARIATES = ("age", "dose", "z")


def _random_fit(head, batchnorm, time_scale, seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(input_dim=len(COVARIATES), hidden=(6,), activation="tanh",
                      conditioning=head, rank=2, time_embed_dim=4,
                      modulation_hidden=4, batchnorm=batchnorm, time_scale=time_scale)
    model = HazardModel(cfg, rng)
    for p in model.params.values():
        p.values = rng.normal(0.0, 0.5, size=p.values.shape)
    for state in model.bn_states:
        state.running_mean = rng.normal(size=state.running_mean.shape)
        state.running_var = rng.uniform(0.5, 2.0, size=state.running_var.shape)
    scaler = Standardizer(mean=rng.normal(size=len(COVARIATES)),
                          scale=rng.uniform(0.5, 2.0, size=len(COVARIATES)))
    return FittedModel(model, build_rule(5), scaler)


def _read_curves(path, n, g):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(r[k]) for r in rows]).reshape(n, g)
            for k in ("hazard", "cumhaz", "survival")]


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("head", ["concat", "film", "lora"])
# no shrink phase: each example runs the CLI five times, so shrinking a failure
# would take minutes
@settings(max_examples=3, deadline=None, database=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(time_scale=st.floats(0.2, 20.0).filter(lambda v: v != 1.0),
       seed=st.integers(0, 2**16), order=st.permutations(range(5)))
def test_checkpoint_and_csv_roundtrip_through_cli(head, batchnorm, time_scale, seed,
                                                 order):
    fitted = _random_fit(head, batchnorm, time_scale, seed)
    rng = np.random.default_rng(seed + 1)
    n = 40
    table = {c: rng.normal(size=n) for c in COVARIATES}
    table["time"] = rng.exponential(2.0, size=n) + 0.05
    table["event"] = (rng.random(n) < 0.7).astype(int)
    header = list(COVARIATES) + ["time", "event"]
    shuffled = [header[i] for i in order]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkpoint = tmp / "checkpoint.json"
        cli._write_checkpoint(checkpoint, TrainResult(
            fitted.model, fitted.scaler, fitted.rule, TrainingConfig(k_nodes=5)),
            COVARIATES)
        files = {}
        for name, cols in (("data", header), ("shuffled", shuffled),
                           ("renamed", ["w" if c == "dose" else c for c in shuffled])):
            files[name] = tmp / f"{name}.csv"
            cli._write_rows(files[name], cols,
                            zip(*(table["dose" if c == "w" else c] for c in cols)))

        grid = np.linspace(0.0, 3.0, 7)
        assert run(["predict", checkpoint, files["shuffled"], "--grid-max", 3.0,
                    "--grid-points", 7, "--out", tmp / "curves.csv"]) == 0
        x = np.column_stack([table[c] for c in COVARIATES])
        for got, want in zip(_read_curves(tmp / "curves.csv", n, len(grid)),
                             fitted.curves_matrix(x, grid)):
            np.testing.assert_array_equal(got, want)

        reports = []
        for name in ("data", "shuffled"):
            out = tmp / name / "report.json"
            assert run(["evaluate", checkpoint, files[name], files["data"],
                        "--out", out]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

        assert run(["predict", checkpoint, files["renamed"], "--grid-max", 3.0,
                    "--out", tmp / "renamed.csv"]) == 3
        assert run(["evaluate", checkpoint, files["renamed"], files["data"],
                    "--out", tmp / "renamed.json"]) == 3


# --- sweep and hpo ----------------------------------------------------------------------

def test_sweep_single_cell_matches_train_evaluate_composition(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep-nodes", "scenario1", "--k-list", "3", "--seeds", "1",
                "--epochs", 3, "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]

    sim = generate(GeneratorSpec(family="scenario1"), 1)
    protocol = dict(cli.SIM_PROTOCOL)
    protocol["max_epochs"] = 3
    cfg = TrainingConfig(seed=1, k_nodes=3, **protocol)
    res = train(cfg, sim.train)
    fitted = FittedModel(res.model, res.rule, res.scaler)
    grid = evaluation_grid(sim.train.time)
    err_s, err_ch, err_h = l1_error(fitted, sim.truth, sim.test.x[:, 0], grid)
    assert float(row["iae_survival"]) == pytest.approx(err_s, abs=1e-15)
    assert float(row["iae_cumhaz"]) == pytest.approx(err_ch, abs=1e-15)
    assert float(row["iae_hazard"]) == pytest.approx(err_h, abs=1e-15)


@pytest.mark.parametrize("flag, value", [
    ("--seeds", "a"), ("--seeds", ""), ("--seeds", "0,1.5"), ("--seeds", "0,-1"),
    ("--k-list", "3,x"), ("--k-list", ""),
])
def test_sweep_bad_integer_list_exit_2(tmp_path, capsys, flag, value):
    argv = {"--k-list": "3", "--seeds": "1", flag: value}
    assert run(["sweep-nodes", "scenario1", *(a for kv in argv.items() for a in kv),
                "--epochs", 1, "--out", tmp_path / "sweep.csv"]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_hpo_single_trial(tmp_path, sim_dir):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"n_layers": [1], "hidden": [16],
                                 "batch_size": [64], "dropout": [0.0],
                                 "batchnorm": [False]}))
    out = tmp_path / "hpo"
    assert run(["hpo", space, sim_dir / "train.csv", "--trials", 1,
                "--epochs", 2, "--out", out]) == 0
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["error"] == ""
    assert (out / "checkpoint.json").exists()


def test_hpo_respects_default_space(tmp_path, sim_dir):
    space = tmp_path / "space.json"
    space.write_text("{}")
    out = tmp_path / "hpo"
    # trials=1 with the default Table-style space; must complete end to end
    assert run(["hpo", space, sim_dir / "train.csv", "--trials", 1,
                "--seed", 4, "--epochs", 2, "--out", out]) == 0


# --- rule dump ------------------------------------------------------------------------------

def test_rule_dump(tmp_path, capsys):
    assert run(["rule", "--k-nodes", 3]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"K", "nodes", "weights"}
    assert payload["K"] == 3
    out = tmp_path / "rule.json"
    assert run(["rule", "--k-nodes", 2, "--out", out]) == 0
    stored = json.loads(out.read_text())
    assert stored["weights"] == [1.0, 1.0]

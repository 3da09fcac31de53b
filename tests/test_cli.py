import json

import numpy as np
import pytest

from kfmc.checkpoint import load_checkpoint, save_checkpoint
from kfmc.cli import main
from kfmc.dataio import read_json, read_mask_csv, read_matrix_csv, write_matrix_csv
from kfmc.offline import OfflineHyperparams
from kfmc.online import OnlineHyperparams


def run(*argv):
    return main([str(a) for a in argv])


def load_report(out):
    return read_json(out / "report.json")


def test_gen_union_preset(tmp_path):
    out = tmp_path / "d"
    assert run("gen", "--preset", "union-nonlinear", "--missing", "0.3",
               "--seed", 7, "--out", out) == 0
    X = read_matrix_csv(out / "data.csv")
    mask = read_mask_csv(out / "mask.csv")
    manifest = read_json(out / "manifest.json")
    assert X.shape == (30, 300) and mask.shape == (30, 300)
    assert manifest["rank_predicted"] == 30
    assert manifest["rank_numerical"] == 30
    assert mask.missing.sum() == 2700


def test_gen_flags_equal_preset(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("gen", "--preset", "union-linear", "--seed", 3, "--out", out1)
    run("gen", "--d", 3, "--p", 1, "--u", 10, "--m", 30, "--n-per", 100,
        "--seed", 3, "--out", out2)
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()


def test_gen_twisted_cubic(tmp_path):
    out = tmp_path / "tc"
    assert run("gen", "--preset", "twisted-cubic", "--per-column-missing", 1,
               "--seed", 5, "--out", out) == 0
    X = read_matrix_csv(out / "data.csv")
    mask = read_mask_csv(out / "mask.csv")
    assert X.shape == (3, 100)
    assert np.all(mask.missing.sum(axis=0) == 1)
    assert read_json(out / "manifest.json")["rank_predicted"] == 3


@pytest.fixture(scope="module")
def twisted_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tcdata")
    run("gen", "--preset", "twisted-cubic", "--per-column-missing", 1,
        "--seed", 5, "--out", out)
    return out


def test_complete_rbf_twisted_cubic(twisted_dir, tmp_path):
    out = tmp_path / "run"
    code = run("complete", "--data", twisted_dir / "data.csv",
               "--mask", twisted_dir / "mask.csv",
               "--method", "kfmc-rbf", "--init", "zero", "--r", 10,
               "--sigma", 1.2, "--beta", 1e-4, "--t-max", 3000,
               "--tol", 1e-9, "--seed", 0, "--out", out)
    assert code == 0
    report = load_report(out)
    assert report["relative_error"] < 0.05
    assert report["kernel"]["kind"] == "rbf"
    assert 0 < report["observed_fraction"] < 1
    assert report["wall_time_s"] > 0
    completed = read_matrix_csv(out / "completed.csv")
    assert np.all(np.isfinite(completed))
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iteration,objective"
    assert len(trace) > 10


def test_complete_lrf_twisted_cubic(twisted_dir, tmp_path):
    out = tmp_path / "lrf"
    assert run("complete", "--data", twisted_dir / "data.csv",
               "--mask", twisted_dir / "mask.csv", "--method", "lrf",
               "--rank", 3, "--iters", 200, "--seed", 0, "--out", out) == 0
    assert load_report(out)["relative_error"] > 0.3


def test_complete_missing_mask_file_is_usage_error(twisted_dir, tmp_path):
    code = run("complete", "--data", twisted_dir / "data.csv",
               "--mask", twisted_dir / "nope.csv", "--out", tmp_path / "x")
    assert code == 2


def test_complete_data_only_with_nans(tmp_path, rng):
    # NaNs in the data act as the mask when no mask file is supplied
    from kfmc.dataio import write_matrix_csv
    X = rng.standard_normal((2, 4)) @ rng.standard_normal((4, 12))
    X_obs = X.copy()
    X_obs[0, 3] = np.nan
    data = tmp_path / "data.csv"
    write_matrix_csv(data, X_obs)
    out = tmp_path / "out"
    truth = tmp_path / "truth.csv"
    write_matrix_csv(truth, X)
    assert run("complete", "--data", data, "--truth", truth, "--method", "lrf",
               "--rank", 2, "--seed", 0, "--out", out) == 0
    assert load_report(out)["relative_error"] is not None


@pytest.mark.parametrize("data_edits,mask_edits,message", [
    ({(4, 11): None}, {}, "data.csv: ragged rows"),
    ({}, {(2, 7): "2"}, "mask.csv: mask entries must be 0 or 1"),
    ({(0, 3): "NaN"}, {}, "data has non-finite values at observed positions"),
    ({(0, 3): "NaN", (1, 5): "inf"}, None,
     "data has non-finite values at observed positions"),
    ({(2, 4): "abc"}, None,
     "data.csv: line 3: could not convert string to float: 'abc'"),
], ids=["ragged-data", "mask-with-2", "nan-at-observed", "inf-without-mask",
        "bad-token"])
def test_bad_input_files_exit_2(tmp_path, capsys, data_edits, mask_edits,
                                message):
    # a cell edit of None deletes the cell; mask_edits None runs without --mask
    rng = np.random.default_rng(0)
    tables = {"data.csv": [["%.17g" % v for v in row]
                           for row in rng.standard_normal((6, 12))],
              "mask.csv": [["1"] * 12 for _ in range(6)]}
    for name, edits in (("data.csv", data_edits), ("mask.csv", mask_edits)):
        for (i, j), token in (edits or {}).items():
            if token is None:
                del tables[name][i][j]
            else:
                tables[name][i][j] = token
        (tmp_path / name).write_text(
            "".join(",".join(row) + "\n" for row in tables[name]))
    mask = [] if mask_edits is None else ["--mask", tmp_path / "mask.csv"]
    for command in ("complete", "stream"):
        out = tmp_path / command
        assert run(command, "--data", tmp_path / "data.csv", *mask,
                   "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not (out / "completed.csv").exists()


@pytest.fixture(scope="module")
def union_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("union")
    run("gen", "--preset", "single-nonlinear", "--missing", "0.3",
        "--seed", 9, "--out", out)
    return out


def test_stream_and_resume_roundtrip(union_dir, tmp_path):
    out1 = tmp_path / "s1"
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--kernel", "rbf",
               "--passes", 2, "--r", 30, "--beta", 1e-4, "--n-iter", 15,
               "--seed", 4, "--out", out1) == 0
    report = load_report(out1)
    assert report["relative_error"] is not None
    assert (out1 / "model.ckpt").exists()
    trace = (out1 / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "t,empirical_cost,empirical_error"
    assert len(trace) == 1 + 2 * 100

    # completing against the reloaded checkpoint is deterministic
    outs = []
    for name in ("r1", "r2"):
        o = tmp_path / name
        assert run("ose", "--model", out1 / "model.ckpt",
                   "--input", union_dir / "data.csv",
                   "--mask", union_dir / "mask.csv", "--n-iter", 15,
                   "--seed", 4, "--out", o) == 0
        outs.append((o / "completed.csv").read_bytes())
    assert outs[0] == outs[1]


def test_stream_passes_zero_without_resume_fails(union_dir, tmp_path):
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--passes", 0,
               "--out", tmp_path / "x") == 2


def test_stream_passes_zero_points_to_ose(union_dir, trained_model, tmp_path,
                                          capsys):
    # ose is the one way to complete against a frozen checkpoint
    out = tmp_path / "p0"
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--passes", 0,
               "--resume", trained_model, "--out", out) == 2
    assert "kfmc ose" in capsys.readouterr().err
    assert not (out / "completed.csv").exists()


def test_stream_resume_kernel_mismatch(union_dir, tmp_path):
    out1 = tmp_path / "s"
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--kernel", "rbf", "--passes", 1,
        "--r", 10, "--n-iter", 5, "--seed", 0, "--out", out1)
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--kernel", "poly",
               "--passes", 1, "--resume", out1 / "model.ckpt",
               "--out", tmp_path / "y") == 2


def test_ose_from_checkpoint(union_dir, tmp_path):
    train_out = tmp_path / "train"
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--kernel", "rbf", "--passes", 2,
        "--r", 30, "--beta", 1e-4, "--n-iter", 15, "--seed", 4,
        "--out", train_out)
    ckpt = train_out / "model.ckpt"
    before = ckpt.read_bytes()
    out = tmp_path / "ose"
    assert run("ose", "--model", ckpt, "--input", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--n-iter", 15,
               "--seed", 0, "--out", out) == 0
    assert ckpt.read_bytes() == before
    assert load_report(out)["relative_error"] is not None


def test_ose_reports_inner_loops(union_dir, tmp_path):
    train_out = tmp_path / "train"
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--passes", 1, "--r", 10,
        "--n-iter", 5, "--seed", 0, "--out", train_out)
    assert run("ose", "--model", train_out / "model.ckpt",
               "--input", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--n-iter", 15, "--seed", 0,
               "--out", tmp_path / "ose") == 0
    report = load_report(tmp_path / "ose")
    assert 0 < report["mean_inner_iterations"] <= 15
    assert isinstance(report["samples_hit_iter_limit"], int)
    assert 0 <= report["samples_hit_iter_limit"] <= 100


def test_ose_has_no_tau(union_dir, trained_model, tmp_path, capsys):
    # ose takes full Newton steps: a --tau that stream accepts is refused
    with pytest.raises(SystemExit) as exc:
        run("ose", "--model", trained_model, "--input", union_dir / "data.csv",
            "--mask", union_dir / "mask.csv", "--tau", 2, "--out", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tau" in capsys.readouterr().err


def test_ose_shape_mismatch_exit_2(union_dir, tmp_path, rng):
    train_out = tmp_path / "train"
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--passes", 1, "--r", 10,
        "--n-iter", 5, "--seed", 0, "--out", train_out)
    from kfmc.dataio import write_matrix_csv
    bad = tmp_path / "bad.csv"
    write_matrix_csv(bad, rng.standard_normal((7, 5)))
    assert run("ose", "--model", train_out / "model.ckpt", "--input", bad,
               "--out", tmp_path / "x") == 2


def test_ose_lrf_baseline(union_dir, tmp_path):
    # baseline path needs a complete training matrix: use the ground truth
    out = tmp_path / "oselrf"
    assert run("ose", "--baseline", "ose-lrf", "--train", union_dir / "data.csv",
               "--rank", 19, "--ridge", 1e-6, "--input", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--seed", 0, "--out", out) == 0
    report = load_report(out)
    assert report["method"] == "ose-lrf"
    assert report["relative_error"] is not None


def test_ose_lrf_rank_above_observed_count_exit_2(tmp_path, capsys):
    data = tmp_path / "d"
    run("gen", "--preset", "union-nonlinear", "--missing", "0.3", "--seed", 1,
        "--out", data)
    counts = read_mask_csv(data / "mask.csv").observed.sum(axis=0)
    first = int(np.argmax(counts < 19))
    assert counts[first] < 19
    out = tmp_path / "oselrf"
    assert run("ose", "--baseline", "ose-lrf", "--train", data / "data.csv",
               "--rank", 19, "--input", data / "data.csv",
               "--mask", data / "mask.csv", "--out", out) == 2
    err = capsys.readouterr().err
    assert f"column {first} has {counts[first]} observed entries" in err
    assert "--rank 19" in err and "--ridge > 0" in err
    assert "Singular matrix" not in err
    assert not (out / "completed.csv").exists()


def test_stream_reports_inner_loops(union_dir, tmp_path):
    out = tmp_path / "s"
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--passes", 2, "--r", 10,
               "--n-iter", 5, "--tol", 0, "--seed", 0, "--out", out) == 0
    report = load_report(out)
    # at tol 0 every one of the 2 x 100 visits runs into the cap of 5
    assert report["mean_inner_iterations"] == 5.0
    assert report["samples_hit_iter_limit"] == 200
    assert report["iterations"] == 200


def test_bounds_values(tmp_path, capsys):
    assert run("bounds", "--m", 20, "--d", 2, "--p", 2, "--u", 3, "--q", 2,
               "--n", 300) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho_kfmc"] == pytest.approx(0.5618, abs=5e-4)
    assert payload["rho_lrmc"] == pytest.approx(0.906, abs=1e-6)
    assert payload["vacuous"] is False

    assert run("bounds", "--m", 20, "--d", 2, "--p", 1, "--u", 10, "--q", 2,
               "--n", 300) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho_kfmc"] == pytest.approx(0.6386, abs=5e-4)
    assert payload["rho_lrmc"] == pytest.approx(1.0)
    assert payload["vacuous"] is True


def test_numerical_failure_exits_3(tmp_path):
    from kfmc.dataio import write_matrix_csv
    X = 1e150 * np.ones((3, 8))
    X[0, 0] = np.nan
    data = tmp_path / "data.csv"
    write_matrix_csv(data, X)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("complete", "--data", data, "--method", "kfmc-poly",
                   "--degree", 3, "--r", 2, "--beta", 1e-8, "--tau", 1.0001,
                   "--eta", 0.9, "--t-max", 50, "--tol", 0, "--seed", 0,
                   "--out", out)
    assert code == 3
    assert (out / "trace.csv").exists()


def test_diverged_complete_exits_3_with_partial_trace(tmp_path, capsys):
    data = tmp_path / "data"
    run("gen", "--preset", "union-nonlinear", "--missing", "0.3", "--seed", 1,
        "--out", data)
    out = tmp_path / "out"
    assert run("complete", "--data", data / "data.csv", "--mask",
               data / "mask.csv", "--eta", 0.9, "--out", out) == 3
    assert "objective ended above its first value" in capsys.readouterr().err
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iteration,objective" and len(trace) > 2
    objective = [float(line.split(",")[1]) for line in trace[1:]]
    assert objective[-1] > objective[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flags", [("--sigma", "1e300"), ("--sigma", "inf"),
                                   ("--sigma", "nan"),
                                   ("--method", "kfmc-poly", "--offset", "inf")])
def test_bad_kernel_parameters_exit_2(union_dir, tmp_path, flags):
    assert run("complete", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", *flags, "--t-max", 3,
               "--out", tmp_path / "out") == 2


def test_collapsed_sigma_exits_3(union_dir, tmp_path):
    # sigma**2 underflows to 0: the kernel matrices turn non-finite and the
    # first code solve fails; the (empty) partial trace is still written
    data = ("--data", union_dir / "data.csv", "--mask", union_dir / "mask.csv",
            "--sigma", "1e-300")
    with np.errstate(divide="ignore", invalid="ignore"):
        assert run("complete", *data, "--t-max", 3, "--out", tmp_path / "c") == 3
        assert run("stream", *data, "--r", 10, "--n-iter", 3,
                   "--out", tmp_path / "s") == 3
    assert (tmp_path / "c" / "trace.csv").exists()
    assert (tmp_path / "s" / "trace.csv").exists()
    assert (tmp_path / "s" / "trace.csv").read_text() == \
        "t,empirical_cost,empirical_error\n"


@pytest.mark.parametrize("command", ["complete", "stream"])
def test_identical_columns_name_the_bandwidth_heuristic(tmp_path, capsys, command):
    # without --sigma the RBF width is the mean column distance, 0 here;
    # the message names the heuristic, not a --sigma the user never passed
    same = tmp_path / "same.csv"
    write_matrix_csv(same, np.tile(np.arange(1.0, 6.0)[:, None], (1, 20)))
    assert run(command, "--data", same, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "mean distance between the sampled columns is 0" in err
    assert "set --sigma" in err
    assert "rbf sigma must be finite" not in err


def test_grid_on_identical_columns_names_the_grid(tmp_path, capsys):
    # the grid's RBF widths are multiples of the mean column distance, 0
    # here; the grid ignores --sigma, so the message must not suggest it
    same = tmp_path / "same.csv"
    write_matrix_csv(same, np.tile(np.arange(1.0, 6.0)[:, None], (1, 20)))
    assert run("complete", "--data", same, "--grid",
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "mean distance between the sampled columns is 0" in err
    assert "--grid" in err
    assert "--sigma" not in err
    assert "rbf sigma must be finite" not in err


@pytest.fixture(scope="module")
def trained_model(union_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--passes", 1, "--r", 10,
        "--n-iter", 5, "--seed", 0, "--out", out)
    return out / "model.ckpt"


def _checkpoint_runs(union_dir, tmp_path, ckpt):
    """ose --model and stream --resume --passes 1 on the same checkpoint."""
    data = ("--mask", union_dir / "mask.csv", "--n-iter", 10, "--seed", 0)
    assert run("ose", "--model", ckpt, "--input", union_dir / "data.csv",
               *data, "--out", tmp_path / "ose") == 0
    assert run("stream", "--data", union_dir / "data.csv", "--passes", 1,
               "--resume", ckpt, *data, "--out", tmp_path / "p1") == 0
    return tmp_path / "ose", tmp_path / "p1"


def _stream_from_checkpoint(command, ckpt, data):
    """stream --resume ckpt with --passes 0 (refused once ckpt is read) for
    ``stream-passes-0``, else with --passes 1."""
    return ("stream", "--resume", ckpt, "--data", data, "--passes",
            0 if command == "stream-passes-0" else 1)


@pytest.mark.parametrize("flags", [("--tau", 0.5), ("--tau", 0),
                                   ("--eta", 1.5), ("--eta", -0.1),
                                   ("--n-iter", 0)],
                         ids=["tau-0.5", "tau-0", "eta-1.5", "eta-neg",
                              "n-iter-0"])
@pytest.mark.parametrize("command", ["ose", "stream-passes-0",
                                     "stream-resume"])
def test_frozen_runs_reject_bad_solver_settings_exit_2(
        union_dir, trained_model, tmp_path, capsys, command, flags):
    data = ("--mask", union_dir / "mask.csv", *flags, "--out", tmp_path / "o")
    if command == "ose":
        argv = ("ose", "--model", trained_model, "--input",
                union_dir / "data.csv", *data)
    else:
        argv = (*_stream_from_checkpoint(command, trained_model,
                                         union_dir / "data.csv"), *data)
    if command == "ose" and flags[0] in ("--eta", "--tau"):
        # ose has no momentum and takes full steps, so no --eta and no
        # --tau: argparse exits with status 2
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    else:
        assert run(*argv) == 2
    if command == "stream-passes-0":
        assert "kfmc ose" in capsys.readouterr().err
    assert not (tmp_path / "o" / "completed.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("ose", ("--beta=-1e-6",)), ("ose", ("--beta", -1)),
    ("stream-passes-0", ("--beta=-1e-6",)),
    ("stream-passes-1", ("--beta=-1e-6",)),
    ("complete", ("--beta=-1e-6",)), ("ose", ()), ("stream-passes-0", ()),
    ("stream-resume", ())],
    ids=["ose", "ose-beta-space-1", "stream-passes-0", "stream-passes-1",
         "complete", "ose-checkpoint-beta", "stream-passes-0-checkpoint-beta",
         "stream-resume-checkpoint-beta"])
def test_negative_beta_exits_2_naming_beta(union_dir, trained_model, tmp_path,
                                           capsys, command, flags):
    ckpt = trained_model
    if not flags:  # no --beta: the checkpoint's negative beta applies
        D, spec, _ = load_checkpoint(trained_model)
        ckpt = tmp_path / "negative-beta.ckpt"
        save_checkpoint(ckpt, D, spec, metadata={"beta": -1e-6})
    data = ("--mask", union_dir / "mask.csv", *flags, "--out", tmp_path / "o")
    if command == "ose":
        argv = ("ose", "--model", ckpt, "--input", union_dir / "data.csv")
    elif command == "complete":
        argv = ("complete", "--data", union_dir / "data.csv")
    elif command == "stream-passes-1":
        argv = ("stream", "--data", union_dir / "data.csv", "--passes", 1)
    else:
        argv = _stream_from_checkpoint(command, ckpt, union_dir / "data.csv")
    assert run(*argv, *data) == 2
    assert "--beta" in capsys.readouterr().err
    assert not (tmp_path / "o" / "completed.csv").exists()


def test_resume_takes_beta_from_checkpoint(union_dir, tmp_path):
    train = tmp_path / "train"
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--kernel", "rbf",
               "--passes", 1, "--r", 10, "--beta", 1e-2, "--n-iter", 5,
               "--seed", 0, "--out", train) == 0
    ose, p1 = _checkpoint_runs(union_dir, tmp_path, train / "model.ckpt")
    betas = [load_report(o)["hyperparameters"]["beta"] for o in (ose, p1)]
    assert betas == [0.01, 0.01]


def test_stream_resume_takes_kernel_from_checkpoint(union_dir, tmp_path):
    train = tmp_path / "train"
    assert run("stream", "--data", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--kernel", "poly",
               "--passes", 1, "--r", 10, "--n-iter", 5, "--seed", 0,
               "--out", train) == 0
    ose, p1 = _checkpoint_runs(union_dir, tmp_path, train / "model.ckpt")
    assert [load_report(o)["kernel"]["kind"] for o in (ose, p1)] == \
        ["poly", "poly"]
    assert load_report(p1)["method"] == "ol-kfmc-poly"


def test_ose_truth_shape_mismatch_exit_2(union_dir, trained_model, tmp_path,
                                         rng):
    from kfmc.dataio import write_matrix_csv
    bad = tmp_path / "truth.csv"
    write_matrix_csv(bad, rng.standard_normal((30, 7)))
    out = tmp_path / "ose"
    assert run("ose", "--model", trained_model,
               "--input", union_dir / "data.csv",
               "--mask", union_dir / "mask.csv", "--truth", bad,
               "--out", out) == 2
    assert not (out / "completed.csv").exists()


@pytest.mark.parametrize("command", ["complete", "stream", "ose"])
def test_non_finite_truth_exit_2(union_dir, trained_model, tmp_path, capsys,
                                 command):
    from kfmc.dataio import write_matrix_csv
    data = union_dir / "data.csv"
    truth = read_matrix_csv(data)
    truth[4, 7] = np.nan
    bad = tmp_path / "truth.csv"
    write_matrix_csv(bad, truth)
    source = ("--input", data, "--model", trained_model) \
        if command == "ose" else ("--data", data, "--r", 10)
    out = tmp_path / "out"
    assert run(command, *source, "--mask", union_dir / "mask.csv",
               "--truth", bad, "--out", out) == 2
    assert f"{bad}: truth has non-finite values" in capsys.readouterr().err
    assert not (out / "completed.csv").exists()


@pytest.mark.parametrize("argv", [
    ("complete", "--method", "kfmc-rbf", "--r", 10, "--t-max", 3),
    ("complete", "--method", "lrf", "--rank", 3, "--iters", 5),
    ("stream", "--r", 10, "--n-iter", 3),
    ("ose", "--n-iter", 3),
    ("ose", "--baseline", "ose-lrf", "--rank", 19, "--ridge", 1e-6),
], ids=["complete-kfmc", "complete-lrf", "stream", "ose-kfmc", "ose-lrf"])
def test_report_has_shared_keys(union_dir, trained_model, tmp_path, argv):
    data = union_dir / "data.csv"
    if argv[0] == "ose":
        source = ("--train", data) if "--baseline" in argv else \
            ("--model", trained_model)
        argv = (*argv, "--input", data, *source)
    else:
        argv = (*argv, "--data", data)
    out = tmp_path / "out"
    assert run(*argv, "--mask", union_dir / "mask.csv", "--seed", 3,
               "--out", out) == 0
    report = load_report(out)
    for key in ("method", "kernel", "hyperparameters", "iterations",
                "observed_fraction", "relative_error", "seed", "wall_time_s"):
        assert key in report, key
    assert report["seed"] == 3
    assert 0 < report["observed_fraction"] < 1
    assert report["relative_error"] is not None
    assert (out / "completed.csv").exists()


def _normalized_report(path):
    report = read_json(path)
    report.pop("wall_time_s", None)
    return report


def test_seeded_runs_are_byte_identical(tmp_path):
    gen_outs = []
    for name in ("g1", "g2"):
        o = tmp_path / name
        run("gen", "--preset", "twisted-cubic", "--per-column-missing", 1,
            "--seed", 5, "--out", o)
        gen_outs.append(o)
    for fname in ("data.csv", "mask.csv", "manifest.json"):
        assert (gen_outs[0] / fname).read_bytes() == (gen_outs[1] / fname).read_bytes()

    runs = []
    for name in ("c1", "c2"):
        o = tmp_path / name
        assert run("complete", "--data", gen_outs[0] / "data.csv",
                   "--mask", gen_outs[0] / "mask.csv", "--method", "kfmc-rbf",
                   "--init", "zero", "--r", 10, "--sigma", 1.2, "--beta", 1e-4,
                   "--t-max", 300, "--seed", 0, "--out", o) == 0
        runs.append(o)
    for fname in ("completed.csv", "trace.csv"):
        assert (runs[0] / fname).read_bytes() == (runs[1] / fname).read_bytes()
    assert _normalized_report(runs[0] / "report.json") == \
        _normalized_report(runs[1] / "report.json")


@pytest.mark.parametrize("edit,message", [
    (lambda h: {k: v for k, v in h.items() if k not in ("m", "r")},
     "header needs integers m, r >= 1"),
    (lambda h: {**h, "m": -30, "r": -10}, "header needs integers m, r >= 1"),
    (lambda h: {**h, "kernel": {"kind": "rbf"}}, "bad kernel"),
    (lambda h: {**h, "kernel": {**h["kernel"], "kind": "laplace"}},
     "unknown kernel kind 'laplace'"),
    (lambda h: [h], "not a checkpoint file"),
    (lambda h: {**h, "format": "npy"}, "not a checkpoint file"),
    (lambda h: {**h, "version": 2}, "unsupported checkpoint version 2"),
    (lambda h: {**h, "metadata": [1e-4]}, "metadata must be an object"),
    (lambda h: {**h, "metadata": {**h["metadata"], "beta": "x"}},
     "must be a number >= 0, got 'x'"),
    (lambda h: {**h, "metadata": {**h["metadata"], "samples_seen": [100]}},
     "samples_seen must be an integer >= 0, got [100]"),
    (lambda h: {**h, "metadata": {**h["metadata"], "samples_seen": "many"}},
     "samples_seen must be an integer >= 0, got 'many'"),
    (lambda h: {**h, "metadata": {**h["metadata"], "samples_seen": -1}},
     "samples_seen must be an integer >= 0, got -1"),
    (lambda h: {**h, "metadata": {**h["metadata"], "samples_seen": True}},
     "samples_seen must be an integer >= 0, got True"),
], ids=["no-m-r", "negative-m-r", "no-sigma", "laplace", "list-header",
        "wrong-format", "wrong-version", "list-metadata", "beta-string",
        "samples-seen-list", "samples-seen-string", "samples-seen-negative",
        "samples-seen-bool"])
@pytest.mark.parametrize("command", ["ose", "stream-resume",
                                     "stream-passes-0"])
def test_malformed_checkpoint_exits_2_naming_file(
        union_dir, trained_model, tmp_path, capsys, command, edit, message):
    # -30 x -10 asks for the payload size of the real 30 x 10 dictionary
    line, payload = trained_model.read_bytes().split(b"\n", 1)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n"
                     + payload)
    data = ("--mask", union_dir / "mask.csv", "--n-iter", 3,
            "--out", tmp_path / "o")
    if command == "ose":
        argv = ("ose", "--model", ckpt, "--input", union_dir / "data.csv")
    else:
        argv = _stream_from_checkpoint(command, ckpt, union_dir / "data.csv")
    assert run(*argv, *data) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and message in err
    assert not (tmp_path / "o" / "completed.csv").exists()


@pytest.mark.parametrize("command", ["ose", "stream-resume",
                                     "stream-passes-0"])
def test_non_finite_checkpoint_exits_2_naming_file(
        union_dir, trained_model, tmp_path, capsys, command):
    # the real header, with a NaN and an inf in the dictionary
    line, payload = trained_model.read_bytes().split(b"\n", 1)
    D = np.frombuffer(payload, dtype="<f8").copy()
    D[[0, 7]] = [np.nan, np.inf]
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(line + b"\n" + D.tobytes())
    data = ("--mask", union_dir / "mask.csv", "--n-iter", 3,
            "--out", tmp_path / "o")
    if command == "ose":
        argv = ("ose", "--model", ckpt, "--input", union_dir / "data.csv")
    else:
        argv = _stream_from_checkpoint(command, ckpt, union_dir / "data.csv")
    assert run(*argv, *data) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: dictionary has non-finite values" in err
    assert not (tmp_path / "o" / "completed.csv").exists()
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.fixture(scope="module")
def poly_model(union_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("poly")
    run("stream", "--data", union_dir / "data.csv",
        "--mask", union_dir / "mask.csv", "--kernel", "poly", "--passes", 1,
        "--r", 10, "--n-iter", 3, "--seed", 0, "--out", out)
    return out / "model.ckpt"


@pytest.mark.parametrize("kernel,flags,message", [
    ("rbf", ("--r", 11), "--r 11 does not match the checkpoint's r 10"),
    ("rbf", ("--sigma", 99), "--sigma 99.0 does not match the checkpoint, "
                             "whose kernel has sigma "),
    ("poly", ("--r", 9), "--r 9 does not match the checkpoint's r 10"),
    ("poly", ("--sigma", 1), "whose kernel has no sigma (poly)"),
], ids=["rbf-r", "rbf-sigma", "poly-r", "poly-sigma"])
def test_stream_resume_rejects_contradicting_r_or_sigma(
        union_dir, trained_model, poly_model, tmp_path, capsys, kernel,
        flags, message):
    ckpt = trained_model if kernel == "rbf" else poly_model
    assert run("stream", "--data", union_dir / "data.csv", "--resume", ckpt,
               *flags, "--n-iter", 3, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "completed.csv").exists()


def test_stream_resume_accepts_the_checkpoints_r_and_sigma(
        union_dir, trained_model, tmp_path):
    _, spec, _ = load_checkpoint(trained_model)
    assert run("stream", "--data", union_dir / "data.csv",
               "--resume", trained_model, "--r", 10, "--sigma", spec.sigma,
               "--n-iter", 3, "--out", tmp_path / "o") == 0
    _, resumed, _ = load_checkpoint(tmp_path / "o" / "model.ckpt")
    assert resumed == spec


def test_resumed_stream_carries_samples_seen(union_dir, tmp_path):
    files = ("--data", union_dir / "data.csv", "--mask", union_dir / "mask.csv")
    data = (*files, "--passes", 2, "--r", 10, "--n-iter", 3, "--seed", 0)
    assert run("stream", *data, "--out", tmp_path / "s0") == 0
    for i in (1, 2):
        assert run("stream", *data, "--resume",
                   tmp_path / f"s{i - 1}" / "model.ckpt",
                   "--out", tmp_path / f"s{i}") == 0
    _, _, header = load_checkpoint(tmp_path / "s2" / "model.ckpt")
    assert header["metadata"]["samples_seen"] == 600
    report = load_report(tmp_path / "s2")
    assert report["iterations"] == 600
    # the inner-loop keys describe this run's 200 visits: one meets tol on
    # its second iteration, the others run to the cap of 3, and 22 of them
    # meet tol on that third iteration
    assert report["mean_inner_iterations"] == 599 / 200
    assert report["samples_hit_iter_limit"] == 177


def test_resume_without_samples_seen_starts_at_zero(union_dir, trained_model,
                                                    tmp_path):
    D, spec, _ = load_checkpoint(trained_model)
    ckpt = tmp_path / "bare.ckpt"
    save_checkpoint(ckpt, D, spec)
    assert run("stream", "--data", union_dir / "data.csv", "--resume", ckpt,
               "--n-iter", 3, "--out", tmp_path / "o") == 0
    _, _, header = load_checkpoint(tmp_path / "o" / "model.ckpt")
    assert header["metadata"]["samples_seen"] == 100


def test_stream_and_ose_reports_record_tol(union_dir, trained_model, tmp_path):
    data = ("--mask", union_dir / "mask.csv", "--n-iter", 3, "--tol", 1e-3)
    assert run("stream", "--data", union_dir / "data.csv", "--r", 10, *data,
               "--out", tmp_path / "s") == 0
    assert run("ose", "--model", trained_model, "--input",
               union_dir / "data.csv", *data, "--out", tmp_path / "o") == 0
    for out in ("s", "o"):
        assert load_report(tmp_path / out)["hyperparameters"]["tol"] == 1e-3


def test_tol_defaults_per_command(union_dir, trained_model, tmp_path):
    # complete stops on the objective per sweep; stream and ose stop each
    # column's inner loop, which has its own default
    assert run("complete", "--data", union_dir / "data.csv", "--mask",
               union_dir / "mask.csv", "--r", 10, "--out", tmp_path / "c") == 0
    data = ("--mask", union_dir / "mask.csv", "--n-iter", 3)
    assert run("stream", "--data", union_dir / "data.csv", "--r", 10, *data,
               "--out", tmp_path / "s") == 0
    assert run("ose", "--model", trained_model, "--input",
               union_dir / "data.csv", *data, "--out", tmp_path / "o") == 0
    hps = {out: load_report(tmp_path / out)["hyperparameters"]
           for out in ("c", "s", "o")}
    assert {out: hp["tol"] for out, hp in hps.items()} == \
        {"c": 1e-4, "s": 1e-3, "o": 1e-3}
    # the other defaults are those of each command's settings class
    for out, cls, keys in [
            ("c", OfflineHyperparams, ("tau", "eta", "alpha", "t_max")),
            ("s", OnlineHyperparams, ("tau", "eta", "alpha"))]:
        assert {k: hps[out][k] for k in keys} == \
            {k: getattr(cls, k) for k in keys}, out
    # ose takes full steps without momentum
    assert "eta" not in hps["o"] and "tau" not in hps["o"]


def test_inner_loop_default_stops_by_tol(tmp_path):
    gen = tmp_path / "g"
    run("gen", "--preset", "union-nonlinear", "--missing", 0.3, "--seed", 1,
        "--out", gen)
    data = ("--data", gen / "data.csv", "--mask", gen / "mask.csv",
            "--passes", 2)
    assert run("stream", *data, "--out", tmp_path / "s") == 0
    assert run("stream", *data, "--tol", 1e-6, "--out", tmp_path / "old") == 0
    assert run("ose", "--model", tmp_path / "s" / "model.ckpt", "--input",
               gen / "data.csv", "--mask", gen / "mask.csv",
               "--out", tmp_path / "o") == 0
    stream, old, ose = (load_report(tmp_path / name)
                        for name in ("s", "old", "o"))
    # 600 stream visits, 300 ose columns: the default stops nearly all of
    # them by tol before the n_iter cap
    assert stream["samples_hit_iter_limit"] < 60
    assert ose["samples_hit_iter_limit"] < 30
    # with Anderson mixing the earlier default 1e-6 stops most visits by tol
    # too, after more iterations than the default
    assert old["samples_hit_iter_limit"] < 60
    assert old["mean_inner_iterations"] > stream["mean_inner_iterations"]


def test_complete_default_stops_by_tol(tmp_path):
    gen = tmp_path / "g"
    run("gen", "--preset", "union-nonlinear", "--missing", 0.3, "--seed", 1,
        "--out", gen)
    data = ("--data", gen / "data.csv", "--mask", gen / "mask.csv")
    assert run("complete", *data, "--out", tmp_path / "default") == 0
    assert run("complete", *data, "--tol", 1e-6, "--out", tmp_path / "old") == 0
    default, old = (load_report(tmp_path / name) for name in ("default", "old"))
    assert default["hyperparameters"]["tol"] == 1e-4
    assert default["stop_reason"] == "tol" and default["iterations"] < 500
    # the earlier default still runs as it did: 472 sweeps to its tol
    assert old["hyperparameters"]["tol"] == 1e-6
    assert old["stop_reason"] == "tol" and old["iterations"] == 472
    assert default["iterations"] < old["iterations"]
    assert default["relative_error"] <= old["relative_error"]


def test_stream_has_no_init_flag(union_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("stream", "--data", union_dir / "data.csv", "--init", "zero",
            "--out", tmp_path / "o")
    assert exc.value.code == 2


def test_complete_grid(tmp_path, capsys):
    from kfmc.dataio import write_matrix_csv
    gen = tmp_path / "tc"
    assert run("gen", "--preset", "twisted-cubic", "--n-per", 30,
               "--per-column-missing", 1, "--seed", 5, "--out", gen) == 0
    out = tmp_path / "grid"
    assert run("complete", "--data", gen / "data.csv", "--mask",
               gen / "mask.csv", "--grid", "--seed", 0, "--out", out) == 0
    report = load_report(out)
    assert report["method"] == "kfmc-grid"
    best = min(e["relative_error"] for e in report["grid"])
    assert report["grid"] and report["relative_error"] == pytest.approx(best)
    # without a fully observed --data or a --truth there is nothing to rank by
    X = read_matrix_csv(gen / "data.csv")
    mask = read_mask_csv(gen / "mask.csv")
    write_matrix_csv(tmp_path / "holes.csv", np.where(mask.observed, X, np.nan))
    assert run("complete", "--data", tmp_path / "holes.csv", "--grid",
               "--out", tmp_path / "x") == 2
    assert "--grid requires ground truth" in capsys.readouterr().err


def test_gen_continuous_seqs(tmp_path, capsys):
    out = tmp_path / "g"
    assert run("gen", "--preset", "single-nonlinear", "--missing", 0.2,
               "--continuous-seqs", 3, "--seed", 1, "--out", out) == 0
    mask = read_mask_csv(out / "mask.csv")
    assert mask.shape == (30, 100)
    assert read_json(out / "manifest.json")["observed_fraction"] == \
        pytest.approx(0.8, abs=0.05)
    assert run("gen", "--preset", "single-nonlinear", "--continuous-seqs", 3,
               "--out", tmp_path / "x") == 2
    assert "--continuous-seqs requires --missing" in capsys.readouterr().err


def test_bounds_out_file(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    assert run("bounds", "--m", 20, "--d", 2, "--p", 2, "--u", 3, "--q", 2,
               "--n", 300, "--out", path) == 0
    assert json.loads(path.read_text()) == json.loads(capsys.readouterr().out)


def test_mask_shape_mismatch_exit_2(union_dir, tmp_path, capsys):
    from kfmc.dataio import write_mask_csv
    from kfmc.masking import Mask
    write_mask_csv(tmp_path / "mask.csv", Mask.full(30, 7))
    for command in ("complete", "stream"):
        assert run(command, "--data", union_dir / "data.csv", "--mask",
                   tmp_path / "mask.csv", "--out", tmp_path / command) == 2
        assert "mask shape does not match data shape" in \
            capsys.readouterr().err

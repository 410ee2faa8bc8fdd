import dataclasses
import functools
import gzip
import importlib.util
import json
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Sections, blas_pinned_env, cli_digests, mnist_like, write_idx_fixture
from driftclust import cli, clustering, dataio, tensor
from driftclust.cli import main
from driftclust.dataio import load_checkpoint, load_labels, save_labels
from driftclust.metrics import nmi
from driftclust.tensor import DimensionError
from driftclust.trainer import ROLLBACK_MODES, TrainerConfig


def blob_args(tmp, k=4, points=40, dim=8, sep=25.0, **extra):
    args = ["cluster", "--data", "blobs", "--k", str(k),
            "--blob-points", str(points), "--blob-dim", str(dim),
            "--blob-separation", str(sep), "--eta", "0.001",
            "--nm", "20", "--km", "5", "--epochs", "2", "--seed", "3",
            "--hidden-dim", "16",
            "--out-labels", str(tmp / "labels.csv"),
            "--out-metrics", str(tmp / "metrics.txt")]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_cluster_summary_line_and_outputs(tmp_path, capsys):
    assert main(blob_args(tmp_path)) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("mode=full k=4 epochs=2 nmi=")
    labels = load_labels(tmp_path / "labels.csv")
    assert labels.shape == (160,)
    metrics = (tmp_path / "metrics.txt").read_text()
    assert "nmi_history=" in metrics and "finetunes=" in metrics


def test_cluster_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(blob_args(a)) == 0
    assert main(blob_args(b)) == 0
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()
    assert (a / "metrics.txt").read_bytes() == (b / "metrics.txt").read_bytes()


def test_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data=blobs\nk=4\nblob_points=40\nblob_dim=8\nepochs=5\nseed=9\n"
                   "hidden_dim=16\neta=0.001\n")
    out_metrics = tmp_path / "m.txt"
    rc = main(["cluster", "--config", str(cfg), "--epochs", "3",
               "--out-labels", str(tmp_path / "l.csv"), "--out-metrics", str(out_metrics)])
    assert rc == 0
    text = out_metrics.read_text()
    assert "epochs=3" in text   # flag wins over the file's 5
    assert "seed=9" in text     # file wins over the default 0
    assert "nm=50" in text      # untouched default


def test_every_setting_is_set_by_its_flag():
    sample = {int: 7, float: 0.25, str: "x"}
    argv, expected = ["cluster"], {}
    for key, row in cli.SETTINGS.items():
        value = row.choices[-1] if row.choices else sample[row.type]
        argv += ["--" + key.replace("_", "-"), str(value)]
        expected[key] = value
    assert cli.resolve_settings(cli.build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize("flag", ["--out-labels", "--out-metrics", "--checkpoint", "--resume",
                                  "--km-list", "--epochs-list", "--seeds"])
def test_sweep_rejects_output_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["sweep", "--data", "blobs", flag, "x"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_setting_defaults_match_trainer_config_defaults():
    # k has no dataclass default; every other field starts from the same value
    # whether the run comes from the CLI or from the library
    renamed = {"n_m": "nm", "k_m": "km"}
    for f in dataclasses.fields(TrainerConfig):
        if f.name != "k":
            assert cli.SETTINGS[renamed.get(f.name, f.name)].default == f.default, f.name


def test_checkpoint_identity_keys_are_pinned():
    # a resume compares this text byte for byte, so its keys are a file-format contract
    settings = cli.resolve_settings(cli.build_parser().parse_args(
        ["cluster", "--data", "blobs", "--k", "2", "--blob-points", "2", "--blob-dim", "2"]))
    dataset = cli.build_dataset(settings)
    keys = [line.split("=")[0] for line in cli.canonical_config_text(settings, dataset).splitlines()]
    assert keys == sorted([
        "data", "k", "nm", "km", "eta", "max_iters", "mode", "backbone", "backbone_dim",
        "hidden_dim", "seed", "drift_rollback", "blob_dim", "blob_points",
        "blob_separation", "blob_sigma", "lloyd_iters", "lloyd_tol",
        "dataset_name", "dataset_n", "dataset_shape", "labeled"])


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data=blobs\nk=4\nbogus_key=1\n")
    assert main(["cluster", "--config", str(cfg)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_data_source_rejected(capsys):
    assert main(["cluster", "--k", "4"]) == 2
    assert "data" in capsys.readouterr().err


def test_km_zero_rejected(capsys):
    assert main(["cluster", "--data", "blobs", "--km", "0"]) == 2
    err = capsys.readouterr().err
    assert "k_m" in err


UNALLOCATABLE = str(10 ** 15)
PAST_ANY_ARRAY = str(10 ** 18)  # within int64, but not times the other dimensions
PAST_ANY_INDEX = str(10 ** 20)  # past int64 on its own
CANNOT_DRAW = "config error: cannot draw an array of shape "


@pytest.mark.parametrize("files,args,code,message", [
    ({}, ["--blob-points", "0"], 2, "points_per_cluster"),
    ({}, ["--blob-separation", "inf"], 2, "separation"),
    ({"few.csv": "0,1\n1,0\n2,2\n"}, ["--data", "csv", "--csv", "few.csv", "--k", "5"], 2,
     "fewer than k=5"),
    ({"dup.csv": "1,2\n1,2\n1,2\n"}, ["--data", "csv", "--csv", "dup.csv", "--k", "2"], 2,
     "distinct points"),
    ({"huge.csv": "1e300,0\n-1e300,1\n0,1e300\n"},
     ["--data", "csv", "--csv", "huge.csv", "--k", "2"], 2, "overflow"),
    ({"bin.cfg": b"\xff\xfek=3\n"}, ["--config", "bin.cfg"], 2, "config file"),
    ({"bin.csv": b"\xff\xfe1,2\n"}, ["--data", "csv", "--csv", "bin.csv", "--k", "2"], 4, "UTF-8"),
    ({"labels.csv": "label\n1\n2\n"}, ["--data", "csv", "--csv", "labels.csv", "--k", "2"], 4,
     "no feature columns"),
    ({"cut.idx.gz": gzip.compress(bytes(100))[:20]},
     ["--data", "mnist", "--images", "cut.idx.gz", "--k", "2"], 4, "gzip"),
    ({"empty.idx": struct.pack(">IIII", 0x00000803, 3, 0, 5)},
     ["--data", "mnist", "--images", "empty.idx", "--k", "2"], 4, "no pixels"),
    # NaN fails every comparison, so it passed a "tol < 0" check and Lloyd never stopped early
    ({}, ["--mode", "baseline3", "--lloyd-tol", "nan"], 2, "lloyd_tol"),
    ({"nan.cfg": "lloyd_tol=nan\n"}, ["--mode", "baseline3", "--config", "nan.cfg"], 2, "lloyd_tol"),
    # sizes whose arrays the host cannot allocate: 10^15 rows or columns are far
    # beyond any address space, so allocation fails at once under any overcommit setting
    ({}, ["--hidden-dim", UNALLOCATABLE], 2, "config error: Unable to allocate"),
    ({}, ["--blob-points", UNALLOCATABLE], 2, "config error: Unable to allocate"),
    ({}, ["--backbone", "randproj", "--backbone-dim", UNALLOCATABLE], 2, "config error: Unable to allocate"),
    # sizes past any array numpy can make: the draw that would hold them names its shape
    ({}, ["--blob-points", PAST_ANY_ARRAY], 2, f"{CANNOT_DRAW}(10, {PAST_ANY_ARRAY}, 50)"),
    ({}, ["--blob-dim", PAST_ANY_ARRAY], 2, f"{CANNOT_DRAW}(10, {PAST_ANY_ARRAY})"),
    ({}, ["--hidden-dim", PAST_ANY_INDEX], 2, f"{CANNOT_DRAW}({PAST_ANY_INDEX}, 50)"),
    ({}, ["--backbone", "randproj", "--backbone-dim", PAST_ANY_INDEX], 2,
     f"{CANNOT_DRAW}({PAST_ANY_INDEX}, 50)"),
])
def test_bad_input_gets_its_exit_code(tmp_path, monkeypatch, capsys, files, args, code, message):
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_bytes(body if isinstance(body, bytes) else body.encode())
    rc = main(["cluster", "--data", "blobs", "--epochs", "1"] + args
              + ["--out-labels", "l.csv", "--out-metrics", "m.txt"])
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("body,message", [
    ("0,1\n1,x\n", "line 2"),
    ("0,1\n1,99999999999999999999\n", "64-bit"),
    ("\n", "no labels"),
    ("0,1\n1,2,3\n", "line 2: '1,2,3' is not index,label"),
    ("0,1\nx,3\n", "line 2: 'x,3' is not index,label"),
])
def test_bad_label_file_gives_io_exit(tmp_path, capsys, body, message):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(body)
    save_labels(good, [0, 1])
    assert main(["eval", str(bad), str(good)]) == 4
    assert message in capsys.readouterr().err


def test_internal_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    # only ConfigError maps to exit 2; a shape bug inside the program surfaces
    def broken(*args, **kwargs):
        raise DimensionError("internal shape bug")

    monkeypatch.setattr(cli, "JointTrainer", broken)
    with pytest.raises(DimensionError):
        main(blob_args(tmp_path))


@pytest.mark.parametrize("subcommand", ["cluster", "sweep"])
def test_missing_input_file_gives_io_exit(tmp_path, monkeypatch, capsys, subcommand):
    monkeypatch.chdir(tmp_path)
    rc = main([subcommand, "--data", "mnist", "--images", "absent.idx", "--k", "2",
               "--epochs", "1"])
    assert rc == 4
    assert "I/O error" in capsys.readouterr().err


def test_output_in_missing_directory_gives_io_exit(tmp_path, capsys):
    args = blob_args(tmp_path)
    args[args.index("--out-labels") + 1] = str(tmp_path / "absent" / "labels.csv")
    assert main(args) == 4
    assert "I/O error" in capsys.readouterr().err


def test_bad_idx_file_gives_io_exit(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x09\x99" + b"\x00" * 16)
    assert main(["cluster", "--data", "mnist", "--images", str(bad)]) == 4
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row,where", [
    ("nan,0.5,1", "row 3, column 1"),    # non-finite feature
    ("0.5,0.25,inf", "row 3, column 3"),  # non-finite label
    ("0.5,0.25,1.7", "row 3, column 3"),  # fractional label
    ("0.5,0.25,1e300", "row 3, column 3"),  # label beyond int64
    ("0.5,0.25,3.0", "row 3, column 3"),  # a float literal, as in a label file
    ("0.5,0.25,1e3", "row 3, column 3"),
    ("0.5,0.25,9223372036854775808", "row 3, column 3"),  # 2^63
    ("0.5,0.25,-9223372036854775809", "row 3, column 3"),
    ("0.5,0.25,x", "row 3, column 3"),  # not a number
])
def test_bad_csv_value_gives_io_exit(tmp_path, capsys, bad_row, where):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0.0,1.0,0\n{bad_row}\n1.0,0.0,1\n")
    rc = main(["cluster", "--data", "csv", "--csv", str(path), "--mode", "baseline2", "--k", "2",
               "--out-labels", str(tmp_path / "l.csv"), "--out-metrics", str(tmp_path / "m.txt")])
    assert rc == 4
    assert where in capsys.readouterr().err


def test_divergence_exit_code(tmp_path, capsys):
    rc = main(blob_args(tmp_path, sep=20000.0, blob_sigma=0.0, eta=5.0, epochs=1))
    assert rc == 3
    assert "iteration" in capsys.readouterr().err


def test_weight_overflow_prints_only_the_divergence_line(tmp_path, capsys):
    args = blob_args(tmp_path, sep=10.0, hidden_dim=128, seed=0, nm=1, km=1, eta=1e308, epochs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print before the message
        assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: ") and err.count("\n") == 1


def test_mnist_pipeline_via_idx_fixture(tmp_path, capsys):
    rng = np.random.RandomState(0)
    # two obvious pixel-level groups
    pixels = np.concatenate([
        rng.randint(0, 40, size=(30, 5, 5)),
        rng.randint(200, 255, size=(30, 5, 5)),
    ]).astype(np.uint8)
    labels = [0] * 30 + [1] * 30
    img, lab = write_idx_fixture(tmp_path, pixels, labels)
    rc = main(["cluster", "--data", "mnist", "--images", str(img), "--labels", str(lab),
               "--k", "2", "--mode", "baseline3", "--hidden-dim", "8", "--seed", "1",
               "--out-labels", str(tmp_path / "l.csv"),
               "--out-metrics", str(tmp_path / "m.txt")])
    assert rc == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("mode=baseline3 k=2 epochs=0 nmi=")
    assert "nmi=1.000000" in summary


def test_eval_identical_files(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    save_labels(path, [0, 1, 2, 0, 1])
    assert main(["eval", str(path), str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "1.000000"
    assert captured.err == ""  # each file holds more than one distinct label: no warning


def test_eval_degenerate_prints_warning(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_labels(a, [0, 1, 0, 1])
    save_labels(b, [7, 7, 7, 7])  # single-cluster prediction
    assert main(["eval", str(a), str(b)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "0.000000"
    assert "warning" in captured.err.lower()


def test_eval_matches_module_value(tmp_path, capsys):
    truth, pred = [0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_labels(a, truth)
    save_labels(b, pred)
    assert main(["eval", str(a), str(b)]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(nmi(truth, pred), abs=1e-6)


def test_eval_length_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_labels(a, [0, 1])
    save_labels(b, [0, 1, 2])
    assert main(["eval", str(a), str(b)]) == 2


def sweep_args(tmp, out, extra):
    return ["sweep", "--data", "blobs", "--k", "4", "--blob-points", "125",
            "--blob-dim", "8", "--blob-separation", "25.0", "--eta", "0.001",
            "--nm", "50", "--hidden-dim", "16", "--out", str(out)] + extra


def grid(*entries):
    return [arg for entry in entries for arg in ("--grid", entry)]


@pytest.mark.parametrize("extra_grid", [
    [],
    ["eta=0.001,0.01"],                      # a float key; it overrides the --eta flag
    ["drift_rollback=last_step,snapshot"],   # a str key
])
def test_sweep_single_cell_matches_cluster(tmp_path, capsys, extra_grid):
    out = tmp_path / "sweep.csv"
    rc = main(sweep_args(tmp_path, out, grid("km=10", "epochs=2", "seed=5", *extra_grid)))
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    extra_keys = [entry.split("=")[0] for entry in extra_grid]
    assert lines[0] == ",".join(["km", "epochs", "seed", *extra_keys, "nmi", "finetunes", "wall_ms"])
    extra_values = [entry.split("=")[1].split(",") for entry in extra_grid]
    assert len(lines) == 1 + (len(extra_values[0]) if extra_values else 1)

    for i, line in enumerate(lines[1:]):
        km, epochs, seed, *extra, nmi_str, finetunes, wall = line.split(",")
        assert (km, epochs, seed) == ("10", "2", "5")
        assert extra == [values[i] for values in extra_values]
        capsys.readouterr()
        metrics = tmp_path / "m.txt"
        flags = [arg for key, value in zip(extra_keys, extra)
                 for arg in ("--" + key.replace("_", "-"), value)]
        rc = main(["cluster", "--data", "blobs", "--k", "4", "--blob-points", "125",
                   "--blob-dim", "8", "--blob-separation", "25.0", "--eta", "0.001",
                   "--nm", "50", "--km", "10", "--epochs", "2", "--seed", "5",
                   "--hidden-dim", "16", *flags,
                   "--out-labels", str(tmp_path / "l.csv"), "--out-metrics", str(metrics)])
        assert rc == 0
        text = metrics.read_text()
        assert f"nmi={nmi_str}" in text
        assert f"finetunes={finetunes}" in text


def test_sweep_km_grid_cadence(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(sweep_args(tmp_path, out, grid("km=1,10,50", "epochs=5", "seed=2")))
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    finetunes = {int(r[0]): int(r[4]) for r in rows}
    # 10 batches/epoch for 5 epochs = 50 batches of size 50
    assert finetunes == {1: 1, 10: 10, 50: 50}


def test_sweep_parallel_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    extra = grid("km=5,10", "epochs=1", "seed=1,2")
    assert main(sweep_args(tmp_path, seq, extra)) == 0
    assert main(sweep_args(tmp_path, par, extra + ["--parallel", "2"])) == 0
    strip_wall = lambda text: [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()]
    assert strip_wall(seq.read_text()) == strip_wall(par.read_text())


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
def test_sweep_records_a_cell_the_grid_cannot_run(tmp_path, capsys, parallel):
    # k_m = 60 is above n_m = 50: that cell's ConfigError becomes a nan row
    out = tmp_path / "sweep.csv"
    rc = main(sweep_args(tmp_path, out, grid("km=5,60", "epochs=1", "seed=1") + parallel))
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[3] == "nan") for r in rows] == [("5", False), ("60", True)]
    assert "sweep cell km=60 epochs=1 seed=1 failed" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
def test_sweep_records_a_cell_the_host_cannot_allocate(tmp_path, capsys, parallel):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(tmp_path, out, grid(f"hidden_dim=16,{UNALLOCATABLE}", "epochs=1") + parallel)) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[2] == "nan") for r in rows] == [("16", False), (UNALLOCATABLE, True)]
    err = capsys.readouterr().err
    assert f"sweep cell hidden_dim={UNALLOCATABLE} epochs=1 failed: Unable to allocate" in err


@pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]])
def test_sweep_records_a_cell_past_any_array_size(tmp_path, capsys, parallel):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(tmp_path, out, grid(f"blob_points=5,{PAST_ANY_ARRAY}", "epochs=1") + parallel)) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[2] == "nan") for r in rows] == [("5", False), (PAST_ANY_ARRAY, True)]
    failed = f"sweep cell blob_points={PAST_ANY_ARRAY} epochs=1 failed: "
    assert failed + f"cannot draw an array of shape (4, {PAST_ANY_ARRAY}, 8)" in capsys.readouterr().err


def _cell_fails_late_for_seed_1(cell):
    # a sweep cell that fails; seed 1, the first cell, finishes last
    if cell["seed"] == 1:
        time.sleep(0.3)
    return dict(nmi="nan", finetunes=0, wall_ms=0, error=f"stand-in {cell['seed']}")


def test_sweep_reports_failed_cells_in_cell_order(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep_cell", _cell_fails_late_for_seed_1)
    out = tmp_path / "sweep.csv"
    extra = grid("seed=1,2", "drift_rollback=snapshot") + ["--parallel", "2"]
    assert main(sweep_args(tmp_path, out, extra)) == 0
    assert capsys.readouterr().err.splitlines() == [
        "sweep cell seed=1 drift_rollback=snapshot failed: stand-in 1",
        "sweep cell seed=2 drift_rollback=snapshot failed: stand-in 2"]


@pytest.mark.parametrize("entries,message", [
    (["bogus=1"], "--grid key 'bogus' is not a run or input setting"),
    (["out_labels=a.csv"], "--grid key 'out_labels' is not a run or input setting"),
    (["km=5", "seed=1", "km=10"], "--grid key km is given twice"),
    (["km="], "--grid key km has no values"),
    (["km=5,x"], "setting km expects int, got 'x'"),
    (["mode=full,bogus"], "setting mode must be one of"),
    (["data=blobs,csv"], "csv data needs a file path"),  # checked on every cell
])
def test_sweep_rejects_a_bad_grid_before_any_cell(tmp_path, monkeypatch, capsys, entries, message):
    ran = []
    monkeypatch.setattr(cli, "run_sweep_cell", ran.append)
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(tmp_path, out, grid(*entries))) == 2
    assert ran == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("parallel", ["-1", "-3"])
def test_sweep_rejects_a_negative_parallel_before_any_cell(tmp_path, monkeypatch, capsys, parallel):
    ran = []
    monkeypatch.setattr(cli, "run_sweep_cell", ran.append)
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(tmp_path, out, grid("km=5,10") + ["--parallel", parallel])) == 2
    assert ran == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: --parallel must be 0 or more") and err.count("\n") == 1


def test_sweep_without_a_grid_runs_one_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(tmp_path, out, ["--epochs", "1"])) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "nmi,finetunes,wall_ms"
    assert row.split(",")[0] != "nan"


def test_sweep_without_a_data_source_exits_2_and_writes_nothing(tmp_path, capsys):
    # an error every cell would share is a config error of the whole sweep
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--k", "4", *grid("km=5,10"), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: no dataset source") and err.count("\n") == 1


def test_sweep_lets_an_internal_error_end_in_a_traceback(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise DimensionError("internal shape bug")

    monkeypatch.setattr(cli, "JointTrainer", broken)
    with pytest.raises(DimensionError):
        main(sweep_args(tmp_path, tmp_path / "sweep.csv", grid("epochs=1")))


def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # with fork, every requested worker starts at the first task; an in-process
    # stand-in records the request without starting any process
    requested = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    out = tmp_path / "sweep.csv"
    extra = grid("km=5,10", "epochs=1") + ["--parallel", "64"]
    assert main(sweep_args(tmp_path, out, extra)) == 0
    assert requested == [2]
    assert len(out.read_text().splitlines()) == 3


def _pass_threads():
    # the threads that run one whole-set pass over 4 chunks; each chunk waits
    # for one chunk of every other run, so no thread can take a second run
    threads = set()
    with tensor.RowPool(4 * tensor.ROW_CHUNK) as pool:
        barrier = threading.Barrier(len(pool.runs), timeout=60)

        def work(rows, scratch):
            threads.add(threading.get_ident())
            barrier.wait()

        pool.each(work)
    return len(threads)


def _cell_pass_threads(cell):
    # a sweep cell that reports the pass threads of the process it runs in
    return dict(km=cell["km"], epochs=cell["epochs"], seed=cell["seed"], nmi=0.0, finetunes=0,
                wall_ms=_pass_threads())


def test_sweep_workers_share_the_cpus_for_extraction(tmp_path, monkeypatch, pass_workers):
    # the forked workers inherit these patches: 4 CPUs, BLAS pinned to 1 thread
    pass_workers(4)
    monkeypatch.setattr(cli, "run_sweep_cell", _cell_pass_threads)
    out = tmp_path / "sweep.csv"
    extra = grid("km=5,10", "epochs=1") + ["--parallel", "2"]
    assert main(sweep_args(tmp_path, out, extra)) == 0
    assert [row.split(",")[-1] for row in out.read_text().splitlines()[1:]] == ["2", "2"]
    assert tensor._pass_workers() == 4  # this process keeps every CPU
    assert _pass_threads() == 4


def test_traced_functions_run_on_the_main_thread_only(tmp_path, monkeypatch, pass_workers):
    # the benchmark's tracer keeps one span stack, which pool threads must
    # never touch: run baseline3 and full with every function it wraps
    # recording the threads it runs on, and the pass kernel as well
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    off_main, pass_threads = [], set()

    class MainThreadOnly(tracer.Tracer):
        def _wrap(self, original, span_name, amount, hook):
            def wrapper(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(span_name)
                return original(*args, **kwargs)
            return wrapper

    nearest = clustering._nearest

    def recording(*args):
        pass_threads.add(threading.get_ident())
        nearest(*args)

    monkeypatch.setattr(clustering, "_nearest", recording)
    pass_workers(2)
    # 2100 rows: two runs of whole row_chunks
    pixels, truth = mnist_like(2100, seed=6, side=12)
    img, lab = write_idx_fixture(tmp_path, pixels, truth)
    runs = [["--data", "mnist", "--images", img, "--labels", lab, "--mode", "baseline3",
             "--backbone", "tinyconv", "--hidden-dim", "32"],
            ["--data", "blobs", "--blob-points", "210", "--mode", "full", "--epochs", "1"]]
    guard = MainThreadOnly()
    assert not tracer.missing_targets()
    guard.install()
    try:
        outputs = ["--out-labels", tmp_path / "l.csv", "--out-metrics", tmp_path / "m.txt",
                   "--checkpoint", tmp_path / "run.ckpt"]
        for extra in runs:
            assert main(["cluster", "--k", "10", *map(str, extra + outputs)]) == 0
    finally:
        guard.restore()
    assert off_main == []
    assert threading.main_thread().ident in pass_threads and len(pass_threads) >= 2


# 4 blobs of 55 points: k_m=7 with n_m=20 leaves pairs in the fine-tune
# buffer at every epoch boundary, so checkpoints carry a non-empty buffer
RESUME_BASE = ["--data", "blobs", "--k", "4", "--blob-points", "55", "--blob-dim", "8",
               "--blob-separation", "25.0", "--eta", "0.001", "--nm", "20", "--km", "7",
               "--seed", "11", "--hidden-dim", "16"]
RESUME_N, RESUME_K = 220, 4


def test_cli_checkpoint_resume_reproduces_unbroken(tmp_path):
    # under either rollback, a run resumed after epoch 2 writes the labels,
    # metrics and final checkpoint of the unbroken run
    for rollback in ROLLBACK_MODES:
        base, out = RESUME_BASE + ["--drift-rollback", rollback], tmp_path / rollback
        out.mkdir()
        ckpt = out / "mid.ckpt"
        assert main(["cluster"] + base + ["--epochs", "2", "--checkpoint", str(ckpt),
                                          "--out-labels", str(out / "half.csv"),
                                          "--out-metrics", str(out / "half.txt")]) == 0
        full, resumed = out / "full", out / "resumed"
        full.mkdir()
        resumed.mkdir()
        want = cli_digests(full, ["cluster"] + base + ["--epochs", "4"])
        assert cli_digests(resumed, ["cluster"] + base + ["--epochs", "4", "--resume", str(ckpt)]) == want


@pytest.fixture(scope="module")
def epoch2_checkpoints(tmp_path_factory):
    """checkpoint(mode): (work directory, bytes of the checkpoint that a run in
    that mode wrote after epoch 2), one run per mode."""
    @functools.lru_cache(maxsize=None)
    def checkpoint(mode):
        work = tmp_path_factory.mktemp(f"resume-{mode}")
        ckpt = work / "epoch2.ckpt"
        assert main(["cluster"] + RESUME_BASE + ["--mode", mode, "--epochs", "2", "--checkpoint", str(ckpt),
                                                 "--out-labels", str(work / "l.csv"),
                                                 "--out-metrics", str(work / "m.txt")]) == 0
        return work, ckpt.read_bytes()
    return checkpoint


@pytest.fixture(scope="module")
def epoch2_checkpoint(epoch2_checkpoints):
    """(work directory, bytes of the checkpoint a full run wrote after epoch 2)."""
    return epoch2_checkpoints("full")


def resume_with(work, blob, mode="full"):
    path = work / "mutated.ckpt"
    path.write_bytes(blob)
    return main(["cluster"] + RESUME_BASE + ["--mode", mode, "--epochs", "3", "--resume", str(path),
                                             "--out-labels", str(work / "r.csv"),
                                             "--out-metrics", str(work / "r.txt")])


def overwrite(body, offset, fmt, value):
    return body[:offset] + struct.pack(fmt, value) + body[offset + struct.calcsize(fmt):]


def bump(body, offset, by=1):
    """The u64 counter at offset, plus `by`."""
    return overwrite(body, offset, "<Q", struct.unpack_from("<Q", body, offset)[0] + by)


MATRICES = [name for name, codec in dataio._LAYOUT if codec is dataio._MATRIX]
# sections led by u32 dims or a count: all but the config text and the counters
HEADERED = [name for name, codec in dataio._LAYOUT if codec not in (dataio._TEXT, dataio._COUNTER)]
ROLLBACK_16X8 = struct.pack("<II", 16, 8) + bytes(16 * 8 * 8)  # zero hidden weights of the resume runs


@pytest.mark.parametrize("mode,section,mutate", [
    ("full", "counts", lambda body: body[:-8]),  # one count short of its header
    ("full", "counts", lambda body: body[:4] + bytes(len(body) - 4)),  # every count 0
    ("full", "counts", lambda body: bump(body, 4, 1000)),  # the first count raised by 1000
    ("full", "rng_state", lambda body: struct.pack("<I", 3) + body[4:-8]),  # 3 RNG words
    ("full", "buffer", lambda body: overwrite(body, 4, "<Q", 10 ** 6)),  # sample index 10^6
    ("full", "buffer", lambda body: overwrite(body, 12, "<I", 99)),  # label 99 at k=4
    ("full", "w_hidden", lambda body: struct.pack("<II", 2, 2) + bytes(32)),  # 2x2 w_hidden
    ("full", "w_rollback", lambda body: struct.pack("<II", 0, 0)),  # none after fine-tune passes
    ("baseline2", "w_rollback", lambda body: ROLLBACK_16X8),  # rollback weights in a run that reads none
    ("full", "epochs_done", lambda body: struct.pack("<Q", 0)),  # epochs_done 0 after two epochs
    ("full", "finetunes", lambda body: bump(body, 0)),
    ("full", "iterations", lambda body: bump(body, 0)),
    ("full", "nmi_history", lambda body: struct.pack("<I", 1) + body[4:12]),  # one value for two epochs
    ("full", "nmi_history", lambda body: overwrite(body, 4, "<d", float("nan"))),
    ("full", "nmi_history", lambda body: overwrite(body, 4, "<d", 1.5)),
    ("full", "nmi_history", lambda body: overwrite(body, 4, "<d", -0.25)),
], ids=["short-counts", "count-zero", "count-plus-one", "three-rng-words", "buffer-index",
        "buffer-label", "w-hidden-2x2", "rollback-missing", "rollback-in-baseline-run", "epochs-done-zero",
        "finetunes-plus-one", "iterations-plus-one", "nmi-short", "nmi-nan", "nmi-above-one", "nmi-negative"])
def test_malformed_checkpoint_gives_io_exit(epoch2_checkpoints, mode, section, mutate, capsys):
    work, blob = epoch2_checkpoints(mode)
    sections = Sections(blob)
    sections[section] = mutate(sections[section])
    assert resume_with(work, sections.blob(), mode) == 4
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("snapshot", [struct.pack("<II", 0, 0), struct.pack("<II", 16, 7) + bytes(16 * 7 * 8)],
                         ids=["missing", "16x7"])
def test_snapshot_run_checkpoint_needs_its_hidden_weight_snapshot(tmp_path, capsys, snapshot):
    args = ["cluster"] + RESUME_BASE + ["--drift-rollback", "snapshot", "--out-labels", str(tmp_path / "l.csv"),
                                        "--out-metrics", str(tmp_path / "m.txt")]
    ckpt = tmp_path / "epoch2.ckpt"
    assert main(args + ["--epochs", "2", "--checkpoint", str(ckpt)]) == 0
    sections = Sections(ckpt.read_bytes())
    assert sections["w_rollback"][:8] == struct.pack("<II", 16, 8)  # the 16x8 hidden weights
    sections["w_rollback"] = snapshot
    ckpt.write_bytes(sections.blob())
    assert main(args + ["--epochs", "3", "--resume", str(ckpt)]) == 4
    assert "I/O error" in capsys.readouterr().err


def test_version_1_checkpoint_gives_io_exit_naming_both_versions(epoch2_checkpoint, capsys):
    # version 1 also stored the output layer's step delta and snapshot; the
    # CRC covers the payload alone, so it stays valid
    work, blob = epoch2_checkpoint
    version1 = blob[:8] + struct.pack("<I", 1) + blob[12:]
    assert resume_with(work, version1) == 4
    assert "unsupported checkpoint version 1, expected 3" in capsys.readouterr().err


def test_version_2_checkpoint_gives_io_exit_naming_both_versions(epoch2_checkpoint, capsys):
    # version 2 stored the hidden step delta and the snapshot apart, and the
    # three progress counters in one section
    work, blob = epoch2_checkpoint
    version2 = blob[:8] + struct.pack("<I", 2) + blob[12:]
    assert resume_with(work, version2) == 4
    assert "unsupported checkpoint version 2, expected 3" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_resume_from_mutated_section_is_exact_or_io_error(epoch2_checkpoint, data):
    work, blob = epoch2_checkpoint
    sections = Sections(blob)
    kind = data.draw(st.sampled_from(["truncate", "extend", "header", "pair"]), label="kind")
    sections_for = {"header": st.sampled_from(HEADERED), "pair": st.just("buffer")}
    name = data.draw(sections_for.get(kind, st.sampled_from(list(sections))), label="section")
    body = sections[name]
    expected = {2, 4} if name == "config_text" else {4}  # only the config text may differ as a config error
    if kind == "truncate":
        body = body[:-data.draw(st.integers(1, len(body)), label="cut")]
    elif kind == "extend":
        body += data.draw(st.binary(min_size=1, max_size=24), label="extra")
    elif kind == "header":
        offset = data.draw(st.sampled_from([0, 4] if name in MATRICES else [0]), label="offset")
        (old,) = struct.unpack_from("<I", body, offset)
        new = data.draw(st.integers(0, 2 ** 32 - 1).filter(lambda v: v != old), label="value")
        body = overwrite(body, offset, "<I", new)
    else:
        (pairs,) = struct.unpack_from("<I", body, 0)
        at = 4 + 12 * data.draw(st.integers(0, pairs - 1), label="pair")
        if data.draw(st.booleans(), label="overwrite the label, not the index"):
            value = data.draw(st.integers(0, 2 ** 32 - 1), label="label")
            body = overwrite(body, at + 8, "<I", value)
            expected = {0} if value < RESUME_K else {4}
        else:
            value = data.draw(st.integers(0, 2 ** 64 - 1), label="index")
            body = overwrite(body, at, "<Q", value)
            expected = {0} if value < RESUME_N else {4}
    sections[name] = body
    assert resume_with(work, sections.blob()) in expected


def test_baseline3_checkpoint_is_final_state_and_not_resumable(tmp_path, capsys):
    rng = np.random.RandomState(2)
    pixels = rng.randint(0, 255, size=(20, 5, 5)).astype(np.uint8)
    img, _ = write_idx_fixture(tmp_path, pixels)
    args = ["cluster", "--data", "mnist", "--images", str(img), "--k", "2",
            "--mode", "baseline3", "--hidden-dim", "8",
            "--out-labels", str(tmp_path / "l.csv"), "--out-metrics", str(tmp_path / "m.txt")]
    ckpt = tmp_path / "b3.ckpt"
    assert main(args + ["--checkpoint", str(ckpt)]) == 0
    state = load_checkpoint(ckpt)
    assert state.epochs_done == 0 and state.centroids.shape == (2, 8)
    capsys.readouterr()
    assert main(args + ["--resume", str(ckpt)]) == 2
    assert "baseline3" in capsys.readouterr().err


def test_tinyconv_lloyd_outputs_are_pinned(tmp_path):
    # 300 noisy copies of 10 random prototypes through tinyconv and Lloyd at
    # tol 0 (a fixed point after 8 sweeps); the labels and metrics digests
    # were taken when Lloyd still ran all 200 sweeps, the checkpoint's when
    # each stored field became one section (version 3; its weights are those
    # of the portable gauss's tinyconv projection). At
    # 14x14 the tinyconv products give the same bits with 1, 2 or 4 OpenBLAS
    # threads; at 28x28 they do not.
    rng = np.random.RandomState(5)
    protos = rng.uniform(0.0, 255.0, size=(10, 14, 14))
    truth = rng.randint(0, 10, size=300)
    pixels = np.clip(np.rint(protos[truth] + rng.normal(0.0, 64.0, size=(300, 14, 14))), 0, 255)
    img, lab = write_idx_fixture(tmp_path, pixels, truth)
    digests = cli_digests(tmp_path, [
        "cluster", "--data", "mnist", "--images", str(img), "--labels", str(lab),
        "--k", "10", "--seed", "3", "--mode", "baseline3", "--backbone", "tinyconv",
        "--lloyd-tol", "0", "--lloyd-iters", "200"])
    assert digests == {
        "labels.csv": "89e35c0c664f4e1e66993ed98b6f97da2ac406b1172ba707bc51dff15cf95568",
        "metrics.txt": "ee9fffc42c8dcaac50ddc44e0075f67f72dcc6440bc70c20c7f92c9b8a7bff9c",
        "run.ckpt": "4b8c7bdda00458a5c4d0c6daad7ef9fa8c11085f995176f375a164089981af89",
    }


BLOB_JOINT = ["cluster", "--data", "blobs", "--k", "4", "--blob-points", "40", "--blob-dim", "8",
              "--blob-separation", "2.0", "--eta", "0.05", "--nm", "20", "--km", "5",
              "--epochs", "2", "--seed", "3", "--hidden-dim", "16"]


def pixel_joint_args(tmp_path):
    """A full-mode joint run on 90 noisy uint8 6x6 IDX images of 3 prototypes
    through flatten, so the trainer scales pixels as it reads rows."""
    rng = np.random.RandomState(7)
    protos = rng.uniform(0.0, 255.0, size=(3, 6, 6))
    truth = rng.randint(0, 3, size=90)
    pixels = np.clip(np.rint(protos[truth] + rng.normal(0.0, 64.0, size=(90, 6, 6))), 0, 255)
    img, lab = write_idx_fixture(tmp_path, pixels, truth)
    return ["cluster", "--data", "mnist", "--images", str(img), "--labels", str(lab), "--k", "3",
            "--nm", "15", "--km", "4", "--eta", "0.05", "--epochs", "2", "--seed", "2",
            "--hidden-dim", "8", "--mode", "full"]


@pytest.mark.parametrize("args, pins", [
    (BLOB_JOINT + ["--mode", "full"], {
        "labels.csv": "2b458060e379ac3fab181e76ba05208c2552efe907a78d73abb422863306a273",
        "metrics.txt": "ee58b6c64f5825366fd9ccec0d0c2d801d382c3ef7c07a19521219657a7a711d",
        "run.ckpt": "5ae5cb04d19353e28081f00061fe43b69408ae2bb685f02b24b77e2c9254c0c0"}),
    (BLOB_JOINT + ["--mode", "full", "--drift-rollback", "snapshot", "--eta", "0.5"], {
        "labels.csv": "eddad0201a5846a71ce50fe8db203409f631cf3dfdd33de2ce241c9ff041e5f5",
        "metrics.txt": "96741eb2e3b9349f325faffc81eebd9698ba1d75ecddf0d0728d143a40cd6c5b",
        "run.ckpt": "8778b6384a2a072655bda934fd6e0ee76695d5c478acaee5fe8012fba91df196"}),
    (BLOB_JOINT + ["--mode", "baseline1"], {
        "labels.csv": "8ebbd0046d9a82663fd92e12d47c050b3e71455178634f9daafb544474579246",
        "metrics.txt": "80905d305c62dfcab191b3990d6e999e5bf98986554222e08ce28218747f913a",
        "run.ckpt": "381c74d5350fef5427e9fdf9b892dbec8a3bcdf6f5c0bc9aa5d4833f904712e8"}),
    (BLOB_JOINT + ["--mode", "baseline2"], {
        "labels.csv": "3a0c074641011b0aea495bd53c38e50a593ffae7455a16d95eb25193ed639025",
        "metrics.txt": "804ede0c1c3169ac5abcf291ddc1ead89cd27ece7e6d74065c4658b339b0bd84",
        "run.ckpt": "f34442e9b9ee42ccf556625bba1869069d892ed4496e54063a46ae4fb4c0e458"}),
    # 160 = 5 * 30 + 10: the last batch holds 10 rows, so k_m = 12 is clipped to 10
    (BLOB_JOINT + ["--mode", "full", "--nm", "30", "--km", "12"], {
        "labels.csv": "3ebe8b64d7d956d150d3fcd59a3b5e3114e322df7d4b74dec425ed348a175ee1",
        "metrics.txt": "a99f754116f8d5e98e6e167b036aeab450efec62ca09d13e0db936072df7c2ea",
        "run.ckpt": "17f6f70752c61ad9f4ef55a2d8e0fcd522ccc56ca3406fd6475212fa3aff4748"}),
    # 8 batches per epoch: the cap cuts the second epoch after 3 of them
    (BLOB_JOINT + ["--mode", "full", "--max-iters", "11"], {
        "labels.csv": "b88309c3398f1e3877e262fbca022f9fccb138f4ecdc7dbb57d928e33cfa360e",
        "metrics.txt": "9bc212cbce5348a8038c298c921b5324666e073a14a6af38b5971022a67e548c",
        "run.ckpt": "4e8e2a3440082c43acb7537dbdd54c52ed4be78c2f4bd3aecf25acd12a7df69d"}),
    (pixel_joint_args, {
        "labels.csv": "41f3229a2734565886c4a1dd92f2c3d1e830f10ff0e715c78038a197869c611c",
        "metrics.txt": "5138bbc4e3589f3605f7293167d1422e2d74b454df3bda60ae32c87c7bb7c7e8",
        "run.ckpt": "feb948730321869291459633170108086bf2e88fc8f539dab87ae41792bb826a"}),
], ids=["full", "snapshot", "baseline1", "baseline2", "short_last_batch", "max_iters", "idx_flatten"])
def test_blob_joint_outputs_are_pinned(tmp_path, args, pins):
    # four loosely separated blobs, so almost every SGD step applies a nonzero
    # gradient; a full run's checkpoint holds the rollback weights (the hidden
    # weights before the last step, or before the last pass with snapshot
    # rollback) and the others none, and its centroids are those of
    # update_centroid's one running-mean step per batch; the last run reads
    # uint8 pixels instead of blobs
    argv = args(tmp_path) if callable(args) else args
    assert cli_digests(tmp_path, argv) == pins


@pytest.mark.parametrize("mode", [["--mode", "full"], ["--mode", "baseline2"]], ids=["full", "baseline2"])
def test_blob_joint_outputs_do_not_depend_on_blas_threads(tmp_path, mode):
    # the SGD step's matrix-vector and outer products, the assignment's
    # product and the hidden-feature products are BLAS calls; a blob run
    # (50 inputs or fewer) must give the same bytes under 1 and 2 threads
    child = ("import json, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from pathlib import Path\n"
             "from conftest import cli_digests\n"
             "print(json.dumps(cli_digests(Path(sys.argv[2]), sys.argv[3:])))\n")
    tests_dir = str(Path(__file__).resolve().parent)
    digests = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", child, tests_dir, str(out)] + BLOB_JOINT + mode,
                              env=blas_pinned_env(threads), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert len(digests[0]) == 3 and digests[0] == digests[1]


@pytest.mark.parametrize("backbone", ["randproj", "tinyconv"])
def test_cluster_with_projection_backbones(tmp_path, backbone):
    rng = np.random.RandomState(1)
    pixels = np.concatenate([
        rng.randint(0, 40, size=(25, 10, 10)),
        rng.randint(200, 255, size=(25, 10, 10)),
    ]).astype(np.uint8)
    img, lab = write_idx_fixture(tmp_path, pixels, [0] * 25 + [1] * 25)
    rc = main(["cluster", "--data", "mnist", "--images", str(img), "--labels", str(lab),
               "--k", "2", "--mode", "baseline3", "--backbone", backbone,
               "--backbone-dim", "12", "--hidden-dim", "8", "--seed", "1",
               "--out-labels", str(tmp_path / "l.csv"),
               "--out-metrics", str(tmp_path / "m.txt")])
    assert rc == 0
    assert "nmi=1.000000" in (tmp_path / "m.txt").read_text()


@pytest.mark.slow
def test_sweep_km_direction_on_blob_benchmark(tmp_path):
    # small k_m may spend more compute but should not cluster worse than
    # k_m = n_m by any real margin
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--data", "blobs", "--k", "10", "--blob-points", "500",
               "--blob-dim", "50", "--blob-separation", "10.0", "--blob-sigma", "1.0",
               *grid("km=1,50", "epochs=10", "seed=0,1,2,3,4"), "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    by_km = {}
    for r in rows:
        by_km.setdefault(int(r[0]), []).append(float(r[3]))
    assert np.mean(by_km[1]) >= np.mean(by_km[50]) - 0.02


def test_resume_rejects_different_config(tmp_path, capsys):
    base = ["--data", "blobs", "--k", "4", "--blob-points", "40", "--blob-dim", "8",
            "--eta", "0.001", "--nm", "20", "--km", "5", "--hidden-dim", "16"]
    ckpt = tmp_path / "mid.ckpt"
    assert main(["cluster"] + base + ["--seed", "1", "--epochs", "1",
                                      "--checkpoint", str(ckpt),
                                      "--out-labels", str(tmp_path / "l.csv"),
                                      "--out-metrics", str(tmp_path / "m.txt")]) == 0
    rc = main(["cluster"] + base + ["--seed", "2", "--epochs", "2",
                                    "--resume", str(ckpt),
                                    "--out-labels", str(tmp_path / "l2.csv"),
                                    "--out-metrics", str(tmp_path / "m2.txt")])
    assert rc == 2
    assert "configuration" in capsys.readouterr().err


@pytest.mark.slow
def test_60k_pixel_epoch_peaks_below_200_mb(tmp_path):
    # The paper's scale in bounded memory: 60k 28x28 images (47 MB of
    # pixels), flatten, one epoch, in a fresh process. The child reports its
    # own VmHWM; its ru_maxrss would start from this process's peak.
    pixels, labels = mnist_like(60_000, seed=5)
    img, lab = write_idx_fixture(tmp_path, pixels, labels)
    del pixels, labels
    child = ("import sys\n"
             "from driftclust.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
             "sys.exit(code)\n")
    env = blas_pinned_env(1)
    proc = subprocess.run(
        [sys.executable, "-c", child, "cluster", "--data", "mnist", "--images", str(img),
         "--labels", str(lab), "--backbone", "flatten", "--mode", "baseline2", "--epochs", "1",
         "--k", "10", "--seed", "0", "--out-labels", str(tmp_path / "labels.csv"),
         "--out-metrics", str(tmp_path / "metrics.txt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    name, kib, unit = proc.stdout.strip().splitlines()[-1].split()
    assert (name, unit) == ("VmHWM:", "kB")
    assert int(kib) * 1024 < 200e6, f"peak {int(kib) * 1024 / 1e6:.0f} MB"

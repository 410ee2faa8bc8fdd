"""Command-line front end for reproducible clustering runs.

Subcommands: cluster (one run), eval (NMI between two label files), sweep
(one run per cell of the repeatable `--grid key=v1,v2,...`, a product over any
run or input settings, to CSV). Settings resolve as flag > config file >
default; config files are flat key=value lines and unknown keys are errors.

Exit codes: 0 success, 2 config error, 3 divergence, 4 I/O error.
"""

import argparse
import itertools
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from typing import NamedTuple, Optional

import numpy as np

from .backbone import BACKBONE_KINDS, BackboneSpec
from .dataio import (CheckpointError, CsvFormatError, IdxFormatError, atomic_write_text,
                     gen_blobs, load_checkpoint, load_csv, load_idx, load_labels,
                     save_checkpoint, save_labels)
from .metrics import nmi
from .tensor import SeededRng, share_cpus
from .trainer import MODES, ROLLBACK_MODES, ConfigError, DivergenceError, JointTrainer, TrainerConfig


class Setting(NamedTuple):
    """One run setting. "run" settings form the identity a checkpoint must
    match to resume; "input" settings (data paths, the epoch budget) are read
    by cluster and sweep but may change on resume; "output" settings are
    cluster-only paths."""
    type: type
    default: object = None
    help: Optional[str] = None
    choices: Optional[tuple] = None
    role: str = "run"


# a run's defaults: TrainerConfig's own, and k=10 (k has no dataclass default)
_DEFAULT = TrainerConfig(k=10)

# the single declaration of every setting, in --help order; the dataset
# source has no default on purpose
SETTINGS = {
    "data": Setting(str, choices=("mnist", "blobs", "csv")),
    "images": Setting(str, help="IDX image file (mnist)", role="input"),
    "labels": Setting(str, help="IDX label file (mnist)", role="input"),
    "csv": Setting(str, help="CSV feature table", role="input"),
    "k": Setting(int, _DEFAULT.k),
    "nm": Setting(int, _DEFAULT.n_m, "mini-batch size"),
    "km": Setting(int, _DEFAULT.k_m, "reliable samples kept per mini-batch"),
    "eta": Setting(float, _DEFAULT.eta, "SGD learning rate"),
    "epochs": Setting(int, _DEFAULT.epochs, role="input"),
    "max_iters": Setting(int, _DEFAULT.max_iters),
    "mode": Setting(str, _DEFAULT.mode, choices=MODES),
    "backbone": Setting(str, "flatten", choices=BACKBONE_KINDS),
    "backbone_dim": Setting(int, 128),
    "hidden_dim": Setting(int, _DEFAULT.hidden_dim),
    "seed": Setting(int, _DEFAULT.seed),
    "drift_rollback": Setting(str, _DEFAULT.drift_rollback, choices=ROLLBACK_MODES),
    "blob_dim": Setting(int, 50),
    "blob_points": Setting(int, 500),
    "blob_separation": Setting(float, 10.0),
    "blob_sigma": Setting(float, 1.0),
    "lloyd_iters": Setting(int, _DEFAULT.lloyd_iters),
    "lloyd_tol": Setting(float, _DEFAULT.lloyd_tol),
    "out_labels": Setting(str, "labels.csv", role="output"),
    "out_metrics": Setting(str, "metrics.txt", role="output"),
    "checkpoint": Setting(str, help="write a checkpoint after every epoch", role="output"),
    "resume": Setting(str, help="resume from a checkpoint file", role="output"),
}


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = _convert(key, value)
    return values


def _convert(key, text):
    row = SETTINGS[key]
    try:
        value = row.type(text)
    except ValueError:
        raise ConfigError(f"setting {key} expects {row.type.__name__}, got {text!r}") from None
    if row.choices and value not in row.choices:
        raise ConfigError(f"setting {key} must be one of {'|'.join(row.choices)}, got {text!r}")
    return value


def resolve_settings(ns):
    """flag > config file > default."""
    settings = {key: row.default for key, row in SETTINGS.items()}
    if getattr(ns, "config", None):
        settings.update(_parse_config_file(ns.config))
    for key in SETTINGS:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def check_dataset_source(settings):
    """The dataset source and the file key it needs; returns the source."""
    source = settings["data"]
    if source is None:
        raise ConfigError("no dataset source configured (key: data)")
    if source == "mnist" and not settings["images"]:
        raise ConfigError("mnist data needs an IDX image file (key: images)")
    if source == "csv" and not settings["csv"]:
        raise ConfigError("csv data needs a file path (key: csv)")
    return source


def build_dataset(settings):
    source = check_dataset_source(settings)
    if source == "mnist":
        return load_idx(settings["images"], settings["labels"] or None)
    if source == "blobs":
        return gen_blobs(k=settings["k"], points_per_cluster=settings["blob_points"],
                         dim=settings["blob_dim"], separation=settings["blob_separation"],
                         noise_sigma=settings["blob_sigma"], rng=SeededRng(settings["seed"]))
    return load_csv(settings["csv"])


def build_run(settings):
    """(dataset, backbone spec, validated TrainerConfig) of one run."""
    dataset = build_dataset(settings)
    kind = settings["backbone"]
    out_dim = int(np.prod(dataset.shape)) if kind == "flatten" else settings["backbone_dim"]
    # seed offset keeps the frozen backbone off the trainer's RNG stream
    spec = BackboneSpec(kind=kind, input_shape=dataset.shape, output_dim=out_dim,
                        seed=settings["seed"] + 1)
    renamed = {"n_m": "nm", "k_m": "km"}  # TrainerConfig field -> setting key
    config = TrainerConfig(**{f.name: settings[renamed.get(f.name, f.name)]
                              for f in fields(TrainerConfig)})
    config.validate()
    return dataset, spec, config


def canonical_config_text(settings, dataset):
    entries = {key: settings[key] for key, row in SETTINGS.items() if row.role == "run"}
    entries["dataset_name"] = dataset.name
    entries["dataset_n"] = dataset.n
    entries["dataset_shape"] = "x".join(str(d) for d in dataset.shape)
    entries["labeled"] = int(dataset.labels is not None)
    return "".join(f"{k}={entries[k]!r}\n" for k in sorted(entries))


_METRIC_KEYS = ("mode", "k", "nm", "km", "eta", "epochs", "seed", "backbone", "hidden_dim")


def _metrics_text(settings, result, dataset):
    lines = [f"{key}={settings[key]}" for key in _METRIC_KEYS] + [
        f"dataset={dataset.name}",
        f"samples={dataset.n}",
        f"finetunes={result.finetunes}",
        f"iterations={result.iterations}",
    ]
    if dataset.labels is not None:
        final = result.nmi_history[-1] if result.nmi_history else nmi(dataset.labels, result.labels)
        lines.append(f"nmi={final:.6f}")
        lines.append("nmi_history=" + ",".join(f"{v:.6f}" for v in result.nmi_history))
    return "\n".join(lines) + "\n"


def cmd_cluster(ns) -> int:
    settings = resolve_settings(ns)
    dataset, spec, config = build_run(settings)
    canon = canonical_config_text(settings, dataset)

    ckpt = None
    if settings["resume"]:
        if config.mode == "baseline3":
            raise ConfigError("resume is not supported for baseline3 (single-shot mode)")
        ckpt = load_checkpoint(settings["resume"])
        if ckpt.config_text != canon:
            raise ConfigError("checkpoint was produced by a different configuration; "
                              "only the epoch budget may change on resume")
    trainer = JointTrainer(dataset, spec, config, ground_truth=dataset.labels, resume=ckpt)

    callback = None
    if settings["checkpoint"] and config.mode != "baseline3":
        def callback(tr):
            save_checkpoint(settings["checkpoint"], tr.to_checkpoint(canon))

    result = trainer.run(epoch_callback=callback)
    if settings["checkpoint"] and config.mode == "baseline3":
        save_checkpoint(settings["checkpoint"], trainer.to_checkpoint(canon))

    save_labels(settings["out_labels"], result.labels)
    atomic_write_text(settings["out_metrics"], _metrics_text(settings, result, dataset))
    final = f"{result.nmi_history[-1]:.6f}" if result.nmi_history else "na"
    # wall time goes to stdout only; the metrics file stays byte-reproducible
    print(f"mode={config.mode} k={config.k} epochs={trainer.epochs_done} nmi={final} "
          f"wall_ms={result.wall_ms}")
    return 0


def cmd_eval(ns) -> int:
    a = load_labels(ns.file_a)
    b = load_labels(ns.file_b)
    if a.shape != b.shape:
        raise ConfigError(f"label files differ in length: {a.shape[0]} vs {b.shape[0]}")
    if np.unique(a).size == 1 or np.unique(b).size == 1:  # exactly when an entropy is 0
        print("warning: a file holds one distinct label, a partition of zero entropy; "
              "NMI is the documented convention value", file=sys.stderr)
    print(f"{nmi(a, b):.6f}")
    return 0


def _parse_grid(entries):
    """--grid "key=v1,v2,..." entries as {key: values}, keys in flag order."""
    grid = {}
    for entry in entries or ():
        key, _, text = entry.partition("=")
        if key not in SETTINGS or SETTINGS[key].role == "output":
            raise ConfigError(f"--grid key {key!r} is not a run or input setting")
        if key in grid:
            raise ConfigError(f"--grid key {key} is given twice")
        grid[key] = [_convert(key, v.strip()) for v in text.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"--grid key {key} has no values")
    return grid


def run_sweep_cell(settings) -> dict:
    """nmi, finetunes and wall_ms of one run; a config, memory or divergence error is its "error"."""
    started = time.perf_counter()
    row = {"nmi": "nan", "finetunes": 0, "error": None}
    try:
        dataset, spec, config = build_run(settings)
        result = JointTrainer(dataset, spec, config, ground_truth=dataset.labels).run()
        if result.nmi_history:
            row["nmi"] = f"{result.nmi_history[-1]:.6f}"
        row["finetunes"] = result.finetunes
    except (ConfigError, MemoryError, DivergenceError) as exc:
        row["error"] = str(exc)
    row["wall_ms"] = int(round((time.perf_counter() - started) * 1000))
    return row


def cmd_sweep(ns) -> int:
    if ns.parallel < 0:
        raise ConfigError(f"--parallel must be 0 or more worker processes, got {ns.parallel}")
    settings = resolve_settings(ns)
    grid = _parse_grid(ns.grid)
    cells = [{**settings, **dict(zip(grid, values))} for values in itertools.product(*grid.values())]
    for cell in cells:  # an error that cluster would stop on exits 2 before any cell runs
        check_dataset_source(cell)

    if ns.parallel > 1:
        # fork starts every worker at the first task, so start no more than there are
        # cells; the workers run their whole-set passes side by side, so each takes its
        # share of the CPUs
        workers = min(ns.parallel, len(cells))
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cpus,
                                 initargs=(workers,)) as pool:
            rows = list(pool.map(run_sweep_cell, cells))
    else:
        rows = [run_sweep_cell(cell) for cell in cells]

    out = [",".join([*grid, "nmi", "finetunes", "wall_ms"])]
    for cell, row in zip(cells, rows):
        values = [str(cell[key]) for key in grid]
        if row.get("error"):  # in cell order, whichever worker ran the cell
            print("sweep cell", *map("=".join, zip(grid, values)), f"failed: {row['error']}",
                  file=sys.stderr)
        out.append(",".join(values + [str(row[key]) for key in ("nmi", "finetunes", "wall_ms")]))
    atomic_write_text(ns.out, "\n".join(out) + "\n")
    print(f"sweep wrote {len(rows)} rows to {ns.out}")
    return 0


def _add_setting_flags(p, roles):
    p.add_argument("--config", help="flat key=value config file")
    for key, row in SETTINGS.items():
        if row.role in roles:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=row.type,
                           choices=row.choices, help=row.help)


def build_parser():
    parser = argparse.ArgumentParser(prog="driftclust",
                                     description="joint clustering and representation learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run one clustering experiment")
    _add_setting_flags(p_cluster, ("run", "input", "output"))
    p_cluster.set_defaults(func=cmd_cluster)

    p_eval = sub.add_parser("eval", help="NMI between two label files")
    p_eval.add_argument("file_a")
    p_eval.add_argument("file_b")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid of runs, results to CSV")
    _add_setting_flags(p_sweep, ("run", "input"))
    p_sweep.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                         help="values of a run or input setting to sweep; repeatable")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--parallel", type=int, default=0, help="run cells in N worker processes")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (IdxFormatError, CsvFormatError, CheckpointError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, MemoryError) as exc:  # a size the host cannot allocate is a setting's fault
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

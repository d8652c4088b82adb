"""Command-line entry point: reproducible CSV/JSON experiment artifacts.

Subcommands: ``check-model`` (audit the structural assumptions),
``sample`` (draw equilibrium contents), ``describe`` (strategy components
as JSON), ``verify`` (best-response gap), ``metrics`` (UCQ/RE/UW table),
``empirics`` (feed-survey analysis).

A plain argv is read from the option table without building a parser: a
command, then ``--flag value`` pairs, each flag one of the command's options
spelled in full, each value not starting with ``-`` and converting with the
option's type, every required option given. argparse reads any other argv,
and gives all help and error text.

Exit codes: 0 success, 2 configuration or validation error (including a
non-finite ``metrics`` estimate or ``verify`` report, which is never
written, and a failed allocation), 3 verification failure. An error that
exits 2 leaves no output directory that the command made. Identical
config and seed give byte-identical outputs. ``metrics`` accepts
``--threads`` and ignores it: its shards run in order on one thread.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import gc
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eq
from . import metrics as met
from .game import Metric
from .model import ModelInstance, check_assumptions
from .verify import best_response_gap, failure_summary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY_FAIL = 3

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0

EQUILIBRIUM_CHOICES = ("auto", "homogeneous", "two_type", "well_separated",
                       "investment", "random")
RECOMMENDER_CHOICES = ("engagement", "investment", "random", "all")


# numpy describes no array past np.intp's largest byte count
_MAX_ENTRIES = np.iinfo(np.intp).max // 8
_TOO_BIG = "for this config: numpy cannot hold larger arrays"

# Real configs nest 2 levels deep; the bound keeps every recursive walk of
# one, json.dumps with an indent included, far inside the recursion limit.
MAX_CONFIG_DEPTH = 100


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past Python's digit limit, or
        # arrays and objects nested past the recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if _depth(cfg) > MAX_CONFIG_DEPTH:
        raise ConfigError(f"config nests deeper than {MAX_CONFIG_DEPTH} levels")
    return cfg


def _depth(value) -> int:
    """Nesting depth of a loaded JSON value, counted one level at a time
    rather than by recursion."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (dict, list))]:
        depth += 1
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return depth


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` load as bools, which pass ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _non_finite_key(value, where: str = "") -> str | None:
    """Path of the first NaN or infinity in a loaded JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where.lstrip(".")
    children = []
    if isinstance(value, dict):
        children = [(f"{where}.{k}", v) for k, v in value.items()]
    elif isinstance(value, list):
        children = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
    for path, child in children:
        found = _non_finite_key(child, path)
        if found:
            return found
    return None


def resolve_config(cfg: dict, args: argparse.Namespace,
                   min_samples: int = 0) -> dict:
    """Merge CLI overrides into the config, fill defaults and validate both.

    ``min_samples`` is the smallest sample count the command can use. The
    command-only options ``--grid`` and ``--threads`` are checked here too,
    when the command has them; ``verify`` caps ``--grid`` once the model
    gives the type count.
    """
    out = dict(cfg)
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        out["samples"] = args.samples
    out.setdefault("seed", DEFAULT_SEED)
    out.setdefault("samples", DEFAULT_SAMPLES)
    out.setdefault("P", 2)
    out.setdefault("recommender", "engagement")
    out.setdefault("equilibrium", "auto")
    if out["recommender"] not in RECOMMENDER_CHOICES:
        raise ConfigError(f"recommender must be one of {RECOMMENDER_CHOICES}")
    if out["equilibrium"] not in EQUILIBRIUM_CHOICES:
        raise ConfigError(f"equilibrium must be one of {EQUILIBRIUM_CHOICES}")
    if not _is_int(out["P"]) or out["P"] < 2:
        raise ConfigError("P must be an integer >= 2")
    if not _is_int(out["seed"]) or out["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not _is_int(out["samples"]) or out["samples"] < min_samples:
        raise ConfigError(f"samples must be an integer >= {min_samples}")
    if not isinstance(out.get("output", ""), str):
        raise ConfigError("output must be a string (a directory path)")
    try:
        json.dumps(out, allow_nan=False)
    except ValueError:
        raise ConfigError(f"{_non_finite_key(out)} must be finite: "
                          "NaN and Infinity are not JSON numbers")
    if getattr(args, "grid", 2) < 2:
        raise ConfigError("--grid must be >= 2")
    if getattr(args, "threads", 1) < 1:
        raise ConfigError("--threads must be >= 1")
    # the widest arrays hold 3 draws per creator for each sample
    entries, P = _MAX_ENTRIES, out["P"]
    if hasattr(args, "samples"):
        # a P so large that no array holds one sample's draws is named as such
        least = max(min_samples, 1)
        if entries // (3 * P) < least:
            raise ConfigError(f"P must be at most {entries // (3 * least)} {_TOO_BIG}")
        if out["samples"] > entries // (3 * P):
            raise ConfigError(f"samples must be at most {entries // (3 * P)} "
                              f"{_TOO_BIG}")
    return out


def build_instance(cfg: dict) -> ModelInstance:
    try:
        return ModelInstance.from_config(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def resolve_strategy(inst: ModelInstance, P: int, choice: str,
                     metric: Metric) -> eq.MixedStrategy:
    """Pick the construction for the creators' play under a recommender."""
    if choice == "auto":
        if metric is Metric.INVESTMENT:
            choice = "investment"
        elif metric is Metric.RANDOM:
            choice = "random"
        elif len(inst.type_space) == 1:
            choice = "homogeneous"
        elif len(inst.type_space) == 2:
            choice = "two_type"
        else:
            choice = "well_separated"
    if choice in ("two_type", "well_separated") and P != 2:
        raise ConfigError(f"equilibrium '{choice}' not applicable: it is "
                          f"constructed for P = 2 creators, not P = {P}")
    try:
        if choice == "homogeneous":
            return eq.engagement_eq_homogeneous(inst, P)
        if choice == "two_type":
            return eq.engagement_eq_two_types(inst)
        if choice == "well_separated":
            return eq.engagement_eq_well_separated(inst)
        if choice == "investment":
            return eq.investment_eq(inst, P)
        if choice == "random":
            return eq.random_eq(inst, P)
    except ValueError as exc:
        raise ConfigError(f"equilibrium '{choice}' not applicable: {exc}")
    except OverflowError:
        # the model's numbers are floats already, so only P can overflow
        raise ConfigError(f"equilibrium '{choice}' not applicable: P is too "
                          "large: it must fit in a float")


def _config_echo(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _out_dir(args, cfg: dict | None = None) -> Path:
    """The output directory, created if missing. The config commands call it
    once their model and strategies are built, so a bad config makes no
    directory and an unusable path exits before any Monte Carlo runs. The
    directories it makes go into ``args.made``, which ``main`` removes if
    the command exits 2 with an error."""
    out = Path(getattr(args, "out", None)
               or (cfg or {}).get("output")
               or ".")
    try:
        _make_dir(out, args.made)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: "
                          f"{exc.strerror}")
    return out


def _make_dir(path: Path, made: list[Path]) -> None:
    """``path.mkdir(parents=True, exist_ok=True)``, putting each directory
    that it makes at the front of ``made``. It climbs to the nearest
    directory, then makes the rest top down, with no call per level; a file
    in an ancestor's place fails the ``mkdir`` below it."""
    missing = []
    for step in (path, *path.parents):
        if step.is_dir():
            break
        missing.append(step)
    for step in reversed(missing):
        try:
            step.mkdir()
        except FileExistsError:
            if step == path and not path.is_dir():
                raise
        else:
            made.insert(0, step)


def _write(path: Path, text: str) -> None:
    """Write one artifact; a path that cannot take a file is a config error."""
    try:
        # surrogateescape gives back the bytes of a path argument that the
        # locale could not decode, as in the ``# data:`` line
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def cmd_check_model(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    out = _out_dir(args, cfg)
    report = check_assumptions(inst)
    text = json.dumps({"config": cfg, "report": report}, indent=2, sort_keys=True)
    _write(out / "check_model.json", text + "\n")
    print(text)
    return EXIT_OK if report["all_passed"] else EXIT_CONFIG


def cmd_sample(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    metric = Metric(cfg["recommender"]) if cfg["recommender"] != "all" \
        else Metric.ENGAGEMENT
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    out = _out_dir(args, cfg)
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["samples"]
    draws = strategy.sample(rng, n)
    lines = [f"# config: {_config_echo(cfg)}", "w_costly,w_cheap"]
    lines += [f"{q!r},{x!r}" for q, x in draws.tolist()]
    path = out / "samples.csv"
    _write(path, "\n".join(lines) + "\n")
    print(f"wrote {n} samples to {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # one sample has no paired stderr, so the gate would shrink to GAP_ABS_TOL
    cfg = resolve_config(load_config(args.config), args, min_samples=2)
    inst = build_instance(cfg)
    # a column per type or win share for each grid point of the T curves
    T = len(inst.types)
    cap = (_MAX_ENTRIES // max(cfg["P"], T) - 1) // T
    if args.grid > cap:
        raise ConfigError(f"--grid must be at most {cap} {_TOO_BIG}")
    if cfg["recommender"] == "all":
        raise ConfigError("verify requires a single recommender")
    metric = Metric(cfg["recommender"])
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    out = _out_dir(args, cfg)
    rng = np.random.default_rng(cfg["seed"])
    report = best_response_gap(inst, metric, strategy, cfg["P"],
                               grid_k=args.grid, n_per_candidate=cfg["samples"],
                               rng=rng)
    payload = {"config": cfg, "grid": args.grid, "report": report.to_dict()}
    try:
        # one compact line: any indent would force the pure-Python encoder
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:
        raise ConfigError(f"non-finite value at {_non_finite_key(payload)}: "
                          "verify.json not written")
    _write(out / "verify.json", text + "\n")
    print(f"gap={report.gap:.6f} stderr={report.combined_stderr:.6f} "
          f"passes={report.passes()}")
    if not report.passes():
        print(failure_summary(report), file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_metrics(args) -> int:
    cfg = resolve_config(load_config(args.config), args, min_samples=1)
    inst = build_instance(cfg)
    recommenders = [cfg["recommender"]]
    if cfg["recommender"] == "all":
        recommenders = ["engagement", "investment", "random"]
    strategies = [resolve_strategy(inst, cfg["P"], cfg["equilibrium"], Metric(rec))
                  for rec in recommenders]
    out = _out_dir(args, cfg)
    rows = []
    rng = np.random.default_rng(cfg["seed"])
    params = json.dumps({k: cfg[k] for k in ("family", "alpha", "W", "gamma",
                                             "types", "P") if k in cfg},
                        sort_keys=True, separators=(",", ":"))
    for rec, strategy in zip(recommenders, strategies):
        estimates = met.estimate_round_metrics(inst, Metric(rec), strategy,
                                               cfg["P"], cfg["samples"], rng)
        for name, est in estimates.items():
            if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
                raise ConfigError(f"non-finite estimate for {name},{rec}: "
                                  f"mean={est.mean!r} stderr={est.stderr!r}")
            rows.append((name, rec, params, est))
    buf = io.StringIO()
    buf.write(f"# config: {_config_echo(cfg)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "recommender", "params", "mean", "stderr", "n"])
    for name, rec, params, est in rows:
        writer.writerow([name, rec, params, repr(est.mean), repr(est.stderr),
                         est.n])
    path = out / "metrics.csv"
    _write(path, buf.getvalue())
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_describe(args) -> int:
    """Exact strategy description: component list with CDF breakpoints."""
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    metric = Metric(cfg["recommender"]) if cfg["recommender"] != "all" \
        else Metric.ENGAGEMENT
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    out = _out_dir(args, cfg)
    payload = {"config": cfg, "strategy": strategy.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    _write(out / "strategy.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_empirics(args) -> int:
    # imported here so that only this command pays for loading scipy
    from . import empirics as emp

    try:
        records = emp.load_records(args.data)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {args.data}")
    except OSError as exc:
        raise ConfigError(f"cannot read data file {args.data}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"data file {args.data} is not UTF-8: {exc}")
    except csv.Error as exc:
        raise ConfigError(f"data file {args.data} is not readable CSV: {exc}")
    except emp.RecordParseError as exc:
        raise ConfigError(str(exc))
    out = _out_dir(args)
    genre_slices = {"all": ("P", "NP"), "P": ("P",), "NP": ("NP",)}

    lines = [f"# data: {args.data}",
             "feed," + ",".join(f"rho_{g},p_{g}" for g in genre_slices)]
    for feed in emp.FEEDS:
        cells = []
        for genres in genre_slices.values():
            try:
                res = emp.spearman_rho(records, feed, genres)
                cells += [repr(res.rho), repr(res.p_value)]
            except ValueError:
                cells += ["", ""]
        lines.append(f"{feed}," + ",".join(cells))
    table_path = out / "table1.csv"
    _write(table_path, "\n".join(lines) + "\n")

    n_files = 0
    for feed in emp.FEEDS:
        for label, genres in genre_slices.items():
            for a in emp.ANGRINESS_LEVELS:
                try:
                    xs, ys = emp.conditional_ecdf(records, a, feed, genres)
                except emp.EmptyConditionalError:
                    continue
                body = ["log1p_favorites,cdf"]
                body += [f"{x!r},{y!r}"
                         for x, y in zip(xs.tolist(), ys.tolist())]
                _write(out / f"ecdf_f{feed}_G{label}_a{a}.csv",
                       "\n".join(body) + "\n")
                n_files += 1
    print(f"wrote {table_path} and {n_files} ecdf files")
    return EXIT_OK


# An option is (flag, type, default, help); REQUIRED as the default makes
# it required. ``--flag`` is stored under ``flag``.
REQUIRED = object()
CONFIG = ("--config", str, REQUIRED, "JSON config path")
SEED = ("--seed", int, None, None)
SAMPLES = ("--samples", int, None, None)
OUT = ("--out", str, None, "output directory")

# name, help, options, handler; ``main`` looks the handler up by name when
# it runs, so a wrapped or patched ``cmd_*`` is the one called
COMMANDS = (
    ("check-model", "audit model assumptions", (CONFIG, OUT), "cmd_check_model"),
    ("sample", "draw equilibrium contents to CSV", (CONFIG, SEED, SAMPLES, OUT),
     "cmd_sample"),
    ("verify", "best-response gap certification",
     (CONFIG, SEED, SAMPLES, OUT, ("--grid", int, 200, "points per curve")),
     "cmd_verify"),
    ("metrics", "UCQ/RE/UW estimates to CSV",
     (CONFIG, SEED, SAMPLES, OUT,
      ("--threads", int, 1, "accepted and ignored; shards run in order")),
     "cmd_metrics"),
    ("describe", "strategy components as JSON", (CONFIG, OUT), "cmd_describe"),
    ("empirics", "feed-survey rank analysis",
     (("--data", str, REQUIRED, "records CSV path"), ("--out", str, None, None)),
     "cmd_empirics"),
)
HANDLERS = {name: handler for name, _, _, handler in COMMANDS}
OPTIONS = {name: {opt[0]: opt for opt in options}
           for name, _, options, _ in COMMANDS}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand, built once per process. It reads
    only the argvs that ``read_plain`` does not: help, errors,
    abbreviations and ``--flag=value``."""
    parser = argparse.ArgumentParser(
        prog="creatorsim",
        description="Creator-competition equilibrium simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, _ in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kind, default, text in options:
            p.add_argument(flag, type=kind, required=default is REQUIRED,
                           default=None if default is REQUIRED else default,
                           help=text)
    return parser


def read_plain(argv: list[str]) -> argparse.Namespace | None:
    """``make_parser().parse_args(argv)`` for a plain argv (module
    docstring), building no parser; None for any other argv. A repeated
    flag keeps its last value, as in argparse."""
    options = OPTIONS.get(argv[0]) if argv else None
    if options is None or len(argv) % 2 == 0:
        return None
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in options or value.startswith("-"):
            return None
        try:
            given[flag] = options[flag][1](value)
        except ValueError:
            return None
    if any(d is REQUIRED and f not in given for f, _, d, _ in options.values()):
        return None
    return argparse.Namespace(command=argv[0], **{
        f[2:]: given.get(f, d) for f, _, d, _ in options.values()})


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def _hold_heap() -> None:
    """Keep freed heap memory in the process for the next shard to reuse.

    By default glibc serves each Monte Carlo shard's multi-megabyte arrays
    with fresh ``mmap`` calls, or trims them off the heap top, and so hands
    them back to the kernel when they are freed; the next shard faults the
    pages in again. On a 2-vCPU x86-64 VM a 300 000-round ``metrics`` run
    with every recommender took about 25 000 minor faults and 40 ms of
    system time that way, against under 2 000 faults and under 10 ms with
    this setting. Serving blocks below 32 MiB from the heap and trimming
    its top only past 64 MiB lets later shards reuse the pages. The setting
    is process-wide and glibc-only; where ``mallopt`` is missing nothing
    changes. It moves no draw, so no output changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_plain(argv) or make_parser().parse_args(argv)
    args.made = []  # the directories ``_out_dir`` makes, deepest first
    _hold_heap()
    try:
        return globals()[HANDLERS[args.command]](args)
    except ConfigError as exc:
        message = str(exc)
    except MemoryError as exc:
        message = f"not enough memory: {exc}"
    print(f"error: {message}", file=sys.stderr)
    for made in args.made:  # each holds only what the command wrote there
        shutil.rmtree(made, ignore_errors=True)
    return EXIT_CONFIG


# The import leaves about 22 000 young objects and the generation-1 count
# past its threshold, so the first command's first collection would also
# scan them all: 1-2 ms of generation-1 work inside a timed command.
# Collecting them once here moves that work into start-up.
gc.collect(1)

if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: reproducible CSV/JSON experiment artifacts.

Subcommands: ``check-model`` (audit the structural assumptions),
``sample`` (draw equilibrium contents), ``describe`` (strategy components
as JSON), ``verify`` (best-response gap), ``metrics`` (UCQ/RE/UW table),
``empirics`` (feed-survey analysis).

Exit codes: 0 success, 2 configuration or validation error, 3 verification
failure. Identical config and seed give byte-identical outputs in
single-threaded mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import equilibrium as eq
from . import empirics as emp
from . import metrics as met
from .game import Metric
from .model import ModelInstance, PreconditionError, check_assumptions
from .verify import best_response_gap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY_FAIL = 3

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0

EQUILIBRIUM_CHOICES = ("auto", "homogeneous", "two_type", "well_separated",
                       "investment", "random")
RECOMMENDER_CHOICES = ("engagement", "investment", "random", "all")


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def resolve_config(cfg: dict, args: argparse.Namespace,
                   min_samples: int = 0) -> dict:
    """Merge CLI overrides into the config and fill defaults.

    ``min_samples`` is the smallest sample count the command can use.
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
    if not isinstance(out["P"], int) or out["P"] < 2:
        raise ConfigError("P must be an integer >= 2")
    if not isinstance(out["seed"], int) or out["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if not isinstance(out["samples"], int) or out["samples"] < min_samples:
        raise ConfigError(f"samples must be an integer >= {min_samples}")
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
    except (PreconditionError, ValueError) as exc:
        raise ConfigError(f"equilibrium '{choice}' not applicable: {exc}")
    raise ConfigError(f"unknown equilibrium choice {choice!r}")


def _config_echo(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _out_dir(args, cfg: dict | None = None) -> Path:
    out = Path(getattr(args, "out", None)
               or (cfg or {}).get("output")
               or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check_model(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    report = check_assumptions(inst)
    payload = {"config": cfg, "report": report.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    (_out_dir(args, cfg) / "check_model.json").write_text(text + "\n")
    print(text)
    return EXIT_OK if report.all_passed else EXIT_CONFIG


def cmd_sample(args) -> int:
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    metric = Metric(cfg["recommender"]) if cfg["recommender"] != "all" \
        else Metric.ENGAGEMENT
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["samples"]
    draws = strategy.sample(rng, n) if n > 0 else np.empty((0, 2))
    lines = [f"# config: {_config_echo(cfg)}", "w_costly,w_cheap"]
    lines += [f"{repr(float(q))},{repr(float(x))}" for q, x in draws]
    path = _out_dir(args, cfg) / "samples.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {n} samples to {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = resolve_config(load_config(args.config), args, min_samples=1)
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    inst = build_instance(cfg)
    if cfg["recommender"] == "all":
        raise ConfigError("verify requires a single recommender")
    metric = Metric(cfg["recommender"])
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    rng = np.random.default_rng(cfg["seed"])
    report = best_response_gap(inst, metric, strategy, cfg["P"],
                               grid_k=args.grid, n_per_candidate=cfg["samples"],
                               rng=rng)
    payload = {"config": cfg, "grid": args.grid, "report": report.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    (_out_dir(args, cfg) / "verify.json").write_text(text + "\n")
    print(f"gap={report.gap:.6f} stderr={report.combined_stderr:.6f} "
          f"passes={report.passes()}")
    return EXIT_OK if report.passes() else EXIT_VERIFY_FAIL


def cmd_metrics(args) -> int:
    cfg = resolve_config(load_config(args.config), args, min_samples=1)
    inst = build_instance(cfg)
    recommenders = [cfg["recommender"]]
    if cfg["recommender"] == "all":
        recommenders = ["engagement", "investment", "random"]
    threads = max(1, args.threads)
    rows = []
    rng = np.random.default_rng(cfg["seed"])
    params = json.dumps({k: cfg[k] for k in ("family", "alpha", "W", "gamma",
                                             "types", "P") if k in cfg},
                        sort_keys=True, separators=(",", ":"))
    for rec in recommenders:
        metric = Metric(rec)
        strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
        for name, fn in (("ucq", met.estimate_ucq), ("re", met.estimate_re),
                         ("uw", met.estimate_uw)):
            est = fn(inst, metric, strategy, cfg["P"], cfg["samples"], rng,
                     threads=threads)
            rows.append((name, rec, params, est))
    buf = io.StringIO()
    buf.write(f"# config: {_config_echo(cfg)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "recommender", "params", "mean", "stderr", "n"])
    for name, rec, params, est in rows:
        writer.writerow([name, rec, params, repr(est.mean), repr(est.stderr),
                         est.n])
    path = _out_dir(args, cfg) / "metrics.csv"
    path.write_text(buf.getvalue())
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_describe(args) -> int:
    """Exact strategy description: component list with CDF breakpoints."""
    cfg = resolve_config(load_config(args.config), args)
    inst = build_instance(cfg)
    metric = Metric(cfg["recommender"]) if cfg["recommender"] != "all" \
        else Metric.ENGAGEMENT
    strategy = resolve_strategy(inst, cfg["P"], cfg["equilibrium"], metric)
    payload = {"config": cfg, "strategy": strategy.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    (_out_dir(args, cfg) / "strategy.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_empirics(args) -> int:
    try:
        records = emp.load_records(args.data)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {args.data}")
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
    table_path.write_text("\n".join(lines) + "\n")

    n_files = 0
    for feed in emp.FEEDS:
        for label, genres in genre_slices.items():
            for a in emp.ANGRINESS_LEVELS:
                try:
                    curve = emp.conditional_ecdf(records, a, feed, genres)
                except emp.EmptyConditionalError:
                    continue
                xs, ys = curve.step_points()
                body = ["log1p_favorites,cdf"]
                body += [f"{repr(float(x))},{repr(float(y))}"
                         for x, y in zip(xs, ys)]
                (out / f"ecdf_f{feed}_G{label}_a{a}.csv").write_text(
                    "\n".join(body) + "\n")
                n_files += 1
    print(f"wrote {table_path} and {n_files} ecdf files")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creatorsim",
        description="Creator-competition equilibrium simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sampled=True):
        p.add_argument("--config", required=True, help="JSON config path")
        if sampled:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("check-model", help="audit model assumptions")
    common(p, sampled=False)
    p.set_defaults(fn=cmd_check_model)

    p = sub.add_parser("sample", help="draw equilibrium contents to CSV")
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="best-response gap certification")
    common(p)
    p.add_argument("--grid", type=int, default=200, help="points per curve")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("metrics", help="UCQ/RE/UW estimates to CSV")
    common(p)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("describe", help="strategy components as JSON")
    common(p, sampled=False)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("empirics", help="feed-survey rank analysis")
    p.add_argument("--data", required=True, help="records CSV path")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_empirics)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""creatorsim benchmark: three workloads through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Each repetition runs the workload in a fresh worker process (``worker.py``)
that imports the program from ``src/``, builds the workload's instances
and strategies, then runs its CLI commands. Repetitions repeat until
``--seconds`` have passed. Every output is checked for correctness. The
last line of standard output is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics of untraced repetitions; with ``--trace 1`` it
holds the per-layer metrics, taken from traced repetitions that alternate
with untraced ones. See README.md in this directory for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Monte Carlo and record counts, chosen so that one repetition takes a few
# seconds on a 2-core machine while every statistical check passes with a
# wide margin.
FULL = {"certify_samples": 15_000, "metrics_samples": 300_000,
        "empirics_rows": 100_000}
GRID = 200
MIN_REPS = 3  # untraced repetitions per run (2 each way when tracing)
RUN_LIMIT_S = 170.0  # a run, repetitions included, ends within this
# Median time of worker.reference_s() on the machine the benchmark was tuned
# on (2 vCPUs of an Intel Xeon at 2.1 GHz, in its fast state). Times are
# reported in that machine's seconds; see README.md, "Normalised times".
REFERENCE_S = 0.04
ENV_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

LINEAR_TWO_TYPE = {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                   "types": [1.0, 1.9], "P": 2, "recommender": "engagement",
                   "equilibrium": "two_type"}
HOMOGENEOUS_P3 = {"family": "linear", "alpha": -0.5, "gamma": 0.3,
                  "types": [2.0], "P": 3, "recommender": "engagement",
                  "equilibrium": "homogeneous"}
# make_well_separated_types(4, 0.01), written out so that inputs need no import
WELL_SEPARATED_4 = [0.010000000000000009, 0.26249999999999996, 0.578125,
                    0.97265625]


class Checks:
    """Counts correctness checks; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


class Certify:
    """``verify --grid 200`` on two criterion-1 equilibria in sequence."""

    name = "certify"
    monte_carlo = True

    def __init__(self, cases=(LINEAR_TWO_TYPE, HOMOGENEOUS_P3)):
        self.cases = cases

    def prepare(self, work: Path, seed: int, sizes: dict) -> None:
        rng = random.Random(seed)
        self.configs = [
            _write_config(work / f"certify{i}.json",
                          {**case, "samples": sizes["certify_samples"],
                           "seed": rng.randrange(2 ** 32)})
            for i, case in enumerate(self.cases)]

    def commands(self, out: Path) -> list[list[str]]:
        return [["verify", "--config", cfg, "--grid", str(GRID),
                 "--out", str(out / f"case{i}")]
                for i, cfg in enumerate(self.configs)]

    def check(self, out: Path, cmds: list[dict], checks: Checks) -> dict:
        items, worst_se = 0, 0.0
        for i, cmd in enumerate(cmds):
            checks(cmd["rc"] == 0, f"certify case {i}: verify exited {cmd['rc']}")
            path = out / f"case{i}" / "verify.json"
            report = json.loads(path.read_text())["report"] if path.exists() else {}
            checks(report.get("passes") is True, f"certify case {i}: passes is not true")
            gap, se = report.get("gap"), report.get("combined_stderr")
            checks(_finite(gap, se), f"certify case {i}: gap {gap}, stderr {se}")
            evaluations = len(report.get("candidates", ())) + len(report.get("probes", ()))
            items += evaluations * report.get("samples_per_candidate", 0)
            if _finite(se):
                worst_se = max(worst_se, se)
        wall = sum(c["wall_s"] for c in cmds)
        return {"wall_s": wall, "wall_1t_s": wall, "items": items, "stderr": worst_se}


def _read_metrics_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


class Metrics:
    """``metrics`` with every recommender, at --threads 2 and then 1."""

    name = "metrics"
    monte_carlo = True

    def prepare(self, work: Path, seed: int, sizes: dict) -> None:
        cfg = {"family": "linear", "alpha": 1.0, "gamma": 0.0,
               "types": WELL_SEPARATED_4, "P": 2, "recommender": "all",
               "samples": sizes["metrics_samples"],
               "seed": random.Random(seed).randrange(2 ** 32)}
        self.configs = [_write_config(work / "metrics.json", cfg)]
        self.sha256_1t: set[str] = set()

    def commands(self, out: Path) -> list[list[str]]:
        return [["metrics", "--config", self.configs[0], "--threads", str(t),
                 "--out", str(out / f"t{t}")] for t in (2, 1)]

    def check(self, out: Path, cmds: list[dict], checks: Checks) -> dict:
        figures = {"wall_s": cmds[0]["wall_s"], "wall_1t_s": cmds[1]["wall_s"],
                   "items": 0, "stderr": 0.0}
        for threads, cmd in zip((2, 1), cmds):
            tag = f"metrics --threads {threads}"
            checks(cmd["rc"] == 0, f"{tag}: exited {cmd['rc']}")
            path = out / f"t{threads}" / "metrics.csv"
            rows = _read_metrics_csv(path) if path.exists() else []
            table = {(r["metric"], r["recommender"]):
                     (float(r["mean"]), float(r["stderr"]), int(r["n"])) for r in rows}
            checks(len(table) == 9 and all(_finite(m, s) for m, s, _ in table.values()),
                   f"{tag}: expected 9 finite rows, got {sorted(table.values())}")
            m, se, _ = table.get(("ucq", "investment"), (math.nan, 0.0, 0))
            checks(abs(m - 2.0 / 3.0) <= 4.0 * se,
                   f"{tag}: investment UCQ {m} not within 4*{se} of 2/3")
            checks(table.get(("uw", "random"), (None,))[0] == 1.0,
                   f"{tag}: random UW {table.get(('uw', 'random'))} is not exactly 1.0")
            m, se, _ = table.get(("ucq", "engagement"), (math.nan, 0.0, 0))
            checks(m <= 0.25 + 4.0 * se, f"{tag}: engagement UCQ {m} above 1/4 + 4*{se}")
            if threads == 2:
                figures["items"] = sum(n for _, _, n in table.values())
                figures["stderr"] = max((s for _, s, _ in table.values()), default=0.0)
            elif path.exists():
                # the same config and seed must give the same bytes in every
                # repetition of this run
                self.sha256_1t.add(hashlib.sha256(path.read_bytes()).hexdigest())
                checks(len(self.sha256_1t) == 1,
                       f"{tag}: metrics.csv differs between repetitions")
        return figures

    def provenance(self) -> dict:
        return {"metrics_csv_sha256_threads1": sorted(self.sha256_1t)}


class Empirics:
    """``empirics`` on a synthetic feed-survey CSV made from the seed."""

    name = "empirics"
    monte_carlo = False

    def prepare(self, work: Path, seed: int, sizes: dict) -> None:
        self.rows = sizes["empirics_rows"]
        self.data = work / "survey.csv"
        self.expected = write_survey(self.data, seed, self.rows)
        self.configs = []

    def commands(self, out: Path) -> list[list[str]]:
        return [["empirics", "--data", str(self.data), "--out", str(out / "emp")]]

    def check(self, out: Path, cmds: list[dict], checks: Checks) -> dict:
        from scipy import stats as sps

        checks(cmds[0]["rc"] == 0, f"empirics: exited {cmds[0]['rc']}")
        emp = out / "emp"
        table = emp / "table1.csv"
        lines = table.read_text().splitlines()[1:] if table.exists() else []
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        for feed in ("E", "C"):
            cells = rows.get(feed, [""] * 6)
            for k, label in enumerate(("all", "P", "NP")):
                rho_ref, n = self.expected[(feed, label)]
                try:
                    rho, p = float(cells[2 * k]), float(cells[2 * k + 1])
                except (ValueError, IndexError):
                    rho = p = math.nan
                checks(abs(rho - rho_ref) <= 1e-12,
                       f"empirics {feed}/{label}: rho {rho} vs scipy {rho_ref}")
                p_ref = math.nan
                if abs(rho) < 1.0:
                    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
                    p_ref = float(sps.t.sf(t_stat, df=n - 2))
                checks(math.isclose(p, p_ref, rel_tol=1e-9, abs_tol=1e-12),
                       f"empirics {feed}/{label}: p {p} vs one-sided t {p_ref}")
        ecdfs = sorted(emp.glob("ecdf_*.csv")) if emp.exists() else []
        checks(len(ecdfs) == 30, f"empirics: {len(ecdfs)} ECDF files, expected 30")
        for path in ecdfs:
            last = path.read_text().splitlines()[-1]
            checks(float(last.split(",")[1]) == 1.0, f"empirics: {path.name} ends at {last}")
        return {"wall_s": cmds[0]["wall_s"], "wall_1t_s": cmds[0]["wall_s"],
                "items": self.rows, "stderr": 0.0}


def write_survey(path: Path, seed: int, rows: int) -> dict:
    """Write a synthetic feed-survey CSV; return scipy's Spearman rho per slice.

    Both feeds, both genres and all five angriness levels appear. Favourites
    are heavy-tailed (discretised Lomax with shape 1.1, so about half are 0
    and ties are common); their scale grows with angriness much faster in
    the engagement feed than in the chronological one.
    """
    import numpy as np
    from scipy import stats as sps

    rng = np.random.default_rng(seed)
    feed = np.where(rng.random(rows) < 0.5, "E", "C")
    genre = np.where(rng.random(rows) < 0.4, "P", "NP")
    angry = rng.choice(5, size=rows, p=[0.35, 0.25, 0.2, 0.12, 0.08])
    slope = np.where(feed == "E", 0.35, 0.03)
    scale = (1.0 + slope * angry) * np.where(genre == "P", 1.5, 1.0)
    favs = np.floor(scale * rng.pareto(1.1, size=rows)).astype(np.int64)
    with open(path, "w") as fh:
        fh.write("feed,genre,angriness,favorites\n")
        fh.writelines(f"{f},{g},{a},{v}\n"
                      for f, g, a, v in zip(feed, genre, angry.tolist(), favs.tolist()))
    expected = {}
    for f in ("E", "C"):
        for label, genres in (("all", ("P", "NP")), ("P", ("P",)), ("NP", ("NP",))):
            m = (feed == f) & np.isin(genre, genres)
            rho = float(sps.spearmanr(angry[m], favs[m]).statistic)
            expected[(f, label)] = (rho, int(m.sum()))
    return expected


WORKLOADS = {"certify": Certify, "metrics": Metrics, "empirics": Empirics}


def run_rep(wl, work: Path, index: int, traced: bool, checks: Checks,
            deadline: float) -> dict:
    """One repetition in a fresh worker process; returns its figures.

    The worker is killed if it is still running at ``deadline``.
    """
    rep = work / f"rep{index}"
    out = rep / "out"
    out.mkdir(parents=True)
    spec = {"configs": wl.configs, "commands": wl.commands(out), "trace": traced,
            "result": str(rep / "result.json")}
    env = {**os.environ, **ENV_PINS,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    with open(rep / "stdout", "w") as so, open(rep / "stderr", "w") as se:
        spec["spawned"] = time.monotonic()
        (rep / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                                 str(rep / "spec.json")],
                                stdout=so, stderr=se, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker still running at the {RUN_LIMIT_S:.0f} s run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = rep / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (rep / "stderr").read_text()[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"benchmarked {result['module']}, not this checkout's src/")
    figures = wl.check(out, result["commands"], checks)
    figures.update(
        setup_s=result["setup_s"], import_s=result["import_s"],
        build_s=result["build_s"], peak_rss_mb=result["peak_rss_mb"],
        cmd_wall_s=sum(c["wall_s"] for c in result["commands"]),
        bytes_written=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        versions=result["versions"], spans=result.get("spans"),
        reference_s=result["reference_s"],
        scale=REFERENCE_S / result["reference_s"])
    shutil.rmtree(rep)
    return figures


def measure(wl, work: Path, seconds: int, trace: bool, checks: Checks,
            limit: float):
    """Repeat until ``seconds`` have passed; tracing alternates with plain runs.

    A first, untimed repetition fills the file cache and the bytecode
    cache, which a user pays for once, not on every run. Its outputs are
    checked like the others.
    """
    run_rep(wl, work, 0, False, checks, limit)
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    want_plain, want_traced = (2, 2) if trace else (MIN_REPS, 0)
    while True:
        use_trace = trace and len(traced) < len(plain)
        index = 1 + len(plain) + len(traced)
        rep = run_rep(wl, work, index, use_trace, checks, limit)
        (traced if use_trace else plain).append(rep)
        if (time.monotonic() >= deadline and len(plain) >= want_plain
                and len(traced) >= want_traced):
            return plain, traced


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def _scaled(reps, key):
    """Median of a time, each repetition's value in reference-machine seconds."""
    return statistics.median(r[key] * r["scale"] for r in reps)


def _rate(reps):
    return statistics.median(r["items"] / (r["wall_s"] * r["scale"]) for r in reps)


def end_to_end(plain: list[dict]) -> dict:
    return {
        "setup_s": (_scaled(plain, "setup_s"), "s"),
        "wall_s": (_scaled(plain, "wall_s"), "s"),
        "wall_1t_s": (_scaled(plain, "wall_1t_s"), "s"),
        "items_per_s": (_rate(plain), "1/s"),
        "peak_rss_mb": (_median(plain, "peak_rss_mb"), "MB"),
    }


LAYER_UNITS = {"calls": "count", "draws": "count", "evaluations": "count",
               "rounds": "count", "rows": "count", "records_parsed": "count",
               "self_s": "s", "p50": "ms", "p95": "ms", "bytes_written": "B"}


def per_layer(wl, plain: list[dict], traced: list[dict], checks: Checks) -> dict:
    import spans

    units = {}
    layers = []
    for r in traced:
        figures = spans.layer_metrics(r["spans"])
        for k in figures:
            units[k] = LAYER_UNITS.get(k.rsplit(".", 1)[-1], "ratio")
            if units[k] in ("s", "ms"):
                figures[k] *= r["scale"]
        layers.append(figures)
    out = {k: (statistics.median(m[k] for m in layers), u) for k, u in units.items()}
    rate = _rate(plain)
    out.update({
        "cli.bytes_written": (_median(traced, "bytes_written"), "B"),
        "setup.import_s": (_scaled(plain, "import_s"), "s"),
        "setup.build_s": (_scaled(plain, "build_s"), "s"),
        "trace.overhead_frac": (_scaled(traced, "cmd_wall_s")
                                / _scaled(plain, "cmd_wall_s") - 1.0, "ratio"),
        "samples_per_s": (rate if wl.monte_carlo else 0.0, "1/s"),
        "records_per_s": (0.0 if wl.monte_carlo else rate, "1/s"),
        "mc_efficiency": (statistics.median(
            1.0 / (r["stderr"] ** 2 * r["wall_s"] * r["scale"]) if r["stderr"] > 0
            else 0.0 for r in plain), "1/se2/s"),
        "error_frac": (checks.failed / checks.attempted, "ratio"),
        "reference.kernel_s": (_median(plain, "reference_s"), "s"),
        "raw.wall_s": (_median(plain, "wall_s"), "s"),
        "raw.setup_s": (_median(plain, "setup_s"), "s"),
    })
    return out


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(wl, seed: int, seconds: int, trace: bool, sizes: dict) -> dict:
    """Prepare inputs, measure, and return the result object."""
    limit = time.monotonic() + RUN_LIMIT_S
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench"))
    try:
        wl.prepare(work, seed, sizes)
        checks = Checks()
        plain, traced = measure(wl, work, seconds, trace, checks, limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = (per_layer(wl, plain, traced, checks) if trace else end_to_end(plain))
    provenance = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), **plain[0]["versions"], "commit": git_commit(),
        "threads_pinned": ENV_PINS, "sizes": sizes,
        "reps": len(plain), "traced_reps": len(traced),
        "raw_wall_s_reps": [r["wall_s"] for r in plain],
        "raw_setup_s_reps": [r["setup_s"] for r in plain],
        "reference_s_reps": [r["reference_s"] for r in plain],
        **(wl.provenance() if hasattr(wl, "provenance") else {}),
    }
    print(json.dumps({"provenance": provenance}))
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None, sizes=FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "creatorsim" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'creatorsim'}",
              file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), sizes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

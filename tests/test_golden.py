"""Golden artifact hashes: the same config and seed write the same bytes.

``tests/golden.json`` maps each run, named ``command config seed=S`` (plus
``threads=T`` for ``metrics``), to its exit code and the sha256 of every
file it writes. Each run calls ``cli.main`` in-process at small sizes, in
a fresh directory. numpy promises no stable random streams across
releases, so the file records the numpy and scipy versions that wrote it,
and the test skips, naming both versions, under any other.

A change that moves outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each moved hash in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from creatorsim.cli import main
from creatorsim.equilibrium import make_well_separated_types

GOLDEN = Path(__file__).resolve().with_name("golden.json")
VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__}

MODELS = {
    "homogeneous": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                    "types": [1.0], "P": 2},
    "homogeneous_P3": {"family": "linear", "alpha": -0.5, "gamma": 0.3,
                       "types": [2.0], "P": 3},
    "entry_costs_three_quarters": {"family": "linear", "alpha": -0.75,
                                   "gamma": 0.0, "types": [1.0], "P": 2},
    # entry cost 1/P: random plays the point (0.5, 0), off the origin and
    # at user utility exactly 0
    "entry_costs_half": {"family": "linear", "alpha": -0.5, "gamma": 0.0,
                         "types": [1.0], "P": 2},
    "kmr_homogeneous": {"family": "kmr", "W": 1.5, "gamma": 0.2,
                        "types": [0.5], "P": 7},
    "two_type_case1": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                       "types": [1.0, 3.0], "P": 2},
    "two_type_case2": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                       "types": [1.0, 1.9], "P": 2},
    "two_type_case3": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                       "types": [1.0, 1.4], "P": 2},
    "kmr_two_type": {"family": "kmr", "W": 1.0, "gamma": 0.0,
                     "types": [1.0, 1.6], "P": 2},
    "well_separated_N4": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
                          "types": list(make_well_separated_types(4, 0.01).types),
                          "P": 2},
}
RECOMMENDERS = ("engagement", "investment", "random")
SEED = 3


def survey_csv(seed: int, n: int = 2_000) -> str:
    """A seeded canonical survey: every feed, genre and angriness level, and
    favorites from 0 to about 10**15, well below 2**53."""
    rng = np.random.default_rng(seed)
    feed = rng.choice(["E", "C"], n)
    genre = rng.choice(["P", "NP"], n)
    angriness = rng.integers(0, 5, n)
    favorites = np.floor(np.expm1(rng.uniform(0.0, 35.0, n))).astype(np.int64)
    rows = [f"{f},{g},{a},{v}" for f, g, a, v in zip(feed, genre, angriness, favorites)]
    return "\n".join(["feed,genre,angriness,favorites", *rows]) + "\n"


def runs() -> dict[str, tuple[dict | str, list[str]]]:
    """Each run's name, its config (a survey for ``empirics``) and the
    options after ``--config``/``--data`` and ``--out``."""
    out = {}
    for name, model in MODELS.items():
        out[f"check-model {name} seed={SEED}"] = (model, [])
        for rec in RECOMMENDERS:
            cfg = {**model, "recommender": rec, "seed": SEED}
            label = f"{name}.{rec} seed={SEED}"
            out[f"describe {label}"] = (cfg, [])
            out[f"sample {label}"] = (cfg, ["--samples", "300"])
            out[f"verify {label}"] = (cfg, ["--samples", "500", "--grid", "12"])
        for threads in (1, 2):
            cfg = {**model, "recommender": "all", "seed": SEED}
            out[f"metrics {name}.all seed={SEED} threads={threads}"] = (
                cfg, ["--samples", "3000", "--threads", str(threads)])
    for seed in (5, 6):
        out[f"empirics survey seed={seed}"] = (survey_csv(seed), [])
    return out


RUNS = runs()


def run(name: str, workdir: Path) -> dict:
    """Run ``name`` in ``workdir``; its exit code and artifact hashes.

    Every path given is relative, since ``empirics`` writes its ``--data``
    path into ``table1.csv``."""
    command = name.split()[0]
    given, options = RUNS[name]
    if command == "empirics":
        (workdir / "survey.csv").write_text(given, encoding="utf-8")
        argv = [command, "--data", "survey.csv"]
    else:
        (workdir / "cfg.json").write_text(json.dumps(given), encoding="utf-8")
        argv = [command, "--config", "cfg.json"]
    argv += ["--out", "out", *options]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = sorted((workdir / "out").iterdir())
    return {"exit": code,
            "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files}}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    golden = load_golden()
    if golden["versions"] != VERSIONS:
        pytest.skip(f"golden hashes were written under {golden['versions']}, "
                    f"this run has {VERSIONS}")
    assert run(name, tmp_path) == golden["runs"][name]


def test_golden_file_names_every_run():
    assert sorted(load_golden()["runs"]) == sorted(RUNS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for i, name in enumerate(sorted(RUNS)):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            results[name] = run(name, workdir)
    GOLDEN.write_text(json.dumps({"versions": VERSIONS, "runs": results},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(results)} runs to {GOLDEN}", file=sys.stderr)

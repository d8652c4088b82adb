import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import creatorsim
import creatorsim.cli as cli
from creatorsim.cli import (EQUILIBRIUM_CHOICES, RECOMMENDER_CHOICES,
                           ConfigError, main, resolve_config)
from creatorsim.equilibrium import make_well_separated_types
from creatorsim.metrics import ROUND_ROWS
from creatorsim.verify import (BestResponseReport, best_response_gap,
                               support_containment)
from creatorsim.model import ModelInstance


VALID = {"family": "linear", "alpha": 1, "gamma": 0, "types": [1], "P": 2, "seed": 0}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {**VALID, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_metrics(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return {(r["metric"], r["recommender"]): float(r["mean"])
            for r in csv.DictReader(lines)}


def test_fresh_interpreter_imports_and_collects_nothing_mid_command(tmp_path):
    # a fresh interpreter, since this test process has scipy loaded already,
    # imports the CLI, then runs the benchmark's verify and metrics commands
    # at its sizes. The import loads numpy.random, but no scipy and not
    # numpy.polynomial (about 3 ms, imported by expected_max_from_cdf only);
    # no frozen dataclasses, which would generate their methods with exec;
    # and no concurrent.futures, which brings in logging and queue. The
    # commands import no module (np.unique's first call imports numpy.ma,
    # 11-14 ms on a 2-vCPU VM), and start no generation-1 or -2 collection,
    # which would scan all the import's young objects: the import collects
    # them at its end. These argvs are plain, so no parser is built and
    # argparse's gettext never loads locale.
    src = str(Path(creatorsim.__file__).resolve().parents[1])
    two, _ = write_config(tmp_path, "two.json", types=[1.0, 1.9],
                          equilibrium="two_type", samples=15000, seed=1)
    hom, _ = write_config(tmp_path, "hom.json", alpha=-0.5, gamma=0.3,
                          types=[2.0], P=3, equilibrium="homogeneous",
                          samples=15000, seed=2)
    met, _ = write_config(tmp_path, "met.json",
                          types=list(make_well_separated_types(4, 0.01).types),
                          recommender="all", samples=300000, seed=3)
    probe = """if True:
        import gc, json, sys
        import creatorsim.cli as cli
        watched = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                         or m in ("numpy.random", "numpy.polynomial",
                                  "dataclasses", "concurrent.futures",
                                  "logging", "queue"))
        two, hom, met, out = sys.argv[1:]
        old = []
        gc.callbacks.append(lambda phase, info: phase == "start"
                            and info["generation"] > 0
                            and old.append(info["generation"]))
        before = set(sys.modules)
        codes = [cli.main(["verify", "--config", c, "--grid", "200",
                           "--out", out]) for c in (two, hom)]
        codes += [cli.main(["metrics", "--config", met, "--threads", t,
                            "--out", out]) for t in ("2", "1")]
        print(json.dumps([watched, codes, sorted(set(sys.modules) - before),
                          old]), file=sys.stderr)
    """
    proc = subprocess.run([sys.executable, "-c", probe, str(two), str(hom),
                           str(met), str(tmp_path / "out")], cwd=src,
                          check=True, capture_output=True, text=True, timeout=300)
    watched, codes, imported, old = json.loads(proc.stderr.splitlines()[-1])
    assert watched == ["numpy.random"]
    assert codes == [0, 0, 0, 0]
    assert imported == []
    assert old == []


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py patches program callables by name; a renamed or
    # deleted one makes install raise AttributeError. A fresh interpreter,
    # because install patches the modules for the life of the process.
    root = Path(creatorsim.__file__).resolve().parents[2]
    probe = "import spans; spans.install(spans.Tracer()); print('ok')"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", probe], cwd=root / "perfbench",
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.splitlines() == ["ok"]


def test_module_entry_gives_the_shell_each_exit_code(tmp_path):
    # `python -m creatorsim.cli` runs the module's `__main__` exit, which no
    # in-process call reaches: 0 writes the artifact, 2 prints one error
    # line and makes no directory, 3 prints verify's failure line
    root = Path(creatorsim.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(name, command, *argv, **overrides):
        path, _ = write_config(tmp_path, f"{name}.json", **overrides)
        return subprocess.run(
            [sys.executable, "-m", "creatorsim.cli", command, "--config",
             str(path), "--out", str(tmp_path / name), *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    done = run("done", "describe")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "done" / "strategy.json").is_file()
    bad = run("bad", "describe", alpha=-2)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: alpha must be finite and > -1, got -2.0\n"
    assert not (tmp_path / "bad").exists()
    failed = run("failed", "verify", "--grid", "12", equilibrium="investment",
                 recommender="engagement", samples=2000)
    assert failed.returncode == 3, failed.stderr
    assert failed.stderr.startswith("verify failed: deviation ")
    assert failed.stderr.count("\n") == 1


@pytest.mark.parametrize("option, value, message", [
    ("grid", 1, "--grid must be >= 2"),
    ("threads", 0, "--threads must be >= 1"),
])
def test_resolve_config_checks_command_options(option, value, message):
    args = argparse.Namespace(**{option: value})
    with pytest.raises(ConfigError, match=message):
        resolve_config({"family": "linear", "types": [1]}, args)
    resolve_config({"family": "linear", "types": [1]},
                   argparse.Namespace(**{option: value + 1}))


class TestCheckModel:
    def test_valid_config_exits_zero(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["check-model", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "check_model.json").read_text())
        assert payload["report"]["all_passed"] is True

    @pytest.mark.parametrize("model", [
        {"family": "linear", "alpha": 1e9, "types": [1, 2]},
        {"family": "linear", "alpha": 1e10, "types": [1, 2]},
        {"family": "linear", "alpha": 1e11, "types": [1, 2]},
        {"family": "kmr", "W": 1e-300, "types": [1e-10]},
        {"family": "kmr", "W": 1.0, "types": [1e-10]},
    ])
    def test_assumptions_hold_at_extreme_scales(self, tmp_path, model):
        # a utility near 1e11 or a slope W * t near 1e-310 is still linear
        # in each coordinate with the signs the model needs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(model))
        assert main(["check-model", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "check_model.json").read_text())
        assert payload["report"]["all_passed"] is True


class TestSample:
    def test_homogeneous_samples_on_curve(self, tmp_path):
        path, cfg = write_config(tmp_path, samples=1000)
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=2)
        assert rows.shape == (1000, 2)
        inst = ModelInstance.from_config(cfg)
        assert support_containment(rows, inst, 1e-9) == []

    def test_well_separated_sample_touches_at_most_nprime_curves(self, tmp_path):
        from creatorsim import make_well_separated_types, n_prime
        types = list(make_well_separated_types(3, 0.01).types)
        path, cfg = write_config(tmp_path, types=types, samples=2000,
                                 equilibrium="well_separated")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=2)
        inst = ModelInstance.from_config(cfg)
        used = set()
        for q, x in rows:
            for t in inst.types:
                if abs(q - float(inst.min_investment(t, x))) <= 1e-9:
                    used.add(t)
                    break
        assert len(used) <= n_prime(3)

    @pytest.mark.parametrize("command, artifact", [("sample", "samples.csv"),
                                                   ("describe", "strategy.json")])
    def test_all_recommenders_play_the_engagement_strategy(self, tmp_path, command,
                                                           artifact):
        # with every recommender, the creators' play is the engagement
        # equilibrium: the artifact equals the engagement run's but for the
        # config it echoes
        bodies = {}
        for rec in ("all", "engagement", "investment"):
            path, _ = write_config(tmp_path, f"{rec}.json", types=[1.0, 1.9],
                                   recommender=rec, samples=200, seed=3)
            out = tmp_path / rec
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            text = (out / artifact).read_text()
            bodies[rec] = (text.splitlines()[1:] if command == "sample"
                           else json.loads(text)["strategy"])
        assert bodies["all"] == bodies["engagement"] != bodies["investment"]

    def test_zero_samples_header_only(self, tmp_path):
        path, _ = write_config(tmp_path, samples=0)
        assert main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "w_costly,w_cheap"
        assert len(lines) == 2


class TestVerify:
    def test_characterized_equilibrium_exits_zero(self, tmp_path):
        path, _ = write_config(tmp_path, samples=20000)
        assert main(["verify", "--config", str(path), "--grid", "40",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["report"]["passes"] is True

    def test_mismatched_equilibrium_exits_three(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, gamma=0.5, samples=8000,
                               equilibrium="investment",
                               recommender="engagement")
        assert main(["verify", "--config", str(path), "--grid", "40",
                     "--out", str(tmp_path)]) == 3
        # one stderr line names the winning deviation, its curve and the
        # gap in units of the paired stderr
        err = capsys.readouterr().err.splitlines()
        report = json.loads((tmp_path / "verify.json").read_text())["report"]
        q, x = report["argmax_candidate"]
        gap, se = report["gap"], report["combined_stderr"]
        assert err == [f"verify failed: deviation (q={q:.6g}, x={x:.6g}) on the "
                       f"type 1 curve beats on-support play by gap={gap:.6f}, "
                       f"{gap / se:.1f} x combined_stderr={se:.6f}"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_homogeneous_at_huge_alpha_exits_zero(self, tmp_path, seed):
        # support [1e11, 1e11 + 1] in engagement: ties and acceptance must
        # hold there to the last few ulps
        path, _ = write_config(tmp_path, alpha=1e11, samples=15000, seed=seed)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["describe", "check-model"])
def test_commands_without_grid_are_not_held_to_its_cap(tmp_path, command):
    # the --grid cap shrinks with P and is -1 at P = 2**60; a command with no
    # --grid option must not be held to it
    path, _ = write_config(tmp_path, P=2**60)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 1


# the benchmark's two certify cases, with their candidate plus probe counts
# at grid 200 and 32 probes
CERTIFY_CASES = {
    "two_type": ({"family": "linear", "alpha": 1.0, "gamma": 0.0,
                  "types": [1.0, 1.9], "P": 2, "equilibrium": "two_type"}, 433),
    "homogeneous_P3": ({"family": "linear", "alpha": -0.5, "gamma": 0.3,
                        "types": [2.0], "P": 3, "equilibrium": "homogeneous"}, 233),
}


@pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
def test_verify_json_is_one_deterministic_finite_line(tmp_path, case):
    overrides, points = CERTIFY_CASES[case]
    path, _ = write_config(tmp_path, samples=2000, seed=5, **overrides)
    texts = []
    for run in ("first", "rerun"):
        assert main(["verify", "--config", str(path), "--grid", "200",
                     "--out", str(tmp_path / run)]) == 0
        texts.append((tmp_path / run / "verify.json").read_bytes())
    assert texts[0] == texts[1]
    text = texts[0].decode()
    assert text.endswith("\n") and text.count("\n") == 1
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)["report"]
    assert len(report["candidates"]) + len(report["probes"]) == points
    for column in ("mean", "stderr"):
        assert len(report["candidate_utilities"][column]) == len(report["candidates"])
        assert len(report["probe_utilities"][column]) == len(report["probes"])
    assert [c["t"] for c in report["curves"]] == overrides["types"]


CONFIG_COMMANDS = ["check-model", "sample", "describe", "verify", "metrics"]


ARTIFACTS = {"check-model": "check_model.json", "sample": "samples.csv",
             "describe": "strategy.json", "verify": "verify.json",
             "metrics": "metrics.csv"}
HUGE_INTEGERS = {
    # past the largest float, so float() raises OverflowError
    "1e400": str(10**400),
    # past the 4 300 digits Python converts from a string, so json.load fails
    "5000_digits": "1" + "0" * 4999,
}


def run_main(argv):
    """Exit code, stdout and stderr of ``main(argv)``; an exception leaving
    it is exit 1 with its traceback on stderr, as ``python -m`` would give."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("field", ["P", "types[0]", "alpha", "W", "gamma",
                                   "seed", "samples"])
@pytest.mark.parametrize("value", sorted(HUGE_INTEGERS))
def test_huge_integer_in_config_exits_zero_or_two(tmp_path, command, field,
                                                  value):
    # an integer too large for a float, or too long for json.load, is a
    # config error wherever it sits; a field that the command never reads
    # as a float may run, on small sizes
    base = ({"family": "kmr", "W": 1.0, "types": [0.5]} if field == "W"
            else {"alpha": -0.5, "types": [2.0]})
    cfg = {"family": "linear", "gamma": 0.3, "P": 3, "seed": 0, "samples": 200,
           **base}
    if field == "types[0]":
        cfg["types"] = ["HUGE"]
    else:
        cfg[field] = "HUGE"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"HUGE"', HUGE_INTEGERS[value]))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    argv += ["--grid", "5"] if command == "verify" else []
    code, _, err = run_main(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / ARTIFACTS[command]).exists()


def run_main_on_fresh_stack(argv):
    """``run_main(argv)`` on a new thread, whose stack starts about as
    shallow as the console script's, so the recursion limit falls where it
    does for a user."""
    result = []
    thread = threading.Thread(target=lambda: result.append(run_main(argv)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return result[0]


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("bottom", ["plain", "NaN"])
@pytest.mark.parametrize("depth", [*range(980, 1001), 100_000])
def test_deeply_nested_config_exits_two(tmp_path, command, bottom, depth):
    # json.load and every later walk of the config take one frame per
    # level; a note nested near the recursion limit is past the depth bound
    # too, so it is a config error, never a RecursionError: json.load gives
    # up at the recursion limit, or the bound refuses what it loaded. A NaN
    # at the bottom changes nothing: the check for non-finite values, which
    # would walk down to it, runs only on configs inside the bound.
    cfg = {"family": "linear", "alpha": -0.5, "gamma": 0.3, "types": [2.0],
           "P": 3, "seed": 0, "samples": 200, "note": "DEEP"}
    note = "[" * depth + ("NaN" if bottom == "NaN" else "") + "]" * depth
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"DEEP"', note))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    argv += ["--grid", "5"] if command == "verify" else []
    code, _, err = run_main_on_fresh_stack(argv)
    assert code == 2, err
    assert err.count("\n") == 1, err
    assert (err.startswith("error: config is not valid JSON: ")
            or err == "error: config nests deeper than 100 levels\n"), err
    assert not out.exists()


@pytest.mark.parametrize("model", [
    {"family": "linear", "alpha": 1.0, "types": [1e-300, 1e300]},
    {"family": "kmr", "W": 1e300, "types": [1e-3, 1e3]},
], ids=["linear_types_1e-300_1e300", "kmr_W_1e300"])
def test_overflow_at_extreme_scales_is_no_error(tmp_path, model):
    # x / t past the largest float is a rejection, and an infinite utility
    # or square makes a non-finite estimate; under the suite's filter a
    # numpy overflow warning at those sites would escape as an exception
    path, _ = write_config(tmp_path, samples=2000, seed=3, **model)
    out = tmp_path / "out"
    code, _, err = run_main(["verify", "--config", str(path), "--grid", "20",
                             "--out", str(out)])
    assert (code, err) == (0, "")
    code, _, err = run_main(["metrics", "--config", str(path), "--out", str(out)])
    assert code == 2 and err.startswith("error: non-finite estimate for "), err
    assert not (out / "metrics.csv").exists()


def remove_deep_tree(top, out):
    """Remove ``out``, 1 file deep at most, and each parent up to ``top``
    one level at a time, where ``shutil.rmtree`` would recurse per level."""
    for path in out.iterdir() if out.is_dir() else ():
        path.unlink()
    while out != top:
        if out.is_dir():
            out.rmdir()
        out = out.parent


def test_out_path_1200_missing_levels_deep_is_made(tmp_path):
    # about 2 400 characters, under PATH_MAX: mkdir -p makes it, and so
    # must the command, without one stack frame per level
    path, _ = write_config(tmp_path)
    out = tmp_path.joinpath(*["a"] * 1200)
    try:
        code, _, err = run_main(["describe", "--config", str(path), "--out", str(out)])
        assert code == 0, err
        assert json.loads((out / "strategy.json").read_text())["config"]["types"] == [1]
    finally:
        remove_deep_tree(tmp_path, out)


def test_exit_two_removes_an_out_path_1200_levels_deep(tmp_path):
    # each directory the command made is removed on its own, deepest first
    path, _ = write_config(tmp_path, types=[1e-300, 1e300], samples=2000, seed=3)
    out = tmp_path.joinpath(*["a"] * 1200)
    try:
        code, _, err = run_main(["metrics", "--config", str(path), "--out", str(out)])
        assert code == 2 and err.startswith("error: non-finite estimate"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    finally:
        remove_deep_tree(tmp_path, out)


# ROADMAP item 7: a valid config with one field mutated, run in-process.
# Sizes stay small: samples at most 200, P at most 8 unless it is past
# every array, --grid 10 and one metrics thread.
HOSTILE_BASES = {
    "linear": {"family": "linear", "alpha": 1.0, "gamma": 0.0,
               "types": [1.0, 1.9], "P": 2, "seed": 0, "samples": 200},
    "kmr": {"family": "kmr", "W": 1.0, "gamma": 0.0, "types": [1.0, 1.9],
            "P": 2, "seed": 0, "samples": 200},
}
HOSTILE_ARGS = {"describe": [], "check-model": [], "sample": [],
                "verify": ["--grid", "10"], "metrics": ["--threads", "1"]}
MISSING = "<missing>"  # the mutation that deletes the field
LEAST_SAMPLES = {"verify": 2, "metrics": 1}  # 0 elsewhere


def json_values(leaf):
    """``leaf``, null, bools and short strings, and lists nesting them."""
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3))
    return st.recursive(st.one_of(leaf, junk),
                        lambda inner: st.lists(inner, max_size=3), max_leaves=4)


# every float: json.dumps writes NaN and the infinities as the raw JSON
# text NaN, Infinity and -Infinity
NUMBERS = st.one_of(st.floats(), st.integers(-10**400, 10**400))
# sizes that no command takes: floats, and integers past every array
SIZES = st.one_of(st.floats(), st.integers(10**20, 10**400))
TYPE_LISTS = st.one_of(
    st.lists(st.one_of(st.floats(), st.integers(-1, 3)), max_size=4),
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
             min_size=1, max_size=4, unique=True).map(sorted))
HOSTILE_FIELDS = {
    "family": json_values(st.sampled_from(["linear", "kmr", "Linear"])),
    "alpha": json_values(NUMBERS),
    "W": json_values(NUMBERS),
    "gamma": json_values(NUMBERS),
    "types": st.one_of(TYPE_LISTS, json_values(NUMBERS)),
    "P": json_values(st.one_of(st.integers(-3, 8), SIZES)),
    "samples": json_values(st.one_of(st.integers(-3, 200), SIZES)),
    "seed": json_values(NUMBERS),
    "recommender": json_values(st.sampled_from(RECOMMENDER_CHOICES + ("clicks",))),
    "equilibrium": json_values(st.sampled_from(EQUILIBRIUM_CHOICES + ("nash",))),
    "note": json_values(NUMBERS),
}
MUTATIONS = st.sampled_from(sorted(HOSTILE_FIELDS)).flatmap(
    lambda field: st.tuples(st.just(field),
                            st.one_of(st.just(MISSING), HOSTILE_FIELDS[field])))


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(HOSTILE_ARGS)),
       base=st.sampled_from(sorted(HOSTILE_BASES)), mutation=MUTATIONS)
@example(command="verify", base="linear", mutation=("types", [1e-16, 2.0]))
@example(command="verify", base="linear", mutation=("types", [5e-324, 2.0]))
@example(command="verify", base="linear", mutation=("types", [1e-300, 1e300]))
@example(command="metrics", base="linear", mutation=("types", [1e-300, 1e300]))
@example(command="metrics", base="kmr", mutation=("W", 1e300))
@example(command="check-model", base="linear", mutation=("alpha", 1e11))
@example(command="sample", base="linear", mutation=("P", 10**400))
@example(command="describe", base="linear", mutation=("alpha", "1"))
@example(command="sample", base="kmr", mutation=("types", [2.0 ** 1023]))
@example(command="verify", base="linear", mutation=("alpha", 9.5e307))
@example(command="metrics", base="kmr", mutation=("W", 9.5e307))
@example(command="verify", base="linear", mutation=("samples", 1))
def test_hostile_config_exits_zero_two_or_three(command, base, mutation):
    # only verify has an exit 3, a failed certification; a sample count
    # below the command's least exits 2
    field, value = mutation
    cfg = dict(HOSTILE_BASES[base])
    if value == MISSING:
        cfg.pop(field, None)
    else:
        cfg[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        code, _, err = run_main([command, "--config", str(path), "--out", str(out),
                                 *HOSTILE_ARGS[command]])
        assert code in ((0, 2, 3) if command == "verify" else (0, 2)), err
        least = LEAST_SAMPLES.get(command, 0)
        if field == "samples" and type(value) is int and value < least:
            assert code == 2, err
        assert "Traceback" not in err
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not out.exists()
        for artifact in written:
            text = artifact.read_text(encoding="utf-8")
            if artifact.suffix == ".json":
                json.loads(text, parse_constant=refuse_constant)
                continue
            for row in csv.reader(ln for ln in text.splitlines()
                                  if not ln.startswith("#")):
                for cell in row:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (artifact.name, row)


# the input of a row: a directory in its place
DIRECTORY = object()
SURVEY = b"feed,genre,angriness,favorites\n" + b"".join(
    b"E,P,%d,%d\n" % (a, a) for a in range(5))


def write_input(command, config):
    """Put a row's input in the working directory, and give the flag and
    name that pass it to ``command``: ``records.csv`` through ``--data`` for
    empirics, else ``cfg.json`` through ``--config``. ``config`` is the
    file's text or bytes, overrides of ``VALID`` (the valid ``SURVEY`` for
    empirics, which takes no config), ``DIRECTORY``, or None for no file."""
    flag, name = (("--data", "records.csv") if command == "empirics"
                  else ("--config", "cfg.json"))
    if isinstance(config, dict):
        config = (SURVEY if command == "empirics"
                  else json.dumps({**VALID, "samples": 10, **config}))
    if config is DIRECTORY:
        os.mkdir(name)
    elif config is not None:
        Path(name).write_bytes(config if isinstance(config, bytes)
                               else config.encode())
    return flag, name


def assert_exits_two(argv, message):
    """``main(argv)`` exits 2 with nothing on stdout and one ``error:`` line
    holding ``message``; a ``message`` that starts with ``error: `` is the
    whole line."""
    code, stdout, err = run_main(argv)
    assert (code, stdout) == (2, ""), err
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err
    if message.startswith("error: "):
        assert err == message + "\n"
    else:
        assert message in err, err


def config_error(config, message, commands=CONFIG_COMMANDS, argv=()):
    """A ``CONFIG_ERRORS`` row: the input ``config`` (see ``write_input``),
    run with ``argv`` on each command in ``commands``, exits 2 with
    ``message``."""
    return config, argv, commands, message


def nested(levels, bottom=""):
    """A config text whose ``note`` nests it ``levels`` deep in all."""
    note = "[" * (levels - 1) + bottom + "]" * (levels - 1)
    return json.dumps({**VALID, "samples": 10, "note": "DEEP"}).replace('"DEEP"', note)


# check-model builds no strategy, so a construction that does not fit the
# config is no error to it
BUILDERS = ["sample", "describe", "verify", "metrics"]
WELL_SEPARATED_3 = list(make_well_separated_types(3, 0.01).types)
# sample, verify and metrics hold 3 * P draws per sample, more than any
# array; describe draws none, but each construction divides by P or P - 1
HUGE_P = {"alpha": -0.5, "gamma": 0.3, "types": [2.0], "P": 10**400}
# past np.intp's largest byte count numpy raises ValueError rather than
# MemoryError, so a size that needs such an array is refused with the
# config. Its widest arrays hold 3 draws per creator per sample, and a
# column per grid point and creator (P = 2, one type here).
MAX_ENTRIES = np.iinfo(np.intp).max // 8
TOO_BIG = "for this config: numpy cannot hold larger arrays"
GRID_CAP = MAX_ENTRIES // 2 - 1
CONFIG_ERRORS = {
    "config_missing": config_error(None, "error: config file not found: cfg.json"),
    "config_a_directory": config_error(
        DIRECTORY, "error: cannot read config file cfg.json: Is a directory"),
    "config_not_utf8": config_error(b'{"note": "caf\xe9"}',
                                    "config file cfg.json is not UTF-8: "),
    # empirics reads the row's input as its survey
    "data_missing": config_error(None, "error: data file not found: records.csv",
                                 ["empirics"]),
    "data_a_directory": config_error(
        DIRECTORY, "error: cannot read data file records.csv: Is a directory",
        ["empirics"]),
    "data_not_utf8": config_error(SURVEY + b"E,P,1,\xff\n",
                                  "data file records.csv is not UTF-8: ", ["empirics"]),
    "data_field_past_csv_limit": config_error(
        SURVEY + b"E,P,1," + b"1" * 200_000 + b"\n",
        "data file records.csv is not readable CSV: field larger than field limit",
        ["empirics"]),
    "data_malformed_row": config_error(
        SURVEY + b"E,P,9,1\n",
        "error: malformed rows: line 7: angriness must be in 0..4, got 9", ["empirics"]),
    # 150 levels load on every Python, but json.dumps with an indent recurses
    # once per level and some Pythons load far deeper: the bound refuses such
    # a config as it loads, before any walk of it
    **{name: config_error(nested(levels, bottom),
                          "error: config nests deeper than 100 levels")
       for name, levels, bottom in [("nested_101", 101, ""), ("nested_150", 150, ""),
                                    ("nested_150_NaN", 150, "NaN")]},
    "not_an_object": config_error('[{"family": "linear"}]',
                                  "config must be a JSON object"),
    "unparseable_json": config_error("{not json", "config is not valid JSON: "),
    "unknown_recommender": config_error({"recommender": "clicks"},
                                        "recommender must be one of ('engagement', "),
    "unknown_equilibrium": config_error({"equilibrium": "nash"},
                                        "equilibrium must be one of ('auto', "),
    "unknown_family": config_error({"family": "nope"}, "unknown family 'nope'"),
    "missing_types": config_error('{"family": "linear", "alpha": 1}',
                                  "model config missing 'types'"),
    "types_a_string": config_error({"types": "12"},
                                   "'types' must be a list of numbers"),
    "empty_types": config_error({"types": []},
                                "error: type space must be nonempty"),
    # below the smallest normal float 1 / t overflows, and verify cannot
    # certify the type's curve
    "subnormal_type": config_error({"types": [5e-324, 2.0]},
                                   "error: types must be normal floats, at least "
                                   "2.2250738585072014e-308"),
    "linear_without_alpha": config_error('{"family": "linear", "types": [1]}',
                                         "linear family requires 'alpha'"),
    "kmr_without_W": config_error({"family": "kmr"}, "kmr family requires 'W'"),
    "alpha_-2": config_error({"alpha": -2}, "alpha must be finite and > -1, got -2.0"),
    "linear_gamma_one": config_error({"gamma": 1.0},
                                     "gamma must be in [0, 1), got 1.0"),
    "kmr_gamma_one": config_error({"family": "kmr", "W": 1, "gamma": 1.0},
                                  "gamma must be in [0, 1), got 1.0"),
    "kmr_gamma_negative": config_error({"family": "kmr", "W": 1, "gamma": -0.5},
                                       "gamma must be in [0, 1), got -0.5"),
    # the curve reaches the deviation grid's cost cap 1.2 at gaming 2.2 t
    # on KMR, or t * (alpha + 1.2) on the linear family, past the largest
    # float, so no strategy or grid on it has finite breakpoints
    **{name: config_error(model, "error: a type's curve passes the largest float "
                                 "below cost 1.2")
       for name, model in [
           ("kmr_type_2**1023", {"family": "kmr", "W": 1.0, "types": [2.0 ** 1023]}),
           ("linear_alpha_1e308", {"alpha": 1e308, "types": [1.0, 1.9]})]},
    # json.dumps writes inf as the non-standard Infinity, which json.load reads
    "alpha_inf": config_error({"alpha": float("inf")}, "alpha must be finite"),
    "W_inf": config_error({"family": "kmr", "W": float("inf")}, "W must be finite"),
    "alpha_true": config_error({"alpha": True}, "'alpha' must be a number"),
    "W_true": config_error({"family": "kmr", "W": True}, "'W' must be a number"),
    "gamma_false": config_error({"gamma": False}, "'gamma' must be a number"),
    "types_entry_true": config_error({"types": [0.5, True]},
                                     "'types' entry must be a number"),
    # float() reads these strings; on null, a list or an object its message
    # names no field
    "alpha_underscored": config_error({"alpha": "1_0"}, "'alpha' must be a number"),
    "gamma_padded": config_error({"gamma": " 0.5 "}, "'gamma' must be a number"),
    "types_digit_strings": config_error({"types": ["1", "\u0662"]},
                                        "'types' entry must be a number"),
    "W_string": config_error({"family": "kmr", "W": "2"}, "'W' must be a number"),
    "alpha_null": config_error({"alpha": None}, "'alpha' must be a number"),
    "gamma_list": config_error({"gamma": [0.5]}, "'gamma' must be a number"),
    "types_entry_object": config_error({"types": [{"t": 1}]},
                                       "'types' entry must be a number"),
    # an unknown key is echoed into every artifact, which must stay standard JSON
    "note_inf": config_error({"note": float("inf")}, "note must be finite"),
    "note_nan": config_error({"note": {"runs": [1.0, float("nan")]}},
                             "note.runs[1] must be finite"),
    "P_one": config_error({"P": 1}, "P must be an integer >= 2"),
    "P_true": config_error({"P": True}, "P must be an integer >= 2"),
    "seed_true": config_error({"seed": True}, "seed must be a nonnegative integer"),
    "samples_true": config_error({"samples": True}, "samples must be an integer >= "),
    # sample writes a header alone for zero samples; metrics needs one, and
    # verify two, since one sample has no stderr to widen its gate
    "zero_samples": config_error({"samples": 0}, "samples must be an integer >= 1",
                                 ["metrics"]),
    "one_sample_verify": config_error({"samples": 1}, "samples must be an integer >= 2",
                                      ["verify"]),
    "P_past_every_array": config_error(HUGE_P, "P must be at most",
                                       ["sample", "verify", "metrics"]),
    **{f"P_past_every_float_{rec}": config_error(
        {**HUGE_P, "recommender": rec},
        f"error: equilibrium '{construction}' not applicable: P is too large: "
        "it must fit in a float", ["describe"])
       for rec, construction in [("engagement", "homogeneous"),
                                 ("investment", "investment"), ("random", "random")]},
    "homogeneous_two_types": config_error(
        {"types": [1, 2], "equilibrium": "homogeneous"},
        "not applicable: homogeneous construction requires exactly one type", BUILDERS),
    **{name: config_error({"types": types, "P": 3, "equilibrium": equilibrium},
                          "not applicable: it is constructed for P = 2 creators, "
                          "not P = 3", BUILDERS)
       for name, types, equilibrium in [
           ("two_type_auto_P3", [1.0, 1.9], "auto"),
           ("two_type_P3", [1.0, 1.9], "two_type"),
           ("well_separated_auto_P3", WELL_SEPARATED_3, "auto"),
           ("well_separated_P3", WELL_SEPARATED_3, "well_separated")]},
    # the other commands read "all" as every recommender, or as engagement
    "verify_all_recommenders": config_error({"recommender": "all"},
                                            "verify requires a single recommender",
                                            ["verify"]),
    "grid_one": config_error({}, "--grid must be >= 2", ["verify"], ["--grid", "1"]),
    **{f"threads_{n}": config_error({}, "--threads must be >= 1", ["metrics"],
                                    ["--threads", n]) for n in ("0", "-5")},
    **{f"output_{value}": config_error(
        {"output": value}, "error: output must be a string (a directory path)")
       for value in (5, True)},
    **{name: config_error(config, f"error: samples must be at most {MAX_ENTRIES // 6} "
                                  f"{TOO_BIG}", ["sample", "verify", "metrics"], argv)
       for name, config, argv in [("samples_2**62", {"samples": 2**62}, ()),
                                  ("samples_flag_2**62", {}, ["--samples", str(2**62)])]},
    **{f"grid_{name}": config_error({}, f"error: --grid must be at most {GRID_CAP} "
                                        f"{TOO_BIG}", ["verify"], ["--grid", str(grid)])
       for name, grid in [("2**62", 2**62), ("past_its_cap", GRID_CAP + 1)]},
}


def cases(table):
    """(command, case) for each row of ``table`` and each command it names."""
    return [(command, case) for case, row in table.items() for command in row[2]]


@pytest.mark.parametrize("command, case", cases(CONFIG_ERRORS))
def test_config_error_exits_two_with_its_message(tmp_path, monkeypatch, command,
                                                 case):
    # no traceback, output or directory. The error comes before the command
    # asks for its output directory: main removes a directory made too
    # early, which would leave no trace here.
    def out_dir(*args):
        raise AssertionError("output directory asked for before the error")

    monkeypatch.setattr(cli, "_out_dir", out_dir)
    monkeypatch.chdir(tmp_path)
    config, argv, _, message = CONFIG_ERRORS[case]
    flag, name = write_input(command, config)
    assert_exits_two([command, flag, name, "--out", "out/deeper", *argv], message)
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else [name])


@pytest.mark.parametrize("levels, code", [(100, 0)])  # 101: nested_101
def test_config_depth_bound_is_one_hundred_levels(tmp_path, levels, code):
    path = tmp_path / "cfg.json"
    path.write_text(nested(levels))
    out = tmp_path / "out"
    assert run_main(["describe", "--config", str(path), "--out", str(out)])[0] == code
    assert (out / "strategy.json").exists()


def late_error(message, commands, setup=(), patch=None, out="out", argv=(),
               **config):
    """A ``LATE_ERRORS`` row: ``setup`` makes its paths in the working
    directory (a file, or a directory where the path ends in ``/``),
    ``patch`` sets an attribute, named as ``monkeypatch.setattr`` takes it,
    to a callable, and each command in ``commands`` runs on ``config`` (see
    ``write_input``) with ``--out out`` (none if ``out`` is None) and
    ``argv``, and exits 2 with ``message``."""
    return config, argv, commands, message, setup, patch, out


def nan_candidate_mean(*args, **kwargs):
    report = best_response_gap(*args, **kwargs)
    mean = report.candidate_mean.copy()
    mean[3] = np.nan
    return BestResponseReport(**{**vars(report), "candidate_mean": mean})


def nan_gap(*args, **kwargs):
    report = best_response_gap(*args, **kwargs)
    return BestResponseReport(**{**vars(report), "gap": math.nan})


def no_memory(*args):
    raise MemoryError("Unable to allocate 1.00 TiB for an array")


# x / t passes the largest float: verify certifies these types, and metrics
# gets a non-finite estimate
EXTREME_TYPES = {"types": [1e-300, 1e300], "samples": 2000, "seed": 3}
ALL_COMMANDS = [*CONFIG_COMMANDS, "empirics"]
LATE_ERRORS = {
    # each run asks numpy for one array of over 2**47 bytes, which fails at
    # once under any overcommit setting
    "allocation_samples": late_error("not enough memory: Unable to allocate",
                                     ["sample", "verify"],
                                     argv=["--samples", "10000000000000"]),
    "allocation_grid": late_error("not enough memory: Unable to allocate", ["verify"],
                                  argv=["--grid", "10000000000000"]),
    "shard_memory_error": late_error(
        "error: not enough memory: Unable to allocate 1.00 TiB for an array",
        ["metrics"], patch=("creatorsim.metrics.simulate_rounds", no_memory),
        argv=["--threads", "2"], samples=3 * ROUND_ROWS),
    "nan_candidate_mean": late_error(
        "error: non-finite value at report.candidate_utilities.mean[3]: "
        "verify.json not written", ["verify"],
        patch=("creatorsim.cli.best_response_gap", nan_candidate_mean),
        argv=["--grid", "5"], samples=500),
    # the output directory goes, with every parent the command made
    "nan_gap": late_error("error: non-finite value at report.gap: verify.json not "
                          "written", ["verify"],
                          patch=("creatorsim.cli.best_response_gap", nan_gap),
                          out="eo/deeper", argv=["--grid", "10"], **EXTREME_TYPES),
    "non_finite_estimate": late_error("non-finite estimate for ", ["metrics"],
                                      out="eo/deeper", **EXTREME_TYPES),
    # utilities of W = 1e308 overflow to inf, silently: the estimate reports
    # it, and the --out directory that was there before stays
    "kmr_W_1e308": late_error("non-finite estimate for uw,investment", ["metrics"],
                              setup=["out/"], family="kmr", W=1e308,
                              recommender="all", samples=2000),
    # a file in the output directory's place, named by --out or by output,
    # or above it
    "out_a_file": late_error("error: cannot use taken as the output directory: "
                             "File exists", ALL_COMMANDS, setup=["taken"], out="taken"),
    "out_below_a_file": late_error("error: cannot use taken/sub as the output "
                                   "directory: Not a directory", ALL_COMMANDS,
                                   setup=["taken"], out="taken/sub"),
    "output_a_file": late_error("error: cannot use taken as the output directory: "
                                "File exists", CONFIG_COMMANDS, setup=["taken"],
                                out=None, output="taken"),
    # a directory in an artifact's place; empirics writes table1.csv before
    # the ECDF files, and removes it again
    **{f"artifact_{artifact}": late_error(
        f"error: cannot write out/{artifact}: Is a directory", [command],
        setup=[f"out/{artifact}/"])
       for command, artifact in [*ARTIFACTS.items(), ("empirics", "table1.csv"),
                                 ("empirics", "ecdf_fE_Gall_a0.csv")]},
}


def tree(top):
    """Each path under ``top``, with its bytes, or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in top.rglob("*")}


@pytest.mark.parametrize("command, case", cases(LATE_ERRORS))
def test_late_error_exits_two_and_leaves_only_what_was_there(tmp_path, monkeypatch,
                                                            command, case):
    # the error comes once the command has asked for its output directory:
    # every directory it made and every file it wrote go, and what the row
    # set up stays as it was
    config, argv, _, message, setup, patch, out = LATE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    flag, name = write_input(command, config)
    for path in setup:
        if path.endswith("/"):
            os.makedirs(path)
        else:
            Path(path).write_text("a file")
    if patch:
        monkeypatch.setattr(*patch)
    before = tree(tmp_path)
    assert_exits_two([command, flag, name, *(["--out", out] if out else []), *argv],
                     message)
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command", ["verify", "metrics"])
def test_unusable_out_exits_before_monte_carlo(tmp_path, monkeypatch, capsys,
                                               command):
    def spy(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the output path was checked")

    monkeypatch.setattr("creatorsim.cli.best_response_gap", spy)
    monkeypatch.setattr("creatorsim.metrics.estimate_round_metrics", spy)
    (tmp_path / "taken").write_text("a file")
    path, _ = write_config(tmp_path, samples=10)
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "taken")]) == 2
    assert "as the output directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "2"],
    ["check-model", "--seed", "1"],
    ["check-model", "--samples", "10"],
    ["describe", "--seed", "1"],
    ["describe", "--samples", "10"],
])
def test_flags_a_command_ignores_are_rejected(tmp_path, argv):
    path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2


class TestParser:
    """``main`` reads a plain argv without argparse, and any other with one
    cached parser that holds every command."""

    @staticmethod
    def outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return out, err, exc.value.code

    @pytest.mark.parametrize("argv", [
        ["-h"], ["verify", "-h"], ["empirics", "--help"],
        [], ["bogus"],
        ["verify"], ["verify", "--threads", "2"],
        ["metrics", "--grid", "3"], ["metrics", "--threads", "x"],
        ["check-model", "--seed", "1"], ["describe", "--samples", "3"],
        ["sample", "--config", "c.json", "extra"],
        ["empirics", "--data"], ["verify", "--grid", "2.5"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_help_and_errors_match_the_full_parser(self, capsys, argv):
        import creatorsim.cli as cli
        full = self.outcome(cli.make_parser().parse_args, argv, capsys)
        assert self.outcome(main, argv, capsys) == full

    def test_later_call_keeps_no_earlier_option(self, tmp_path):
        import creatorsim.cli as cli
        path, _ = write_config(tmp_path, samples=20)
        argv = ["sample", "--config", str(path), "--out"]
        cli.make_parser.cache_clear()
        assert main(argv + [str(tmp_path / "first")]) == 0
        assert main(argv + [str(tmp_path / "with"), "--seed", "9",
                            "--samples", "7"]) == 0
        assert main(argv + [str(tmp_path / "second")]) == 0
        want = (tmp_path / "first" / "samples.csv").read_bytes()
        assert (tmp_path / "second" / "samples.csv").read_bytes() == want
        assert want.count(b"\n") == 22
        assert (tmp_path / "with" / "samples.csv").read_bytes().count(b"\n") == 9

    def test_parser_built_once_for_repeated_command(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.make_parser.cache_clear()
        path, _ = write_config(tmp_path, samples=50)
        plain = ["verify", "--config", str(path), "--grid", "3",
                 "--out", str(tmp_path / "plain")]
        # an abbreviated flag is not plain: argparse reads it
        other = ["verify", "--conf", str(path), "--grid", "3",
                 "--out", str(tmp_path / "argparse")]
        try:
            assert main(plain) == 0
            assert built == []
            assert main(other) == 0
            first = list(built)
            assert main(other) == 0
        finally:
            cli.make_parser.cache_clear()
        # the top-level parser and every subparser, once
        assert first == ["creatorsim", *(f"creatorsim {c}" for c in cli.HANDLERS)]
        assert built == first
        # and both readers run the same command
        assert (tmp_path / "plain" / "verify.json").read_bytes() == \
            (tmp_path / "argparse" / "verify.json").read_bytes()

    # every flag and some near misses, and values that int() or argparse
    # read in their own ways; a command, a required flag and up to three
    # more pairs make about one argv in nine plain
    FLAGS = [*sorted({flag for opts in cli.OPTIONS.values() for flag in opts}),
             "--conf", "--gri", "--grid=3", "-h", "--"]
    VALUES = ["verify", "5", "-5", "", "2.5", "1_0", "x", "--out"]
    COMMAND_PAIRS = st.tuples(
        st.sampled_from(list(cli.HANDLERS)),
        st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                 max_size=3),
        st.sampled_from(["--config", "--data"]), st.sampled_from(VALUES),
    ).map(lambda c: [c[0], c[2], c[3], *(t for pair in c[1] for t in pair)])

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        COMMAND_PAIRS,
        st.lists(st.sampled_from([*cli.HANDLERS, "bogus", "--help", *FLAGS,
                                  *VALUES]), max_size=8)))
    def test_plain_reader_gives_the_full_parsers_namespace(self, argv):
        plain = cli.read_plain(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                full = cli.make_parser().parse_args(argv)
        except SystemExit:
            full = None
        # None sends the argv to argparse; anything else must be its answer
        if plain is not None:
            assert full is not None
            assert list(vars(plain).items()) == list(vars(full).items())

    def test_patched_handler_runs_after_first_call(self, tmp_path, monkeypatch):
        import creatorsim.cli as cli
        path, _ = write_config(tmp_path, samples=50)
        argv = ["verify", "--config", str(path), "--grid", "3",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [a.grid for a in seen] == [3]


class TestMetrics:
    def test_byte_identical_reruns(self, tmp_path):
        path, _ = write_config(tmp_path, recommender="all", samples=5000)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["metrics", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["metrics", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        from creatorsim import make_well_separated_types
        from creatorsim.metrics import ROUND_ROWS
        types = list(make_well_separated_types(4, 0.01).types)
        # three shards per recommender, so merging order is exercised
        path, _ = write_config(tmp_path, types=types, recommender="all",
                               samples=2 * ROUND_ROWS + 1)
        for t in (1, 2, 4):
            assert main(["metrics", "--config", str(path), "--threads", str(t),
                         "--out", str(tmp_path / f"t{t}")]) == 0
        want = (tmp_path / "t1" / "metrics.csv").read_bytes()
        for t in (2, 4):
            assert (tmp_path / f"t{t}" / "metrics.csv").read_bytes() == want

    def test_one_round_pass_per_recommender(self, tmp_path, monkeypatch):
        import creatorsim.metrics as met
        calls = []
        real = met.simulate_rounds

        def spy(inst, metric, strategy, P, n, rng):
            calls.append((metric.value, n))
            return real(inst, metric, strategy, P, n, rng)

        monkeypatch.setattr(met, "simulate_rounds", spy)
        samples = 2 * met.ROUND_ROWS + 1001
        path, _ = write_config(tmp_path, recommender="all", samples=samples)
        assert main(["metrics", "--config", str(path), "--threads", "2",
                     "--out", str(tmp_path)]) == 0
        rounds = {}
        for rec, n in calls:
            rounds[rec] = rounds.get(rec, 0) + n
        assert rounds == {"engagement": samples, "investment": samples,
                          "random": samples}
        assert len(calls) == 9
        assert all(n <= met.ROUND_ROWS for _, n in calls)

    def test_heap_setting_calls_mallopt_once(self, tmp_path, monkeypatch):
        import creatorsim.cli as cli
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc)
        cli._hold_heap.cache_clear()
        path, _ = write_config(tmp_path, samples=100)
        try:
            for _ in range(2):
                assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 0
        finally:
            cli._hold_heap.cache_clear()
        assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20),
                         (cli.M_TRIM_THRESHOLD, 64 << 20)]

    @pytest.mark.parametrize("libc", ["no_mallopt", "no_library"])
    def test_runs_where_mallopt_is_missing(self, tmp_path, monkeypatch, libc):
        import creatorsim.cli as cli

        def cdll(name):
            if libc == "no_library":
                raise OSError("no such library")
            return object()

        path, _ = write_config(tmp_path, recommender="all", samples=3000)
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._hold_heap.cache_clear()
        try:
            assert main(["metrics", "--config", str(path),
                         "--out", str(tmp_path / "b")]) == 0
        finally:
            cli._hold_heap.cache_clear()
        assert (tmp_path / "b" / "metrics.csv").read_bytes() \
            == (tmp_path / "a" / "metrics.csv").read_bytes()

class TestEmpirics:
    def make_data(self, tmp_path, rows):
        path = tmp_path / "records.csv"
        path.write_text("\n".join(["feed,genre,angriness,favorites"] + rows) + "\n")
        return path

    def test_concordant_dataset_gives_unit_correlation(self, tmp_path):
        rows = [f"{f},{g},{a},{a * 3}" for f in ("E", "C") for g in ("P", "NP")
                for a in range(5) for _ in range(3)]
        path = self.make_data(tmp_path, rows)
        assert main(["empirics", "--data", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "table1.csv") as fh:
            table = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        for row in table:
            for key in ("rho_all", "rho_P", "rho_NP"):
                assert float(row[key]) == pytest.approx(1.0)
        assert (tmp_path / "ecdf_fE_GP_a0.csv").exists()

    def test_independent_dataset_near_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [f"E,P,{int(a)},{int(f)}"
                for a, f in zip(rng.integers(0, 5, 10000),
                                rng.integers(0, 1000, 10000))]
        path = self.make_data(tmp_path, rows)
        assert main(["empirics", "--data", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "table1.csv") as fh:
            table = {r["feed"]: r
                     for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))}
        rho = float(table["E"]["rho_P"])
        p = float(table["E"]["p_P"])
        assert abs(rho) < 0.05
        assert p > 0.01

    def test_crlf_survey_piped_through_stdin(self, tmp_path):
        # the scan declines CRLF, so the row loop parses it; a pipe can be
        # read only once, so both must work from the same read
        rows = [f"{f},{g},{a},{a * 7 + i}" for f in ("E", "C")
                for g in ("P", "NP") for a in range(5) for i in range(3)]
        lf = self.make_data(tmp_path, rows)
        assert main(["empirics", "--data", str(lf),
                     "--out", str(tmp_path / "lf")]) == 0
        src = str(Path(creatorsim.__file__).resolve().parents[1])
        run = ("import sys; from creatorsim.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", run, "empirics", "--data", "/dev/stdin",
             "--out", str(tmp_path / "crlf")],
            cwd=src, input=lf.read_bytes().replace(b"\n", b"\r\n"),
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs = sorted(p.name for p in (tmp_path / "lf").iterdir())
        assert len(outputs) == 31
        for name in outputs:
            # table1.csv names the data path
            assert (tmp_path / "crlf" / name).read_text() == \
                (tmp_path / "lf" / name).read_text().replace(
                    f"# data: {lf}\n", "# data: /dev/stdin\n")

    def test_byte_order_mark_gives_same_outputs(self, tmp_path):
        # spreadsheets' "CSV UTF-8" starts with EF BB BF; the scan declines
        # it and the row loop must read past it to the header
        rows = [f"{f},{g},{a},{a * 5 + i}" for f in ("E", "C")
                for g in ("P", "NP") for a in range(5) for i in range(3)]
        plain = self.make_data(tmp_path, rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for data, out in ((plain, "plain"), (bom, "bom")):
            assert main(["empirics", "--data", str(data),
                         "--out", str(tmp_path / out)]) == 0
        outputs = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert len(outputs) == 31
        assert sorted(p.name for p in (tmp_path / "bom").iterdir()) == outputs
        for name in outputs:
            assert (tmp_path / "bom" / name).read_text() == \
                (tmp_path / "plain" / name).read_text().replace(
                    f"# data: {plain}\n", f"# data: {bom}\n")

    def test_undecodable_data_path_under_c_locale(self, tmp_path):
        # the C locale decodes the path's non-ASCII bytes to surrogates;
        # table1.csv's "# data:" line must hold the original bytes
        rows = [f"{f},P,{a},{a}" for f in ("E", "C") for a in range(5)]
        data = self.make_data(tmp_path, rows).rename(tmp_path / "sürvey.csv")
        src = str(Path(creatorsim.__file__).resolve().parents[1])
        run = ("import sys; from creatorsim.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-c", run, "empirics", "--data", str(data),
             "--out", str(tmp_path / "out")],
            cwd=src, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        table = (tmp_path / "out" / "table1.csv").read_bytes()
        assert table.splitlines()[0] == b"# data: " + os.fsencode(data)

    @pytest.mark.parametrize("name", ["a\nb.csv", "a\rb.csv", "a\r\nb.csv",
                                      "a\\nb.csv"])
    def test_line_break_in_data_path_stays_on_the_comment_line(self, tmp_path,
                                                               name):
        # "\n" and "\r" are escaped; every other character, a backslash
        # included, is echoed as it is
        rows = [f"{f},P,{a},{a}" for f in ("E", "C") for a in range(5)]
        data = self.make_data(tmp_path, rows).rename(tmp_path / name)
        assert main(["empirics", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "table1.csv").read_bytes().split(b"\n")
        echo = str(data).replace("\r", "\\r").replace("\n", "\\n")
        assert lines[0] == f"# data: {echo}".encode()
        assert lines[1].startswith(b"feed,rho_all,")

class TestDescribe:
    def test_strategy_json_carries_breakpoints(self, tmp_path):
        path, _ = write_config(tmp_path, gamma=0.1)
        assert main(["describe", "--config", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "strategy.json").read_text())
        comps = payload["strategy"]["components"]
        assert comps[0]["kind"] == "curve"
        assert len(comps[0]["cheap_cdf_breakpoints"]) >= 2

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        path, _ = write_config(tmp_path, samples=5, output=str(out))
        assert main(["sample", "--config", str(path)]) == 0
        assert (out / "samples.csv").exists()

    def test_output_dir_defaults_to_working_directory(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        path, _ = write_config(tmp_path)
        assert main(["describe", "--config", path.name]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                              "strategy.json"]


class TestAutoResolution:
    def test_two_type_auto_equilibrium(self, tmp_path):
        path, _ = write_config(tmp_path, types=[1.0, 2.0], samples=5000,
                               recommender="engagement")
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 0
        vals = read_metrics(tmp_path / "metrics.csv")
        assert ("uw", "engagement") in vals

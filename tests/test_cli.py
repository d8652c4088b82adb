import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import creatorsim
import creatorsim.cli as cli
from creatorsim.cli import ConfigError, main, resolve_config
from creatorsim.equilibrium import make_well_separated_types
from creatorsim.verify import (BestResponseReport, best_response_gap,
                               support_containment)
from creatorsim.model import ModelInstance


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"family": "linear", "alpha": 1, "gamma": 0, "types": [1],
           "P": 2, "seed": 0}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_metrics(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return {(r["metric"], r["recommender"]): float(r["mean"])
            for r in csv.DictReader(lines)}


def test_cli_import_loads_numpy_random_but_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    src = str(Path(creatorsim.__file__).resolve().parents[1])
    probe = ("import sys, creatorsim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "print('numpy.random' in sys.modules); "
             "print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    # numpy.polynomial (about 3 ms) is imported by expected_max_from_cdf only
    assert out.splitlines() == ["[]", "True", "False"]


def test_verify_and_metrics_import_nothing_mid_command(tmp_path):
    # a fresh interpreter runs the benchmark's verify and metrics commands
    # at its sizes; a module first imported inside a command costs every
    # run (np.unique's first call imports numpy.ma, 11-14 ms on a 2-vCPU
    # VM). These argvs are plain, so no parser is built and argparse's
    # gettext never loads locale.
    src = str(Path(creatorsim.__file__).resolve().parents[1])
    two, _ = write_config(tmp_path, "two.json", types=[1.0, 1.9],
                          equilibrium="two_type", samples=15000, seed=1)
    hom, _ = write_config(tmp_path, "hom.json", alpha=-0.5, gamma=0.3,
                          types=[2.0], P=3, equilibrium="homogeneous",
                          samples=15000, seed=2)
    met, _ = write_config(tmp_path, "met.json",
                          types=list(make_well_separated_types(4, 0.01)),
                          recommender="all", samples=300000, seed=3)
    probe = ("import json, sys, creatorsim.cli as cli; "
             "two, hom, met, out = sys.argv[1:]; "
             "before = set(sys.modules); "
             "codes = [cli.main(['verify', '--config', c, '--grid', '200', "
             "'--out', out]) for c in (two, hom)]; "
             "codes += [cli.main(['metrics', '--config', met, '--threads', t, "
             "'--out', out]) for t in ('2', '1')]; "
             "print(json.dumps([codes, sorted(set(sys.modules) - before)]), "
             "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe, str(two), str(hom),
                           str(met), str(tmp_path / "out")], cwd=src,
                          check=True, capture_output=True, text=True, timeout=300)
    codes, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_cli_start_up_generates_no_code_and_leaves_no_old_collection(tmp_path):
    # a fresh interpreter imports the CLI, then runs the benchmark's verify
    # and metrics commands at its sizes. Frozen dataclasses would generate
    # their methods with exec at import, and concurrent.futures brings in
    # logging and queue. Collecting the import's young objects at its end
    # keeps a generation-1 or -2 collection, which would scan them all, out
    # of these commands.
    src = str(Path(creatorsim.__file__).resolve().parents[1])
    two, _ = write_config(tmp_path, "two.json", types=[1.0, 1.9],
                          equilibrium="two_type", samples=15000, seed=1)
    hom, _ = write_config(tmp_path, "hom.json", alpha=-0.5, gamma=0.3,
                          types=[2.0], P=3, equilibrium="homogeneous",
                          samples=15000, seed=2)
    met, _ = write_config(tmp_path, "met.json",
                          types=list(make_well_separated_types(4, 0.01)),
                          recommender="all", samples=300000, seed=3)
    probe = """if True:
        import gc, json, sys
        import creatorsim.cli as cli
        loaded = [m for m in ("dataclasses", "concurrent.futures", "logging",
                              "queue") if m in sys.modules]
        two, hom, met, out = sys.argv[1:]
        old = []
        gc.callbacks.append(lambda phase, info: phase == "start"
                            and info["generation"] > 0
                            and old.append(info["generation"]))
        codes = [cli.main(["verify", "--config", c, "--grid", "200",
                           "--out", out]) for c in (two, hom)]
        codes += [cli.main(["metrics", "--config", met, "--threads", t,
                            "--out", out]) for t in ("2", "1")]
        print(json.dumps([loaded, codes, old]), file=sys.stderr)
    """
    proc = subprocess.run([sys.executable, "-c", probe, str(two), str(hom),
                           str(met), str(tmp_path / "out")], cwd=src,
                          check=True, capture_output=True, text=True, timeout=300)
    loaded, codes, old = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == []
    assert codes == [0, 0, 0, 0]
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

    def test_gamma_one_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, gamma=1.0)
        assert main(["check-model", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_missing_types_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "linear", "alpha": 1}))
        assert main(["check-model", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "types" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["check-model", "--config", str(path),
                     "--out", str(tmp_path)]) == 2


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
        types = list(make_well_separated_types(3, 0.01))
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

    def test_incompatible_equilibrium_is_config_error(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, types=[1, 2],
                               equilibrium="homogeneous")
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_bad_config_exits_two(self, tmp_path):
        path, _ = write_config(tmp_path, P=1)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_grid_below_two_exits_two(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, samples=100)
        assert main(["verify", "--config", str(path), "--grid", "1",
                     "--out", str(tmp_path)]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "metrics"])
    def test_zero_samples_exits_two(self, tmp_path, capsys, command):
        path, _ = write_config(tmp_path, samples=0)
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "samples" in capsys.readouterr().err

    def test_non_finite_report_exits_two_and_writes_nothing(self, tmp_path,
                                                            monkeypatch, capsys):
        def nan_report(*args, **kwargs):
            report = best_response_gap(*args, **kwargs)
            mean = report.candidate_mean.copy()
            mean[3] = np.nan
            return BestResponseReport(**{**vars(report), "candidate_mean": mean})

        monkeypatch.setattr("creatorsim.cli.best_response_gap", nan_report)
        path, _ = write_config(tmp_path, samples=500)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--grid", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite value at report.candidate_utilities.mean[3]: "
            "verify.json not written"]
        assert list(out.iterdir()) == []

    def test_types_string_exits_two(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, types="12", samples=100)
        assert main(["verify", "--config", str(path), "--grid", "5",
                     "--out", str(tmp_path)]) == 2
        assert "types" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "10000000000000"],
    ["verify", "--grid", "10000000000000"],
    ["sample", "--samples", "10000000000000"],
])
def test_allocation_failure_exits_two_with_one_line(tmp_path, capsys, argv):
    # each run asks numpy for one array of over 2**47 bytes, which fails at
    # once under any overcommit setting
    path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: Unable to allocate")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config", [
    (["verify", "--samples", str(2**62)], {}),
    (["verify", "--grid", str(2**62)], {}),
    (["sample", "--samples", str(2**62)], {}),
    (["verify"], {"samples": 2**62}),
    (["sample"], {"samples": 2**62}),
])
def test_size_numpy_cannot_hold_exits_two_with_one_line(tmp_path, capsys, argv,
                                                        config):
    # past np.intp's largest byte count numpy raises ValueError rather than
    # MemoryError; the size is rejected with the config, before the output
    # directory is made or anything is allocated
    path, _ = write_config(tmp_path, **config)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("numpy cannot hold larger arrays\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["describe", "check-model"])
def test_commands_without_grid_are_not_held_to_its_cap(tmp_path, command):
    # the --grid cap shrinks with P and is -1 at P = 2**60; a command with no
    # --grid option must not be held to it
    path, _ = write_config(tmp_path, P=2**60)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 1


def test_verify_grid_past_its_cap_exits_two(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    cap = np.iinfo(np.intp).max // 8 // 2 - 1  # P = 2 creators, one type
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--grid", str(cap + 1),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --grid must be at most {cap} for this "
                                       "config: numpy cannot hold larger arrays\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["describe", "metrics", "verify"])
@pytest.mark.parametrize("types, equilibrium", [
    ([1.0, 1.9], "auto"), ([1.0, 1.9], "two_type"),
    (list(make_well_separated_types(3, 0.01)), "auto"),
    (list(make_well_separated_types(3, 0.01)), "well_separated"),
])
def test_two_creator_construction_at_other_P_exits_two(tmp_path, capsys, command,
                                                       types, equilibrium):
    path, _ = write_config(tmp_path, types=types, P=3, equilibrium=equilibrium,
                           samples=100)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "not applicable" in err[0] and "P = 2 creators, not P = 3" in err[0]
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("command", ["verify", "describe"])
@pytest.mark.parametrize("overrides, message", [
    ({"alpha": float("inf")}, "alpha must be finite"),
    ({"family": "kmr", "W": float("inf")}, "W must be finite"),
    ({"alpha": True}, "'alpha' must be a number"),
    ({"family": "kmr", "W": True}, "'W' must be a number"),
    ({"gamma": False}, "'gamma' must be a number"),
    ({"types": [0.5, True]}, "'types' entry must be a number"),
])
def test_non_finite_or_boolean_model_parameter_exits_two(tmp_path, capsys, command,
                                                         overrides, message):
    # json.dumps writes inf as the non-standard Infinity, which json.load reads
    path, _ = write_config(tmp_path, samples=100, **overrides)
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    if command == "verify":
        argv += ["--grid", "5"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == [path]


@pytest.mark.parametrize("command", ["verify", "describe"])
@pytest.mark.parametrize("note, where", [
    (float("inf"), "note"),
    ({"runs": [1.0, float("nan")]}, "note.runs[1]"),
])
def test_non_finite_config_value_exits_two(tmp_path, capsys, command, note, where):
    # an unknown key is echoed into every artifact, which must stay standard JSON
    path, _ = write_config(tmp_path, samples=100, note=note)
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    if command == "verify":
        argv += ["--grid", "5"]
    assert main(argv) == 2
    assert f"{where} must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == [path]


@pytest.mark.parametrize("command", ["check-model", "sample", "describe",
                                     "verify", "metrics"])
@pytest.mark.parametrize("output", [5, True])
def test_non_string_output_exits_two(tmp_path, monkeypatch, capsys, command, output):
    monkeypatch.chdir(tmp_path)
    path, _ = write_config(tmp_path, samples=10, output=output)
    assert main([command, "--config", str(path)]) == 2
    assert "output must be a string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


CONFIG_COMMANDS = ["check-model", "sample", "describe", "verify", "metrics"]


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_empty_type_list_exits_two(tmp_path, capsys, command):
    path, _ = write_config(tmp_path, types=[], samples=10)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: type space must be nonempty\n"
    assert not out.exists()


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("config, message", [
    (".", "cannot read config file .: Is a directory"),
    ("latin1.json", "is not UTF-8"),
])
def test_unreadable_config_exits_two(tmp_path, monkeypatch, capsys, command,
                                     config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b'{"note": "caf\xe9"}')
    assert main([command, "--config", config, "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, where", [
    *((c, w) for c in CONFIG_COMMANDS for w in ("--out", "below", "output")),
    ("empirics", "--out"), ("empirics", "below")])
def test_output_path_not_a_directory_exits_two(tmp_path, capsys, command, where):
    # "below" asks for a directory inside the file; "output" names the
    # file in the config instead of on the command line
    (tmp_path / "taken").write_text("a file")
    out = tmp_path / "taken" / ("sub" if where == "below" else "")
    if command == "empirics":
        data = tmp_path / "records.csv"
        data.write_text("feed,genre,angriness,favorites\n"
                        + "".join(f"E,P,{a},{a}\n" for a in range(5)))
        argv = [command, "--data", str(data)]
    else:
        extra = {"output": str(out)} if where == "output" else {}
        path, _ = write_config(tmp_path, samples=10, **extra)
        argv = [command, "--config", str(path)]
        argv += ["--grid", "3"] if command == "verify" else []
    argv += [] if where == "output" else ["--out", str(out)]
    assert main(argv) == 2
    assert (f"cannot use {out} as the output directory"
            in capsys.readouterr().err)
    assert (tmp_path / "taken").read_text() == "a file"


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


@pytest.mark.parametrize("command, artifact", [
    ("check-model", "check_model.json"), ("sample", "samples.csv"),
    ("describe", "strategy.json"), ("verify", "verify.json"),
    ("metrics", "metrics.csv"), ("empirics", "table1.csv"),
    ("empirics", "ecdf_fE_Gall_a0.csv")])
def test_directory_in_artifact_place_exits_two(tmp_path, capsys, command,
                                               artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    if command == "empirics":
        data = tmp_path / "records.csv"
        data.write_text("feed,genre,angriness,favorites\n"
                        + "".join(f"E,P,{a},{a}\n" for a in range(5)))
        argv = [command, "--data", str(data)]
    else:
        path, _ = write_config(tmp_path, samples=10)
        argv = [command, "--config", str(path)]
        argv += ["--grid", "3"] if command == "verify" else []
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out / artifact}: Is a directory" in err
    assert len(err.splitlines()) == 1


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
    """``main`` parses with a cached parser holding only the named command."""

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
        # main parses an argv that starts with a command with that command's
        # parser alone
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
                 "--out", str(tmp_path)]
        # an abbreviated flag is not plain: argparse reads it
        other = ["verify", "--conf", str(path), "--grid", "3",
                 "--out", str(tmp_path)]
        try:
            assert main(plain) == 0
            assert built == []
            assert main(other) == 0
            first = list(built)
            assert main(other) == 0
        finally:
            cli.make_parser.cache_clear()
        # the top-level parser and the verify subparser, once
        assert first == ["creatorsim", "creatorsim verify"]
        assert built == first

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
    def test_all_recommenders_welfare_pattern(self, tmp_path):
        path, _ = write_config(tmp_path, recommender="all", samples=20000)
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 0
        vals = read_metrics(tmp_path / "metrics.csv")
        assert abs(vals[("uw", "engagement")]) <= 1e-9
        assert vals[("uw", "random")] == 1.0

    def test_gamma_sweep_ucq_decreasing(self, tmp_path):
        means = []
        for gamma in (0.0, 0.2, 0.4):
            sub = tmp_path / f"g{gamma}"
            sub.mkdir()
            path, _ = write_config(sub, gamma=gamma, samples=30000, seed=7)
            assert main(["metrics", "--config", str(path), "--out", str(sub)]) == 0
            means.append(read_metrics(sub / "metrics.csv")[("ucq", "engagement")])
        assert means[0] > means[1] > means[2]

    def test_type_sweep_re_comparison(self, tmp_path):
        from creatorsim import make_well_separated_types
        types = list(make_well_separated_types(8, 0.01))
        path, _ = write_config(tmp_path, types=types, recommender="all",
                               samples=30000)
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 0
        vals = read_metrics(tmp_path / "metrics.csv")
        assert vals[("re", "engagement")] < vals[("re", "investment")]

    def test_byte_identical_reruns(self, tmp_path):
        path, _ = write_config(tmp_path, recommender="all", samples=5000)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["metrics", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["metrics", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        from creatorsim import make_well_separated_types
        from creatorsim.metrics import ROUND_ROWS
        types = list(make_well_separated_types(4, 0.01))
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
            calls.append((metric.value, n))  # list.append is atomic across threads
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

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_nonpositive_threads_exits_two(self, tmp_path, capsys, threads):
        path, _ = write_config(tmp_path, samples=100)
        assert main(["metrics", "--config", str(path), "--threads", threads,
                     "--out", str(tmp_path)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("key", ["P", "seed", "samples"])
    def test_boolean_integer_field_exits_two(self, tmp_path, capsys, key):
        path, _ = write_config(tmp_path, **{"samples": 100, key: True})
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_shard_memory_error_exits_two_with_one_line(self, tmp_path,
                                                        monkeypatch, capsys):
        import threading

        import creatorsim.metrics as met

        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(met, "simulate_rounds", no_memory)
        monkeypatch.setattr(met, "_usable_cpus", lambda: 2)
        path, _ = write_config(tmp_path, samples=3 * met.ROUND_ROWS)
        out = tmp_path / "out"
        before = threading.active_count()
        assert main(["metrics", "--config", str(path), "--threads", "2",
                     "--out", str(out)]) == 2
        assert threading.active_count() == before
        assert capsys.readouterr().err.splitlines() == [
            "error: not enough memory: Unable to allocate 1.00 TiB for an array"]
        assert list(out.iterdir()) == []

    # utilities of W = 1e308 overflow to inf, with numpy's warning
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_estimate_exits_two(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, family="kmr", W=1e308,
                               recommender="all", samples=2000)
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "non-finite estimate for uw,investment" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()


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

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["empirics", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("data, message", [
        (None, "cannot read data file"),  # a directory
        (b"feed,genre,angriness,favorites\nE,P,1,\xff\n", "is not UTF-8"),
        (b"feed,genre,angriness,favorites\nE,P,1," + b"1" * 200_000 + b"\n",
         "is not readable CSV: field larger than field limit"),
    ])
    def test_unreadable_data_exits_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "records.csv"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
        assert main(["empirics", "--data", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

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

    def test_malformed_rows_exit_two(self, tmp_path, capsys):
        path = self.make_data(tmp_path, ["E,P,9,1"])
        assert main(["empirics", "--data", str(path), "--out", str(tmp_path)]) == 2
        assert "line 2" in capsys.readouterr().err


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


class TestAutoResolution:
    def test_two_type_auto_equilibrium(self, tmp_path):
        path, _ = write_config(tmp_path, types=[1.0, 2.0], samples=5000,
                               recommender="engagement")
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 0
        vals = read_metrics(tmp_path / "metrics.csv")
        assert ("uw", "engagement") in vals

import csv
import json

import numpy as np
import pytest

from creatorsim.cli import main
from creatorsim.verify import support_containment
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

    def test_mismatched_equilibrium_exits_three(self, tmp_path):
        path, _ = write_config(tmp_path, gamma=0.5, samples=8000,
                               equilibrium="investment",
                               recommender="engagement")
        assert main(["verify", "--config", str(path), "--grid", "40",
                     "--out", str(tmp_path)]) == 3

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

    def test_types_string_exits_two(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, types="12", samples=100)
        assert main(["verify", "--config", str(path), "--grid", "5",
                     "--out", str(tmp_path)]) == 2
        assert "types" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()


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

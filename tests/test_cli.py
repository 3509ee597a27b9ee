import numpy as np
import yaml

from helpers import force_infeasible
from vnfplace import oracle, repair
from vnfplace.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_SOLVE,
    main,
)
from vnfplace.model import (
    IntegralSolution,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
)
from vnfplace.gen import GeneratorConfig, generate


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def small_instance_file(tmp_path, seed=4, requests=8):
    inst = generate(GeneratorConfig(
        mec_count=3, request_count=requests,
        cpu_range=(14, 20), ram_range=(18, 26),
        uplink_capacity=40.0, downlink_capacity=130.0, seed=seed,
    ))
    path = tmp_path / "instance.yaml"
    save_instance(inst, path)
    return str(path), inst


class TestGenerate:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.yaml"
        code = main(["generate", "--seed", "3", "--output", str(out)])
        assert code == EXIT_OK
        inst = load_instance(out)
        assert inst.n_requests == 50 and inst.n_mecs == 10
        assert "seed 3" in capsys.readouterr().out

    def test_config_file_drives_generation(self, tmp_path):
        cfg = write_yaml(tmp_path / "gen.yaml",
                         {"mec_count": 4, "request_count": 6, "seed": 11})
        out = tmp_path / "inst.yaml"
        assert main(["generate", "--config", cfg, "--output", str(out)]) == EXIT_OK
        inst = load_instance(out)
        assert inst.n_mecs == 4 and inst.n_requests == 6

    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = write_yaml(tmp_path / "gen.yaml", {"request_count": 6, "seed": 11})
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        main(["generate", "--config", cfg, "--seed", "12", "--output", str(a)])
        main(["generate", "--seed", "12", "--output", str(b)])
        blob_a = a.read_text().replace(str(a), "")
        # same seed must beat the config seed; only request_count differs
        assert load_instance(a).requests == load_instance(b).requests[:6]
        assert blob_a  # file written

    def test_entropy_seed_announced_when_unset(self, tmp_path, capsys):
        out = tmp_path / "inst.yaml"
        assert main(["generate", "--output", str(out)]) == EXIT_OK
        assert "seed drawn from entropy" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "gen.yaml", {"mystery_knob": 5})
        out = tmp_path / "inst.yaml"
        assert main(["generate", "--config", cfg,
                     "--output", str(out)]) == EXIT_CONFIG

    def test_missing_config_file_exits_5(self, tmp_path):
        out = tmp_path / "inst.yaml"
        assert main(["generate", "--config", str(tmp_path / "absent.yaml"),
                     "--output", str(out)]) == EXIT_IO


class TestSolve:
    def test_lr_reports_objective(self, tmp_path, capsys):
        path, _ = small_instance_file(tmp_path)
        assert main(["solve", "--instance", path, "--scheme", "lr"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scheme: lr" in out and "objective:" in out

    def test_rr_saves_solution_and_prints_bounds(self, tmp_path, capsys):
        path, inst = small_instance_file(tmp_path)
        out_file = tmp_path / "sol.yaml"
        code = main(["solve", "--instance", path, "--scheme", "rr",
                     "--seed", "5", "--output", str(out_file)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "load ceilings" in text and "reward floor factor" in text
        sol = load_solution(out_file)
        assert isinstance(sol, IntegralSolution)
        assert sol.x.shape == (inst.n_requests, inst.n_mecs)

    def test_greedy_deterministic_given_seed(self, tmp_path):
        path, _ = small_instance_file(tmp_path)
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        for out in (a, b):
            assert main(["solve", "--instance", path, "--scheme", "greedy",
                         "--seed", "9", "--output", str(out)]) == EXIT_OK
        sa, sb = load_solution(a), load_solution(b)
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)

    def test_wo_avl_runs(self, tmp_path, capsys):
        path, _ = small_instance_file(tmp_path)
        assert main(["solve", "--instance", path, "--scheme", "wo-avl",
                     "--seed", "2"]) == EXIT_OK
        assert "scheme: wo-avl" in capsys.readouterr().out

    def test_exact_reports_nodes(self, tmp_path, capsys):
        path, _ = small_instance_file(tmp_path, requests=5)
        assert main(["solve", "--instance", path, "--scheme", "exact"]) == EXIT_OK
        assert "nodes explored:" in capsys.readouterr().out

    def test_exact_budget_exhaustion_exits_4(self, tmp_path, capsys):
        path, _ = small_instance_file(tmp_path, requests=8)
        code = main(["solve", "--instance", path, "--scheme", "exact",
                     "--max-nodes", "2"])
        assert code == EXIT_LIMIT
        assert "incumbent" in capsys.readouterr().err

    def test_missing_instance_exits_5(self, tmp_path):
        assert main(["solve", "--instance", str(tmp_path / "nope.yaml"),
                     "--scheme", "lr"]) == EXIT_IO


class TestExperiment:
    def test_writes_three_csv_files(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "exp.yaml", {
            "sweep": "requests", "request_counts": [4, 6], "runs": 2,
            "base_seed": 3, "schemes": ["lr", "greedy"],
            "generator": {"mec_count": 3, "cpu_range": [12, 18],
                          "ram_range": [16, 24], "uplink_capacity": 40.0,
                          "downlink_capacity": 120.0},
        })
        out_dir = tmp_path / "results"
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(out_dir)]) == EXIT_OK
        for name in ("summary.csv", "runs.csv", "timings.csv"):
            assert (out_dir / name).exists()

    def test_oracle_budget_abort_exits_4(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "exp.yaml", {
            "schemes": ["exact"], "request_counts": [6], "runs": 2,
            "generator": {"mec_count": 3}, "oracle_limits": {"max_nodes": 1},
        })
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_LIMIT
        err = capsys.readouterr().err
        assert "failed: node budget 1 exhausted" in err
        assert "Traceback" not in err

    def test_bad_experiment_config_exits_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "exp.yaml", {"sweep": "nonsense"})
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_CONFIG


class TestAvailsim:
    def test_round_trip_via_files(self, tmp_path, capsys):
        path, inst = small_instance_file(tmp_path, requests=6)
        sol_file = tmp_path / "sol.yaml"
        assert main(["solve", "--instance", path, "--scheme", "greedy",
                     "--seed", "1", "--output", str(sol_file)]) == EXIT_OK
        capsys.readouterr()
        csv_file = tmp_path / "avail.csv"
        code = main(["availsim", "--instance", path, "--solution", str(sol_file),
                     "--trials", "2000", "--seed", "7", "--output", str(csv_file)])
        assert code == EXIT_OK
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0].startswith("request,")
        assert len(lines) == 1 + inst.n_requests
        out = capsys.readouterr().out
        assert "aggregate delivery ratio" in out

    def test_fractional_solution_rejected(self, tmp_path, capsys):
        path, inst = small_instance_file(tmp_path, requests=5)
        sol_file = tmp_path / "frac.yaml"
        assert main(["solve", "--instance", path, "--scheme", "lr",
                     "--output", str(sol_file)]) == EXIT_OK
        code = main(["availsim", "--instance", path,
                     "--solution", str(sol_file), "--trials", "2000",
                     "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "integral" in capsys.readouterr().err


class TestPostConditionErrors:
    def test_repair_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        force_infeasible(monkeypatch, repair)
        path, _ = small_instance_file(tmp_path)
        assert main(["solve", "--instance", path, "--scheme", "greedy",
                     "--seed", "9"]) == EXIT_SOLVE
        err = capsys.readouterr().err
        assert "solver error: repair left violations" in err
        assert "Traceback" not in err

    def test_infeasible_oracle_result_exits_3(self, tmp_path, capsys, monkeypatch):
        force_infeasible(monkeypatch, oracle)
        path, _ = small_instance_file(tmp_path, requests=5)
        assert main(["solve", "--instance", path, "--scheme", "exact"]) == EXIT_SOLVE
        assert "oracle produced an infeasible solution" in capsys.readouterr().err

    def test_experiment_abort_on_repair_violation_exits_3(self, tmp_path, capsys,
                                                          monkeypatch):
        force_infeasible(monkeypatch, repair)
        cfg = write_yaml(tmp_path / "exp.yaml", {
            "schemes": ["greedy"], "request_counts": [4], "runs": 2,
            "generator": {"mec_count": 3},
        })
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_SOLVE
        assert "failed: repair left violations" in capsys.readouterr().err

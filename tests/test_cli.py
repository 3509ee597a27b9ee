import numpy as np
import pytest
import yaml

from helpers import force_infeasible
from vnfplace import cli, oracle, repair
from vnfplace.bounds import UndefinedBoundError
from vnfplace.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_SOLVE,
    main,
)
from vnfplace.lp import IterationLimitError, SimplexError
from vnfplace.model import (
    InfeasibleSolutionError,
    IntegralSolution,
    InvalidModelError,
    VnfplaceError,
    load_instance,
    load_solution,
    save_instance,
)
from vnfplace.oracle import OracleLimitError
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

    def test_unknown_keys_of_mixed_types_are_named(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "gen.yaml", {1: "x", "foo": "y"})
        assert main(["generate", "--config", cfg,
                     "--output", str(tmp_path / "inst.yaml")]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: unknown generator config keys: [1, 'foo']\n"

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
        err = capsys.readouterr().err
        assert "incumbent" in err
        assert "upper bound" in err and "after 3 nodes" in err

    @pytest.mark.parametrize("part,index,key,value,message", [
        ("requests", 1, "reward", float("nan"), "request 1: reward"),
        ("requests", 1, "reward", float("inf"), "request 1: reward"),
        ("requests", 0, "ram_demand", float("nan"), "request 0: ram demand"),
        ("mecs", 2, "uplink_capacity", float("inf"), "mec 2: uplink capacity"),
    ])
    def test_nonfinite_instance_number_exits_2(self, tmp_path, capsys, part, index, key,
                                               value, message):
        path, _ = small_instance_file(tmp_path)
        data = yaml.safe_load((tmp_path / "instance.yaml").read_text())
        data[part][index][key] = value
        write_yaml(tmp_path / "instance.yaml", data)
        code = main(["solve", "--instance", path, "--scheme", "greedy", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("part,index,key,value,message", [
        ("mecs", 1, "id", True, "mec True: id must be an int, got bool"),
        ("mecs", 2, "cpu_capacity", True, "mec 2: cpu_capacity must be a number, got bool"),
        ("requests", 1, "reward", True, "request 1: reward must be a number, got bool"),
        ("requests", 0, "cpu_demand", "5", "request 0: cpu_demand must be a number, got str"),
        ("failure_model", None, "pm_failure", "0.004",
         "failure model: pm_failure must be a number, got str"),
        ("requests", 0, "upf_chain", [1, 2],
         "request 0: upf_chain must be a list of strs, got a list holding int"),
        ("requests", 0, "upf_chain", 5, "request 0: upf_chain must be a list of strs, got int"),
    ])
    def test_instance_value_of_another_type_exits_2(self, tmp_path, capsys, part, index, key,
                                                    value, message):
        path, _ = small_instance_file(tmp_path)
        data = yaml.safe_load((tmp_path / "instance.yaml").read_text())
        (data[part] if index is None else data[part][index])[key] = value
        write_yaml(tmp_path / "instance.yaml", data)
        code = main(["solve", "--instance", path, "--scheme", "greedy", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(notes="x"), "unknown instance document keys: ['notes']"),
        (lambda doc: doc["mecs"][0].update(colour="red"),
         "mec 0: MecNode.__init__() got an unexpected keyword argument 'colour'"),
        (lambda doc: doc["mecs"][1].pop("ram_capacity"),
         "mec 1: MecNode.__init__() missing 1 required positional argument: 'ram_capacity'"),
        (lambda doc: doc["requests"].__setitem__(2, 7), "request 2 must be a mapping"),
    ], ids=["top-level key", "record key", "missing key", "record not a mapping"])
    def test_malformed_instance_names_the_key_or_record(self, tmp_path, capsys, edit,
                                                         message):
        path, _ = small_instance_file(tmp_path)
        data = yaml.safe_load((tmp_path / "instance.yaml").read_text())
        edit(data)
        write_yaml(tmp_path / "instance.yaml", data)
        code = main(["solve", "--instance", path, "--scheme", "greedy", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("key", ["mecs", "requests"])
    @pytest.mark.parametrize("value,kind", [(5, "int"), ({"a": 1}, "dict")])
    def test_record_list_of_another_type_exits_2(self, tmp_path, capsys, key, value, kind):
        path, _ = small_instance_file(tmp_path)
        data = yaml.safe_load((tmp_path / "instance.yaml").read_text())
        data[key] = value
        write_yaml(tmp_path / "instance.yaml", data)
        code = main(["solve", "--instance", path, "--scheme", "greedy", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key} must be a list, got {kind}\n"

    @pytest.mark.parametrize("scheme", ["greedy", "exact"])
    def test_instance_without_mecs_exits_2(self, tmp_path, capsys, scheme):
        path, _ = small_instance_file(tmp_path)
        data = yaml.safe_load((tmp_path / "instance.yaml").read_text())
        data["mecs"] = []
        write_yaml(tmp_path / "instance.yaml", data)
        code = main(["solve", "--instance", path, "--scheme", scheme, "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "at least one mec" in capsys.readouterr().err

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
            "generator": {"mec_count": 3}, "oracle_max_nodes": 1,
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

    @pytest.mark.parametrize("max_nodes", [None, 0], ids=["null", "zero_nodes"])
    def test_bad_oracle_limits_exit_2(self, tmp_path, capsys, max_nodes):
        cfg = write_yaml(tmp_path / "exp.yaml", {"schemes": ["lr"], "request_counts": [6],
                                                 "runs": 2, "oracle_max_nodes": max_nodes})
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "oracle_max_nodes" in err

    @pytest.mark.parametrize("sweep,message", [
        ({"sweep": "ram", "sweep_values": [48, 0]}, "sweep point 0: ram_range: bad range"),
        ({"request_counts": [12.7]}, "sweep point 12.7: request_count must hold whole"),
        ({"sweep": "cpu", "sweep_values": [24.5, 40]},
         "sweep point 24.5: cpu_range must hold whole"),
        # the template is checked as it is read, before any point
        ({"request_counts": [5], "generator": {"cpu_range": [32.9, 33.9]}},
         "cpu_range must hold whole"),
        ({"request_counts": [0, 5], "schemes": ["rr"]}, "sweep point 0: no requests"),
    ], ids=["swept_value", "fractional_request_count", "fractional_cpu_value",
            "fractional_template_range", "no_requests"])
    def test_bad_sweep_point_exits_2_before_any_run(self, tmp_path, capsys, sweep, message):
        cfg = write_yaml(tmp_path / "exp.yaml", {"schemes": ["lr"], "runs": 2, **sweep})
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command,data,message", [
        ("experiment", {"runs": "5"}, "experiment config key 'runs' must be an int, got str"),
        ("generate", {"cpu_range": 40},
         "generator config key 'cpu_range' must be a list of numbers, got int"),
        ("generate", {"cpu_range": [40]},
         "cpu_range must hold exactly two values (low, high), got (40,)"),
        ("experiment", {"generator": {"reward_base_range": [6.0]}},
         "reward_base_range must hold exactly two values (low, high), got (6.0,)"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, command, data, message):
        cfg = write_yaml(tmp_path / "cfg.yaml", data)
        out = ["--output-dir", str(tmp_path / "r")] if command == "experiment" else [
            "--output", str(tmp_path / "i.yaml")]
        assert main([command, "--config", cfg, *out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("data,message", [
        ({"schemes": ["lr", "lr", "greedy"]}, "scheme 'lr' is repeated"),
        ({"sweep": "cpu", "sweep_values": [24, 24]}, "sweep point 24 is repeated"),
    ], ids=["scheme", "sweep_point"])
    def test_repeated_scheme_or_point_exits_2(self, tmp_path, capsys, data, message):
        cfg = write_yaml(tmp_path / "exp.yaml", {"runs": 2, "request_counts": [6], **data})
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_exact_on_oversized_instances_exits_2(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "exp.yaml", {
            "schemes": ["lr", "exact"], "request_counts": [6], "runs": 2,
        })
        assert main(["experiment", "--config", cfg,
                     "--output-dir", str(tmp_path / "r")]) == EXIT_CONFIG
        assert "no sweep point fits" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


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

    def test_integral_entry_other_than_0_or_1_exits_2(self, tmp_path, capsys):
        path, inst = small_instance_file(tmp_path, requests=5)
        sol_file = tmp_path / "bad.yaml"
        sol_file.write_text(yaml.safe_dump({
            "version": 1, "kind": "integral", "x": [[300] * inst.n_mecs] * inst.n_requests,
            "y": [1] * inst.n_requests}))
        code = main(["availsim", "--instance", path, "--solution", str(sol_file),
                     "--trials", "2000", "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


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


class TestErrorHierarchy:
    @pytest.mark.parametrize("error,builtin,code,prefix", [
        (SimplexError("stalled"), RuntimeError, EXIT_SOLVE, "solver error"),
        (IterationLimitError("stalled"), RuntimeError, EXIT_SOLVE, "solver error"),
        (InfeasibleSolutionError("overloaded"), RuntimeError, EXIT_SOLVE, "solver error"),
        (OracleLimitError("budget spent", None, 1.0, 2.0, 10), RuntimeError, EXIT_LIMIT,
         "error"),
        (InvalidModelError("bad eps"), ValueError, EXIT_CONFIG, "config error"),
        (UndefinedBoundError("no load"), ValueError, EXIT_CONFIG, "config error"),
    ])
    def test_each_class_maps_to_its_exit_code(self, tmp_path, capsys, monkeypatch,
                                             error, builtin, code, prefix):
        assert isinstance(error, VnfplaceError) and isinstance(error, builtin)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_schemes", fail)
        path, _ = small_instance_file(tmp_path, requests=4)
        assert main(["solve", "--instance", path, "--scheme", "lr"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}: {error}") and "Traceback" not in err

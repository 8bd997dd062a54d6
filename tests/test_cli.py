"""Command-line interface: parsing, artifacts, exit codes."""

import json
import math

import numpy as np
import pytest

import sfwitness.bisep as bisep
from sfwitness import (DensityMatrix, InputError, ResourceError, StateVector,
                       UnsupportedCaseError, from_json, make_dicke, to_json)
from sfwitness.cli import (EXIT_CHECK_FAILURE, EXIT_INPUT, EXIT_OK,
                           EXIT_RESOURCE, EXIT_UNSUPPORTED, RunConfig,
                           exit_code_for, main, parse_angle, parse_args,
                           parse_state, run)


def run_cli(argv, capsys):
    code = run(parse_args(argv))
    return code, capsys.readouterr().out


class TestParseAngle:
    @pytest.mark.parametrize("token, expected", [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/4", math.pi / 4),
        ("3pi/2", 3 * math.pi / 2),
        ("2pi", 2 * math.pi),
        ("0.75", 0.75),
        ("0", 0.0),
    ])
    def test_tokens(self, token, expected):
        assert parse_angle(token) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_angle("tau")


class TestParseState:
    def test_builtins(self):
        assert parse_state("dicke:4,2").n_qubits == 4
        assert parse_state("phased-dicke:6,3").n_qubits == 6
        assert parse_state("basis:0101").n_qubits == 4
        assert parse_state("ghz-superposition:pi/3,+").n_qubits == 4
        assert parse_state("dicke-ghz-superposition:pi/4,-").n_qubits == 4

    def test_product_returns_density(self):
        state = parse_state("product:0,0,1;1,0,0")
        assert isinstance(state, DensityMatrix)
        assert state.n_qubits == 2

    def test_file_source(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(to_json(make_dicke(3, 1)))
        loaded = parse_state(str(path))
        assert isinstance(loaded, StateVector)
        assert np.allclose(loaded.amplitudes, make_dicke(3, 1).amplitudes)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            parse_state("bell:2")

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            parse_state("dicke:4")

    @pytest.mark.parametrize("command", ["eval", "scan", "robustness", "sample"])
    def test_state_built_once_per_invocation(self, command, monkeypatch, capsys):
        import sfwitness.cli as cli
        calls = []
        original = cli.parse_state
        monkeypatch.setattr(cli, "parse_state",
                            lambda source: calls.append(source) or original(source))
        argv = [command, "--state", "dicke:4,2", "--k", "pi"]
        if command == "scan":
            argv += ["--k-grid", "0,pi"]
        if command == "sample":
            argv += ["--shot-grid", "10"]
        config = parse_args(argv)
        assert config.state.n_qubits == 4
        assert run(config) == EXIT_OK
        assert calls == ["dicke:4,2"]


class TestEval:
    def test_dicke_text(self, capsys):
        code, out = run_cli(["eval", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1"], capsys)
        assert code == EXIT_OK
        assert "5/3" in out
        assert "-2/3" in out
        assert "yes" in out

    def test_json_format(self, capsys):
        code, out = run_cli(["eval", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["sigma"] == pytest.approx(5 / 3)
        assert payload["witness"] == pytest.approx(-2 / 3)
        assert payload["detected"] is True

    @pytest.mark.parametrize("family", ["ghz-superposition", "dicke-ghz-superposition"])
    @pytest.mark.parametrize("short, numeric", [("+", "+1"), ("-", "-1")])
    def test_numeric_sign_token(self, family, short, numeric, capsys):
        outputs = [run_cli(["eval", "--state", f"{family}:pi/3,{sign}"], capsys)
                   for sign in (short, numeric)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK

    def test_bad_sign_exits_input(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["eval", "--state", "ghz-superposition:pi/3,x"])
        assert exc_info.value.code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: sign must be +1/-1 or '+'/'-', got 'x'\n")

    def test_product_state_source(self, capsys):
        code, out = run_cli(["eval", "--state", "product:0,0,1;0,0,1", "--k", "0",
                             "--c", "0,0,1", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["sigma"] == pytest.approx(1.0)

    def test_correlator_table(self, capsys):
        code, out = run_cli(["eval", "--state", "dicke:3,1", "--correlators"],
                            capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,alpha,beta,value"
        assert len(lines) == 1 + 3 * 9  # three pairs, nine axis combinations

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_correlator_table_is_the_text_and_csv_form(self, fmt, capsys):
        argv = ["eval", "--state", "phased-dicke:4,2", "--correlators"]
        _, table = run_cli(argv, capsys)
        _, out = run_cli([*argv, "--format", fmt], capsys)
        assert out == table

    def test_correlator_json_records(self, capsys):
        argv = ["eval", "--state", "phased-dicke:4,2", "--correlators"]
        _, table = run_cli(argv, capsys)
        code, out = run_cli([*argv, "--format", "json"], capsys)
        assert code == EXIT_OK
        records = json.loads(out)
        rows = [line.split(",") for line in table.strip().splitlines()[1:]]
        assert len(records) == len(rows) == 6 * 9
        for record, (i, j, alpha, beta, value) in zip(records, rows):
            assert set(record) == {"i", "j", "alpha", "beta", "value"}
            assert (record["i"], record["j"]) == (int(i), int(j))
            assert (record["alpha"], record["beta"]) == (alpha, beta)
            assert record["value"] == float(value)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, _ = run_cli(["eval", "--state", "dicke:4,2", "--k", "0",
                           "--c", "1,1,-1", "--format", "json",
                           "--output", str(target)], capsys)
        assert code == EXIT_OK
        assert json.loads(target.read_text())["sigma"] == pytest.approx(5 / 3)


class TestScan:
    def test_csv_grid(self, capsys):
        code, out = run_cli(["scan", "--state", "dicke:4,2", "--c", "1,1,-1",
                             "--k-grid", "0,pi/2,pi"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "k,sigma,witness"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(5 / 3)

    def test_linspace_grid(self, capsys):
        code, out = run_cli(["scan", "--state", "dicke:4,2", "--c", "1,1,-1",
                             "--k-grid", "0:pi:5"], capsys)
        assert len(out.strip().splitlines()) == 6


class TestRobustness:
    def test_phased_six(self, capsys):
        code, out = run_cli(["robustness", "--state", "phased-dicke:6,3",
                             "--k", "pi", "--c", "1,1,1"], capsys)
        assert code == EXIT_OK
        assert "6/31" in out
        assert "0.10197" in out

    def test_csv_row(self, capsys):
        code, out = run_cli(["robustness", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1", "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "state_id,spec,p_star,q_star"
        assert "dicke:4,2" in lines[1]


class TestBisepBound:
    def test_json_artifact(self, capsys):
        code, out = run_cli(["bisep-bound", "--n-qubits", "4", "--k", "pi",
                             "--c", "1,1,1", "--restarts", "25",
                             "--format", "json", "--seed", "0"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bound"] == pytest.approx(1.187, abs=0.01)
        assert payload["restarts_used"] == 25
        factor = from_json(json.dumps(payload["best_state"][0]))
        assert factor.n_qubits == len(payload["best_cut"]["part_a"])
        # the best cut (1)|(2,3,4) stands for its k = pi orbit of four cuts
        assert payload["best_cut"] == {"part_a": [1], "part_b": [2, 3, 4]}
        assert payload["orbit_size"] == 4


class TestSample:
    def test_csv_curve(self, capsys):
        code, out = run_cli(["sample", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1", "--shot-grid", "100,1000",
                             "--seed", "1"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "shots,estimate,std_error"
        assert len(lines) == 3

    def test_rejects_density_state(self, capsys):
        code = run(parse_args(["sample", "--state", "product:0,0,1;0,0,1",
                               "--k", "0", "--c", "1,1,1"]))
        assert code == EXIT_INPUT


class TestSeedHandling:
    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SFWITNESS_SEED", "123")
        config = parse_args(["sample", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1"])
        assert config.seed == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("SFWITNESS_SEED", "123")
        config = parse_args(["sample", "--state", "dicke:4,2", "--k", "0",
                             "--c", "1,1,-1", "--seed", "7"])
        assert config.seed == 7


class TestExitCodes:
    def test_input_error(self, capsys):
        # the bad state name surfaces while parsing, so go through main()
        with pytest.raises(SystemExit) as exc_info:
            main(["eval", "--state", "nonsense:1", "--k", "0", "--c", "1,1,1"])
        assert exc_info.value.code == EXIT_INPUT

    @pytest.mark.parametrize("argv, env_seed, expected", [
        (["eval", "--state", "dicke:4,2", "--c", "a,b,c"], None, EXIT_INPUT),
        (["scan", "--state", "dicke:4,2", "--k-grid", "0:pi:x"], None, EXIT_INPUT),
        (["sample", "--state", "dicke:4,2", "--shot-grid", "1e3"], None, EXIT_INPUT),
        (["sample", "--state", "dicke:4,2", "--shot-grid", "100000000000000000000"], None,
         EXIT_INPUT),
        (["eval", "--state", "dicke:4,2", "--positions", "0,1,x,3"], None, EXIT_INPUT),
        (["eval", "--state", "dicke:4,2"], "abc", EXIT_INPUT),
        (["eval", "--state", "basis:" + "0" * 41], None, EXIT_RESOURCE),
        (["eval", "--state", ""], None, EXIT_INPUT),
    ], ids=["c", "k-grid", "shot-grid", "shot-count-overflow", "positions", "seed-env",
            "basis-cap", "empty-state"])
    def test_bad_values_exit_typed(self, argv, env_seed, expected, monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("SFWITNESS_SEED", env_seed)
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == expected
        assert capsys.readouterr().err.startswith("error: ")

    def test_k_grid_count_capped_before_allocation(self, monkeypatch, capsys):
        import sfwitness.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linspace ran on an uncapped count")

        monkeypatch.setattr(cli.np, "linspace", forbidden)
        with pytest.raises(SystemExit) as exc_info:
            main(["scan", "--state", "dicke:4,2",
                  "--k-grid", f"0:pi:{cli.K_GRID_MAX_POINTS + 1}"])
        assert exc_info.value.code == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("error: --k-grid asks for")

    def test_k_grid_count_at_cap_accepted(self):
        import sfwitness.cli as cli
        args = parse_args(["scan", "--state", "dicke:2,1",
                           "--k-grid", f"0:pi:{cli.K_GRID_MAX_POINTS}"])
        assert len(args.k_grid) == cli.K_GRID_MAX_POINTS

    def test_unreadable_state_path_exits_input(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["eval", "--state", str(tmp_path)])
        assert exc_info.value.code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: cannot read state file")

    def test_unwritable_output_exits_input(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        code = run(parse_args(["eval", "--state", "dicke:4,2", "--output", str(target)]))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_seesaw_tol_exits_input(self, tol, capsys):
        code = run(parse_args(["bisep-bound", "--n-qubits", "3", "--k", "pi",
                               "--restarts", "1", "--tol", tol]))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ["bisep-bound", "--n-qubits", "3"],
        ["reproduce-paper"],
    ], ids=["bisep-bound", "reproduce-paper"])
    def test_csv_format_rejected_where_unsupported(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            parse_args([*command, "--format", "csv"])
        assert exc_info.value.code == EXIT_INPUT
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_resource_error(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the see-saw ran above the cap")

        monkeypatch.setattr(bisep, "_best_run", forbidden)
        code = run(parse_args(["bisep-bound", "--n-qubits", "13", "--k", "pi",
                               "--c", "1,1,1", "--restarts", "1"]))
        assert code == EXIT_RESOURCE
        assert "OPERATOR_MAX_QUBITS" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc_info:
            main(["bisep-bound", "--n-qubits", "13"])
        assert exc_info.value.code == EXIT_RESOURCE

    def test_mapping_covers_unsupported_case(self):
        assert exit_code_for(InputError("x")) == EXIT_INPUT
        assert exit_code_for(ResourceError("x")) == EXIT_RESOURCE
        assert exit_code_for(UnsupportedCaseError("x")) == EXIT_UNSUPPORTED

    def test_unexpected_exception_propagates(self):
        with pytest.raises(KeyError):
            exit_code_for(KeyError("x"))


class TestReproduceCommand:
    def test_quick_run_reports_known_red_check(self, capsys):
        code, out = run_cli(["reproduce-paper", "--restarts", "20",
                             "--shots", "20000", "--product-samples", "300",
                             "--format", "json", "--seed", "0"], capsys)
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["01_dicke_sigma_closed_form"]["passed"]
        assert by_name["03b_phased_dicke_xyz_values"]["passed"]
        assert by_name["07a_ghz_superposition_boundary"]["passed"]
        assert by_name["08a_collective_thresholds"]["passed"]
        assert by_name["10_bisep_bound_4"]["passed"]
        # the reference Dicke-GHZ window boundary is not reproducible from
        # the defined family; direct evaluation places it at pi/6
        assert not by_name["07b_dicke_ghz_superposition_boundary"]["passed"]
        assert code == EXIT_CHECK_FAILURE
        assert not payload["all_passed"]

    @pytest.mark.parametrize("option, value", [
        ("--product-samples", "0"), ("--shots", "999"), ("--restarts", "0"),
        ("--seed", "-1"),
    ], ids=["product-samples", "shots", "restarts", "seed"])
    def test_bad_battery_size_exits_before_any_check(self, option, value,
                                                     monkeypatch, capsys):
        import sfwitness.reports as reports

        def forbidden(*args):
            raise AssertionError("a reference check ran")

        monkeypatch.setattr(reports, "_check_dicke_closed_forms", forbidden)
        code, out = run_cli(["reproduce-paper", option, value], capsys)
        assert (code, out) == (EXIT_INPUT, "")

    def test_defaults_namespace(self):
        # the benchmark reads the reproduce-paper shot count through RunConfig
        defaults = RunConfig("reproduce-paper")
        assert (defaults.shots, defaults.product_samples) == (10 ** 6, 10 ** 4)

    def test_seed_deterministic(self, capsys):
        # everything but the wall times (`seconds`) repeats
        argv = ["reproduce-paper", "--restarts", "8", "--shots", "2000",
                "--product-samples", "50", "--format", "json", "--seed", "5"]

        def untimed():
            payload = json.loads(run_cli(argv, capsys)[1])
            for check in payload["checks"]:
                del check["seconds"]
            return payload

        assert untimed() == untimed()

    def test_json_times_each_check_and_text_does_not(self, capsys):
        argv = ["reproduce-paper", "--restarts", "8", "--shots", "2000",
                "--product-samples", "50", "--seed", "5"]
        code, text = run_cli(argv, capsys)
        _, out = run_cli([*argv, "--format", "json"], capsys)
        checks = json.loads(out)["checks"]
        assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0.0 for c in checks)
        lines = [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: value={c['value']} "
                 f"expected={c['expected']}" + (f"  ({c['detail']})" if c["detail"] else "")
                 for c in checks]
        passed = sum(c["passed"] for c in checks)
        summary = f"{passed}/{len(checks)} checks passed\n"
        assert text == "".join(line + "\n" for line in lines) + summary
        assert code == EXIT_CHECK_FAILURE

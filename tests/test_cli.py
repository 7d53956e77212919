import subprocess
import sys

import pytest
from click.testing import CliRunner

import zonec.cli as cli_module
from zonec.cli import cli
from zonec.cost import REPORT_KEYS, format_value, run
from zonec.frontend import CHAINS, BenchmarkSpec, gen_ghz
from zonec.rewrite import MODES


@pytest.fixture
def runner():
    return CliRunner()


class TestCompile:
    def test_ghz_x_basis_zero_ld_st(self, runner):
        r = runner.invoke(
            cli, ["compile", "--bench", "ghz:80:fountain", "--mode", "mantra",
                  "--x-basis"]
        )
        assert r.exit_code == 0
        assert "ld_st = 0" in r.stdout

    def test_ucc_mantra_forty(self, runner):
        r = runner.invoke(
            cli, ["compile", "--bench", "ucc:15:10", "--seed", "10",
                  "--mode", "mantra"]
        )
        assert r.exit_code == 0
        assert "ld_st = 40" in r.stdout

    def test_missing_input_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "compile"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error" in proc.stderr

    def test_gate_counts_printed(self, runner):
        r = runner.invoke(cli, ["compile", "--bench", "ghz:40:path",
                                "--mode", "standard"])
        assert "n_1q = 79" in r.stdout
        assert "n_2q = 39" in r.stdout
        assert "n_physical = 826" in r.stdout

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("swaps, slots", [
        ("swap q[0],q[2];\n", "slots = 2,1,0\n"),
        ("swap q[0],q[2];\nswap q[2],q[0];\n", None),  # the SWAPs cancel
        ("", None),
    ])
    def test_swap_relabelling_is_reported(self, runner, tmp_path, mode, swaps, slots):
        # The relabelled program runs CZ(0,1) for `cx q[2],q[1]`; the slots
        # line says where each written qubit's state ends.
        path = tmp_path / "swap.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[3];\nh q[0];\n" + swaps + "cx q[2],q[1];\n")
        human = runner.invoke(cli, ["compile", "--qasm", str(path), "--mode", mode])
        steps = runner.invoke(cli, ["compile", "--qasm", str(path), "--mode", mode,
                                    "--format", "steps"])
        assert human.exit_code == steps.exit_code == 0
        lines = human.stdout.splitlines(keepends=True)
        assert [ln for ln in lines if ln.startswith("slots")] == ([slots] if slots else [])
        assert "slots" not in steps.stdout
        if slots:
            assert "CZ(0,1)" in human.stdout


class TestSimulate:
    def test_ghz_path_standard_counts(self, runner):
        r = runner.invoke(
            cli, ["simulate", "--bench", "ghz:40:path", "--mode", "standard"]
        )
        assert r.exit_code == 0
        assert "loads = 39" in r.stdout
        assert "stores = 39" in r.stdout

    def test_deterministic_reruns(self, runner):
        args = ["simulate", "--bench", "qaoa-sk:6:2", "--seed", "9"]
        a = runner.invoke(cli, args)
        b = runner.invoke(cli, args)
        assert a.stdout == b.stdout and a.exit_code == 0

    def test_csv_format(self, runner):
        r = runner.invoke(
            cli, ["simulate", "--bench", "ghz:4:fountain", "--format", "csv"]
        )
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("load_store_us,")

    def test_config_file_respected(self, runner, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("readout_time_us = 900\n")
        r = runner.invoke(
            cli, ["simulate", "--bench", "ghz:4:fountain", "--config", str(cfg)]
        )
        assert "readout_us = 900.000000" in r.stdout

    @pytest.mark.parametrize("line", [
        "pulse_2q_us = nan", "readout_time_us = inf", "xtalk_cz = nan",
        "array_rows = 0", "physical_per_logical = 1", "x_basis_allowed = true",
        "xtalk_1q = 1.5",
    ])
    def test_bad_config_exit_code(self, runner, tmp_path, line):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(line + "\n")
        r = runner.invoke(
            cli, ["simulate", "--bench", "ghz:4:fountain", "--config", str(cfg)]
        )
        assert r.exit_code == 2
        assert r.stdout == ""

    @pytest.mark.parametrize("line, key", [("array_rows = 2.0", "array_rows"),
                                           ("policy = foo", "policy")])
    def test_bad_config_value_names_line_and_key(self, runner, tmp_path, line, key):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(line + "\n")
        r = runner.invoke(cli, ["simulate", "--bench", "ghz:4", "--config", str(cfg)])
        assert r.exit_code == 2
        assert f"line 1: bad value for '{key}'" in r.stderr

    @pytest.mark.parametrize("line", ["aod_speed_um_per_us = 1e-320",
                                      "trap_transfer_time_us = 1e308",
                                      "pulse_2q_us = 1e308", "zone_gap_um = 1e308"])
    def test_overflowing_schedule_is_input_error(self, runner, tmp_path, line):
        # Each value is finite, but the clock overflows to inf, and inf - inf
        # in the per-zone times once printed fidelity = nan with exit 0.
        cfg = tmp_path / "m.cfg"
        cfg.write_text(line + "\n")
        r = runner.invoke(cli, ["simulate", "--bench", "ghz:4", "--config", str(cfg)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == ("error: makespan is not finite (inf us): the machine "
                            "config's times overflow\n")
        r = runner.invoke(cli, ["sweep", "--bench", "ghz:{n}", "--axis", "n=4",
                                "--config", str(cfg)])
        assert r.exit_code == 0
        failed = ",".join(["4", "mantra"] + ["failed"] * len(REPORT_KEYS))
        assert r.stdout.splitlines()[1:] == [failed]

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    @pytest.mark.parametrize("mode", MODES)
    def test_gate_after_measure_is_input_error(self, runner, tmp_path, command, mode):
        path = tmp_path / "late.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
                        "measure q[0] -> c[0];\nh q[0];\ncx q[0],q[1];\n")
        r = runner.invoke(cli, [command, "--qasm", str(path), "--mode", mode])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "H on qubit 0 after its MEASURE" in r.stderr

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("body, late", [
        ("h q[0];\nmeasure q[0] -> c[0];\nh q[0];\nh q[0];\n", "H on qubit 0"),
        ("measure q[0] -> c[0];\ncx q[1],q[0];\nrz(0.3) q[0];\ncx q[1],q[0];\n",
         "CX on qubit 0"),
        ("measure q[0] -> c[0];\nswap q[0],q[1];\nh q[1];\n", "SWAP on qubit 0"),
    ])
    def test_readout_verdict_of_the_written_program(self, runner, tmp_path, command, mode,
                                                    body, late):
        # Mantra cancels the H pair and folds the idiom into AD and LP, and
        # both modes relabel the SWAP away; the verdict and the named gate
        # are still the written program's.
        path = tmp_path / "late.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n" + body)
        r = runner.invoke(cli, [command, "--qasm", str(path), "--mode", mode])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error: {late} after its MEASURE; readout is terminal\n"

    def test_capacity_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "simulate", "--bench",
             "ghz:121:path", "--mode", "standard"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3

    def test_bad_benchmark_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "simulate", "--bench", "nope:4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("bench", ["ghz:0", "ghz:-3", "ucc:4:-1"])
    def test_nonpositive_qubit_count_is_input_error(self, runner, bench):
        r = runner.invoke(cli, ["simulate", "--bench", bench])
        assert r.exit_code == 2
        assert r.stdout == ""

    @pytest.mark.parametrize("bench, field", [
        ("ucc:4:x", "term count 'x'"),
        ("ghz:x", "qubit count 'x'"),
        ("qaoa-sk:4:1.5", "layer count '1.5'"),
        ("po:4:100000000", "above the cap"),
        ("ucc:4:100000000", "above the cap"),
    ])
    def test_malformed_or_oversized_spec_is_input_error(self, runner, bench, field):
        r = runner.invoke(cli, ["simulate", "--bench", bench])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert field in r.stderr

    @pytest.mark.parametrize("flag,text", [
        ("--pauli", "qubits\nXZ 0.5\n"),
        ("--pauli", "qubits 0\n"),
        ("--pauli", "qubits 2\nXZ nan\n"),
        ("--qasm", "OPENQASM 2.0;\nqreg q[1];\nrz(1e999) q[0];\n"),
        ("--qasm", "OPENQASM 2.0;\nqreg q[1];\nrz(9**9**9) q[0];\n"),
    ])
    def test_bad_input_exit_code(self, tmp_path, flag, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "simulate", flag, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_policy_flag(self, runner):
        r = runner.invoke(
            cli, ["simulate", "--bench", "ucc:5:5", "--mode", "standard",
                  "--policy", "type2"]
        )
        assert r.exit_code == 0
        assert "loads = 1" in r.stdout

    @pytest.mark.parametrize("policy", ["type1", "type2", "type3"])
    @pytest.mark.parametrize("bench", ["ghz:8:parallel", "ucc:6:4", "qaoa-sk:6:1"])
    def test_cphase_protocol_only_relabels_the_pulses(self, runner, bench, policy):
        # LP+CPHASE and AD+LP are two 2Q pulses on one pair either way, so
        # the record and the event timeline are byte-identical.
        def run(protocol):
            r = runner.invoke(cli, ["simulate", "--bench", bench, "--policy", policy,
                                    "--protocol", protocol, "--events"])
            assert r.exit_code == 0, r.output
            return r.stdout

        assert run("cphase") == run("adiabatic")


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["simulate", "compile"])
    @pytest.mark.parametrize("flag", ["--qasm", "--pauli"])
    def test_directory_is_input_error(self, runner, tmp_path, command, flag):
        r = runner.invoke(cli, [command, flag, str(tmp_path)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)  # not an uncaught OSError
        assert r.stdout == ""


class TestExitCodeMap:
    """Each failure exits with one code whichever subcommand meets it:
    1 usage, 2 input, 3 capacity, with nothing on stdout. Cases other tests
    already run per command are not repeated here: simulate's bad config
    (TestSimulate), a directory input (TestUnreadableInput) and an oversized
    input (TestCapacityBeforeBuild)."""

    SWEEP = ["--bench", "ghz:{n}", "--axis", "n=4"]

    @pytest.mark.parametrize("command, inputs", [
        ("compile", ["--bench", "ghz:4"]), ("sweep", SWEEP),
    ])
    def test_bad_config(self, runner, tmp_path, command, inputs):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("pulse_2q_us = nan\n")
        r = runner.invoke(cli, [command, *inputs, "--config", str(cfg)])
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == "error: line 1: pulse_2q_us must be finite\n"

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    @pytest.mark.parametrize("inputs", [[], ["--bench", "ghz:4", "--qasm", "x.qasm"]])
    def test_not_one_input(self, runner, command, inputs):
        r = runner.invoke(cli, [command, *inputs])
        assert (r.exit_code, r.stdout) == (1, "")

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    @pytest.mark.parametrize("spec", ["ghz:4:star", "ucc:4:x"])
    def test_bad_spec(self, runner, command, spec):
        r = runner.invoke(cli, [command, "--bench", spec])
        assert (r.exit_code, r.stdout) == (2, "")

    @pytest.mark.parametrize("command, inputs", [
        ("compile", ["--bench", "ghz:4"]), ("simulate", ["--bench", "ucc:4:2"]),
        ("sweep", SWEEP),
    ])
    def test_negative_seed_is_usage_error(self, monkeypatch, capsys, command, inputs):
        # The message names the option, not the generator that would fail.
        monkeypatch.setattr(sys, "argv", ["zonec", command, *inputs, "--seed", "-1"])
        with pytest.raises(SystemExit) as exc:
            cli_module.main()
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "'--seed'" in err

    def test_sweep_unknown_mode(self, runner):
        r = runner.invoke(cli, ["sweep", *self.SWEEP, "--modes", "mantra,fast"])
        assert (r.exit_code, r.stdout) == (1, "")
        assert "unknown mode 'fast'" in r.stderr

    @pytest.mark.parametrize("args, message", [
        # Each would give a CSV that says nothing: one spec repeated for
        # every point, a column of failed points, or no rows at all.
        (["--bench", "ghz:4", "--axis", "n=4,8"], "--bench template has no {n} placeholder"),
        (["--bench", "ghz:{n}", "--axis", "=4"], "axis '=4' must look like name=v1,v2,..."),
        (["--bench", "ghz:{n}", "--axis", "n=,"], "axis 'n=,' must look like name=v1,v2,..."),
        (["--bench", "ghz:{n}", "--axis", "n"], "axis 'n' must look like name=v1,v2,..."),
        ([*SWEEP, "--modes", ","], "--modes names no mode"),
    ])
    def test_sweep_usage_error(self, runner, args, message):
        r = runner.invoke(cli, ["sweep", *args])
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr == f"error: {message}\n"


class TestSweep:
    def test_csv_shape_and_order(self, runner):
        r = runner.invoke(
            cli, ["sweep", "--bench", "ghz:{n}:path", "--axis", "n=4,6,8",
                  "--modes", "standard"]
        )
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("n,mode,")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "6", "8"]

    def test_mode_comparison_rows(self, runner):
        r = runner.invoke(
            cli, ["sweep", "--bench", "ucc:{n}:10", "--axis", "n=5,10",
                  "--modes", "mantra,standard", "--seed", "10"]
        )
        lines = r.stdout.strip().splitlines()[1:]
        mantra = {ln.split(",")[0]: ln for ln in lines if ln.split(",")[1] == "mantra"}
        header = r.stdout.splitlines()[0].split(",")
        li, si = header.index("loads"), header.index("stores")
        for n in ("5", "10"):
            assert int(mantra[n].split(",")[li]) + int(mantra[n].split(",")[si]) == 40

    def test_chain_axis_rows_equal_each_chains_run(self, runner):
        # One sweep compares the GHZ chain shapes, each row as its own run.
        r = runner.invoke(
            cli, ["sweep", "--bench", "ghz:8:{chain}", "--axis", "chain=" + ",".join(CHAINS),
                  "--modes", "mantra"]
        )
        assert r.exit_code == 0
        header, *rows = (ln.split(",") for ln in r.stdout.splitlines())
        assert [row[0] for row in rows] == list(CHAINS)
        keys = ("loads", "stores", "makespan_us", "fidelity")
        for chain, row in zip(CHAINS, rows):
            rec = run(gen_ghz(8, chain)).record
            assert [row[header.index(k)] for k in keys] == [format_value(rec[k]) for k in keys]

    @pytest.mark.parametrize("bench, axis, bad, cause", [
        ("ghz:{n}:path", "n=8,x", "x", "qubit count 'x' is not an integer"),
        ("ghz:{n}:path", "n=1,8", "1", "GHZ needs at least 2 qubits"),
        ("ghz:{n}:path", "n=8,200", "200", "capacity exceeded: 200 logical qubits"),
        ("ghz:8:{chain}", "chain=nope,path", "nope", "unknown chain 'nope'"),
    ])
    def test_chain_sweep_bad_point_fails_alone(self, runner, bench, axis, bad, cause):
        # A bad size or chain fails its own row and names why; the good
        # point beside it still gets its figures.
        r = runner.invoke(cli, ["sweep", "--bench", bench, "--axis", axis])
        assert r.exit_code == 0
        name = axis.partition("=")[0]
        header, *rows = (ln.split(",") for ln in r.stdout.splitlines())
        assert [row[0] for row in rows] == axis.partition("=")[2].split(",")
        assert all(len(row) == len(header) for row in rows)
        for row in rows:
            assert (set(row[2:]) == {"failed"}) == (row[0] == bad)
        failed = [ln for ln in r.stderr.splitlines() if ln.startswith("# point")]
        assert len(failed) == 1
        assert failed[0].startswith(f"# point {name}={bad} mode=mantra failed: ")
        assert cause in failed[0]

    def test_failed_point_row_is_header_wide(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "sweep", "--bench", "ghz:{n}:path",
             "--axis", "n=1,4", "--modes", "standard"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rows = [ln.split(",") for ln in proc.stdout.strip().splitlines()]
        assert len(rows) == 3
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][:3] == ["1", "standard", "failed"]
        failed = [ln for ln in proc.stderr.splitlines() if ln.startswith("# point")]
        assert len(failed) == 1 and failed[0].startswith("# point n=1 ")
        assert failed[0].endswith("failed: GHZ needs at least 2 qubits")

    def test_bad_axis_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonec.cli", "sweep", "--bench", "ghz:{n}:path",
             "--axis", "oops"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


class TestCapacityBeforeBuild:
    """An oversized input fails the layout's capacity rule right after
    parsing: before a benchmark's circuit is built and before any input is
    compiled (compiling a 10^11-qubit register never ends). ``qaoa-sk:3000``
    is also over ``MAX_BENCH_GATES``, so building it would fail at once too,
    but on the gate cap: the error text tells the two checks apart."""

    @pytest.fixture(autouse=True)
    def no_build_or_compile(self, monkeypatch):
        def no_materialize(spec):
            raise AssertionError(f"{spec} was built before the capacity check")

        def no_run(source, *args):
            raise AssertionError("the input was compiled before the capacity check")

        monkeypatch.setattr(BenchmarkSpec, "materialize", no_materialize)
        monkeypatch.setattr("zonec.cost.mantra_pipeline", no_run)

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    def test_oversized_bench_is_capacity_error(self, runner, command):
        r = runner.invoke(cli, [command, "--bench", "qaoa-sk:3000"])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert "capacity exceeded" in r.stderr

    @pytest.mark.parametrize("command", ["simulate", "compile"])
    @pytest.mark.parametrize("flag, text", [
        ("--qasm", 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[99999999999];\n'
                   "h q[0];\ncx q[0],q[99999999998];\n"),
        ("--pauli", "qubits 99999999999\n"),
    ])
    def test_oversized_file_is_capacity_error(self, runner, tmp_path, command, flag, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        r = runner.invoke(cli, [command, flag, str(path)])
        assert r.exit_code == 3
        assert r.stdout == ""
        assert "capacity exceeded" in r.stderr

    def test_sweep_fails_the_oversized_point(self, runner):
        r = runner.invoke(cli, ["sweep", "--bench", "qaoa-sk:{n}", "--axis", "n=3000",
                                "--modes", "standard"])
        assert r.exit_code == 0
        rows = [ln.split(",") for ln in r.stdout.strip().splitlines()]
        assert len(rows) == 2
        assert rows[1][:3] == ["3000", "standard", "failed"]
        assert "capacity exceeded" in r.stderr


class TestColdStart:
    """The compile->schedule->cost path never loads numpy: only the seeded
    generators import it, inside the function, and the reference simulator
    ``oracle``, which that path never imports."""

    @pytest.mark.parametrize("code", [
        "import zonec",
        "import zonec.cli",
        "import sys; from zonec.cli import main; "
        "sys.argv = ['zonec', 'simulate', '--bench', 'ghz:8:path']; main()",
    ])
    def test_numpy_not_loaded(self, code):
        check = "; import sys; sys.exit(2 if 'numpy' in sys.modules else 0)"
        proc = subprocess.run([sys.executable, "-c", code + check],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr or "numpy was imported"

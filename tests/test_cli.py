import contextlib
import io
import json
import math
import types
from importlib import resources

import jsonschema
import pytest

from logtrees.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    with resources.files("logtrees.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def test_roots_json_and_schema():
    code, out, _ = run_cli(["roots", "--family", "mary", "--param", "27"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("roots.schema.json"))
    assert doc["alpha"] == pytest.approx(1.51697, abs=1e-4)
    assert doc["covariance_phase"] == "periodic"
    assert doc["distribution_phase"] == "periodic"
    assert len(doc["roots"]) == 26


def test_roots_quadtree_variant():
    code, out, _ = run_cli(["roots", "--family", "quadtree", "--param", "9"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("roots.schema.json"))
    assert doc["alpha_hat"] == pytest.approx(0.532089, abs=1e-5)


def test_roots_quadtree_solves_its_spectrum_once(monkeypatch):
    # the alpha_hat/beta_hat view reads the spectrum the command solved; the
    # bytes are those of the former second solve at 64 bits
    import hashlib

    from logtrees import roots
    calls = []
    real = roots.solve_spectrum

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(roots, "solve_spectrum", spy)
    code, out, _ = run_cli(["roots", "--family", "quadtree", "--param", "9"])
    assert code == 0 and len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e6b12dd63685f3f7cf0ac9c65e00115acb1190c7232ed41366d85c95d0efcfea")


def test_table_alpha_row_m10():
    code, out, _ = run_cli(["table-alpha", "--from", "3", "--to", "12"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "m,alpha,beta"
    row = dict((l.split(",")[0], l.split(",")) for l in lines[1:])["10"]
    assert abs(float(row[1]) - 0.568) < 1e-3


def test_table_c2_match_column():
    code, out, _ = run_cli(["table-c2", "--from", "3", "--to", "5"])
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    m4 = [r for r in rows if r[0] == "4"][0]
    assert m4[2] == "222/2197"
    assert m4[3] == "yes"


def test_table_c2_match_and_criterion_2_read_one_tolerance(monkeypatch):
    # a tolerance no value meets turns every match to "no" and criterion 2 red
    from logtrees import acceptance, asymptotics

    monkeypatch.setattr(asymptotics, "REFERENCE_C2C1_TOL", -1.0)
    code, out, _ = run_cli(["table-c2", "--from", "3", "--to", "5"])
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert code == 0 and [r[3] for r in rows] == ["no"] * 3
    passed, detail = acceptance.criterion_2(quick=True)
    assert not passed and detail.startswith("m=3:"), detail


def test_constants_json_schema():
    code, out, _ = run_cli(["constants", "--family", "fbbst", "--param", "1"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("constants.schema.json"))
    assert doc["phi"] == "3/7"


def test_constants_fbbst_past_the_factorial_range():
    # 171! overflows a double; the amplitude behind theta once raised
    # OverflowError here, which the CLI reported as a usage error (exit 2)
    code, out, err = run_cli(["constants", "--family", "fbbst", "--param", "171"])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("constants.schema.json"))
    assert 0 < abs(complex(doc["theta_re"], doc["theta_im"])) < math.inf


def test_moments_csv_header_and_rationals():
    code, out, _ = run_cli(["moments", "--family", "mary", "--param", "3",
                            "--nmax", "6", "--mode", "exact"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,mu,kappa,nu,VS,VSK,VK,VSN,VN,VKN"
    row3 = lines[4].split(",")
    assert row3[1] == "2/1" and row3[2] == "1/1"


def test_moments_quadtree_means_only():
    code, out, _ = run_cli(["moments", "--family", "quadtree", "--param", "2",
                            "--nmax", "8", "--mode", "exact"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,l_mean,xi_mean"


def test_simulate_json_schema_and_determinism():
    argv = ["simulate", "--family", "quadtree", "--param", "2", "--n", "500",
            "--reps", "400", "--seed", "1"]
    code, out1, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out1)
    jsonschema.validate(doc, load_schema("simulate.schema.json"))
    _, out2, _ = run_cli(argv)
    assert out1 == out2
    _, out3, _ = run_cli(argv + ["--threads", "3"])
    assert out1 == out3


def test_fixpoint_json_trace_and_schema(tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(["fixpoint", "--map", "uniK", "--family", "mary",
                            "--param", "3", "--pool", "2000", "--gens", "4",
                            "--seed", "1", "--trace-out", str(trace)])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("fixpoint.schema.json"))
    body = trace.read_text().splitlines()
    assert body[0].startswith("# logtrees")
    assert body[2] == "generation,mean_x,var_x,mean_re_w,mean_im_w,var_w,cov"


def test_periodic_csv():
    code, out, _ = run_cli(["periodic", "--kind", "Frho", "--param", "27",
                            "--points", "16"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "z,value"
    assert len(lines) == 17
    vals = [abs(float(l.split(",")[1])) for l in lines[1:]]
    assert max(vals) <= 1 + 1e-6


def test_corr_profile_csv():
    code, out, _ = run_cli(["corr-profile", "--family", "mary", "--param", "3",
                            "--grid", "64,128", "--reps", "300", "--seed", "2"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,stat,empirical,stderr,predicted,regime"
    stats = {l.split(",")[1] for l in lines[1:]}
    assert {"mean_S_over_n", "var_K_over_n2", "rho_SK", "rho_KN"} <= stats


@pytest.mark.parametrize("family,param,grid,bad", [
    ("quadtree", 2, "1", "1"), ("mary", 3, "0", "0"), ("mary", 3, "5,-3", "-3"),
    ("fbbst", 1, "40,1,60", "1")])
def test_corr_profile_rejects_sizes_below_two_before_simulating(family, param, grid, bad,
                                                               monkeypatch):
    from logtrees import treesim

    calls = []
    monkeypatch.setattr(treesim, "monte_carlo", lambda *args: calls.append(args))
    code, out, err = run_cli(["corr-profile", "--family", family, "--param", str(param),
                              "--grid", grid, "--reps", "4"])
    assert code == 2 and out == "" and not calls
    assert f"got {bad}" in err and "division" not in err


def test_regime_mismatch_exit_code():
    code, _, err = run_cli(["periodic", "--kind", "F1", "--param", "26"])
    assert code == 3
    assert "regime mismatch" in err


def test_degree_one_mismatch_names_the_lone_root():
    code, out, err = run_cli(["periodic", "--kind", "P2", "--param", "1"])
    assert (code, out) == (3, "")
    assert err == ("regime mismatch: P2 needs the periodic covariance phase; quadtree(1) is "
                   "linear (no root besides z = 2)\n")


def test_usage_error_exit_code():
    code, _, _ = run_cli(["simulate", "--family", "mary"])
    assert code == 2
    code, _, _ = run_cli(["moments", "--family", "mary", "--param", "3",
                          "--nmax", "10", "--mode", "nonsense"])
    assert code == 2


def test_invalid_parameter_exit_code():
    code, _, err = run_cli(["roots", "--family", "mary", "--param", "2"])
    assert code == 2
    assert "error" in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("param=4\nnmax=5\nmode=exact\n")
    code, out, _ = run_cli(["--config", str(cfg), "moments", "--family", "mary"])
    assert code == 0
    assert "n,mu,kappa" in out
    # flags beat the config file
    code, out, _ = run_cli(["--config", str(cfg), "moments", "--family", "mary",
                            "--nmax", "3"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 4  # header + n=0..3


def test_output_file_option(tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(["-o", str(path), "constants", "--family", "mary",
                            "--param", "3"])
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["c2_minus_phi_c1_exact"] == "12/125"


@pytest.mark.parametrize("flag", ["-o", "--trace-out", "--pool-out"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, flag):
    bad = str(tmp_path / "missing" / "out.csv")
    out_path = tmp_path / "out.json"
    argv = ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "1"]
    argv = ["-o", bad, *argv] if flag == "-o" else ["-o", str(out_path), *argv, flag, bad]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {bad}: No such file or directory\n"
    assert not out_path.exists()  # a failed run creates no -o file


@pytest.mark.parametrize("flag", ["--trace-out", "--pool-out"])
def test_unwritable_side_file_is_refused_before_the_run(tmp_path, monkeypatch, flag):
    from logtrees import fixpoint

    def not_run(*args, **kwargs):
        raise AssertionError("iterate ran before the output paths were checked")

    monkeypatch.setattr(fixpoint, "iterate", not_run)
    blocker, good = tmp_path / "file", tmp_path / "good.csv"
    blocker.write_text("")
    other = "--pool-out" if flag == "--trace-out" else "--trace-out"
    argv = ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "1",
            other, str(good)]
    for bad, reason in ((tmp_path / "missing" / "out.csv", "No such file or directory"),
                        (blocker / "out.csv", "Not a directory"), (tmp_path, "Is a directory")):
        code, out, err = run_cli([*argv, flag, str(bad)])
        assert (code, out, err) == (2, "", f"error: cannot write {bad}: {reason}\n")
    assert not good.exists() and blocker.read_text() == ""  # neither path is created


def test_unwritable_output_file_is_refused_before_the_run(tmp_path, monkeypatch):
    from logtrees import cli

    def not_run(args):
        raise AssertionError("the command ran before -o was checked")

    monkeypatch.setitem(cli.COMMANDS, "constants", (not_run, *cli.COMMANDS["constants"][1:]))
    argv = ["constants", "--family", "mary", "--param", "3"]
    for bad, reason in ((tmp_path / "missing" / "out.json", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        code, out, err = run_cli(["-o", str(bad), *argv])
        assert (code, out, err) == (2, "", f"error: cannot write {bad}: {reason}\n")
    assert list(tmp_path.iterdir()) == []  # nothing was created


def test_config_file_output_key(tmp_path):
    cfg, path, explicit = tmp_path / "run.cfg", tmp_path / "cfg.json", tmp_path / "flag.json"
    cfg.write_text(f"output={path}\n")
    argv = ["constants", "--family", "mary", "--param", "3"]
    code, out, _ = run_cli(["--config", str(cfg), *argv])
    assert (code, out) == (0, "") and json.loads(path.read_text())["meta"]["config"]["param"] == 3
    path.unlink()
    for flag in (["-o", str(explicit)], [f"-o{explicit}"], [f"--output={explicit}"]):
        code, out, _ = run_cli(["--config", str(cfg), *flag, *argv])  # explicit flags win
        assert (code, out) == (0, "") and explicit.exists() and not path.exists(), flag
        explicit.unlink()


def test_wall_time_on_stderr_not_stdout():
    code, out, err = run_cli(["table-alpha", "--from", "3", "--to", "4"])
    assert code == 0
    assert "wall-time" in err
    assert "wall-time" not in out


def test_headers_echo_version_and_config():
    _, out, _ = run_cli(["table-alpha", "--from", "3", "--to", "4"])
    head = out.splitlines()[:2]
    assert head[0].startswith("# logtrees 0.")
    assert head[1].startswith("# config:") and "m_from=3" in head[1]


def test_config_without_path_is_usage_error():
    code, _, err = run_cli(["roots", "--family", "mary", "--param", "5", "--config"])
    assert code == 2
    assert "--config" in err


def test_config_file_yields_to_equals_form_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\n")
    argv = ["simulate", "--family", "mary", "--param", "3", "--n", "50", "--reps", "20"]
    code, out, _ = run_cli(["--config", str(cfg), *argv, "--seed=5"])
    assert code == 0
    assert json.loads(out)["meta"]["config"]["seed"] == 5
    assert out == run_cli([*argv, "--seed", "5"])[1]


def test_config_file_equals_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=mary\nparam=4\nseed=7\n")
    argv = ["simulate", "--n", "50", "--reps", "20"]
    code, out, err = run_cli([f"--config={cfg}", *argv])
    assert code == 0, err
    assert out == run_cli(["--config", str(cfg), *argv])[1]
    # flags on the command line still beat the file, in either form
    code, out, _ = run_cli([f"--config={cfg}", *argv, "--seed=5", "--param", "3"])
    assert code == 0
    assert json.loads(out)["meta"]["config"]["seed"] == 5
    assert out == run_cli([*argv, "--family", "mary", "--param", "3", "--seed", "5"])[1]


def test_float_moments_overflow_names_first_n():
    code, out, err = run_cli(["moments", "--family", "mary", "--param", "200",
                              "--nmax", "5000", "--mode", "float"])
    assert code == 2 and out == ""
    assert "n = 2739" in err and "use exact mode" in err


def test_config_file_store_true_key(tmp_path):
    # --quick is the one store-true flag: true becomes the bare switch, false is dropped
    from logtrees.cli import _apply_config_file, build_parser

    cfg, ap = tmp_path / "run.cfg", build_parser()
    argv = ["--config", str(cfg), "verify"]
    cfg.write_text("quick=true\n")
    assert _apply_config_file(argv, ap) == [*argv, "--quick"]
    assert ap.parse_args(_apply_config_file(argv, ap)).quick is True
    cfg.write_text("quick=false\n")
    assert _apply_config_file(argv, ap) == argv
    assert ap.parse_args(_apply_config_file(argv, ap)).quick is False


def test_simulate_negative_n_is_usage_error():
    code, _, err = run_cli(["simulate", "--family", "mary", "--param", "3",
                            "--n", "-5", "--reps", "10"])
    assert code == 2
    assert "error" in err


def test_header_echoes_result_changing_flags(tmp_path):
    argv = ["periodic", "--kind", "P1", "--param", "9", "--points", "4"]
    _, default, _ = run_cli(argv)
    _, given, _ = run_cli([*argv, "--cplus-re", "0.5", "--cplus-im", "0.25"])
    assert default.splitlines()[1] == "# config: command=periodic kind=P1 param=9 points=4"
    assert given.splitlines()[1].endswith("points=4 cplus_re=0.5 cplus_im=0.25")
    trace = tmp_path / "trace.csv"
    argv = ["fixpoint", "--map", "TNprime_normal", "--family", "mary", "--param", "3",
            "--pool", "1000", "--gens", "2", "--trace-out", str(trace)]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert json.loads(out)["meta"]["config"]["gens"] == 2
    assert trace.read_text().splitlines()[1] == (
        "# config: command=fixpoint map=TNprime_normal family=mary param=3 pool=1000 gens=2 seed=1")


def test_header_follows_parser_order_without_execution_flags():
    # flags given out of order; --threads steers execution only
    code, out, _ = run_cli(["simulate", "--threads", "2", "--seed", "3", "--reps", "20",
                            "--n", "30", "--param", "3", "--family", "mary"])
    assert code == 0
    assert list(json.loads(out)["meta"]["config"].items()) == [
        ("command", "simulate"), ("family", "mary"), ("param", 3), ("n", 30),
        ("reps", 20), ("seed", 3)]


@pytest.mark.parametrize("passed,want", [(True, 0), (False, 4)])
def test_verify_honours_output_option(tmp_path, monkeypatch, passed, want):
    import logtrees.acceptance

    def run_acceptance(quick=False, stream=None):  # stands in for the suite
        stream.write(f"[{'PASS' if passed else 'FAIL'}] stub quick={quick}\n")
        return [types.SimpleNamespace(passed=passed)]
    monkeypatch.setattr(logtrees.acceptance, "run_acceptance", run_acceptance)
    path = tmp_path / "verify.txt"
    code, out, err = run_cli(["-o", str(path), "verify", "--quick"])
    assert (code, out) == (want, "")
    text = path.read_text()
    assert text.startswith("# logtrees") and "stub quick=True" in text
    assert "wall-time" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "3", "--reps", "2"],
    ["corr-profile", "--grid", "3", "--reps", "2"],
    ["fixpoint", "--map", "uniK", "--pool", "1000", "--gens", "1"],
], ids=lambda argv: argv[0])
def test_quadtree_sampling_rejects_dimension_above_cell_budget(argv):
    code, out, err = run_cli([*argv, "--family", "quadtree", "--param", "10"])
    assert code == 2 and out == ""
    assert "64 MiB" in err and "d > 9" in err


def test_quadtree_closed_forms_stay_unbounded():
    for argv in (["constants", "--family", "quadtree", "--param", "12"],
                 ["roots", "--family", "quadtree", "--param", "12"],
                 ["periodic", "--kind", "P2", "--param", "12", "--points", "4"]):
        assert run_cli(argv)[0] == 0


def test_fixpoint_threads_steer_execution_only():
    # three chunks a generation; --threads is not echoed in the header
    argv = ["fixpoint", "--map", "TN_periodic", "--family", "mary", "--param", "27",
            "--pool", "40000", "--gens", "2", "--seed", "3"]
    outs = [run_cli(argv + extra)[1] for extra in ([], ["--threads", "1"], ["--threads", "4"])]
    assert outs[0] == outs[1] == outs[2]
    assert "threads" not in json.loads(outs[0])["meta"]["config"]


def test_threads_default_is_the_cpus_available():
    import os

    from logtrees.cli import build_parser

    args = build_parser().parse_args(["fixpoint", "--map", "uniK", "--param", "3"])
    assert args.threads == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("argv", [
    ["periodic", "--kind", "F1", "--param", "27", "--cplus-re", "5"],
    ["periodic", "--kind", "G2", "--param", "29", "--cplus-im", "0.5"],
    ["periodic", "--kind", "Frho", "--param", "27", "--cplus-re", "1", "--cplus-im", "0"],
    ["periodic", "--kind", "P1", "--param", "9", "--points", "0"],
    ["periodic", "--kind", "P1", "--param", "9", "--cplus-re", "nan"],
    ["periodic", "--kind", "P2", "--param", "6", "--cplus-im", "inf"],
    ["periodic", "--kind", "F2", "--param", "14", "--points", "-3"],
    ["moments", "--family", "mary", "--param", "3", "--nmax", "-1"],
    ["simulate", "--family", "mary", "--param", "3", "--n", "30", "--reps", "4",
     "--threads", "0"],
    ["simulate", "--family", "mary", "--param", "3", "--n", "30", "--reps", "4",
     "--seed", "-1"],
    ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "1",
     "--seed", "9223372036854775808"],
    ["corr-profile", "--family", "fbbst", "--param", "1", "--grid", "30", "--reps", "4",
     "--threads", "-2"],
    ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "1",
     "--threads", "0"],
    ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "-3"],
    ["fixpoint", "--map", "uniK", "--param", "3", "--pool", "1000", "--gens", "0"],
    ["fixpoint", "--map", "uniK", "--param", "3", "--gens", "1", "--pool", "999"],
    ["roots", "--family", "quadtree", "--param", "2", "--precision", "32"],
    ["roots", "--family", "quadtree", "--param", "1024"],
    ["roots", "--family", "mary", "--param", "5", "--precision", "63"],
    ["table-alpha", "--from", "10", "--to", "5"],
    ["table-alpha", "--to", "5", "--from", "2"],
    ["table-c2", "--from", "3", "--to", "2"],
    ["table-c2", "--from", "7", "--to", "6"],
], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_out_of_range_inputs_are_usage_errors(argv, tmp_path):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(["-o", str(path), *argv])
    assert (code, out) == (2, "")
    assert "error" in err
    assert not path.exists()


def test_closed_stdout_ends_the_run_quietly():
    # `logtrees moments ... | head -1`: the reader stops after one line of a
    # body far larger than a pipe buffer
    import os
    import subprocess
    import sys
    from pathlib import Path

    import logtrees
    path = [str(Path(logtrees.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "logtrees.cli", "moments", "--family", "mary", "--param", "3",
         "--nmax", "20000", "--mode", "float"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# logtrees")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert b"internal error" not in err and b"Exception ignored" not in err, err

import dataclasses
import importlib.util
import inspect
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from centralizer_lab import (
    centralizer,
    cli,
    invariants,
    kostant_maps,
    lie_core,
    linalg,
    sampling,
    suites,
    toda,
)
from centralizer_lab.cli import main
from centralizer_lab.errors import NoConvergence, NotInGStar, SingularMinor
from centralizer_lab.formats import dump_json
from centralizer_lab.report import Report
from centralizer_lab.suites import Tolerances, run_check

GOLDEN_POINT = '{"diag": [[0,0],[0,0]], "root_coords": [[1,0]]}'
OFF_DOMAIN_POINT = '{"diag": [[0,0],[0,0]], "root_coords": [[-1,0]]}'


def _strip_seconds(report_text: str) -> str:
    data = json.loads(report_text)
    for entry in data.get("checks", []):
        entry.pop("seconds", None)
    return json.dumps(data, indent=2)


# ----------------------------- check ------------------------------------- #

def test_check_passes_n2_seed42(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--n", "2", "--seed", "42", "--samples", "50",
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL  " not in stdout.replace("0 failing", "")
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["config"] == {"n": 2, "seed": 42, "samples": 50}
    assert all(entry["passed"] for entry in data["checks"])


def test_check_passes_n3_seed7():
    assert main(["check", "--n", "3", "--seed", "7"]) == 0


def test_check_deterministic_modulo_timing(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", "--n", "2", "--seed", "9", "--samples", "10",
                 "--out", str(out1)]) == 0
    assert main(["check", "--n", "2", "--seed", "9", "--samples", "10",
                 "--out", str(out2)]) == 0
    assert _strip_seconds(out1.read_text()) == _strip_seconds(out2.read_text())
    for entry in json.loads(out1.read_text())["checks"]:
        assert entry["error"] is None and entry["skipped"] == {}, entry


def _run_with_failing_flow(monkeypatch):
    """toda_conservation at n=7 whose first Symes flow of the fourth sample
    leaves the phase space."""
    calls = []

    def flow(*args):
        points, errors = toda.toda_flow(*args)
        if not calls:
            errors[3] = NoConvergence("flow point left the phase space: injected")
        calls.append(args)
        return points, errors

    monkeypatch.setattr(suites, "toda_flow", flow)
    return run_check("toda_conservation", 7, 42, 25)


def test_check_failure_names_its_exception(monkeypatch):
    # A failing flow ends the row; it keeps the declared bound and says why
    # it failed.
    first = _run_with_failing_flow(monkeypatch)
    assert first.error.startswith("NoConvergence: ")
    assert first.max_deviation == float("inf") and not first.passed
    assert first.tolerance == 1e-8
    assert 0 < first.samples < 25
    again = _run_with_failing_flow(monkeypatch)
    assert dataclasses.replace(again, seconds=0.0) == dataclasses.replace(first, seconds=0.0)
    report = Report(config={}, checks=(first,))
    assert first.error in report.lines()[0]
    assert report.to_json_obj()["checks"][0]["error"] == first.error
    row = report.to_csv().splitlines()[1]
    assert row.split(",")[-3:-1] == ["0", "NoConvergence"]


def test_failed_check_writes_strict_json(tmp_path, monkeypatch):
    # the report holds an infinite toda_conservation row; a strict parser
    # rejects NaN and Infinity, so the row must read null
    failed = _run_with_failing_flow(monkeypatch)
    monkeypatch.setattr(cli, "run_all", lambda n, seed, samples: Report(
        config={"n": n, "seed": seed, "samples": samples}, checks=(failed,)))
    out = tmp_path / "r.json"
    assert main(["check", "--n", "7", "--seed", "42", "--samples", "25",
                 "--out", str(out)]) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    entry = json.loads(out.read_text(), parse_constant=reject)["checks"][0]
    assert entry["max_deviation"] is None and entry["error"] == failed.error
    with pytest.raises(ValueError):
        dump_json({"max_deviation": float("nan")})


def test_check_counts_skipped_samples(monkeypatch):
    real_ldu = linalg.gauss_ldu
    calls = []

    def every_third_singular(a):
        calls.append(a)
        if len(calls) % 3 == 1:
            raise SingularMinor(1)
        return real_ldu(a)

    monkeypatch.setattr(linalg, "gauss_ldu", every_third_singular)
    result = run_check("linalg_ldu_roundtrip", 3, 1, 10)
    assert result.passed and result.error is None
    assert result.skipped == {"SingularMinor": 4}
    assert result.samples + sum(result.skipped.values()) == 10

    def wall_or_blowup(chev, theta_x, g):
        # the check dresses its whole stack at once: samples 0, 2, 4 leave
        # the big cell, and 1 and 3 have every root coordinate 0
        return np.zeros_like(theta_x), [None if k % 2 else NotInGStar() for k in range(len(g))]

    monkeypatch.setattr(suites, "dress", wall_or_blowup)
    result = run_check("kostant_lift_of_dressed_point", 3, 1, 5)
    assert result.skipped == {"NotInGStar": 3, "SmallRootCoordinate": 2}
    assert list(result.skipped) == sorted(result.skipped)
    assert result.samples == 0 and result.error is None


def _run_with_patched_dress(monkeypatch, failure=None):
    """kostant_lift_of_dressed_point at n=3, seed 42, where no sample is
    skipped, with sample 3 off the big cell, sample 5 on the wall and, if
    given, ``failure`` raised by sample 7."""
    def dress(chev, theta_x, g):
        y, errors = kostant_maps.dress(chev, theta_x, g)
        errors[3] = NotInGStar("injected")
        y[5, 0, 1] = 1e-7  # below the 1e-6 root-coordinate floor
        if failure is not None:
            errors[7] = failure
        return y, errors

    monkeypatch.setattr(suites, "dress", dress)
    return run_check("kostant_lift_of_dressed_point", 3, 42, 25)


def test_stacked_check_folds_per_sample_exceptions(monkeypatch):
    assert run_check("kostant_lift_of_dressed_point", 3, 42, 25).samples == 25
    result = _run_with_patched_dress(monkeypatch)
    assert result.skipped == {"NotInGStar": 1, "SmallRootCoordinate": 1}
    assert result.samples == 23 and result.passed and result.error is None
    # an exception that is no skip ends the row: samples 0..6, less the skips
    result = _run_with_patched_dress(monkeypatch, NoConvergence("injected"))
    assert result.error == "NoConvergence: injected"
    assert result.samples == 5 and result.max_deviation == float("inf")
    assert result.skipped == {"NotInGStar": 1, "SmallRootCoordinate": 1}


@pytest.mark.parametrize("name", [name for name, check in suites.CHECKS.items() if check.draw])
def test_stacked_checks_replay_their_samples(name):
    # draws never depend on the stack size, so run_check(name, n, seed, k)
    # reads the running maximum of the first k outcomes of a longer run
    check = suites.CHECKS[name]
    outcomes = list(suites._outcomes(check, lie_core.build_chevalley(3),
                                     sampling.stream(42, name), 6))
    assert len(outcomes) == 6
    for k in range(1, 7):
        devs = [o for o in outcomes[:k] if not isinstance(o, check.skips)]
        assert not any(isinstance(o, Exception) for o in devs), devs
        result = run_check(name, 3, 42, k)
        assert result.max_deviation == max([0.0] + devs)
        assert result.samples == len(devs)


def test_check_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["check", "--n", "2", "--seed", "4", "--samples", "5",
                 "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,max_deviation,tolerance,passed,samples")
    assert len(lines) > 40


def test_check_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == 2


def test_check_bad_rank_exits_2():
    assert main(["check", "--n", "17"]) == 2


def test_config_file_merges_with_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 1, "samples": 5}))
    out = tmp_path / "r.json"
    assert main(["check", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["n"] == 2
    assert data["config"]["seed"] == 2  # flag wins over file
    assert data["config"]["samples"] == 5


@pytest.mark.parametrize("key", ["tol_chamber", "threads", "fd_step"])
def test_unknown_config_key_exits_2(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "samples": 1, key: 1}))
    assert main(["check", "--config", str(cfg)]) == 2


# ----------------------------- flow -------------------------------------- #

def test_flow_golden_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["flow", "--n", "2", "--i", "1", "--t", "0,0.5,1",
                 "--point", GOLDEN_POINT, "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "diag_1", "diag_2", "root_coord_1", "invariant_1",
                      "status"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    for row, t in zip(rows, (0.0, 0.5, 1.0)):
        assert row[-1] == "ok"
        assert abs(complex(row[0]) - t) < 1e-15
        assert abs(complex(row[1]) - np.tanh(t)) < 1e-10
        assert abs(complex(row[2]) + np.tanh(t)) < 1e-10
        assert abs(complex(row[3]) - np.cosh(t) ** -2) < 1e-10
        assert abs(complex(row[4]) - 1.0) < 1e-10  # conserved invariant
    # time-zero row reproduces the input point
    assert abs(complex(rows[0][1])) < 1e-10 and abs(complex(rows[0][3]) - 1) < 1e-10


def test_flow_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["flow", "--n", "2", "--i", "1", "--t", "0,0.25,0.75",
            "--point", GOLDEN_POINT]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_flow_off_domain_point_exits_2():
    assert main(["flow", "--n", "2", "--i", "1", "--t", "0,1",
                 "--point", OFF_DOMAIN_POINT]) == 2


def test_flow_blowup_marks_row_and_exits_1(tmp_path):
    out = tmp_path / "blowup.csv"
    t_blowup = repr(np.pi / 2) + "j"
    code = main(["flow", "--n", "2", "--i", "1", "--t", f"0,{t_blowup}",
                 "--point", GOLDEN_POINT, "--out", str(out)])
    assert code == 1
    lines = out.read_text().strip().splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("NotInGStar(1)")
    # marker rows carry the same cell count as data rows
    assert len(lines[2].split(",")) == len(lines[0].split(","))


def test_flow_bad_label_exits_2():
    assert main(["flow", "--n", "2", "--i", "5", "--t", "0",
                 "--point", GOLDEN_POINT]) == 2


def test_flow_json_format(tmp_path):
    out = tmp_path / "traj.json"
    assert main(["flow", "--n", "2", "--i", "1", "--t", "0,1",
                 "--point", GOLDEN_POINT, "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["columns"][0] == "t"
    assert len(data["rows"]) == 2


# ----------------------------- embed -------------------------------------- #

def test_embed_golden(tmp_path):
    out = tmp_path / "embed.json"
    code = main(["embed", "--n", "2", "--point", GOLDEN_POINT,
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["roundtrip_error"] <= 1e-8
    assert data["g"]["mod_scalar"] is True
    g = np.array([[complex(*pair) for pair in row] for row in data["g"]["matrix"]])
    x = np.array([[complex(*pair) for pair in row] for row in data["x"]])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(x, flip, atol=1e-10)
    # group slot recorded modulo scalar
    ratio = g[0, 1]
    assert np.allclose(g, ratio * flip, atol=1e-9)


def test_embed_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    args = ["embed", "--n", "2", "--point", GOLDEN_POINT]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_embed_off_domain_exits_2():
    assert main(["embed", "--n", "2", "--point", OFF_DOMAIN_POINT]) == 2


def test_embed_point_from_file(tmp_path):
    pt = tmp_path / "point.json"
    pt.write_text(GOLDEN_POINT)
    out = tmp_path / "embed.json"
    assert main(["embed", "--n", "2", "--point", f"@{pt}",
                 "--out", str(out)]) == 0


def test_embed_missing_point_exits_2():
    assert main(["embed", "--n", "2"]) == 2


# ----------------------------- cjl ---------------------------------------- #

def test_cjl_passes(tmp_path, capsys):
    out = tmp_path / "cjl.json"
    code = main(["cjl", "--n", "2", "--seed", "3", "--samples", "20",
                 "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["max_deviation"] <= 1e-5
    assert set(data["blocks"]) == {"flow_flow", "flow_section", "section_section"}


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_cjl_tolerance_matches_check(tmp_path, n):
    out = tmp_path / "cjl.json"
    main(["cjl", "--n", str(n), "--seed", "3", "--samples", "1",
          "--out", str(out)])
    check = run_check("cent_cjl_pullback", n, 42, 1)
    assert json.loads(out.read_text())["tolerance"] == check.tolerance


def test_cjl_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["cjl", "--n", "3", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["cjl", "--n", "3", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cjl_bad_fd_step_exits_2():
    assert main(["cjl", "--n", "2", "--fd-step", "0.01"]) == 2


# ----------------------------- one thread --------------------------------- #

def test_commands_start_no_threads(monkeypatch):
    def refuse(self):
        raise RuntimeError("a command started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["check", "--n", "2", "--samples", "2"]) == 0
    assert main(["cjl", "--n", "3", "--samples", "4"]) == 0


def test_flow_off_phase_space_marks_row_and_exits_1(tmp_path, monkeypatch):
    from centralizer_lab import toda

    monkeypatch.setattr(toda, "adjoint",
                        lambda g, x: np.broadcast_to([[0.0, 1.0], [2.0, 0.0]], np.shape(x)))
    out = tmp_path / "off.csv"
    code = main(["flow", "--n", "2", "--i", "1", "--t", "0,0.5",
                 "--point", GOLDEN_POINT, "--out", str(out)])
    assert code == 1
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["NoConvergence"] * 2
    assert len(lines[1].split(",")) == len(lines[0].split(","))


# ----------------------------- pinned tolerances ------------------------- #

COMMAND_ARGS = {
    "check": ["check", "--n", "2", "--samples", "1"],
    "flow": ["flow", "--n", "2", "--i", "1", "--t", "0", "--point", GOLDEN_POINT],
    "embed": ["embed", "--n", "2", "--point", GOLDEN_POINT],
    "cjl": ["cjl", "--n", "2", "--samples", "1"],
}


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
def test_tolerance_flag_exits_2(command):
    args = COMMAND_ARGS[command]
    assert main(args) == 0
    assert main(args + ["--tol.minor", "1e-3"]) == 2


# Keywords that only one value reached, now constants where they are applied.
PINNED_KEYWORDS = {
    centralizer.check_z_point: {"tol", "tol_section"},
    centralizer.moment_preimage_report: {"tol"},
    centralizer.z_invariants: {"tol"},
    lie_core.centralizer_basis: {"tol"},
    linalg.kernel_basis: {"tol"},
    lie_core.group_equal: {"tol"},
    sampling.sample_flow_domain: {"scale", "max_tries"},
    sampling.random_toda_point: {"scale"},
    sampling.random_stabilizer_element: {"scale"},
    sampling.random_traceless: {"scale"},
    Report.to_json_obj: {"include_timing"},
    Report.to_csv: {"include_timing"},
    toda.intertwine_infinitesimal: {"step"},
    suites._random_unitriangular: {"scale"},
}


def test_no_tolerance_keywords():
    for module in (linalg, kostant_maps, toda, invariants):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_"):
                params = set(inspect.signature(fn).parameters)
                assert not params & {"eps", "tol_minor", "tol_eig"}, \
                    f"{module.__name__}.{name}"
    for fn, names in PINNED_KEYWORDS.items():
        assert not set(inspect.signature(fn).parameters) & names, fn.__qualname__
    assert dataclasses.fields(Tolerances) == ()


# ----------------------------- benchmark hooks --------------------------- #

def test_benchmark_hooks_are_bound():
    # perfbench/tracing.py looks up every TRACED name with getattr, and the
    # check-n2-4 workload passes run_check a fifth argument.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, funcs in tracing.TRACED.items():
        home = importlib.import_module(f"centralizer_lab.{module}")
        for func in funcs:
            assert inspect.isfunction(getattr(home, func, None)), f"{module}.{func}"
    result = suites.run_check("kostant_stabilizer_lift", 2, 42, 1, suites.Tolerances())
    assert result.passed and result.error is None
    # the cjl-n6 workload passes the pullback its finite-difference step
    chev = lie_core.build_chevalley(2)
    c = sampling.random_cjl_point(chev, sampling.stream(42, "bench-hook"))
    assert centralizer.cjl_pullback_deviation(chev, c, fd_step=1e-6).max_deviation <= 1e-5

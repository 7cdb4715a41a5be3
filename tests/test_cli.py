import concurrent.futures
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

from zetachi import cli
from zetachi.cli import (
    RunConfig,
    USAGE_ERROR,
    build_parser,
    main,
    report_from_dict,
    report_to_dict,
    run,
)
from zetachi.number_field import RATIONAL_FIELD
from zetachi.weil_cohomology import verify_field


def test_config_validate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RunConfig(targets=[6]).validate()
    for tol in (0, 1.0, 1e300):
        with pytest.raises(ValueError, match="positive and finite"):
            RunConfig(targets=[5], tolerance=tol).validate()
    with pytest.raises(ValueError):
        RunConfig(range_bound=2).validate()
    with pytest.raises(ValueError):
        RunConfig(targets=[5], jobs=0).validate()
    RunConfig(targets=[RATIONAL_FIELD, -4, 5]).validate()


def test_resolved_targets_order_and_dedup():
    config = RunConfig(targets=[5, RATIONAL_FIELD, -4, 5], range_bound=8)
    got = config.resolved_targets()
    assert got == [RATIONAL_FIELD, -3, -4, 5, -7, -8, 8]


def test_run_single_field():
    out = io.StringIO()
    status, reports = run(RunConfig(targets=[5]), out)
    assert status == 0
    assert len(reports) == 1 and reports[0].passed
    text = out.getvalue()
    assert "1 passed, 0 failed" in text
    assert "pass" in text


def test_run_range_sweep():
    out = io.StringIO()
    status, reports = run(RunConfig(targets=[RATIONAL_FIELD], range_bound=20),
                          out)
    assert status == 0
    labels = [r.invariants.d for r in reports]
    assert labels[0] == RATIONAL_FIELD
    assert all(r.passed for r in reports)
    assert f"{len(reports)} passed, 0 failed" in out.getvalue()


def test_sweep_matches_fresh_single_field_reports(tmp_path,
                                                  fresh_profiles):
    # fields that share a profile share its chi and groups; each report
    # must still equal one computed for its field alone from an empty cache
    path = tmp_path / "reports.json"
    _, reports = run(RunConfig(targets=[RATIONAL_FIELD], range_bound=300,
                               json_path=str(path), table=False),
                     io.StringIO())
    lines = path.read_text().splitlines()[1:-1]
    assert len(reports) == len(lines) == 185
    for r, line in zip(reports, lines):
        fresh_profiles.cache_clear()
        alone = dataclasses.replace(verify_field(r.invariants.d),
                                    elapsed_ms=r.elapsed_ms)
        assert alone == r, r.invariants.d
        assert line.rstrip(",") == json.dumps(report_to_dict(alone))


def test_run_requires_targets():
    with pytest.raises(ValueError, match="no targets"):
        run(RunConfig(), io.StringIO())


def test_run_parallel_matches_serial():
    serial = run(RunConfig(targets=[RATIONAL_FIELD, -4, 5]), io.StringIO())[1]
    parallel = run(RunConfig(targets=[RATIONAL_FIELD, -4, 5], jobs=2),
                   io.StringIO())[1]
    for a, b in zip(serial, parallel):
        assert a.invariants == b.invariants
        assert a.chi == b.chi
        assert a.verdict == b.verdict


def test_run_range_parallel_batches_match_serial():
    # batched pool: same reports in the same order as a serial sweep
    def dicts(jobs):
        reports = run(RunConfig(range_bound=60, jobs=jobs), io.StringIO())[1]
        return [{k: v for k, v in report_to_dict(r).items() if k != "elapsed_ms"}
                for r in reports]

    serial = dicts(1)
    assert len(serial) == 39
    assert dicts(2) == serial


def test_show_profile_output():
    out = io.StringIO()
    run(RunConfig(targets=[-23], show_profile=True), out)
    text = out.getvalue()
    assert "cohomology profile" in text
    assert "compact H^2 = Z/3" in text
    assert "Pontryagin dual" in text


def test_json_round_trip(tmp_path):
    path = tmp_path / "reports.json"
    out = io.StringIO()
    # w = 6 and 4 at -3 and -4; h = 3 at -23 and at 229, where N(eps) = -1;
    # N(eps) = +1 at 12
    targets = [RATIONAL_FIELD, -3, -4, -23, 5, 12, 229]
    _, reports = run(RunConfig(targets=targets,
                               json_path=str(path), table=False), out)
    loaded = json.loads(path.read_text())
    assert len(loaded) == len(targets)
    for obj, original in zip(loaded, reports):
        rebuilt = report_from_dict(obj)
        assert rebuilt.invariants == original.invariants
        assert rebuilt.chi == original.chi
        assert rebuilt.chi_exact == original.chi_exact
        assert rebuilt.zeta_star == original.zeta_star
        assert rebuilt.ratio == original.ratio
        assert rebuilt.profile == original.profile
        assert report_to_dict(rebuilt) == obj


def test_json_one_report_per_line(tmp_path):
    path = tmp_path / "reports.json"
    _, reports = run(RunConfig(targets=[RATIONAL_FIELD, -23, 5, 12],
                               json_path=str(path), table=False), io.StringIO())
    lines = path.read_text().splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    body = lines[1:-1]
    assert len(body) == len(reports)
    for i, (line, r) in enumerate(zip(body, reports)):
        assert line.endswith(",") == (i < len(body) - 1)
        assert json.loads(line.rstrip(",")) == report_to_dict(r)
    assert json.loads(path.read_text()) == [report_to_dict(r) for r in reports]


def test_json_write_failure_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "reports.json"
    run(RunConfig(targets=[5], json_path=str(path), table=False), io.StringIO())
    before = path.read_bytes()

    def broken(r):
        raise RuntimeError("report could not be encoded")

    monkeypatch.setattr(cli, "report_to_dict", broken)
    with pytest.raises(RuntimeError, match="could not be encoded"):
        run(RunConfig(targets=[-23, 5], json_path=str(path), table=False),
            io.StringIO())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["reports.json"]


def test_json_run_survives_a_stale_temporary_file(tmp_path):
    # a killed run leaves its temporary file behind, and a later run may
    # get the same pid; that run must still write its report
    path = tmp_path / "reports.json"
    stale = tmp_path / f"reports.json.{os.getpid()}.tmp"
    stale.write_text("partial")
    assert main(["--field", "5", "--json", str(path)]) == 0
    assert [r["field"] for r in json.loads(path.read_text())] == [5]
    assert stale.read_text() == "partial"
    assert sorted(os.listdir(tmp_path)) == sorted(["reports.json", stale.name])


def _fifo(tmp):
    os.mkfifo(tmp / "pipe.json")
    return tmp / "pipe.json"


def _link_to_fifo(tmp):
    os.mkfifo(tmp / "pipe")
    os.symlink(tmp / "pipe", tmp / "link.json")
    return tmp / "link.json"


def _main_exits_before_verifying(capsys, monkeypatch, path, message):
    verified = []
    real = cli.verify_field
    monkeypatch.setattr(cli, "verify_field",
                        lambda d, tol: verified.append(d) or real(d, tol))
    with pytest.raises(SystemExit) as exc:
        main(["--range", "300", "--json", str(path)])
    assert exc.value.code == USAGE_ERROR
    assert message in capsys.readouterr().err
    assert verified == []


@pytest.mark.parametrize("make_path, message", [
    (lambda tmp: tmp / "missing" / "out.json", "is not an existing directory"),
    (lambda tmp: tmp, "is a directory"),
])
def test_main_rejects_unwritable_json_path_before_verifying(
        capsys, monkeypatch, tmp_path, make_path, message):
    _main_exits_before_verifying(capsys, monkeypatch, make_path(tmp_path),
                                 message)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("make_path, left", [
    (_fifo, ["pipe.json"]),
    (_link_to_fifo, ["link.json", "pipe"]),
])
def test_main_rejects_non_regular_json_target_before_verifying(
        capsys, monkeypatch, tmp_path, make_path, left):
    _main_exits_before_verifying(capsys, monkeypatch, make_path(tmp_path),
                                 "is not a regular file")
    assert sorted(os.listdir(tmp_path)) == left
    for name in left:  # the FIFO and the link are still what they were
        assert not (tmp_path / name).is_file()


@pytest.mark.parametrize("target_exists", [True, False])
def test_json_through_a_symlink_writes_its_target(tmp_path, target_exists):
    target = tmp_path / "target.json"
    if target_exists:
        target.write_text("earlier")
    link = tmp_path / "link.json"
    os.symlink(target, link)
    assert main(["--field", "5", "--json", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert [r["field"] for r in json.loads(target.read_text())] == [5]
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_main_rejects_empty_json_path_before_verifying(
        capsys, monkeypatch, tmp_path):
    # an empty path once turned the table off and wrote nothing, exit 0
    verified = []
    monkeypatch.setattr(cli, "verify_field",
                        lambda d, tol: verified.append(d))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--field", "5", "--json", ""])
    assert exc.value.code == USAGE_ERROR
    assert "the JSON path is empty" in capsys.readouterr().err
    assert verified == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cpus", [None, 1, 2, 4, 64])
@pytest.mark.parametrize("jobs", [3, 100000])
def test_pool_never_larger_than_fields_or_cores(monkeypatch, cpus, jobs):
    # a stand-in pool that records its size and maps in-process: a real
    # pool forks all of its workers at once
    created = []

    class FakePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            assert chunksize >= 1
            return map(fn, items)

    # `run` imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    status, reports = run(RunConfig(range_bound=10, jobs=jobs), io.StringIO())
    assert status == 0 and len(reports) == 6
    workers = min(jobs, len(reports), cpus or 1)
    # one worker takes the serial path and starts no pool
    assert created == ([workers] if workers > 1 else [])


def test_parser_accepts_q_and_integers():
    args = build_parser().parse_args(["--field", "Q", "--field", "-4"])
    assert args.field == [RATIONAL_FIELD, -4]


def test_main_success_exit_zero(capsys):
    assert main(["--field", "5"]) == 0
    assert "1 passed" in capsys.readouterr().out


def test_main_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", "6"])
    assert exc.value.code == USAGE_ERROR
    assert "6 is not a fundamental discriminant" in capsys.readouterr().err


def test_main_names_the_failed_criterion(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", "-180"])
    assert exc.value.code == USAGE_ERROR
    err = capsys.readouterr().err
    assert "-180 is not a fundamental discriminant: " in err
    assert "squarefree" in err and "3^2 divides it" in err


def test_python_dash_m_entry_point():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def zetachi(*args):
        return subprocess.run([sys.executable, "-m", "zetachi", *args],
                              capture_output=True, text=True, env=env)

    ok = zetachi("--field", "5")
    assert ok.returncode == 0
    assert "1 passed, 0 failed" in ok.stdout
    bad = zetachi("--field", "6")
    assert bad.returncode == USAGE_ERROR
    assert "is not a fundamental discriminant" in bad.stderr


def test_product_path_imports_neither_numpy_nor_mpmath():
    # a fresh process that imports zetachi and serially verifies a real and
    # an imaginary field loads only the verification path: not numpy or
    # mpmath (a later numpy route imports numpy inside its own branch), not
    # the process pool (only --jobs above 1 needs it), not the test bed
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys, zetachi\n"
        "heavy = ('numpy', 'mpmath', 'concurrent.futures', 'multiprocessing',\n"
        "         'zetachi.group_cohomology')\n"
        "assert not [m for m in heavy if m in sys.modules], 'import'\n"
        "for name in zetachi.__all__:\n"
        "    getattr(zetachi, name)\n"
        "assert zetachi.cli.main(['--field', '5', '--field', '-23']) == 0\n"
        "assert not [m for m in heavy if m in sys.modules], 'run'\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "2 passed, 0 failed" in done.stdout


@pytest.mark.parametrize("flags, message", [
    (["--tol", "inf"], "tolerance must be positive and finite"),
    (["--tol", "nan"], "tolerance must be positive and finite"),
    (["--tol", "0"], "tolerance must be positive and finite"),
    (["--tol", "-1"], "tolerance must be positive and finite"),
    (["--jobs", "0"], "jobs must be at least 1"),
    (["--tol", "1"], "tolerance must be positive and finite"),
    (["--tol", "1e300"], "tolerance must be positive and finite"),
])
def test_main_rejects_bad_tol_and_jobs(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["--field", "5"] + flags)
    assert exc.value.code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("zetachi: error: ")
    assert message in err


def test_main_no_targets_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == USAGE_ERROR


def test_main_json_only_suppresses_table(capsys, tmp_path):
    path = tmp_path / "out.json"
    assert main(["--field", "Q", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict" not in out  # table header suppressed
    assert "1 passed" in out
    assert json.loads(path.read_text())[0]["field"] == "Q"


def test_reports_deterministic():
    a = report_to_dict(verify_field(5))
    b = report_to_dict(verify_field(5))
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b

import argparse
import ast
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import convpow.cli as cli
from convpow.series import PowerSeriesInvX

SRC = str(Path(cli.__file__).resolve().parents[1])
README = Path(SRC).parent / "README.md"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_json(capsys, argv):
    rc = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    return rc, payload


def test_payload_schema(capsys):
    rc, payload = run_json(capsys, ["amatrix", "3"])
    assert rc == 0
    assert sorted(payload) == ["checks", "command", "config", "elapsed_ms", "results"]
    assert payload["command"] == "amatrix"
    assert payload["config"]["fmt"] == "json"
    rc, payload = run_json(capsys, ["beta", "1"])
    assert payload["config"]["order"] == 64


@pytest.mark.parametrize(
    "command, config",
    [
        (["amatrix", "3"], ["fmt"]),
        (["qcoeff", "2", "4"], ["fmt"]),
        (["beta", "1"], ["order", "precision", "fmt"]),
        (["eval", "1", "1", "--skip-oracles"], ["order", "precision", "quad_tol", "compare_tol", "fmt"]),
        (["verify", "table1"], ["fmt"]),
    ],
)
def test_config_lists_only_settings_read(capsys, command, config):
    rc, payload = run_json(capsys, command)
    assert list(payload["config"]) == config


UNREAD_FLAGS = [
    (command, flag)
    for command, flags in [
        (["amatrix", "3"], ["-N", "--order", "--prec", "--tol", "--compare-tol"]),
        (["qcoeff", "2", "4"], ["-N", "--order", "--prec", "--tol", "--compare-tol"]),
        (["beta", "1"], ["--tol", "--compare-tol"]),
        (["verify", "table1"], ["-N", "--order", "--prec", "--tol", "--compare-tol"]),
    ]
    for flag in flags
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[f"{c[0]}{f}" for c, f in UNREAD_FLAGS])
def test_unread_shared_flag_is_usage_error(capsys, command, flag):
    # a setting the subcommand would ignore is refused, not echoed in config
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, flag, "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_amatrix_table(capsys):
    rc, payload = run_json(capsys, ["amatrix", "3", "--check", "--det"])
    assert rc == 0
    assert payload["results"]["rows"] == [[1], [0, 1], [0, 2, 2], [0, 2, 9, 6]]
    assert payload["results"]["determinant"] == 12
    assert len(payload["checks"]) == 3
    assert all(c["ok"] for c in payload["checks"])


def test_amatrix_trivial(capsys):
    rc, payload = run_json(capsys, ["amatrix", "0"])
    assert payload["results"]["rows"] == [[1]]


def test_amatrix_six_with_checks(capsys):
    rc, payload = run_json(capsys, ["amatrix", "6", "--check", "--det"])
    assert rc == 0
    assert payload["results"]["determinant"] == 24883200


def test_qcoeff_table(capsys):
    rc, payload = run_json(capsys, ["qcoeff", "2", "4"])
    assert rc == 0
    rows = payload["results"]["coefficients"]
    assert [r["recurrence"] for r in rows[1:]] == ["1", "1/4", "1/9", "1/16"]
    assert payload["results"]["paths_agree"] is True


def test_qcoeff_level_four_zeros(capsys):
    rc, payload = run_json(capsys, ["qcoeff", "4", "2"])
    assert rc == 0
    rows = payload["results"]["coefficients"]
    assert all(r["closed_form"] == "0" for r in rows)


def test_qcoeff_disagreement_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "q_closed_form", lambda n, s: Fraction(7))
    rc, payload = run_json(capsys, ["qcoeff", "2", "3"])
    assert rc == 1
    assert payload["results"]["paths_agree"] is False


def test_qcoeff_validation(capsys):
    assert cli.main(["qcoeff", "2", "0"]) == 2
    assert "smax" in capsys.readouterr().err


def test_beta_values(capsys):
    rc, payload = run_json(capsys, ["beta", "2"])
    assert rc == 0
    rows = payload["results"]["betas"]
    assert [sorted(r) for r in rows] == [["n", "tail", "value"]] * 3
    assert rows[0]["value"] == 1.0
    assert rows[1]["value"] == 0.0
    assert abs(rows[2]["value"] + 0.8224670334) < 1e-9


def test_beta_zero(capsys):
    rc, payload = run_json(capsys, ["beta", "0"])
    assert [r["value"] for r in payload["results"]["betas"]] == [1.0]


def test_eval_paths(capsys):
    rc, payload = run_json(capsys, ["eval", "1", "1"])
    assert rc == 0
    r = payload["results"]
    for key in ("series", "quadrature", "reconstruction"):
        assert abs(r[key] - math.log(2)) < 1e-6
    assert r["max_pairwise_diff"] < 1e-6
    assert payload["checks"][0]["ok"]


def test_eval_skip_oracles(capsys):
    rc, payload = run_json(capsys, ["eval", "0", "7.5", "--skip-oracles"])
    assert rc == 0
    r = payload["results"]
    assert r["series"] == 1.0
    assert r["quadrature"] is None
    assert r["reconstruction"] is None
    assert payload["checks"] == []


def test_eval_conv_mode(capsys):
    rc, payload = run_json(capsys, ["eval", "--conv", "2", "1", "--lambda", "0", "--a", "1"])
    assert rc == 0
    r = payload["results"]
    want = 2 * math.log(2) / 3
    for key in ("series", "quadrature", "reconstruction"):
        assert abs(r[key] - want) < 1e-6
    assert r["x"] == 1.0


@pytest.mark.parametrize(
    "argv, stalled",
    [
        (["eval", "4", "1e4"], "quadrature"),  # n + 1 = 5 has no reconstruction path
        (["eval", "--conv", "2", "1e20"], "reconstruction"),
    ],
)
def test_oracle_stall_is_a_failed_check(capsys, argv, stalled):
    # the stalled path reads null and one failed check carries why; the
    # series value stands, and the exit status is that of a failed check
    rc, payload = run_json(capsys, argv)
    assert rc == 1
    r = payload["results"]
    assert math.isfinite(r["series"]) and r[stalled] is None
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert len(failed) == 1 and failed[0]["name"] == f"{stalled}-oracle"
    assert "grid refinement stalled" in failed[0]["detail"]


def test_eval_domain_error(capsys):
    assert cli.main(["eval", "-1", "1"]) == 2
    assert "n must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "3", "inf", "--skip-oracles"],
        ["eval", "--conv", "2", "inf"],
        ["verify", "derivative", "--y", "inf"],
        ["verify", "derivative", "--y", "nan"],
        ["verify", "elimination", "--y", "nan"],
        ["verify", "elimination", "--y", "inf"],
        ["eval", "--conv", "2", "1", "--a", "inf"],
        ["eval", "2", "1", "--lam", "inf", "--skip-oracles"],
    ],
)
def test_eval_non_finite_point(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


def test_verify_table1(capsys):
    rc, payload = run_json(capsys, ["verify", "table1"])
    assert rc == 0
    assert payload["results"]["passed"] == payload["results"]["total"] == 7


def test_verify_narrowed(capsys):
    rc, payload = run_json(capsys, ["verify", "reflection", "--n", "1", "--y", "2"])
    assert rc == 0
    assert payload["results"]["total"] == 1
    assert "n=1" in payload["checks"][0]["name"]


def test_verify_reflection_stall_is_a_failed_check(capsys):
    # a quadrature that does not converge fails that point's check (exit 1), not the usage (exit 2)
    rc = cli.main(["verify", "reflection", "--n", "0", "--y", "1e12"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert (rc, captured.err) == (1, "")
    assert (payload["results"]["total"], payload["results"]["passed"]) == (1, 0)
    assert "did not converge" in payload["checks"][0]["detail"]


@pytest.mark.parametrize("n, y", [("1", "1e30"), ("4", "1e300")])
def test_verify_reflection_beyond_float_resolution_fails_at_once(capsys, n, y):
    # from y = 2^52 on no float node resolves the kernel's width-1 peak at s = y
    started = time.perf_counter()
    rc = cli.main(["verify", "reflection", "--n", n, "--y", y])
    elapsed = time.perf_counter() - started
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1 and elapsed < 2.0
    assert (payload["results"]["total"], payload["results"]["passed"]) == (1, 0)
    assert payload["checks"][0]["detail"].startswith(f"float resolution near y={float(y)} is ")


def test_verify_derivative_beyond_the_rounding_floor_names_it(capsys):
    rc, payload = run_json(capsys, ["verify", "derivative", "--n", "1", "--y", "1e40"])
    assert rc == 1
    point = payload["checks"][0]
    assert (point["name"], point["ok"]) == ("derivative n=1 y=1e+40", False)
    assert point["detail"].startswith("rounding floor (y + n)|f_n(y)|/(2^128 h) = ")


def test_verify_dualpath_args(capsys):
    rc, payload = run_json(capsys, ["verify", "dualpath", "--nmax", "3", "--smax", "6"])
    assert rc == 0
    assert all(c["ok"] for c in payload["checks"])


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "table1", "--nmax", "9"], "does not take --nmax"),
        (["verify", "all", "--n", "3"], "does not take --n"),
        (["verify", "dualpath", "--nmax", "1"], "ran no checks"),
        (["verify", "stirling", "--nmax", "-3"], "ran no checks"),
        (["verify", "beta", "--nmax", "0"], "needs n_max >= 1"),
        (["verify", "specials", "--smax", "-1"], "needs s_max >= 0"),
        (["verify", "derivative", "--y", "0"], "got h=0.0001, y=0.0"),
        (["verify", "derivative", "--y", "1e-9"], "got h=0.0001, y=1e-09"),
        (["verify", "dualpath", "--smax", "0"], "needs s_max >= 1, got 0"),
        (["verify", "dualpath", "--smax", "-2"], "needs s_max >= 1, got -2"),
        (["qcoeff", "-1", "3"], "level must be >= 0"),
        (["beta", "-1"], "nmax must be >= 0"),
        (["eval", "2", "-1"], "y must be >= 0"),
    ],
)
def test_verify_ignored_flag_or_no_checks_is_usage_error(capsys, argv, reason):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert reason in captured.err


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_csv_output(capsys):
    rc = cli.main(["beta", "2", "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["n"] for r in rows] == ["0", "1", "2"]
    assert float(rows[2]["value"]) == pytest.approx(-0.8224670334, abs=1e-9)


def test_csv_output_checks_fallback(capsys):
    rc = cli.main(["verify", "table1", "--format", "csv"])
    out = capsys.readouterr().out
    reader = csv.DictReader(io.StringIO(out))
    assert set(reader.fieldnames) >= {"name", "ok"}


def test_order_flag(capsys):
    rc, payload = run_json(capsys, ["beta", "1", "-N", "48"])
    assert payload["config"]["order"] == 48


def test_config_validation(capsys):
    assert cli.main(["beta", "1", "-N", "4"]) == 2
    assert cli.main(["eval", "1", "1", "--tol", "-1"]) == 2
    assert cli.main(["eval", "1", "1", "--compare-tol", "0"]) == 2
    assert cli.main(["beta", "1", "--prec", "8"]) == 2


@pytest.mark.parametrize("argv", [["eval", "6", "3.7", "--skip-oracles"], ["verify", "table1"]])
def test_closed_stdout_pipe(argv):
    # The pipe's read end is closed before the child starts, so its first
    # write meets a closed pipe every time, as under `| head -1` at worst.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "convpow.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=CHILD_ENV, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 0


def test_deep_level_is_not_a_traceback():
    # level 1500 is far above the default recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "convpow.cli", "qcoeff", "1500", "2"],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["n"] == 1500


IMPORT_GRAPH = """
import contextlib, io, json, sys
import convpow
from convpow import cli

def loaded():
    return sorted(m for m in ("csv", "dataclasses", "numpy", "scipy") if m in sys.modules)

with contextlib.redirect_stdout(io.StringIO()):
    series_rc = cli.main(["eval", "6", "3.7", "--skip-oracles"])
    series_loaded = loaded()
    oracle_rc = cli.main(["verify", "oracle"])
    oracle_loaded = loaded()
    eval_rc = cli.main(["eval", "4", "2.5"])
    eval_loaded = loaded()
    conv_rc = cli.main(["eval", "--conv", "3", "1.5"])
    all_rc = cli.main(["verify", "all"])
print(json.dumps([series_rc, series_loaded, oracle_rc, oracle_loaded, eval_rc, eval_loaded, conv_rc, all_rc, loaded()]))
"""


def test_series_path_loads_neither_numpy_nor_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH], capture_output=True, env=CHILD_ENV, text=True, timeout=300, check=True
    )
    series_rc, series_loaded, oracle_rc, oracle_loaded, eval_rc, eval_loaded, conv_rc, all_rc, last_loaded = json.loads(
        proc.stdout
    )
    assert (series_rc, series_loaded) == (0, [])
    # the oracles, the f oracle's cumulative Simpson included, are plain Python
    assert (oracle_rc, oracle_loaded) == (0, [])
    assert (eval_rc, eval_loaded) == (0, [])
    assert (conv_rc, all_rc) == (0, 0)
    assert last_loaded == []


def test_package_imports_only_the_standard_library_and_mpmath():
    # every import statement in the package, function-level ones included
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "mpmath", f"{path.name}:{node.lineno} imports {name}"


def _readme_flags() -> dict[str, set[str]]:
    """The flags README's CLI section lists in each subcommand's bullet."""
    section = README.read_text().split("## CLI quick start", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)[^`]*`:(.*?)(?=^\S|\Z)", section, re.M | re.S)
    return {
        name: {flag for spelled in re.findall(r"`(-[^`\s]*)`", body) for flag in spelled.split("/")}
        for name, body in bullets
    }


def test_readme_lists_every_flag_of_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = _readme_flags()
    assert sorted(readme) == sorted(sub.choices)
    for name, parser in sub.choices.items():
        flags = {o for action in parser._actions for o in action.option_strings} - {"-h", "--help"}
        # both ways: each flag is documented, and each documented flag exists
        assert readme[name] == flags, name


# The acceptance commands of the bit-for-bit changes, and a sha256 over
# "$ <command> -> <exit status>" plus each one's output, JSON re-dumped
# without elapsed_ms, as the CLI printed them once f_n and beta came from
# G_n's exact ln-parts (only the tails moved in these digits).
FROZEN_COMMANDS = (
    "eval 4 2.5",
    "eval 10 0.25",
    "eval 10 20",
    "eval 1 3",
    "eval 9 7.3 --skip-oracles",
    "eval 0 2.5",
    "eval 1 0 --skip-oracles",
    "beta 10",
    "qcoeff 3 12",
    "amatrix 6 --check --det",
    "amatrix 3 --format csv",
    "eval --conv 3 1.5",
    "eval --conv 8 12 --lam 1 --a 0.5",
    "verify all",
)
FROZEN_OUTPUT_SHA256 = "e8f6e085e0a1ae0943d70651c8f62c3e0b94bd66c98a0c1fac7e75aa6bf59b40"


def test_cli_output_frozen(capsys):
    chunks = []
    for command in FROZEN_COMMANDS:
        rc = cli.main(command.split())
        text = capsys.readouterr().out
        if "--format csv" not in command:
            payload = json.loads(text)
            del payload["elapsed_ms"]
            text = json.dumps(payload, indent=2) + "\n"
        chunks.append(f"$ {command} -> {rc}\n{text}")
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == FROZEN_OUTPUT_SHA256


def test_qcoeff_builds_the_fraction_view_once(monkeypatch, capsys):
    # each build makes smax + 1 Fractions, so one per row made qcoeff quadratic in smax
    builds = []
    coeffs = PowerSeriesInvX.coeffs.fget
    monkeypatch.setattr(PowerSeriesInvX, "coeffs", property(lambda self: builds.append(self) or coeffs(self)))
    assert cli.main(["qcoeff", "1", "40"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["coefficients"]) == 41
    assert len(builds) == 1

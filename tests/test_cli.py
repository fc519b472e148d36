import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from mdsforge import cli


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_gamma_json_passes():
    code, out = run_cli(["gamma"])
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["config"]["q_char"] == 5
    assert any(item["name"] == "eight_rows_match_defining_sum"
               for item in doc["items"])


def test_determinism_modulo_timestamp():
    _, out1 = run_cli(["gamma", "--seed", "13"])
    _, out2 = run_cli(["gamma", "--seed", "13"])
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', s)
    assert strip(out1) == strip(out2)


def test_residues_subcommand():
    code, out = run_cli(["residues", "--format", "text"])
    assert code == 0
    assert "boundary_residue_identity" in out


def test_extract_small():
    code, out = run_cli(["extract", "--cutoff", "6", "--n-max", "6"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_cg_quick():
    code, out = run_cli(["verify-cg", "--trials", "4", "--seed", "99"])
    assert code == 0
    doc = json.loads(out)
    assert doc["items"][0]["status"] == "pass"


def test_moments_with_cache(tmp_path):
    code, out = run_cli(["moments", "--d-max", "3",
                         "--cache-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    values = {item["name"]: item for item in doc["items"]}
    assert values["S(1)"]["value"]["a"] == "5/1"
    # second run reads the cache and reproduces the report
    code2, out2 = run_cli(["moments", "--d-max", "3",
                           "--cache-dir", str(tmp_path)])
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', "-", s)
    assert strip(out) == strip(out2)


def _sieve_check(out):
    return [i for i in json.loads(out)["items"]
            if i["name"] == "sieve_reconstruction_cross_check"]


def test_moments_q13_sieve_cross_check_passes():
    code, out = run_cli(["moments", "--q", "13", "--d-max", "4"])
    assert code == 0
    assert [i["status"] for i in _sieve_check(out)] == ["pass"]


def test_moments_sieve_cross_check_catches_a_dropped_modulus(monkeypatch):
    # the class fill and the sieve read the same central values, so the
    # check guards the mu-sieve: drop the modulus h = x from it
    from mdsforge import fq
    mobius = fq.mobius
    monkeypatch.setattr(fq, "mobius", lambda F, h: 0 if h == (0, 1) else mobius(F, h))
    code, out = run_cli(["moments", "--d-max", "3"])
    assert code == 1
    assert [i["status"] for i in _sieve_check(out)] == ["fail"]


def test_moments_negative_degree_is_rejected():
    code, out = run_cli(["moments", "--d-max", "-1"])
    assert code == 1
    errors = [i["error"] for i in json.loads(out)["items"] if i["name"] == "internal_error"]
    assert len(errors) == 1 and errors[0].startswith("ValueError")


@pytest.mark.parametrize("argv", [["--n-max", "-1"], ["--n-max", "0", "--d-max", "-1"]])
def test_verify_series_negative_degree_is_rejected(argv):
    # a negative bound would compare no buckets and report pass
    code, out = run_cli(["verify-series"] + argv)
    assert code == 1
    errors = [i["error"] for i in json.loads(out)["items"] if i["name"] == "internal_error"]
    assert len(errors) == 1 and errors[0].startswith("ValueError")


def test_moments_does_not_import_numpy():
    # numpy alone would add about 14 MB to the peak RSS of a moments run
    code = ("import sys\n"
            "from mdsforge import cli\n"
            "cli.main(['moments', '--q', '5', '--d-max', '6'])\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_report_secondary_is_diagnostic(tmp_path):
    code, out = run_cli(["report-secondary", "--d-max", "4",
                         "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["status"] == "diagnostic"


@pytest.mark.parametrize("field", [["--q", "3", "--ext-degree", "2"], ["--q", "13"]])
def test_rterm_runs_past_q5(field):
    # the Euler-product tail once formed q**k / k as a float, which
    # overflows at q = 9 and 13
    code, out = run_cli(["rterm", "--d-max", "1"] + field)
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) == 2
    assert all(math.isfinite(item["tail_bound"]) for item in items)


@pytest.mark.parametrize("argv", [["--prod-deg-max", "1"], ["--h-deg-max", "-1"]])
def test_residue_z0_bad_degree_is_rejected(argv):
    code, out = run_cli(["residue-z0"] + argv)
    assert code == 1
    errors = [i["error"] for i in json.loads(out)["items"] if i["name"] == "internal_error"]
    assert len(errors) == 1 and errors[0].startswith("ValueError")


def test_env_override(monkeypatch):
    monkeypatch.setenv("MDSFORGE_TRIALS", "3")
    parser = cli.build_parser()
    args = parser.parse_args(["verify-cg"])
    assert args.trials == 3


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["not-a-command"])
    assert exc.value.code == 2


def test_csv_format():
    code, out = run_cli(["gamma", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "name,status,detail"


def test_failure_exit_code(monkeypatch):
    # force an internal failure path: invalid field characteristic
    code, out = run_cli(["gamma", "--q", "7"])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert "internal_error" in {i["name"] for i in doc["items"]}

"""The example scripts run end to end on the package in ``src``."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def test_certificate_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "certificate_demo.py")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_fixed_clock_digest_is_stable(tmp_path):
    # one line per report, trace and exit code of each of the four commands,
    # two for list-problems, and the same lines on a second run of the same checkout
    cmd = [sys.executable, str(ROOT / "scripts" / "fixed_clock_digest.py"), str(ROOT),
           str(ROOT / "configs" / "quad2d_certify.json")]
    runs = [subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, check=True)
            .stdout.splitlines() for _ in range(2)]
    assert len(runs[0]) == 14
    assert runs[0] == runs[1]
    assert {line.split()[1] for line in runs[0]} == {
        "estimate", "certify", "solve", "verify-space", "list-problems"}


def _python_m(args, cwd):
    return subprocess.run([sys.executable, "-m", "gradcert", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True)


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "fixed_clock_digest", ROOT / "scripts" / "fixed_clock_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_clock_digest_lines_are_those_of_python_m_runs(tmp_path):
    # the digest's one child process reports what `python -m gradcert` writes
    # and exits with; with no output paths each report is standard output
    digest = _digest_module()
    config = tmp_path / "quad2d.json"
    config.write_text(json.dumps({k: v for k, v in json.loads(
        (ROOT / "configs" / "quad2d_certify.json").read_text()).items() if k != "output"}))
    expected = []
    for cmd in digest.COMMANDS:
        work = tmp_path / cmd
        work.mkdir()
        shutil.copy(config, work / "config.json")
        proc = _python_m([cmd, "--config", "config.json", "--fixed-clock"], work)
        tag = f"quad2d.json {cmd}"
        expected += [*digest.report_lines(tag, proc.stdout, False), f"{tag} trace absent",
                     f"{tag} exit {proc.returncode}"]
    assert {line.split()[-1] for line in expected if " exit " in line} == {"0", "3"}
    assert digest.digest(ROOT, [config]) == expected + digest.digest(ROOT, [])


def test_fixed_clock_digest_covers_list_problems(tmp_path):
    # with no configs the digest is the list-problems stdout digest and exit
    # code, the same with --fields
    digest = _digest_module()
    proc = _python_m(["list-problems"], tmp_path)
    expected = [f"- list-problems report {digest._sha(proc.stdout)}",
                f"- list-problems exit {proc.returncode}"]
    assert proc.returncode == 0
    assert digest.digest(ROOT, []) == digest.digest(ROOT, [], fields=True) == expected


def test_numeric_leaves_name_each_number_by_its_json_path():
    leaves = _digest_module().numeric_leaves(
        {"a": {"b": [1, 2.5, True, "x", None, {"c": -0.0}]}, "d": 1e-300, "e": False})
    assert list(leaves) == [("a.b[0]", "1"), ("a.b[1]", "2.5"), ("a.b[5].c", "-0.0"),
                            ("d", "1e-300")]


def test_fixed_clock_digest_fields_lists_every_numeric_leaf(tmp_path):
    # the same exit lines as the digest, and a line per numeric report leaf and
    # trace cell in place of each report and trace digest
    config = ROOT / "configs" / "linear_minres.json"
    cmd = [sys.executable, str(ROOT / "scripts" / "fixed_clock_digest.py"), str(ROOT),
           str(config)]
    digest, fields = (subprocess.run(cmd + extra, cwd=tmp_path, capture_output=True,
                                     text=True, check=True).stdout.splitlines()
                      for extra in ([], ["--fields"]))
    assert [line for line in fields if " exit " in line] == [
        line for line in digest if " exit " in line]
    # the list-problems pair ends both; it keeps its digest
    assert fields[-2:] == digest[-2:]
    fields = fields[:-2]
    assert not any(" report " in line for line in fields)
    for line in fields:
        name, command, path, value = line.split(" ")
        assert name == config.name and command in {"estimate", "certify", "solve",
                                                   "verify-space"}
        if path not in ("trace", "exit"):
            float(value)
    paths = {tuple(line.split(" ")[1:3]) for line in fields}
    assert {("certify", "certificate.r"), ("solve", "trace.res_norm[0]"),
            ("solve", "exit_status")} <= paths


def test_fields_moved_names_each_moved_field_and_each_one_sided_line(tmp_path):
    parent = tmp_path / "parent.txt"
    change = tmp_path / "change.txt"
    parent.write_text("\n".join([
        "a.json estimate estimates.nu_tilde.value 0.5",
        "a.json estimate apriori_bounds[0].bound 1.0",
        "a.json estimate apriori_bounds[1].bound 2.0",
        "a.json estimate exit 0",
        "b.json estimate apriori_bounds[0].bound 4.0",
        "b.json solve trace.res_norm[0] 0.001",
        "b.json solve exit 0"]) + "\n")
    change.write_text("\n".join([
        "a.json estimate estimates.nu_tilde.value 0.5",
        "a.json estimate apriori_bounds[0].bound 1.0000000000000002",
        "a.json estimate apriori_bounds[1].bound 2.0",
        "a.json estimate exit 0",
        "b.json estimate apriori_bounds[0].bound 3.0",
        "b.json solve trace.res_norm[0] 0.001",
        "b.json solve trace.res_norm[1] 0.0001",
        "b.json solve exit 1"]) + "\n")

    def fields_moved(a, b):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "fields_moved.py"),
                               str(a), str(b)],
                              capture_output=True, text=True, check=True).stdout.splitlines()

    assert fields_moved(parent, change) == [
        "2 of 5 numeric values moved",
        "estimate apriori_bounds[].bound: 2 of 3 moved, largest relative 0.25 (4.0 -> 3.0)",
        "only in parent: b.json solve exit 0",
        "only in change: b.json solve trace.res_norm[1] 0.0001",
        "only in change: b.json solve exit 1"]
    assert fields_moved(change, change) == ["0 of 6 numeric values moved"]

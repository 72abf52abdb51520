#!/usr/bin/env python3
"""Digest every CLI output of a checkout, to prove a refactor changed no byte.

Runs ``gradcert <command> --fixed-clock`` for each config under estimate,
certify, solve and verify-space, and ``gradcert list-problems`` once, using
the ``src`` of the given checkout.
Each run gets its own working directory inside a temporary directory, so
relative output paths (and the config echoed into the report) are the
same for every checkout.  All runs share one child process, which puts the
checkout's ``src`` on ``sys.path`` and calls ``gradcert.cli.main`` on each,
capturing standard output; its exit codes are those of
``python -m gradcert``: a ``SystemExit`` keeps its code, and an uncaught
exception counts as 1.  Prints one line per report, trace and exit code:

    <config> <command> report|trace|exit <sha256 | absent | code>

and last the digest of the standard output of ``list-problems``, which
reads no config, and its exit code, with or without ``--fields``:

    - list-problems report <sha256>
    - list-problems exit <code>

Diff the output for two checkouts; an empty diff means every report, trace
and exit code is byte-identical.  A report that goes to standard output
(no ``report_path``) is digested from there.

With ``--fields`` each numeric leaf of a JSON report, and each numeric cell
of a CSV trace, is printed in place of the digest, as

    <config> <command> <json.path> <repr>
    <config> <command> trace.<column>[<row>] <repr>

(``<json.path>`` such as ``certificate.r`` or ``apriori_bounds[0].bound``),
so a diff of two checkouts names every field that moved and both values.
A report that is not JSON keeps its digest line.

With ``--bench-seeds S ...`` the case configs of every benchmark workload
at each seed S are added, built from this repository's
``bench/workloads.py`` and written with the output names ``report.json``
and ``trace.csv``, so both checkouts run the same files.

Usage: python scripts/fixed_clock_digest.py CHECKOUT [CONFIG ...] [--bench-seeds S ...] [--fields]
       (default configs: CHECKOUT/configs/*.json)
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("estimate", "certify", "solve", "verify-space")
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numeric_leaves(value, path: str = ""):
    """(json.path, repr) of each int or float leaf of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_leaves(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, repr(value)


def report_lines(tag: str, data: bytes, fields: bool) -> list[str]:
    if fields:
        try:
            report = json.loads(data)
        except ValueError:
            pass
        else:
            return [f"{tag} {path} {value}" for path, value in numeric_leaves(report)]
    return [f"{tag} report {_sha(data)}"]


def trace_lines(tag: str, data: bytes | None, fields: bool) -> list[str]:
    if data is None:
        return [f"{tag} trace absent"]
    if not fields:
        return [f"{tag} trace {_sha(data)}"]
    lines = []
    for row, cells in enumerate(csv.DictReader(io.StringIO(data.decode()))):
        for column, cell in cells.items():
            try:
                value = repr(float(cell))
            except (TypeError, ValueError):
                continue
            lines.append(f"{tag} trace.{column}[{row}] {value}")
    return lines


# The child process: argv is (src, jobs.json, results.json).  Each job is a
# (working directory, CLI arguments) pair; each result its exit code and stdout.
_CHILD = """
import contextlib, io, json, os, sys, traceback
src, jobs, results = sys.argv[1:]
sys.path.insert(0, src)
from gradcert import cli
out = []
for work, argv in json.load(open(jobs)):
    os.chdir(work)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    # as the interpreter exits: None is 0, and a code that is not an int is 1
    code = 0 if code is None else code if isinstance(code, int) else 1
    out.append((code, stdout.getvalue()))
json.dump(out, open(results, "w"))
"""


def digest(checkout: Path, configs: list[Path], fields: bool = False) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for k, cfg in enumerate(configs):
            for cmd in COMMANDS:
                work = Path(tmp) / f"{k}-{cmd}"
                work.mkdir()
                shutil.copy(cfg, work / "config.json")
                runs.append((cfg, cmd, work))
        jobs, results = Path(tmp) / "jobs.json", Path(tmp) / "results.json"
        jobs.write_text(json.dumps(
            [(str(work), [cmd, "--config", "config.json", "--fixed-clock"])
             for _, cmd, work in runs] + [(tmp, ["list-problems"])]))
        subprocess.run([sys.executable, "-c", _CHILD, str(checkout / "src"), str(jobs),
                        str(results)], cwd=tmp, env=env, check=True)
        *outputs, (listed_code, listing) = json.loads(results.read_text())
        for (cfg, cmd, work), (code, stdout) in zip(runs, outputs):
            output = json.loads(cfg.read_text()).get("output") or {}
            tag = f"{cfg.name} {cmd}"
            report = work / (output.get("report_path") or "-")
            lines += report_lines(
                tag, report.read_bytes() if report.is_file() else stdout.encode(), fields)
            trace = work / (output.get("trace_path") or "-")
            lines += trace_lines(tag, trace.read_bytes() if trace.is_file() else None, fields)
            lines.append(f"{tag} exit {code}")
        lines += [f"- list-problems report {_sha(listing.encode())}",
                  f"- list-problems exit {listed_code}"]
    return lines


def bench_configs(seeds: list[int], out: Path) -> list[Path]:
    """Write every benchmark case config at each seed into ``out``."""
    sys.path.insert(0, str(BENCH))
    import workloads

    paths = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for case in workloads.build(name, seed):
                path = out / f"{name}-s{seed}-{case.name}.json"
                path.write_text(json.dumps(dict(
                    case.config,
                    output={"report_path": "report.json", "trace_path": "trace.csv"})))
                paths.append(path)
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("configs", type=Path, nargs="*")
    parser.add_argument("--bench-seeds", type=int, nargs="+", default=[],
                        help="add the benchmark case configs at these seeds")
    parser.add_argument("--fields", action="store_true",
                        help="print each numeric report leaf and trace cell, not a digest")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    configs = [c.resolve() for c in args.configs] or sorted(
        (checkout / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        configs += bench_configs(args.bench_seeds, Path(tmp))
        for line in digest(checkout, configs, args.fields):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

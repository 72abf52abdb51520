"""gradcert benchmark: wall time of each CLI subcommand, and per-layer counters.

Usage, from the root of a checkout (nothing needs to be installed):

    python3 bench/run.py --workload certified-closed-form --seed 1 --seconds 35 --trace 0

The run imports gradcert from ``src``, writes the workload's configs, and
repeats whole passes over them through ``gradcert.cli.main`` with
``--fixed-clock`` until the next pass would overrun ``--seconds``.  All
reports and traces go to a temporary directory under ``.bench_tmp`` that
is removed at exit.  After the passes, every output of the first pass is
checked against references computed apart from the program (see
``checks.py``), and every later pass must reproduce it byte for byte.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: per-subcommand time summed over a pass, median
over passes, plus set-up time and peak resident size.  With ``--trace 1``
the same passes run with spans and counts recorded around the public
functions of each layer (see ``tracer.py``), and the JSON holds the
per-layer metrics: self times as medians over passes, counts from one
pass (they must repeat exactly in every pass).
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads: the machine is small
# and shared, and threaded kernels on tiny matrices only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

COMMANDS = {"solve": "solve_s", "certify": "certify_s", "estimate": "estimate_s",
            "verify-space": "verify_space_s"}
SETUP_REPEATS = 11


def _output_names(case) -> tuple[str, str | None]:
    trace = f"{case.name}.trace.csv" if case.command == "solve" else None
    return f"{case.name}.report.json", trace


def setup(workload: str, seed: int):
    """Import gradcert afresh and write the workload's configs; returns (seconds, package, cases)."""
    for mod in [m for m in sys.modules if m == "gradcert" or m.startswith("gradcert.")]:
        del sys.modules[mod]
    t0 = perf_counter()
    pkg = importlib.import_module("gradcert")
    importlib.import_module("gradcert.cli")
    cases = workloads.build(workload, seed)
    for case in cases:
        report, trace = _output_names(case)
        config = dict(case.config, output={"report_path": report, "trace_path": trace})
        Path(f"{case.name}.config.json").write_text(json.dumps(config, indent=1))
    return perf_counter() - t0, pkg, cases


def run_pass(pkg, cases, tracer):
    """One pass over the cases: per-subcommand time, exit codes, output bytes."""
    times = dict.fromkeys(COMMANDS.values(), 0.0)
    codes, outputs = [], []
    if tracer is not None:
        tracer.reset()
    for case in cases:
        paths = [Path(name) if name else None for name in _output_names(case)]
        for path in filter(None, paths):
            path.unlink(missing_ok=True)
        argv = [case.command, "--config", f"{case.name}.config.json", "--fixed-clock"]
        t0 = perf_counter()
        code = pkg.cli.main(argv)
        times[COMMANDS[case.command]] += perf_counter() - t0
        codes.append(code)
        outputs.append(tuple(p.read_text() if p and p.exists() else None for p in paths))
    layers = None
    if tracer is not None:
        tracer.counts["cli.report_bytes"] += sum(len(r.encode()) for r, _ in outputs if r)
        tracer.counts["cli.trace_bytes"] += sum(len(t.encode()) for _, t in outputs if t)
        layers = tracer.snapshot()
    return times, codes, outputs, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gradcert" / "__init__.py").is_file():
        print(f"gradcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    TMP.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    home = os.getcwd()
    os.chdir(workdir)  # relative output paths keep reports independent of the checkout path
    try:
        return measure(args)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args) -> int:
    importlib.import_module("gradcert.cli")  # untimed: loads numpy, compiles bytecode
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, pkg, cases = setup(args.workload, args.seed)
        setup_times.append(seconds)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(pkg)
    passes = []
    start = perf_counter()
    try:
        while True:
            gc.collect()
            t0 = perf_counter()
            passes.append(run_pass(pkg, cases, tracer))
            now = perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _, codes, outputs, layers = passes[0]
    errors = []
    for i, p in enumerate(passes[1:], start=2):
        if p[1] != codes or p[2] != outputs:
            errors.append(f"pass {i} did not reproduce the outputs of pass 1")
        if tracer is not None and any(
                p[3][k] != layers[k] for k, (kind, _) in METRICS.items() if kind != "self"):
            errors.append(f"pass {i} did not repeat the per-layer counts of pass 1")
    replays: dict = {}
    for case, code, out in zip(cases, codes, outputs):
        if code != 0:
            tag = f"known fault {case.fault}" if case.fault else "unexpected"
            print(f"failed: {case.name} exit {code} ({tag})", file=sys.stderr)
            continue
        errors += [f"{case.name}: {e}" for e in checks.check_case(pkg, case, *out, replays)]
    for e in errors:
        print(f"check: {e}", file=sys.stderr)

    times = {k: [p[0][k] for p in passes] for k in COMMANDS.values()}
    if tracer is None:
        metrics = {k: {"value": statistics.median(v), "unit": "s"} for k, v in times.items()}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        metrics = {}
        for name, (kind, _) in METRICS.items():
            if kind == "self":
                metrics[name] = {"value": statistics.median(p[3][name] for p in passes),
                                 "unit": "s"}
            else:
                unit = "B" if name.endswith("_bytes") else "count"
                metrics[name] = {"value": int(layers[name]), "unit": unit}
    summary = {k: round(statistics.median(v), 6) for k, v in times.items()}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} cases={len(cases)} median_s={json.dumps(summary)}")
    print(json.dumps({"correct": not errors,
                      "attempted": len(cases) * len(passes),
                      "failed": sum(c != 0 for p in passes for c in p[1]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

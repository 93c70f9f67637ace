#!/usr/bin/env python3
"""Benchmark of the skewstone duality pipeline.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
A run is a closed loop: one process, one operation at a time.  It sets up,
then runs whole rounds of its workload (a fixed list of operations, with
fresh seeded inputs each round) and checks every output outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run records and trace files go to ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, cpu_now

# Fixed before NumPy loads: one BLAS thread, as in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3     # before and again after the timed rounds
IMPORT_SAMPLES = 3

STAGES = (
    "spaces_sections.dual_algebra", "core_algebra.validate_algebra",
    "core_algebra.green_partitions", "core_algebra.handedness",
    "core_algebra.second_decomposition_check", "ideals_spectra.skew_spectrum",
    "morphisms_duality.algebra_roundtrip_iso", "morphisms_duality.space_roundtrip_iso",
    "morphisms_duality.enumerate_homs", "morphisms_duality.classify_hom",
    "morphisms_duality.check_variant_dualities", "morphisms_duality.enumerate_space_morphisms",
    "lattice_sections.section_equivalence_check",
)
CLI_COMMANDS = ("dualize", "validate", "roundtrip", "spectrum", "homs", "section")
COUNTS = ("core_algebra.validate_algebra.law_instances", "ideals_spectra.spectrum_points",
          "morphisms_duality.homs_found", "spaces_sections.table_entries",
          "jsonio.bytes_out", "jsonio.bytes_in")


def per_layer_units():
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    from workloads import LADDER, LADDER_STAGES

    units = {}
    for stage in STAGES:
        units[f"{stage}.s"] = units[f"{stage}.cpu_s"] = "s"
    for name, _, kind in LADDER:
        for stage in LADDER_STAGES:
            if kind == "plain" or not stage.startswith("lattice_sections"):
                units[f"{stage}.{name}.s"] = "s"
    units["cli.import.s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.s"] = "s"
    for name in COUNTS:
        units[name] = "bytes" if name.startswith("jsonio") else "count"
    units["core_algebra.validate_algebra.law_instances_per_s"] = "1/s"
    units["morphisms_duality.homs_per_s"] = "1/s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def mono():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prepare(name, seed, workdir):
    """Set-up: import the package, make the first round's inputs, warm up.
    Returns (workload, first inputs)."""
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    inputs = workload.inputs(random.Random(f"{name}:{seed}:0"))
    warm = workload.warm_inputs(random.Random(f"{name}:{seed}:warm"))
    for inp in warm:
        workload.check(inp, workload.run(inp, Tracer()))
    return workload, inputs


def timed_children(argv, samples, env):
    """Seconds from spawning ``argv`` until it prints its ready time, once
    per sample."""
    out = []
    for _ in range(samples):
        t0 = mono()
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True)
        out.append(float(proc.stdout.decode().split()[-1]) - t0)
    return out


def measure_setup(args, env):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return timed_children(argv, SETUP_SAMPLES, env)


def measure_import(env):
    code = "import time, skewstone; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    return timed_children([sys.executable, "-c", code], IMPORT_SAMPLES, env)


def run_rounds(workload, first_inputs, args, tracer, n_rounds):
    """Run ``n_rounds`` whole rounds; a traced run alternates untraced and
    traced rounds.  Returns per-round walls and CPU times, per-op walls,
    counts and problems.  Checks run after each operation, outside its
    timing."""
    rounds, op_walls, counts = [], [], {}
    attempted = failed = 0
    bad = []
    inputs = first_inputs
    for r in range(n_rounds):
        if r:
            inputs = workload.inputs(random.Random(f"{args.workload}:{args.seed}:{r}"))
        tracer.enabled = bool(args.trace) and r % 2 == 1
        wall = cpu = 0.0
        for inp in inputs:
            attempted += 1
            tracer.begin_op(attempted, inp[0])
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                out = workload.run(inp, tracer)
            except Exception:
                failed += 1
                bad.append(f"op {attempted} ({inp[0]}) raised:\n{traceback.format_exc()}")
                continue
            finally:
                dt, dc = time.perf_counter() - t0, cpu_now() - c0
                tracer.end_op()
            wall += dt
            cpu += dc
            op_walls.append(dt)
            try:
                workload.check(inp, out)
            except Exception as exc:    # a malformed output is a wrong one
                bad.append(f"op {attempted} ({inp[0]}) wrong: {exc!r}")
            if tracer.enabled:
                for k, v in workload.counts(inp, out).items():
                    counts[k] = counts.get(k, 0) + v
        rounds.append({"traced": tracer.enabled, "wall_s": wall, "cpu_s": cpu})
    return rounds, op_walls, counts, attempted, failed, bad


def layer_metrics(tracer, rounds, counts, import_s):
    """Per-layer metrics, each a mean over the traced rounds."""
    units = per_layer_units()
    k = sum(r["traced"] for r in rounds)
    values = dict.fromkeys(units, 0.0)
    for span in tracer.spans:
        name, wall = span["name"], span["end"] - span["start"]
        if f"{name}.s" not in units:        # operation and ladder-instance spans
            continue
        values[f"{name}.s"] += wall
        if f"{name}.cpu_s" in units:
            values[f"{name}.cpu_s"] += span["cpu"]
        parent = tracer.spans[span["parent"]]["name"]
        if parent.startswith("ladder."):
            values[f"{name}.{parent[len('ladder.'):]}.s"] += wall
    values = {name: values[name] / k for name in units}
    for name, v in counts.items():
        values[name] = v / k
    validate_s = values["core_algebra.validate_algebra.s"]
    homs_s = values["morphisms_duality.enumerate_homs.s"]
    values["core_algebra.validate_algebra.law_instances_per_s"] = (
        values["core_algebra.validate_algebra.law_instances"] / validate_s if validate_s else 0.0)
    values["morphisms_duality.homs_per_s"] = (
        values["morphisms_duality.homs_found"] / homs_s if homs_s else 0.0)
    values["cli.import.s"] = import_s
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.spans"] = len(tracer.spans) / k
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "survey", "homs", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skewstone", "__init__.py")):
        print(f"error: no skewstone sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import skewstone
    if not os.path.abspath(skewstone.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: skewstone imported from {skewstone.__file__}", file=sys.stderr)
        return 2
    from workloads import child_env
    env = child_env(ROOT)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            prepare(args.workload, args.seed, workdir)
            print(mono())
            return 0
        setup_samples = [] if args.trace else measure_setup(args, env)
        workload, inputs = prepare(args.workload, args.seed, workdir)

        # A fixed number of whole rounds for given --seconds, from the round
        # length measured on the reference machine: every run of a workload
        # then does the same work, and its cached algebras the same memory.
        n_rounds = max(1 + args.trace, int(args.seconds / workload.round_seconds + 0.5))
        n_rounds = min(n_rounds, getattr(workload, "max_rounds", n_rounds))
        tracer = Tracer()
        rounds, op_walls, counts, attempted, failed, bad = run_rounds(
            workload, inputs, args, tracer, n_rounds)
        if not args.trace:
            setup_samples += measure_setup(args, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in bad:
        print(msg, file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, rounds, counts, statistics.median(measure_import(env)))
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        rss_kib = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF).ru_maxrss
        # wall and CPU time per round, averaged over the whole run: this host's
        # speed drifts over seconds, and a longer window averages it out
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(r["cpu_s"] for r in rounds), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_walls) if op_walls else 0.0,
                          "unit": "ms"},
            "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB"},
        }
    correct = not any("wrong:" in msg for msg in bad)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, setup_samples=setup_samples,
                  op_walls=op_walls, problems=bad)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

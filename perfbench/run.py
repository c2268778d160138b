#!/usr/bin/env python3
"""Benchmark of DMopt, dosePl and timing yield, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table4_g10 --seed 1 --seconds 25 --trace 0

``--workload`` is ``table4_g10``, ``sweep_warm``, ``dosepl_yield`` or
``cells_jobs2``; ``perfbench/workloads.py`` says what each runs and
why.  A run repeats its workload -- build fresh design contexts, then
the timed work -- until ``--seconds`` have passed and at least three
times, and reports medians over the repetitions.

``--trace 0``
    Tracing off.  Reports the end-to-end metrics: ``setup_s`` (the
    context builds of a repetition), ``run_s`` (its work after set-up),
    ``cpu_s`` (its CPU seconds, pool workers included) and
    ``peak_rss_mb`` (this process plus its largest worker).
``--trace 1``
    Alternates untraced repetitions with traced ones, in which the
    public functions of every layer run inside ``repro.obs`` spans
    (``perfbench/tracing.py``).  Prints each layer's self time and
    reports the per-layer metrics; ``obs.overhead_pct`` compares the
    traced ``run_s`` with the untraced one.

Every output is checked: each DMopt result is certified, the sweep
returns one result per range and each range binds, the generated dose
map is in range and smooth, dosePl never worsens its input at signoff,
resumed harness rows equal the computed ones, work counts and golden
numbers repeat exactly across repetitions traced or not, and on the
default seed the golden numbers equal ``perfbench/reference.json``.  A
traced run also requires every tracing target to be found, the layer
spans to cover 95 % of every repetition, the root span 95 % of the
process wall time, and the solver to be the largest layer of
``table4_g10`` and idle on ``dosepl_yield``.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the ``# env`` line before it
records the host, the library versions and the thread pinning.  The
exit status is 0 when every check passed, 1 when one failed, 2 when the
``repro`` sources are missing, and 3 when ``cells_jobs2`` finds fewer
than two usable cores: it is then skipped, not measured on one.
"""

import argparse
import contextlib
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().with_name("reference.json")
#: A run's manifests and checkpoints, inside the checkout; removed when
#: the run ends.
WORK = ROOT / ".perfbench_work"

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("table4_g10", "sweep_warm", "dosepl_yield", "cells_jobs2")
DEFAULT_SEED = 1
#: Structural design scale of every workload (``make_design(scale=...)``),
#: sized so that a repetition takes seconds and a run holds several.
SCALE = 0.3
MIN_REPS = 3
MIN_COVERAGE_PCT = 95.0
MIN_ROOT_WALL_PCT = 95.0
#: Golden numbers repeat exactly on one machine; the tolerance only
#: absorbs floating-point summation order on another.
REFERENCE_RTOL = 1e-6
#: Timed sections of a repetition, reported as per-layer medians.
STAGES = ("qp_s", "qcp_s", "dosepl_s", "yield_s", "resume_s")
QUALITY = ("qcp_mct_gain_pct", "qp_leak_gain_pct", "dosepl_mct_gain_pct")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def _reap_children(timeout: float = 60.0):
    """Wait for every process this run started; kill any straggler.

    The harness shuts its pool down without waiting, so its workers
    exit on their own just after a call returns.
    """
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join()


def _repetition(run_one, args, scale, workdir):
    """One untraced repetition, its workers reaped, with its CPU time."""
    gc.collect()
    cpu0 = _cpu_seconds()
    rep = run_one(args.seed, scale, str(workdir))
    _reap_children()
    rep.measured["cpu_s"] = _cpu_seconds() - cpu0
    return rep


def run_untraced(args, scale, workdir):
    import workloads
    from repro import telemetry

    telemetry.configure(enabled=False)
    run_one = workloads.WORKLOADS[args.workload]
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < args.seconds:
        reps.append(_repetition(run_one, args, scale, workdir))
    return reps


def run_traced(args, scale, workdir, process_wall):
    """Alternate untraced and traced repetitions under one root span.

    Each traced repetition writes a manifest of its own.  Returns the
    untraced repetitions, ``(rep, layer metrics)`` per traced one, the
    tracing targets no longer found, and the root span's share of the
    process wall time in percent.
    """
    from repro import telemetry
    from repro.obs import report, span

    root_path = workdir / "root.jsonl"
    telemetry.configure(enabled=True, path=str(root_path))
    untraced, traced, missing = [], [], []
    with span("bench", workload=args.workload, seed=args.seed):
        import workloads

        run_one = workloads.WORKLOADS[args.workload]
        t0 = time.perf_counter()
        while (not untraced or len(traced) < 2
               or time.perf_counter() - t0 < args.seconds):
            if len(untraced) <= len(traced):
                with span("bench.untraced"):
                    telemetry.configure(enabled=False)
                    try:
                        untraced.append(
                            _repetition(run_one, args, scale, workdir)
                        )
                    finally:
                        telemetry.configure(enabled=True)
                continue
            rep_path = workdir / f"rep{len(traced)}.jsonl"
            gc.collect()
            telemetry.configure(path=str(rep_path))
            try:
                with tracing.installed() as missing:
                    with span(tracing.REP_SPAN):
                        rep = run_one(args.seed, scale, str(workdir))
                _reap_children()  # workers finish their manifest lines
            finally:
                telemetry.configure(path=str(root_path))
            traced.append((rep, tracing.layer_metrics(rep_path)))
    wall = process_wall()
    root_s = report.summarize(root_path)["root_seconds"]
    telemetry.configure(enabled=False)
    return untraced, traced, missing, 100.0 * root_s / wall


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return "; ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in keys[:4])


def check_repeats(checks, reps, layer=(), exempt=()):
    """Counts, quality and goldens repeat exactly for one seed.

    Across repetitions, traced or not, and across traced repetitions
    for the counts only tracing sees: a mismatch is a failure, not
    noise.
    """
    first = reps[0]
    for i, rep in enumerate(reps[1:], 1):
        for what in ("counters", "quality", "goldens"):
            a, b = getattr(first, what), getattr(rep, what)
            checks.check(f"{what} repeat in repetition {i}", a == b, _diff(a, b))
    counted = [{k: m[k] for k in tracing.TRACED_COUNTERS if k not in exempt}
               for m in layer]
    for i, counts in enumerate(counted[1:], 1):
        checks.check(
            f"traced counts repeat in traced repetition {i}",
            counts == counted[0],
            _diff(counted[0], counts),
        )
    if counted:
        hits = (first.counters["checkpoint.hits"],
                counted[0]["checkpoint.hits"])
        checks.check(
            "checkpoint hits agree traced and untraced",
            hits[0] == hits[1],
            f"{hits[0]} vs {hits[1]}",
        )


def check_reference(checks, workload, scale, goldens, reference):
    """On the default seed, golden numbers equal the recorded reference."""
    recorded = reference.get("workloads", {}).get(workload)
    if recorded is None or reference.get("scale") != scale:
        return
    for label, want in sorted(recorded.items()):
        got = goldens.get(label)
        ok = got is not None and math.isclose(
            got, want, rel_tol=REFERENCE_RTOL
        )
        checks.check(f"reference {label}", ok,
                     f"got {got!r}, recorded {want!r}")


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _write_reference(workload, scale, goldens):
    reference = _load_reference()
    if reference.get("scale") != scale:
        reference = {"seed": DEFAULT_SEED, "scale": scale, "workloads": {}}
    reference["workloads"][workload] = goldens
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(untraced) -> dict:
    def median(get):
        return statistics.median(get(rep) for rep in untraced)

    return {
        "setup_s": median(lambda r: r.setup_s),
        "run_s": median(lambda r: r.run_s),
        "cpu_s": median(lambda r: r.measured["cpu_s"]),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(untraced, traced, root_pct, failed, attempted) -> dict:
    import workloads

    first = untraced[0]
    layer = [lm["metrics"] for _, lm in traced]
    values = {
        k: statistics.median(r.measured.get(k, 0.0) for r in untraced)
        for k in STAGES
    }
    values.update(dict.fromkeys(QUALITY, 0.0))
    values.update(first.quality)
    counts = dict(first.counters)
    rounds = counts.pop("dosepl.rounds")
    samples = counts.pop("variation.mc_samples")
    values.update(counts)
    for key in layer[0]:
        vals = [m[key] for m in layer]
        values[key] = (vals[0] if key in tracing.TRACED_COUNTERS
                       else statistics.median(vals))
    values["dosepl.accept_ratio"] = (
        values["dosepl.swaps_accepted"] / rounds if rounds else 0.0
    )
    eval_s = values["variation.mc_eval_s"]
    values["variation.mc_samples_per_s"] = samples / eval_s if eval_s else 0.0
    values["harness.efficiency"] = statistics.median(
        m["harness.cell_s_sum"] / (workloads.JOBS * rep.measured["cells_s"])
        if rep.measured.get("cells_s") else 0.0
        for (rep, _), m in zip(traced, layer)
    )
    values["checkpoint.bytes"] = statistics.median(
        r.measured.get("checkpoint_bytes", 0) for r in untraced
    )
    untraced_run = statistics.median(r.run_s for r in untraced)
    traced_run = statistics.median(rep.run_s for rep, _ in traced)
    values["obs.overhead_pct"] = (
        100.0 * (traced_run / untraced_run - 1.0) if untraced_run else 0.0
    )
    values["obs.root_wall_pct"] = root_pct
    values["failed_frac"] = failed / attempted
    return values


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _print_env(args, scale, cores, untraced, traced):
    import numpy
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "nproc": os.cpu_count(),
        "affinity": cores,
        "threads": {var: os.environ[var] for var in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print("# env " + json.dumps(env, sort_keys=True))


def _print_reps(untraced, traced):
    for i, rep in enumerate(untraced):
        print(f"# untraced repetition {i}: setup {rep.setup_s:.3f} s, "
              f"run {rep.run_s:.3f} s, cpu {rep.measured['cpu_s']:.3f} s")
    for i, (rep, lm) in enumerate(traced):
        print(f"# traced repetition {i}: setup {rep.setup_s:.3f} s, "
              f"run {rep.run_s:.3f} s, "
              f"coverage {lm['metrics']['obs.coverage_pct']:.1f} %")


def _mean_self_times(traced):
    """Mean self seconds ``(per span [layer, s, calls], per layer)``."""
    n = len(traced)
    spans, layers = {}, {}
    for _, lm in traced:
        for name, layer, self_s, calls in lm["table"]:
            entry = spans.setdefault(name, [layer, 0.0, 0.0])
            entry[1] += self_s / n
            entry[2] += calls / n
            layers[layer] = layers.get(layer, 0.0) + self_s / n
    return spans, layers


def check_layers(checks, workload, traced):
    """The solver layer does most of ``table4_g10`` and none of
    ``dosepl_yield``: the two workloads a solver change is judged on."""
    _, layers = _mean_self_times(traced)
    solver = layers.get("solver", 0.0)
    if workload == "table4_g10":
        top = max(layers, key=layers.get)
        checks.check("solver is the largest layer", top == "solver",
                     f"{top} {layers[top]:.4f} s, solver {solver:.4f} s")
    elif workload == "dosepl_yield":
        checks.check("solver does no work", solver == 0.0,
                     f"solver {solver:.4f} s")


def _print_layers(workload, traced):
    """Mean self time per layer and per span over the traced repetitions."""
    n = len(traced)
    wall = statistics.fmean(lm["wall_s"] for _, lm in traced)
    spans, layers = _mean_self_times(traced)
    print(f"# per-layer self time, {workload}: mean of {n} traced "
          f"repetitions of {wall:.3f} s wall")
    if workload == "cells_jobs2":
        print("# (worker spans overlap in time: shares sum past 100 %)")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:<22}{s:10.4f} s {100 * s / wall:6.1f} %")
    print("# per span:")
    for name, (layer, s, calls) in sorted(spans.items(),
                                          key=lambda kv: -kv[1][1]):
        label = "obs.other_s" if name == tracing.REP_SPAN else name
        print(f"#   {label:<22}{layer:<22}{s:10.4f} s "
              f"{100 * s / wall:6.1f} %  x{calls:g}")


def _number(value):
    return value if isinstance(value, int) else float(value)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure at least this long (and at least "
                         f"{MIN_REPS} repetitions)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's golden numbers in "
                         "perfbench/reference.json (default seed, --trace 0)")
    args = ap.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        ap.error("--write-reference needs the default seed and --trace 0")
    return args


def main(argv=None, scale=SCALE, process_wall=None):
    """Run the benchmark; returns the exit status.

    ``process_wall`` returns the seconds the measured process has run;
    by default the time since ``main`` was entered, which is what an
    in-process caller (the tests) measures.
    """
    entered = time.perf_counter()
    if process_wall is None:
        def process_wall():
            return time.perf_counter() - entered

    args = _parse(argv)
    # before numpy loads; pool workers inherit the environment
    os.environ.update(dict.fromkeys(THREAD_ENV, "1"))
    # a run is set by its arguments alone: no inherited telemetry, chaos
    # injection, engine backends, job counts or watchdog timeouts
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    cores = sorted(os.sched_getaffinity(0))
    if args.workload == "cells_jobs2" and len(cores) < 2:
        print(f"perfbench: cells_jobs2 skipped: {len(cores)} usable core, "
              "needs 2; no parallel numbers are recorded on one",
              file=sys.stderr)
        return 3
    spec = json.loads(SPEC.read_text())

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            untraced, traced, missing, root_pct = run_traced(
                args, scale, workdir, process_wall
            )
        else:
            untraced = run_untraced(args, scale, workdir)
            traced, missing, root_pct = [], [], None
    finally:
        _reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # stays while another run uses it

    import workloads

    checks = workloads.Rep()
    reps = untraced + [rep for rep, _ in traced]
    layer = [lm["metrics"] for _, lm in traced]
    # each pool worker caches its own formulations, so builds vs hits
    # depend on which worker serves which cell
    exempt = (("formulate.builds", "formulate.cache_hits")
              if args.workload == "cells_jobs2" else ())
    check_repeats(checks, reps, layer, exempt)
    for i, metrics in enumerate(layer):
        coverage = metrics["obs.coverage_pct"]
        checks.check(f"layer spans cover traced repetition {i}",
                     coverage >= MIN_COVERAGE_PCT, f"{coverage:.1f} %")
    if traced:
        checks.check("root span covers the process",
                     root_pct >= MIN_ROOT_WALL_PCT, f"{root_pct:.1f} %")
        # an unwrapped layer would read 0 and its time pass to its caller
        checks.check("tracing targets found", not missing,
                     "not wrapped: " + ", ".join(missing))
        check_layers(checks, args.workload, traced)
    if args.seed == DEFAULT_SEED and not args.write_reference:
        check_reference(checks, args.workload, scale, reps[0].goldens,
                        _load_reference())
    failures = [f for rep in reps for f in rep.failures] + checks.failures
    attempted = sum(rep.attempted for rep in reps) + checks.attempted

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer(untraced, traced, root_pct, len(failures),
                           attempted)
    else:
        values = end_to_end(untraced)
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"{section} metrics computed here and declared in {SPEC.name} "
            f"differ: {sorted(set(values) ^ set(declared))}"
        )
    if args.write_reference:
        if failures:
            print("perfbench: not writing a reference from a failed run",
                  file=sys.stderr)
        else:
            _write_reference(args.workload, scale, reps[0].goldens)

    _print_env(args, scale, cores, untraced, traced)
    _print_reps(untraced, traced)
    if traced:
        _print_layers(args.workload, traced)
    for failure in failures[:50]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": _number(values[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(process_wall=lambda: time.perf_counter() - _STARTED))

#!/usr/bin/env python
"""STA engine benchmark.

Times three workloads of the compiled STA engine on the AES-like and
JPEG-like designs and writes ``BENCH_sta.json`` at the repo root so the
perf trajectory is tracked across PRs (each time is under the key
``vector``):

``full_sta``
    One golden STA pass (random snapped per-gate doses) from a cold
    analyzer state.
``trial_swap``
    Per-swap trial timing inside a dosePl-style loop: swap two cells,
    ``update_placement`` + incremental ``trial_mct``, undone with
    ``update_placement`` + ``revert_trial`` as dosePl undoes a rejected
    swap.
``dosepl_e2e``
    The dosePl pass end-to-end on a scaled-down design.

Usage::

    PYTHONPATH=src python benchmarks/bench_sta.py [--smoke] [--out PATH]

``--smoke`` shrinks designs and repetition counts so the whole run fits
in CI; the JSON then carries ``"smoke": true`` and is not meant for
cross-PR comparison.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from pathlib import Path

from repro.core import DesignContext, DoseplConfig, optimize_dose_map, run_dosepl
from repro.netlist.designs import make_design
from repro.placement import place_design
from repro.sta import make_analyzer

REPO_ROOT = Path(__file__).resolve().parent.parent


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _random_doses(netlist, library, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        g: (
            library.snap_dose(rng.uniform(-6.0, 6.0)),
            library.snap_dose(rng.uniform(-6.0, 6.0)),
        )
        for g in netlist.gates
    }


def bench_full_sta(design: str, scale: float, repeats: int) -> dict:
    bundle = make_design(design, scale=scale)
    placement = place_design(bundle, seed=7)
    doses = _random_doses(bundle.netlist, bundle.library, seed=5)

    eng = make_analyzer(bundle.netlist, bundle.library, placement)
    eng.analyze(doses=doses)  # warm caches / compile once
    # cold per-call state: a fresh rebind each run, so the measurement
    # includes geometry build + full propagation
    return {
        "design": design,
        "n_gates": bundle.netlist.n_gates,
        "vector": _time(
            lambda: eng.rebind(placement).analyze(doses=doses), repeats
        ),
    }


def bench_trial_swap(design: str, scale: float, n_swaps: int) -> dict:
    bundle = make_design(design, scale=scale)
    netlist, library = bundle.netlist, bundle.library
    placement = place_design(bundle, seed=7)
    doses = _random_doses(netlist, library, seed=5)
    rng = random.Random(11)
    gates = list(netlist.gates)
    swaps = [tuple(rng.sample(gates, 2)) for _ in range(n_swaps)]

    vec = make_analyzer(netlist, library, placement)
    vec.mct(doses)
    t0 = time.perf_counter()
    for a, b in swaps:
        placement.swap(a, b)
        vec.update_placement((a, b))
        vec.trial_mct()
        placement.swap(a, b)
        vec.update_placement((a, b))
        vec.revert_trial()
    t_vec = (time.perf_counter() - t0) / n_swaps

    return {
        "design": design,
        "n_gates": netlist.n_gates,
        "n_swaps": n_swaps,
        "vector": t_vec,
    }


def bench_dosepl(design: str, scale: float, rounds: int) -> dict:
    ctx = DesignContext(make_design(design, scale=scale))
    qcp = optimize_dose_map(ctx, grid_size=5.0, mode="qcp")
    cfg = DoseplConfig(top_k=200, rounds=rounds)
    t0 = time.perf_counter()
    res = run_dosepl(ctx, qcp.dose_map_poly, config=cfg)
    return {
        "design": design,
        "vector": time.perf_counter() - t0,
        "vector_mct": res.mct,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny designs / few repeats (CI health check)")
    ap.add_argument("--out", default=None,
                    help="output path (default: BENCH_sta.json at the repo "
                         "root, or BENCH_sta_smoke.json under --smoke so a "
                         "smoke run never clobbers the tracked numbers)")
    args = ap.parse_args(argv)
    if args.out is None:
        name = "BENCH_sta_smoke.json" if args.smoke else "BENCH_sta.json"
        args.out = str(REPO_ROOT / name)
    out_path = Path(args.out)
    if not out_path.parent.is_dir():
        ap.error(f"output directory does not exist: {out_path.parent}")

    if args.smoke:
        designs = [("AES-65", 0.2)]
        repeats, n_swaps, dp_rounds, dp_scale = 2, 5, 2, 0.2
    else:
        designs = [("AES-65", 1.0), ("JPEG-65", 1.0)]
        repeats, n_swaps, dp_rounds, dp_scale = 5, 20, 4, 0.5

    report = {
        "smoke": args.smoke,
        "units": "seconds (median wall clock; trial_swap is per swap)",
        "full_sta": [],
        "trial_swap": [],
        "dosepl_e2e": [],
    }
    for design, scale in designs:
        r = bench_full_sta(design, scale, repeats)
        print(f"full_sta    {design:8s} ({r['n_gates']} gates): "
              f"{r['vector']:.4f}s")
        report["full_sta"].append(r)
        r = bench_trial_swap(design, scale, n_swaps)
        print(f"trial_swap  {design:8s} ({r['n_gates']} gates): "
              f"{r['vector']:.4f}s")
        report["trial_swap"].append(r)
    for design, _scale in designs[:1]:
        r = bench_dosepl(design, dp_scale, dp_rounds)
        print(f"dosepl_e2e  {design:8s}: {r['vector']:.2f}s")
        report["dosepl_e2e"].append(r)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the `atent` package, run from the root of a source checkout:

    python3 perfbench/run.py --workload cnn_atent_train --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: closed-loop units of work
(one call at a time, one process) for ``--seconds``, with the workload's
set-up repeated in between, and checks every unit's output. ``--trace 1`` runs a fixed amount of
work twice, untraced and traced, and reports the per-layer metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Details, the environment stamp and, for traced
runs, the span tree go to ``perfbench/out/``.

Exit codes: 0 after a measured run (``correct`` says whether every check
held), 2 when the `atent` sources are not next to the benchmark.
"""
from __future__ import annotations

import os

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_ENV:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {"samples_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_UNITS = 10
PHASE_METRICS = {"train": "train.samples_per_cpu_s", "pgd": "eval.pgd_samples_per_cpu_s",
                 "atent": "eval.atent_attack_samples_per_cpu_s",
                 "smooth": "eval.smooth_samples_per_cpu_s"}
SELF_TIME_TOL_S = 1e-9

EXIT_NO_SOURCES = 2


class MissingSources(RuntimeError):
    """The checkout holds no importable `atent` package under src/."""


def load_atent():
    src = ROOT / "src"
    if not (src / "atent" / "__init__.py").is_file():
        raise MissingSources(f"no atent package under {src}")
    sys.path.insert(0, str(src))
    atent = importlib.import_module("atent")
    if Path(atent.__file__).resolve().parent != (src / "atent").resolve():
        raise MissingSources(f"atent imported from {atent.__file__}, not from {src}")
    for mod in ("tensor", "models", "sampler", "defenses", "attacks", "smoothing",
                "checkpoint", "experiment", "config", "verify", "data"):
        importlib.import_module(f"atent.{mod}")
    return atent


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_ENV},
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_seconds(units: list[dict], phase: str) -> float:
    """Median of one phase's time per unit."""
    return statistics.median(u[phase] for u in units)


def phase_rates(wl, s, units: list[dict]) -> dict[str, float]:
    """Examples per CPU second of each phase."""
    return {p: n / unit_seconds(units, p) for p, n in wl.phase_samples(s).items()}


def reference_cpu_s() -> float:
    """CPU time of one pass of a fixed numpy kernel shaped like what `atent`
    spends its time on: a convolution as an einsum over sliding windows, and
    a loop of small vector ops. Timed before the first unit and after every
    unit, its mean shows how fast the host let this process run."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, k = rng.random((16, 8, 16, 16)), rng.random((16, 8, 3, 3))
    v, m = rng.random(784), rng.random((784, 64))
    t0 = time.process_time()
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    for _ in range(2):
        np.einsum("ncyxuv,ocuv->noyx", win, k)
    y = np.zeros(64)
    for _ in range(200):
        y = np.maximum(v @ m + y, 0.0) * 0.5
    return time.process_time() - t0


def samples_per_ref(wl, s, units: list[dict], refs: list[float]) -> float:
    """Examples of one unit over the mean CPU time per unit in refs, one ref
    being the mean CPU time of the reference kernel over the same run. Both
    means span the whole run, so a slow stretch of the host weighs the same
    in each and cancels."""
    unit_cpu = statistics.fmean(sum(u.values()) for u in units)
    return sum(wl.phase_samples(s).values()) * statistics.fmean(refs) / unit_cpu


def timed_setup(wl, seed: int, setups: list[float]):
    t0 = time.process_time()
    s = wl.setup(seed)
    setups.append(time.process_time() - t0)
    return s


def measure(wl, args, tally) -> tuple[dict, dict]:
    """Untraced run: units until ``args.seconds`` of wall time, with the
    set-up repeated at even intervals in between so that its median samples
    the whole run rather than one moment of it."""
    setups = []
    s = timed_setup(wl, args.seed, setups)
    wl.check_setup(s, tally)
    units, refs, first = [], [reference_cpu_s()], None
    deadline = time.perf_counter() + args.seconds
    while True:
        done = wl.run_unit(s, tally)
        if done is None:
            break
        refs.append(reference_cpu_s())
        units.append(done[0])
        wl.check_unit(s, first, done[1], tally)
        first = done[1] if first is None else first
        n = wl.setup_repeats
        while len(setups) < n and (deadline - time.perf_counter()
                                   <= args.seconds * (1 - len(setups) / n)):
            t0 = time.perf_counter()
            wl.check_setup(timed_setup(wl, args.seed, setups), tally)
            deadline += time.perf_counter() - t0
        if deadline <= time.perf_counter() and len(units) >= MIN_UNITS:
            break
    details = {"setup_s": setups, "units": units, "reference_cpu_s": refs}
    rate = 0.0
    if units:
        rate = samples_per_ref(wl, s, units, refs)
        details["phase_samples_per_cpu_s"] = phase_rates(wl, s, units)
    metrics = {"samples_per_ref": rate,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb()}
    return metrics, details


def _fixed_pass(wl, seed, tally):
    s = wl.setup(seed)
    done = [wl.run_unit(s, tally) for _ in range(wl.traced_units)]
    return s, [d for d in done if d is not None]


def measure_traced(wl, args, tally, atent) -> tuple[dict, dict]:
    """The same fixed work untraced, then traced; per-layer metrics."""
    from tracer import ROOT_SPAN, Tracer, install, layer_metrics
    from workloads import QUALITY_METRICS

    t0 = time.perf_counter()
    s, plain = _fixed_pass(wl, args.seed, tally)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    patcher = install(tracer, atent)
    try:
        root = tracer.open(ROOT_SPAN)
        try:
            s_traced, traced = _fixed_pass(wl, args.seed, tally)
        finally:
            tracer.close(root)
    finally:
        patcher.restore()
    _, start, end, _ = tracer.spans[root]
    traced_s = end - start

    own = tracer.self_times()
    tally.check(min(own) >= -SELF_TIME_TOL_S, "every span's self time is >= 0")
    tally.check(abs(sum(own) - traced_s) <= SELF_TIME_TOL_S * len(own),
                "self times sum to the root span")
    wl.check_setup(s, tally)
    wl.check_setup(s_traced, tally)
    first = None
    for _, result in plain + traced:
        wl.check_unit(s, first, result, tally)
        first = result if first is None else first

    layers = layer_metrics(tracer)
    metrics = {name: value for name, (value, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()}
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    units["trace.overhead_frac"] = "fraction"
    rates = phase_rates(wl, s, [d[0] for d in plain]) if plain else {}
    for phase, name in PHASE_METRICS.items():
        metrics[name] = rates.get(phase, 0.0)
        units[name] = "1/s"
    quality = wl.quality(s, plain[-1][1]) if plain else {}
    for name in QUALITY_METRICS:
        metrics[name] = quality.get(name, 0.0)
        units[name] = "fraction" if "acc" in name else "nats"
    return ({k: (v, units[k]) for k, v in metrics.items()},
            {"untraced_s": untraced_s, "traced_s": traced_s, "span_tree": tracer.tree()})


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        atent = load_atent()
    except (MissingSources, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_SOURCES
    from workloads import WORKLOADS, Tally, run_gradient_suite

    args = parse_args(argv)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](workdir)
        if args.trace:
            table, details = measure_traced(wl, args, tally, atent)
        else:
            values, details = measure(wl, args, tally)
            table = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        run_gradient_suite(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in table.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ops_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations and checks failed)")
    for err in tally.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    record = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"env": env, **record, "errors": tally.errors, "details": details}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

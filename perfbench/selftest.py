"""Self-tests of the benchmark itself, run from the checkout root:

    python3 perfbench/selftest.py

They check that the tracer's wrappers come off again, that span self times
are non-negative and add up to the root span, that the output follows the
contract in ``BENCHMARK.json`` (metric names, units, last-line JSON), that
call counts repeat exactly between two traced runs, that a different seed
changes the inputs, and that the benchmark refuses to run without the
`atent` sources. Takes about two minutes on two cores.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import run  # sets the BLAS thread environment before numpy loads

BENCH_DIR = run.BENCH_DIR
ROOT = run.ROOT
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_TIMEOUT_S = 300

atent = run.load_atent()
import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.OUT_DIR / "selftest"


class Failure(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


class TinyMlp(wls.MlpSgdPersist):
    """Three epochs instead of twenty: enough spans, a fraction of the time."""

    def config_tree(self, seed):
        tree = super().config_tree(seed)
        tree["trainer"]["epochs"] = 3
        return tree


def _atent_bindings() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if isinstance(mod, types.ModuleType) and (name == "atent" or name.startswith("atent."))
            for attr, value in vars(mod).items() if callable(value)}


def _traced_unit(seed: int):
    wl = TinyMlp(WORKDIR / f"traced-{seed}")
    tally = wls.Tally()
    tracer = tr.Tracer()
    patcher = tr.install(tracer, atent)
    try:
        root = tracer.open(tr.ROOT_SPAN)
        s = wl.setup(seed)
        wl.run_unit(s, tally)
        tracer.close(root)
    finally:
        patcher.restore()
    return tracer, root, tally


def test_wrappers_restored():
    before = _atent_bindings()
    tracer, _, tally = _traced_unit(1)
    expect(tally.failed == 0, f"traced unit failed: {tally.errors}")
    after = _atent_bindings()
    changed = sorted(f"{m}.{a}" for key, v in before.items() if after.get(key) is not v
                     for m, a in [key])
    expect(not changed, f"bindings not restored: {changed}")
    spans = len(tracer.spans)
    wl = TinyMlp(WORKDIR / "untraced")
    wl.run_unit(wl.setup(1), wls.Tally())
    expect(len(tracer.spans) == spans, "an untraced run after a traced one still records spans")


def test_self_times():
    tracer, root, _ = _traced_unit(2)
    own = tracer.self_times()
    _, start, end, _ = tracer.spans[root]
    expect(min(own) >= -run.SELF_TIME_TOL_S, f"negative self time {min(own)}")
    expect(abs(sum(own) - (end - start)) <= run.SELF_TIME_TOL_S * len(own),
           "self times do not sum to the root span")
    expect(all(p >= 0 for *_, p in tracer.spans[1:]), "a span outside the root")


def test_seed_changes_inputs():
    for cls in wls.WORKLOADS.values():
        wl = cls(WORKDIR)
        cfgs = [atent.config.parse_config_dict(wl.config_tree(seed)) for seed in (1, 2)]
        a, b = (atent.experiment.build_datasets(c.data, c.seed)[0] for c in cfgs)
        expect(not np.array_equal(a.inputs.data, b.inputs.data),
               f"{cls.name}: seeds 1 and 2 give the same training inputs")
        again = atent.experiment.build_datasets(cfgs[0].data, cfgs[0].seed)[0]
        expect(np.array_equal(a.inputs.data, again.inputs.data),
               f"{cls.name}: seed 1 does not reproduce its inputs")


def _bench(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def _result(proc) -> dict:
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(record) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(record["correct"] and record["failed"] == 0 and record["attempted"] >= 1,
           f"run not correct: {proc.stderr[-2000:]}")
    return record


def _expect_metrics(record: dict, declared: list[dict], what: str) -> None:
    metrics = record["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{what}: emitted {sorted(set(metrics) ^ {m['name'] for m in declared})} differ")
    for m in declared:
        expect(bool(NAME_RE.fullmatch(m["name"])), f"bad metric name {m['name']!r}")
        expect(bool(UNIT_RE.fullmatch(m["unit"])), f"bad unit {m['unit']!r}")
        expect(metrics[m["name"]]["unit"] == m["unit"], f"{m['name']}: unit differs")


def test_contract_and_counts():
    for w in SPEC["workloads"]:
        record = _result(_bench(w["name"], 0))
        _expect_metrics(record, SPEC["end_to_end"], f"{w['name']} trace 0")
        expect(all(v["value"] > 0 for v in record["metrics"].values()),
               f"{w['name']}: an end-to-end metric reads 0")
    mlp = _result(_bench("mlp_sgd_persist", 1))["metrics"]
    _expect_metrics({"metrics": mlp}, SPEC["per_layer"], "mlp_sgd_persist trace 1")
    for name in ("tensor.conv2d.calls", "sampler.run_chain.calls"):
        expect(mlp[name]["value"] == 0, f"mlp_sgd_persist: {name} is not 0")
    first, second = (_result(_bench("cnn_atent_train", 1))["metrics"] for _ in range(2))
    steps = wls.SAMPLER["steps"]
    expect(first["models.loss_and_grads.calls_per_step"]["value"] == 2 * steps + 1,
           "cnn_atent_train: loss_and_grads calls per step is not 2K+1")
    counted = [n for n, m in first.items() if m["unit"] in ("count", "bytes")]
    differ = [n for n in counted if first[n]["value"] != second[n]["value"]]
    expect(not differ, f"counts differ between two traced runs: {differ}")


def test_refuses_without_sources():
    bare = WORKDIR / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("mlp_sgd_persist", 0, cwd=bare)
    expect(proc.returncode != 0, "ran without the atent sources")
    expect("correct" not in proc.stdout, "printed a result without the atent sources")


TESTS = [test_wrappers_restored, test_self_times, test_seed_changes_inputs,
         test_refuses_without_sources, test_contract_and_counts]


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    failures = 0
    try:
        for test in TESTS:
            try:
                test()
            except Failure as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}", flush=True)
            else:
                print(f"PASS {test.__name__}", flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast checks of the benchmark harness on shrunken cells.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import freeze  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = bench.Workload(
    name="tiny",
    why="shrunken cells touching every traced layer",
    cells=(
        bench.Cell("ortho", 5, 3, dict(design="orthogonal-identity", method="k-slope",
                                       n=40, m=40, t=4, signal="strong", k=2)),
        bench.Cell("gauss-mc", 5, 2, dict(design="gaussian", method="k-slope", n=60, m=30,
                                          t=3, signal="weak", k=2,
                                          correction="monte-carlo", mc_replicates=5)),
        bench.Cell("group", 5, 2, dict(design="group-gaussian", method="gk-slope", n=80,
                                       m=40, t=2, num_groups=10, group_sizes=(3, 5),
                                       k=2, correction="none")),
        bench.Cell("stepdown", 5, 3, dict(design="correlated-means", method="sd-kfwer",
                                          n=30, m=30, t=3, k=2)),
    ),
    rounds=2,
)


@pytest.fixture(scope="module")
def tiny_reference():
    return json.loads(json.dumps(freeze.freeze(TINY)))


def _run(rounds, seed=0):
    simlab, resolved, _ = bench.setup(TINY)
    return bench.run_rounds(TINY, simlab, resolved, seed, rounds=rounds)[0]


def test_reference_passes_unchanged_code(tiny_reference):
    # three rounds wrap past the two frozen ones
    units = _run(3, seed=13)
    attempted, failed, mismatches = bench.check_units(TINY, tiny_reference, 13, units)
    assert attempted == 3 * sum(c.reps for c in TINY.cells)
    assert failed == 0 and mismatches == []


def test_perturbed_reference_entry_is_a_failure(tiny_reference):
    units = _run(1)
    bad = json.loads(json.dumps(tiny_reference))
    bad["outcomes"]["0"][0][2][1][1] += 1  # r of the second group replication
    attempted, failed, mismatches = bench.check_units(TINY, bad, 0, units)
    assert failed == 1
    assert mismatches[0]["cell"] == 2 and mismatches[0]["rep"] == 1
    assert bench.self_check(TINY, tiny_reference, 0)


def test_raised_call_fails_all_its_replications(tiny_reference):
    units = [(0, 0, None, "ValueError: boom")]
    attempted, failed, _ = bench.check_units(TINY, tiny_reference, 0, units)
    assert attempted == failed == TINY.cells[0].reps


def test_reference_for_other_cells_is_rejected(tiny_reference, tmp_path):
    doc = json.loads(json.dumps(tiny_reference))
    doc["cells"][0]["reps"] += 1
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="different cell list"):
        bench.load_reference(TINY, path)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()
    }


def test_traced_spans_nest_and_match_untraced_counts():
    untraced = _run(1)
    tracer = tracing.Tracer(TINY.name)
    with tracer:
        simlab, resolved, _ = bench.setup(TINY)
        units, elapsed = bench.run_rounds(TINY, simlab, resolved, 0, rounds=1)
    assert units == untraced
    import stepslope.simlab as simlab_mod
    import stepslope.solver as solver_mod

    assert not hasattr(simlab_mod.run_experiment, "__wrapped__")
    assert simlab_mod.solve_slope is solver_mod.solve_slope

    spans = tracer.spans
    names = {s[tracing.NAME] for s in spans}
    assert set(tracing.LAYER_OF[n] for n in names) >= {
        "solver.operator_norm_sq", "solver.solve_slope", "sorted_l1.prox",
        "groups.solve_group_slope", "groups.group_prox", "groups.standardize",
        "simlab.gen", "simlab.run_experiment", "simlab.resolve_schedule",
        "schedules.build", "schedules.mc_correct", "quantiles", "stepdown",
    }
    for i, s in enumerate(spans):
        assert s[tracing.WORKLOAD] == "tiny"
        p = s[tracing.PARENT]
        if p >= 0:
            assert p < i
            parent = spans[p]
            assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
        else:
            assert s[tracing.NAME] in ("simlab.resolve_schedule", "simlab.run_experiment")
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    roots = tracing.roots_of(spans)
    for r in set(roots):
        tree = sum(t for i, t in enumerate(selfs) if roots[i] == r)
        assert tree == pytest.approx(spans[r][tracing.END] - spans[r][tracing.START])

    reps = bench.completed_reps(units)
    layers = tracing.layer_metrics(spans, reps, elapsed)
    assert set(layers) == {n for n, _, _ in tracing.PER_LAYER} - {"trace_overhead_frac"}
    assert 0.9 <= layers["trace_accounted_frac"] <= 1.0 + 1e-9
    # one draw per replication; one feature-level fit per ortho and gauss-mc one
    assert layers["simlab.gen.calls"] == 1.0
    assert layers["solver.solve_slope.calls"] == pytest.approx(5 / reps)
    assert layers["solver.converged_frac"] == 1.0


def test_quantile_nesting_is_not_counted_twice():
    def span(name, start, end, parent):
        return [name, start, end, parent, "w", None]

    spans = [
        span("simlab.resolve_schedule", 0.0, 10.0, -1),
        span("schedules.group_corrected_schedule", 1.0, 9.0, 0),
        span("quantiles.mixture_quantile", 2.0, 6.0, 1),
        span("quantiles.chi_quantile", 3.0, 4.0, 2),
    ]
    totals = tracing.layer_totals(spans, lambda i: True)
    assert totals["quantiles"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert totals["schedules.build"]["self_s"] == 4.0


def _copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-cells", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaussian-full", "--seed", "11",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    table = run.END_TO_END if trace == 0 else tracing.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: u for n, u, _ in table
    }
    for name, _, _ in table:
        assert f"gaussian-full {name} = " in proc.stdout


def test_all_workloads_in_one_command():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "2",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=540,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(bench.WORKLOADS)
    assert all(r["correct"] for r in results)
    for w in bench.WORKLOADS:
        for name, unit, _ in run.END_TO_END:
            assert f"{w} {name} = " in proc.stdout

"""Tests of the benchmark itself: metric names and units, output checks, exit codes.

Run with ``python -m pytest -q perfbench``. The smoke runs use ``--scale tiny``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in ("failed_frac", "oracle_err"):
        assert any(line.startswith(name) for line in proc.stdout.splitlines())
    if trace:
        # layer self times account for the traced wall time
        assert abs(result["metrics"]["trace.unattributed_frac"]["value"]) < 0.05


def reference_pass(name, scale, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(cls.default_seed, scale, tmp_path / name)
    wl.reset()
    wl.run()
    return wl, wl.outputs(), workloads.load_reference(name, scale)


def problems(wl, out, ref):
    return wl.check(out)[0] + workloads.compare(out, ref["files"], wl.tolerance, ref["columns"])


def perturb(text, row, column, factor):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, scale, file, column", [
    ("distance", "tiny", "alpha-0.5/distances.csv", "distance"),
    ("welfare", "tiny", "welfare.csv", "T_opt"),
    ("spectrum", "tiny", "graphon_alpha0.5/profile.csv", "value"),
    ("spectrum", "tiny", "eigen_minmax/eigenvalues.csv", "value"),
    ("bne", "tiny", "epsilon.csv", "epsilon_hat"),
    ("bne", "full", "epsilon.csv", "epsilon_hat"),
])
def test_seed_outputs_pass_and_a_perturbed_output_fails(name, scale, file, column, tmp_path):
    wl, out, ref = reference_pass(name, scale, tmp_path)
    assert problems(wl, out, ref) == []
    bad = dict(out)
    bad[file] = perturb(out[file], 0, column, 1.0 + 1e-6)
    assert problems(wl, bad, ref)


def test_eigen_check_ignores_basis_choice(tmp_path):
    wl, out, ref = reference_pass("spectrum", "tiny", tmp_path)
    name = "eigen_sbm/eigenfunctions.csv"
    assert ref["columns"][name] == {"psi1": "sign", "psi2": "sign", "psi3": "skip"}
    rows = [line.split(",") for line in out[name].splitlines()]
    for k, cells in enumerate(rows[1:]):
        cells[2] = repr(-float(cells[2]))  # psi2 with the other orientation
        cells[3] = repr(float(k % 7) - 3.0)  # any vector of the round-off eigenspace
    flipped = dict(out)
    flipped[name] = "\n".join(",".join(c) for c in rows) + "\n"
    assert problems(wl, flipped, ref) == []
    assert problems(wl, {**out, name: perturb(out[name], 0, "psi1", 1.01)}, ref)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bne", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_the_package_and_survives_internal_changes(monkeypatch):
    import graphon_games as gg

    original = gg.spectral.discretize
    monkeypatch.setattr(tracing, "TRACED", (
        ("spectral", "no_such_function", "spectral.gone", None, None),
        ("spectral", "discretize", "spectral.discretize",
         lambda tr, args, out: out.no_such_field, None),
    ))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gg.discretize is not original and gg.spectral.discretize is not original
        gg.discretize(gg.minmax(), 10)
    assert gg.discretize is original and gg.spectral.discretize is original
    assert tracer.missing == ["spectral.no_such_function"]
    assert [span[1] for span in tracer.spans] == ["spectral.discretize"]
    assert len(tracer.hook_errors) == 1
    assert tracer.metrics(1, tracer.spans[0][3] - tracer.spans[0][2])["spectral.discretize.calls"] == 1

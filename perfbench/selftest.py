"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's own test run (the file name does not match
`test_*.py`), because each tiny pass starts fresh interpreters.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if trace == 0:
        assert all(metrics[k]["value"] > 0 for k in declared)
    elif workload == "mixed_fixed_dim":
        assert metrics["fock.converge_share"]["value"] == 0.0
        assert metrics["ramsey.mixed.self_s"]["value"] > 0.0
        assert metrics["phasespace.q_rounds"]["value"] >= 1
    elif workload == "ramsey_converge":
        assert metrics["fock.converge_probes"]["value"] >= 2
        assert 0.0 < metrics["fock.converge_share"]["value"] < 1.0
        assert metrics["linalg.eigh.n3"]["value"] > 0
    else:
        assert metrics["clock.energy_gap.calls"]["value"] > 0
        assert metrics["linalg.eigh.calls"]["value"] == 0


def _scale_column(csv_path: Path, column: str, factor: float) -> None:
    lines = csv_path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        cells[j] = repr(float(cells[j]) * factor)
        lines[i] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


class _CorruptingCli:
    """Runs the real CLI, then scales one column of the CSV it wrote."""

    def __init__(self, cli, column: str):
        self.cli, self.column = cli, column

    def main(self, argv):
        code = self.cli.main(argv)
        config = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
        out = Path(argv[argv.index("--out") + 1])
        _scale_column(out / (config["output"]["path"] + ".csv"), self.column, 1.01)
        return code


@pytest.mark.parametrize("workload, name, column", [
    ("ramsey_converge", "converge00", "V"),
    ("ramsey_converge", "converge01", "V"),
    ("mixed_fixed_dim", "qfunc00", "Q"),
    ("mixed_fixed_dim", "thermal00", "V"),
    ("mixed_fixed_dim", "drive00", "P_approx"),
    ("clock_sweep", "shift00", "delta"),
    ("clock_sweep", "fshift00", "delta"),
    ("clock_sweep", "extrema00", "V_min"),
])
def test_corrupted_output_counts_as_failed(tmp_path, workload, name, column):
    cli, jobs, _, warm = run.prepare(workload, 5, True, tmp_path)
    assert warm["ok"], warm["error"]
    job = next(j for j in jobs if j["name"] == name)
    assert run.execute(cli, job, tmp_path)["ok"]
    result = run.execute(_CorruptingCli(cli, column), job, tmp_path)
    assert not result["ok"] and result["error"].startswith("check failed")


def test_exception_is_recorded_and_counted(tmp_path):
    class Raising:
        def main(self, argv):
            raise OverflowError("math range error")

    job = workloads.generate("clock_sweep", 5, tiny=True)[0]
    result = run.execute(Raising(), job, tmp_path)
    assert not result["ok"] and result["error"] == "OverflowError: math range error"


def test_same_seed_same_jobs():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 11)
        assert workloads.digest(first) == workloads.digest(workloads.generate(workload, 11))
        assert workloads.digest(first) != workloads.digest(workloads.generate(workload, 12))
        assert workloads.probe_jobs(workload, first) == workloads.probe_jobs(
            workload, workloads.generate(workload, 11))


def test_gaussian_reference_is_the_closed_form_for_the_vacuum():
    t = np.linspace(0.0, 20.0, 501)
    for S, x0 in [(0.5, 0.0), (0.7, 3.0), (0.99, 8.5)]:
        assert np.allclose(checks.gaussian_visibility(S, x0, 0.0, t),
                           checks.closed_form_visibility(S, x0, S * t), rtol=1e-12, atol=0)
    # Equal traps leave |<alpha|alpha>| = 1 for every t.
    assert np.allclose(checks.gaussian_visibility(1.0, 0.0, 1.3, t), 1.0, rtol=1e-12)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "clock_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""trapmass benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ramsey_converge --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout against its `src/` tree. The
workload's jobs go through `trapmass.cli.main` in-process, one at a time,
in passes, until `--seconds` have been measured. Every output is checked
against closed forms (`checks.py`). With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a traced run (`tracer.py`). A full record,
with provenance, is written under `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _set_environment() -> None:
    """Import trapmass from `src/` and use one BLAS thread, here and in the
    set-up children. Must run before numpy is imported."""
    # With one BLAS thread per vCPU, any other process on the host stalls
    # the whole team (thermal ramsey jobs ran 30x slower).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))


# ------------------------------------------------------------------ jobs ---

def execute(cli, job: dict, run_dir: Path) -> dict:
    """Run one job through `cli.main`, then check its outputs (untimed).

    Every exception is caught and recorded, so one failing job never stops
    the pass.
    """
    import checks

    out_dir = run_dir / "out"
    argv = [job["experiment"], "--config", str(run_dir / "configs" / f"{job['name']}.json"),
            "--out", str(out_dir), "--no-timestamp", "--verify"]
    log = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            error = f"exit {code}: {log.getvalue().strip()[-300:]}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    bytes_out = 0
    if error is None:
        problems = checks.check(job, str(out_dir))
        if problems:
            error = "check failed: " + "; ".join(problems)
        base = out_dir / job["config"]["output"]["path"]
        bytes_out = sum(os.path.getsize(f"{base}{ext}") for ext in (".csv", "_summary.json"))
    return {"name": job["name"], "seconds": seconds, "ok": error is None,
            "error": error, "bytes_out": bytes_out}


def prepare(workload: str, seed: int, tiny: bool, run_dir: Path):
    """Set-up: import the CLI, generate and write the configs, warm up once."""
    from trapmass import cli

    jobs = workloads.generate(workload, seed, tiny)
    probes = workloads.probe_jobs(workload, jobs)
    warmup = workloads.warmup_job(workload, seed)
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for job in jobs + probes + [warmup]:
        (run_dir / "configs" / f"{job['name']}.json").write_text(
            json.dumps(job["config"], indent=1))
    return cli, jobs, probes, execute(cli, warmup, run_dir)


def setup_child(args) -> int:
    """Fresh-interpreter set-up; prints seconds since the parent spawned it."""
    _, _, _, warm = prepare(args.workload, args.seed, args.tiny, Path(args.setup_child_dir))
    print(json.dumps({"setup_s": time.monotonic() - args.spawned_at, "warmup": warm}))
    return 0


def measure_setup(args, run_dir: Path, samples: int) -> list[float]:
    """Set-up seconds of `samples` fresh interpreters, started one at a time."""
    seconds = []
    for k in range(samples):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--setup-child-dir", str(run_dir / f"setup{k}")]
        if args.tiny:
            cmd.append("--tiny")
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["warmup"]["ok"]:
            raise RuntimeError(f"warm-up job failed: {result['warmup']['error']}")
        seconds.append(result["setup_s"])
    return seconds


# ------------------------------------------------------------- provenance ---

def _blas_info() -> dict:
    """BLAS name, version and thread count of the numpy in use."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # Wheels bundle OpenBLAS next to the package; loading it again returns
    # the handle numpy already uses.
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*blas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(args, jobs: list[dict]) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "trapmass").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_info(), "nproc": _nproc(),
        "jobs_sha256": workloads.digest(jobs), "jobs": len(jobs),
    }


# ------------------------------------------------------------------ runs ---

def run_pass(cli, jobs: list[dict], run_dir: Path) -> list[dict]:
    return [execute(cli, job, run_dir) for job in jobs]


def _wall(results: list[dict]) -> float:
    return sum(r["seconds"] for r in results)


def _declared(kind: str) -> list[dict]:
    return json.loads(BENCHMARK_JSON.read_text())[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every job and take one set-up sample (self-test)")
    parser.add_argument("--setup-child-dir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "trapmass" / "cli.py").is_file():
        print(f"error: no trapmass sources under {SRC}", file=sys.stderr)
        return 2
    _set_environment()
    if args.setup_child_dir:
        return setup_child(args)

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup = measure_setup(args, run_dir, 1 if args.tiny else SETUP_SAMPLES)
        cli, jobs, probes, warm = prepare(args.workload, args.seed, args.tiny, run_dir)
        record = {"provenance": provenance(args, jobs), "setup_samples_s": setup}
        print("provenance: " + json.dumps(record["provenance"], sort_keys=True), flush=True)
        probe_results = [execute(cli, job, run_dir) for job in probes]

        untraced, traced, snapshots = [], [], []
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        # Stop before a pass would end past --seconds, so a run measures no
        # longer than asked.
        start = time.perf_counter()
        elapsed = 0.0
        while not untraced or elapsed * (len(untraced) + 1) / len(untraced) <= args.seconds:
            untraced.append(run_pass(cli, jobs, run_dir))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(cli, jobs, run_dir))
                finally:
                    tracer.uninstall()
                snapshots.append(tracer.snapshot())
            elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    executions = [warm] + [r for p in untraced + traced for r in p]
    failed_jobs = {r["name"] for p in untraced + traced for r in p if not r["ok"]}
    failed_probes = [r for r in probe_results if not r["ok"]]
    for r in failed_probes + [r for r in executions if not r["ok"]]:
        print(f"FAILED {r['name']}: {r['error']}")
    for r in probe_results:
        print(f"probe {r['name']}: {'ok' if r['ok'] else 'failed'}")

    # Means, not medians: the host changes speed in spells of about ten
    # seconds, longer than most passes, so a median over passes lands in one
    # spell while a mean averages every spell in the run.
    walls = [_wall(p) for p in untraced]
    job_seconds = {job["name"]: [] for job in jobs}
    for r in (r for p in untraced for r in p):
        job_seconds[r["name"]].append(r["seconds"])
    fail_frac = (len(failed_jobs) + len(failed_probes)) / (len(jobs) + len(probes))
    values = {
        "wall_s": statistics.fmean(walls),
        "job_max_s": max(statistics.fmean(v) for v in job_seconds.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - fail_frac,
    }
    if args.trace:
        traced_walls = [_wall(p) for p in traced]
        metrics = {name: statistics.median(s.get(name, 0.0) for s in snapshots)
                   for name in set().union(*snapshots)}
        metrics.update({
            "cli.bytes_out": sum(r["bytes_out"] for r in traced[0]),
            "trace.overhead_s": statistics.fmean(traced_walls) - values["wall_s"],
            "trace.unattributed_s": statistics.median(
                w - s["all.self_s"] for w, s in zip(traced_walls, snapshots)),
        })
        declared = _declared("per_layer")
    else:
        metrics = values
        declared = _declared("end_to_end")
    record.update(
        passes=len(untraced), traced_passes=len(traced), pass_walls_s=walls,
        fail_frac=fail_frac, end_to_end=values, metrics=metrics,
        probes=probe_results, executions=executions,
    )
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"passes={len(untraced)} jobs={len(jobs)} probes={len(probes)} "
          f"fail_frac={fail_frac:.6g} failed_probes={[r['name'] for r in failed_probes]}")
    for m in declared:
        print(f"{m['name']:>40} {metrics.get(m['name'], 0.0):.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["ok"] for r in executions),
        "attempted": len(executions),
        "failed": sum(not r["ok"] for r in executions),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

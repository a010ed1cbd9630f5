"""Pipeline benchmark for ``ctfidf``: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sms_irlba_svm --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The command sets up the workload several
times in fresh processes (``setup_s`` is their median) and runs the
workload process, which fits a model with ``run_experiment`` and
classifies a message stream from the saved artifacts in whole rounds for
about ``--seconds``. It checks the outputs against its own computations
(check.py) and prints, as the last line of standard output, one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics,
or with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median of five set-ups: two probes before the workload
# process, its own, and two probes after it, so that they span the run
SETUP_PROBES = 2
DEADLINE_S = 150       # for the workload processes; the checks follow
# One BLAS thread: on a shared 2-core machine two threads made the same
# IRLBA call take 3.0-4.5 s, one thread 4.7-5.1 s.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _worker(args, run_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", str(run_dir), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--started", repr(started)], env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def _stream_rate(rounds: list[dict]) -> float:
    """Stream messages per second, loading the artifacts included."""
    return (sum(r["stream_classified"] for r in rounds)
            / sum(r["stream_s"] for r in rounds))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ctfidf" / "__init__.py").is_file():
        print(f"perfbench: no ctfidf sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import check
    wl = WORKLOADS[args.workload]

    run_dir = ROOT / ".perfbench_runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        setups = [_worker(args, run_dir, deadline, True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(args, run_dir, deadline, False)
        rounds = result["rounds"]
        problems, info = check.verify(wl, run_dir / "corpus.tsv",
                                      run_dir / "out", rounds)
        setups.append(result["setup_s"])
        setups += [_worker(args, run_dir, deadline, True)["setup_s"]
                   for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    done = [r for r in rounds if "experiment_s" in r]
    info.update(rounds=len(rounds), setups=setups,
                experiment_s=[r.get("experiment_s") for r in rounds])
    if args.trace:
        if not result["counts_repeat"]:
            problems.append("per-layer counts differ between rounds")
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in result["layers"].items()}
    elif done:
        metrics = {
            "experiment_s": (_median(done, "experiment_s"), "s"),
            "experiment_cpu_s": (_median(done, "experiment_cpu_s"), "s"),
            "classify_docs_per_s": (_stream_rate(done), "docs/s"),
            "f1": (_median(done, "f1"), "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "artifact_mb": (_median(done, "artifact_bytes") / 1e6, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        print("perfbench: every experiment failed", file=sys.stderr)
        return 1
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print("perfbench: " + json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

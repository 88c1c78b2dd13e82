"""Starts one worker run in a fresh child process and reads its result."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from perfbench import ROOT
from perfbench import metrics as M

WORKER = os.path.join(ROOT, "perfbench", "worker.py")
#: scratch space: inside the checkout (the driver allows writes nowhere
#: else), outside ``perfbench/``, and named in the root ``.gitignore``.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: a run that takes longer than this is killed (the driver allows 180 s).
CHILD_TIMEOUT = 170.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One worker run in its own process group and scratch directory;
    returns the worker's JSON plus ``wall_s`` and ``leaked_processes``."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
        "--work", work,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{workload}: worker exceeded {CHILD_TIMEOUT:.0f} s") from None
        # The worker reaps its daemon itself; anything still alive in its
        # process group is a leak, reported and then swept.
        leaked = _group_alive(proc.pid)
        if leaked:
            os.killpg(proc.pid, signal.SIGKILL)
            while _group_alive(proc.pid):
                time.sleep(0.01)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with status {proc.returncode}")
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["leaked_processes"] = leaked
    return result


def units(trace: int) -> "dict[str, str]":
    rows = M.PER_LAYER if trace else M.END_TO_END
    return {row[0]: row[1] for row in rows}


def contract_line(result: dict) -> str:
    """The driver's result object for one run."""
    unit = units(result["trace"])
    return json.dumps({
        "correct": result["failed"] == 0 and not result["leaked_processes"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit[name]}
            for name in unit
        },
    })


def default_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])

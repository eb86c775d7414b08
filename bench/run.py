"""Benchmark entry point for stabkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` from the root of a checkout,
against the library in the checkout's ``src/``.  With ``--trace 0`` it
reports the end-to-end metrics, ``setup_s`` included; with ``--trace 1``
the per-layer metrics of a traced run.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the median, over the measured worker and SETUP_PROBES
set-up-only workers, of the time from starting a fresh worker process to
its ``READY`` line.  The measured worker asks for the probes between its
operations, spread over the measured time; any it has not asked for by
the end run after it.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 10
TIMEOUT_S = 175


def start_worker(args, probe: bool):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--probe"] if probe else ["--probes", str(0 if args.trace else SETUP_PROBES)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    return proc, t0


def wait_ready(proc, t0) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return time.perf_counter() - t0


def killed_at(proc, deadline: float) -> threading.Timer:
    """A started timer that kills ``proc`` at the monotonic ``deadline``."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    return timer


def probe(args, deadline: float) -> float:
    """The set-up time of one fresh set-up-only worker."""
    proc, t0 = start_worker(args, probe=True)
    timer = killed_at(proc, deadline)
    try:
        setup = wait_ready(proc, t0)
        proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stabkit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: no stabkit checkout at {ROOT} (need src/stabkit and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setups, lines = [], []
    # the whole run, probes included, must end within TIMEOUT_S
    deadline = time.monotonic() + TIMEOUT_S
    proc, t0 = start_worker(args, probe=False)
    watchdog = killed_at(proc, deadline)
    try:
        setups.append(wait_ready(proc, t0))
        for line in proc.stdout:
            if line.strip() == "PROBE":
                setups.append(probe(args, deadline))
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        code = proc.wait()
        while code == 0 and not args.trace and len(setups) < SETUP_PROBES + 1:
            setups.append(probe(args, deadline))
    except (RuntimeError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = [line for line in lines if line.strip()]
    if code != 0 or not lines:
        print(f"run.py: worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == "setup_s")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

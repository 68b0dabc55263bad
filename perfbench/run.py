"""sixvertex benchmark: real CLI runs, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one client: one invocation at a time, each
in a fresh child process (perfbench/invoke.py) that imports sixvertex.cli
from src/ and calls ``sixvertex.cli.main(argv)`` once.  Invocations repeat
while the next one is expected to end within --seconds; every one is checked after it ends
(perfbench/workloads.py) and a failed one counts in ``failed``.  An
invocation fails if the child exits non-zero, the CLI raises or returns
non-zero, its outputs fail their check, or its peak RSS exceeds
MEMORY_CAP_MB.

--trace 0 reports the medians over all invocations of
  wall_s       wall time of the cli.main call (import excluded),
  setup_s      process launch until ``import sixvertex.cli`` has finished,
  peak_rss_mb  max RSS of the child and its pool workers.
--trace 1 spends half the time on untraced invocations and half on traced
  ones (perfbench/layertrace.py, under ``python -X importtime``) and reports
  the per-layer metrics of the traced invocation with the median wall time,
  plus trace.overhead_s, its wall time minus the untraced median.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it describe the machine and each
invocation.  A fuller record goes to .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "invoke.py")
MEMORY_CAP_MB = 1536
INVOCATION_TIMEOUT_S = 120
# Overrides --workers inside the CLI; stripped so the workload's own value holds.
WORKERS_ENV = "SIXVERTEX_WORKERS"
# Modules whose cumulative import time the traced run reports.
IMPORTS = ("sixvertex", "sixvertex.lln", "scipy.stats", "numpy")
# The output checks read files back with the package under test.
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Workload, check, load_digests  # noqa: E402
from layertrace import parse_importtime  # noqa: E402


@dataclass
class Invocation:
    outdir: str
    record: dict = field(default_factory=dict)
    stdout: str = ""
    stderr: str = ""
    problems: list = field(default_factory=list)

    def cleanup(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    return env


def run_invocation(w: Workload, seed: int, trace: bool, pinned: dict | None,
                   tamper=None, keep: bool = False) -> Invocation:
    """Run the workload once in a fresh child process and check its outputs.

    tamper(outdir), if given, runs between the invocation and its check.
    The output directory is removed unless keep is set.
    """
    os.makedirs(WORK, exist_ok=True)
    inv = Invocation(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    launch = time.monotonic()
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), CHILD,
           repr(launch), inv.outdir, "1" if trace else "0", "--",
           *w.argv(seed, inv.outdir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        inv.stdout, inv.stderr = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        inv.stdout, inv.stderr = proc.communicate()
        inv.problems.append(f"timed out after {INVOCATION_TIMEOUT_S} s")
    finally:
        try:  # stragglers of the child's process group, if any
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        with open(os.path.join(inv.outdir, "result.json")) as f:
            inv.record = json.load(f)
    except (OSError, ValueError):
        inv.problems.append("child wrote no result")
    if proc.returncode != 0:
        inv.problems.append(f"child exit {proc.returncode}: {inv.stderr.strip()[-300:]}")
    if "error" in inv.record:
        inv.problems.append(f"CLI raised {inv.record['error']}")
    elif inv.record.get("rc", 0) != 0:
        inv.problems.append(f"CLI returned {inv.record['rc']}")
    peak_mb = inv.record.get("peak_rss_kb", 0) / 1024
    if peak_mb > MEMORY_CAP_MB:
        inv.problems.append(f"peak RSS {peak_mb:.0f} MB above the {MEMORY_CAP_MB} MB cap")
    if not inv.problems:
        if tamper is not None:
            tamper(inv.outdir)
        inv.problems += check(w, seed, inv.outdir, inv.stdout, pinned)
    if not keep:
        inv.cleanup()
    return inv


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "seed": seed}


def _loop(w, seed, trace, pinned, seconds, log) -> list:
    """Invocations while another one is expected to end within `seconds`
    (at least one)."""
    invs = []
    t0 = time.monotonic()
    while True:
        inv = run_invocation(w, seed, trace, pinned)
        r = inv.record
        print(f"{'traced' if trace else 'run'} {len(invs) + 1}: "
              f"wall {r.get('wall_s', float('nan')):.4f} s, setup {r.get('setup_s', float('nan')):.4f} s, "
              f"peak {r.get('peak_rss_kb', 0) / 1024:.1f} MB"
              + (f", FAILED: {'; '.join(inv.problems)}" if inv.problems else ""))
        log.append({"trace": trace, "record": r, "problems": inv.problems})
        invs.append(inv)
        elapsed = time.monotonic() - t0
        if elapsed * (len(invs) + 1) / len(invs) > seconds:
            return invs


def _median(invs, key) -> float:
    return statistics.median(i.record[key] for i in invs if key in i.record)


def _per_layer(traced: Invocation, untraced_wall: float, spec: list) -> dict:
    layers = dict(traced.record["layers"])
    imports = parse_importtime(traced.stderr, IMPORTS)
    for mod, cum_s in imports.items():
        layers[f"import.{mod}.cum_s"] = cum_s
    layers["trace.overhead_s"] = traced.record["wall_s"] - untraced_wall
    return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sixvertex", "cli.py")):
        print("perfbench: src/sixvertex is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    w = WORKLOADS[args.workload]
    pinned = load_digests()[w.name]
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    log = []
    if args.trace:
        plain = _loop(w, args.seed, False, pinned, args.seconds / 2, log)
        traced = _loop(w, args.seed, True, pinned, args.seconds / 2, log)
        invs = plain + traced
        timed = [i for i in traced if "layers" in i.record]
        if not timed or not any("wall_s" in i.record for i in plain):
            print("perfbench: no completed invocation to report", file=sys.stderr)
            return 1
        timed.sort(key=lambda i: i.record["wall_s"])
        chosen = timed[(len(timed) - 1) // 2]
        metrics = _per_layer(chosen, _median(plain, "wall_s"), bench["per_layer"])
        layers = chosen.record["layers"]
        # Pool workers run side by side, so their self times are not added
        # up; the parent waits for the union of their spans instead.
        worker_self = layers.get("trace.worker_self_s", 0.0)
        parent_self = sum(v for k, v in layers.items() if k.endswith(".self_s")) - worker_self
        covered = layers.get("trace.worker_covered_s", 0.0)
        print(f"trace accounting: parent self times {parent_self:.4f} s + worker-covered "
              f"{covered:.4f} s = {parent_self + covered:.4f} s of traced wall "
              f"{chosen.record['wall_s']:.4f} s; worker self times {worker_self:.4f} s")
    else:
        invs = _loop(w, args.seed, False, pinned, args.seconds, log)
        if not any("wall_s" in i.record for i in invs):
            print("perfbench: no completed invocation to report", file=sys.stderr)
            return 1
        values = {"wall_s": _median(invs, "wall_s"),
                  "setup_s": _median(invs, "setup_s"),
                  "peak_rss_mb": _median(invs, "peak_rss_kb") / 1024}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    failed = sum(1 for i in invs if i.problems)
    # fail_rate stays out of the metrics: it reads 0 on a correct run, so no
    # change can be measured as a share of it.
    print(f"fail_rate: {failed}/{len(invs)} = {failed / len(invs):.4f} (ratio)")
    result = {"correct": failed == 0, "attempted": len(invs), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK, f"{w.name}.seed{args.seed}.trace{args.trace}.json"), "w") as f:
        json.dump({"environment": env, "invocations": log, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

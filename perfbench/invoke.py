"""One benchmark invocation: a fresh process that runs the sixvertex CLI once.

Usage: invoke.py LAUNCH OUTDIR TRACE -- CLI-ARGS...

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time runs
from process launch until ``import sixvertex.cli`` has finished.  The CLI
call is timed alone; its output files are written inside the call.  Peak
RSS is the maximum of this process and its reaped children (the pool
workers), which is why every invocation needs a fresh process: the
children's maximum never resets.  The record goes to OUTDIR/result.json.
"""

import os
import sys
import time


def main() -> int:
    launch, outdir, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import sixvertex.cli
    setup_s = time.monotonic() - launch

    import json
    import resource

    record = {"setup_s": setup_s}
    tracer = None
    if trace:
        from layertrace import Tracer

        trace_dir = os.path.join(outdir, "trace")
        os.makedirs(trace_dir)
        tracer = Tracer(trace_dir)
        originals = tracer.install()
        table_info = originals["lmatrix.outcome_table"].cache_info
        cache_before = table_info()
    try:
        t0 = time.perf_counter()
        record["rc"] = sixvertex.cli.main(cli_args)
        record["wall_s"] = time.perf_counter() - t0
    except BaseException as exc:  # noqa: BLE001 - reported to the parent, then re-raised
        record["error"] = f"{type(exc).__name__}: {exc}"
        with open(os.path.join(outdir, "result.json"), "w") as f:
            json.dump(record, f)
        raise
    record["peak_rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.merge_workers()
        cache_after = table_info()
        layers = {}
        for name, (self_s, calls) in tracer.stats.items():
            layers[f"{name}.self_s"] = self_s
            layers[f"{name}.calls"] = calls
        layers.update(tracer.counts)
        layers["lmatrix.outcome_table.hits"] = cache_after.hits - cache_before.hits
        layers["lmatrix.outcome_table.misses"] = cache_after.misses - cache_before.misses
        capacity = layers.pop("pool.capacity_s", 0.0)
        layers["pool.efficiency"] = layers.get("pool.worker_busy_s", 0.0) / capacity if capacity else 0.0
        layers["trace.wall_s"] = record["wall_s"]
        # Computed from the files the call wrote.
        for fname in os.listdir(outdir):
            path = os.path.join(outdir, fname)
            if os.path.isfile(path):
                key = "render_svg.svg_bytes" if fname.endswith(".svg") else "serialize.out_bytes"
                layers[key] = layers.get(key, 0) + os.path.getsize(path)
        record["layers"] = layers
    with open(os.path.join(outdir, "result.json"), "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

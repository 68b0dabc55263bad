"""Outside-in layer tracing for one benchmark child process.

The tracer wraps a fixed list of public sixvertex functions from the
outside.  Each target is replaced, by identity, in every ``sixvertex.*``
module namespace that holds it, because modules such as ``cli`` and ``lln``
bind functions like ``sample_s6v`` by name and patching only the defining
module would miss their calls.  ``ParameterField.rows`` is patched on the
class.  Scalar hot helpers (``lmatrix._ln_code``, ``fold_projection``,
``weights.*``) stay unwrapped so that overhead stays small; their time
lands in the nearest wrapped caller.

Every wrapped call is a span.  A span's self time is its duration minus
the part of it that its child spans cover.  In-process children never
overlap, so they are subtracted as they end.  Pool workers are forked
inside a ``pool.run_tasks`` span; each worker restarts its own record at
fork, and appends its spans and counts to a per-process file whenever a
worker-side root span ends.  ``merge_workers`` folds those files into the
parent's record and subtracts the union of the worker root intervals from
the ``pool.run_tasks`` span that forked them.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped function; metric prefix is
# "<module>.<attribute>".
TARGETS = (
    ("rng", "row_uniforms"),
    ("lattice", "sample_s6v"),
    ("lattice", "sample_cs6v"),
    ("lattice", "sample_colored_cs6v"),
    ("lattice", "sample_two_colored_with_boundary"),
    ("lattice", "height_H"),
    ("lattice", "mod2_project"),
    ("lattice", "admissibility_violations"),
    ("lmatrix", "outcome_table"),
    ("lmatrix", "verify_stochastic"),
    ("lmatrix", "verify_color_ignorance"),
    ("lmatrix", "verify_mod2_erasure"),
    ("lmatrix", "verify_sampler_matrix"),
    ("lmatrix", "verify_golden_table"),
    ("degenerations", "sample_pointset"),
    ("degenerations", "hammersley_height"),
    ("degenerations", "verify_hammersley_equivalence"),
    ("degenerations", "verify_hammersley_coupling"),
    ("degenerations", "verify_tpng_equivalence"),
    ("lln", "verify_ergodic_hypotheses"),
    ("lln", "verify_superadditivity"),
    ("lln", "verify_prop_X_height"),
    ("lln", "sample_shell_ensembles"),
    ("lln", "compute_X"),
    ("serialize", "ensemble_to_bytes"),
    ("serialize", "ensemble_to_json"),
    ("render_svg", "ensemble_svg"),
    ("cli", "main"),
)

SAMPLERS = ("sample_s6v", "sample_cs6v", "sample_colored_cs6v",
            "sample_two_colored_with_boundary")


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Span and counter record of one process (and its forked pool workers)."""

    def __init__(self, flush_dir: str):
        self.flush_dir = flush_dir
        self.stats = defaultdict(lambda: [0.0, 0])   # name -> [self_s, calls]
        self.counts = defaultdict(float)
        self.stack = []          # open frames: [start, child_s, span_id]
        self.next_id = 0
        self.remote_parent = None  # in a worker: id of the span that forked it
        self.pool_spans = []     # parent side: (span_id, start, end)
        self.table_ids = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.remote_parent = self.stack[-1][2] if self.stack else -1
        self.stack.clear()
        self.stats.clear()
        self.counts.clear()

    def _enter(self) -> list:
        self.next_id += 1
        frame = [time.perf_counter(), 0.0, self.next_id]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        st = self.stats[name]
        st[0] += dur - frame[1]
        st[1] += 1
        if self.stack:
            self.stack[-1][1] += dur
        elif self.remote_parent is not None:
            self._flush_worker(frame[0], end)
        return end

    def _flush_worker(self, start: float, end: float) -> None:
        rec = {"parent": self.remote_parent, "start": start, "end": end,
               "stats": dict(self.stats), "counts": dict(self.counts)}
        path = os.path.join(self.flush_dir, f"w{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        self.stats.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, count=None):
        """Span wrapper for fn; count(result), if given, adds counters."""

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if count is not None:
                count(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_run_tasks(self, fn):
        def run_tasks(task, args_list, workers=1):
            args_list = list(args_list)
            eff = min(workers, len(args_list)) if workers > 1 and len(args_list) > 1 else 1
            cpu_self, cpu_children = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
            frame = self._enter()
            try:
                return fn(task, args_list, workers)
            finally:
                end = self._exit("pool.run_tasks", frame)
                self.pool_spans.append((frame[2], frame[0], end))
                self.counts["pool.run_tasks.wall_s"] += end - frame[0]
                self.counts["pool.tasks"] += len(args_list)
                self.counts["pool.workers"] = max(self.counts["pool.workers"], eff)
                self.counts["pool.capacity_s"] += eff * (end - frame[0])
                # Workers are reaped inside the call, so their CPU shows in
                # RUSAGE_CHILDREN; inline tasks run on this process's CPU.
                busy = (_cpu_s(resource.RUSAGE_CHILDREN) - cpu_children if eff > 1
                        else _cpu_s(resource.RUSAGE_SELF) - cpu_self)
                self.counts["pool.worker_busy_s"] += busy

        return functools.wraps(fn)(run_tasks)

    def _count(self, name: str):
        counts = self.counts
        if name == "rng.row_uniforms":
            def count(uniforms):
                counts["rng.row_uniforms.cells"] += len(uniforms[0])
        elif name.split(".")[1] in SAMPLERS:
            def count(e):
                counts["lattice.edge_bytes"] += (e.v_edges.nbytes + e.h_edges.nbytes
                                                 + e.boundary_left.nbytes
                                                 + e.boundary_bottom.nbytes)
        elif name == "lmatrix.outcome_table":
            def count(table):
                if id(table) not in self.table_ids:
                    self.table_ids.add(id(table))
                    counts["lmatrix.outcome_table.bytes"] += table.nbytes
        elif ".verify_" in name:
            def count(report):
                counts[name + ".cases"] += report.cases
        else:
            count = None
        return count

    def install(self) -> dict:
        """Patch every target in all loaded sixvertex modules; returns the
        originals keyed by metric prefix."""
        import sixvertex.lattice
        import sixvertex.pool

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sixvertex" or n.startswith("sixvertex."))]
        replace = {}
        originals = {}
        for mod_name, attr in TARGETS:
            fn = getattr(sys.modules[f"sixvertex.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            originals[name] = fn
            replace[id(fn)] = self.wrap(name, fn, self._count(name))
        run_tasks = sixvertex.pool.run_tasks
        originals["pool.run_tasks"] = run_tasks
        replace[id(run_tasks)] = self._wrap_run_tasks(run_tasks)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    setattr(mod, key, replace[id(value)])
        cls = sixvertex.lattice.ParameterField
        cls.rows = self.wrap("lattice.ParameterField.rows", cls.rows)
        return originals

    def merge_workers(self) -> None:
        """Fold the worker files into this record."""
        intervals = defaultdict(list)
        for fname in sorted(os.listdir(self.flush_dir)):
            if not (fname.startswith("w") and fname.endswith(".jsonl")):
                continue
            with open(os.path.join(self.flush_dir, fname)) as f:
                for line in f:
                    rec = json.loads(line)
                    for name, (self_s, calls) in rec["stats"].items():
                        st = self.stats[name]
                        st[0] += self_s
                        st[1] += calls
                        self.counts["trace.worker_self_s"] += self_s
                    for name, value in rec["counts"].items():
                        self.counts[name] += value
                    intervals[rec["parent"]].append((rec["start"], rec["end"]))
        covered_total = 0.0
        for span_id, start, end in self.pool_spans:
            covered = _union_length(intervals.pop(span_id, []), start, end)
            self.stats["pool.run_tasks"][0] -= covered
            covered_total += covered
        self.counts["trace.worker_covered_s"] = covered_total


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def parse_importtime(stderr: str, modules) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``.

    A module imported lazily through its package's ``__getattr__`` (as
    ``from scipy import stats`` is) gets no line of its own; its submodules
    are then listed under the importer, and the module's time is taken as
    the sum of its outermost submodule entries.
    """
    entries = []  # (depth, name, cumulative_us), in the printed order
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    out = {}
    for mod in modules:
        own = [cum for _, name, cum in entries if name == mod]
        if own:
            out[mod] = own[0] / 1e6
            continue
        # Children print before their parent, so walk backwards to see
        # each entry after its ancestors.
        total, stack = 0, []
        for depth, name, cum in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            hit = name.startswith(mod + ".")
            if hit and not inside:
                total += cum
            stack.append((depth, inside or hit))
        out[mod] = total / 1e6
    return out

"""The benchmark's workloads and the checks on their outputs.

Each workload is one real CLI invocation.  Its check runs in the parent
after the invocation has ended, outside every timed region.  Checks read
data content only, never provenance, version strings or paths:

* for seed 1 (the default) the data digests must equal the ones pinned in
  ``digests.json``; ``converge-hammersley-w2`` is pinned from a
  ``--workers 1`` run, so parallelism may not change its data;
* for every seed the invariants below must hold.

``python3 perfbench/workloads.py --pin`` rewrites ``digests.json`` from
fresh seed-1 runs; do that only for an intended change of data outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
PINNED_SEED = 1
# |final mean - closed-form limit| allowed for a converge run; the finite-size
# bias at these sizes is below 0.005.
CONVERGE_TOL = 0.05
# outcome_table(11) alone peaks at 2.36 GB and 12 does not fit in memory.
MAX_COLORS = 10


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    args: tuple
    outputs: dict          # role -> file name inside the invocation's directory
    status: str            # regex the CLI's last stdout line must match

    def argv(self, seed: int, outdir: str) -> list:
        files = [a for role, f in self.outputs.items()
                 for a in (f"--{role}", os.path.join(outdir, f))]
        return [*self.args, "--seed", str(seed), *files]


def _opt(args, flag):
    return args[args.index(flag) + 1]


WORKLOADS = {w.name: w for w in (
    Workload(
        "converge-s6v",
        ("converge", "--model", "s6v", "--dir", "1,1", "--b1", "0.3", "--b2", "0.7",
         "--sizes", "1000,2000,4000", "--replicas", "4", "--workers", "1"),
        {"csv": "ratios.csv", "json": "ratios.json"},
        r"converge s6v dir=1,1 sizes=\[1000, 2000, 4000\]: final mean \d",
    ),
    Workload(
        "converge-hammersley-w2",
        ("converge", "--model", "hammersley", "--p", "0.25", "--dir", "1,1",
         "--sizes", "1500,3000,6000", "--replicas", "4", "--workers", "2"),
        {"csv": "ratios.csv", "json": "ratios.json"},
        r"converge hammersley dir=1,1 sizes=\[1500, 3000, 6000\]: final mean \d",
    ),
    Workload(
        "sample-colored-io",
        ("sample", "--model", "colored", "--blocks", "10", "--dir", "16,16",
         "--b1", "0.3", "--b2", "0.7"),
        {"out": "sample.bin", "json": "sample.json", "svg": "sample.svg"},
        r"sampled colored 160x160 colors=10 ",
    ),
    Workload(
        "verify-battery",
        ("verify", "--n", "4", "--trials", "2000", "--max-size", "16",
         "--replicas", "500"),
        {"out": "report.json"},
        r"verify: PASS \((\d+)/\1 checks\)$",
    ),
)}

for _w in WORKLOADS.values():
    if "--blocks" in _w.args and int(_opt(_w.args, "--blocks")) > MAX_COLORS:
        raise ValueError(f"{_w.name}: more than {MAX_COLORS} colors")


def load_digests() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Data digests and invariants per output kind.  Each returns (digest, problems).

def _converge(w: Workload, outdir: str):
    sizes = [int(s) for s in _opt(w.args, "--sizes").split(",")]
    replicas = int(_opt(w.args, "--replicas"))
    problems = []
    with open(os.path.join(outdir, w.outputs["csv"])) as f:
        lines = [ln for ln in f.read().splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != "size,replica,ratio,reference,abs_error":
        return {}, ["CSV header missing"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != replicas * len(sizes) or any(len(r) != 5 for r in rows):
        return {}, [f"CSV has {len(rows)} rows, want {replicas * len(sizes)}"]
    with open(os.path.join(outdir, w.outputs["json"])) as f:
        doc = json.load(f)
    ratios = doc["ratios"]
    if doc["sizes"] != sizes or len(ratios) != replicas:
        problems.append("JSON sizes or replica count differ from the request")
    expect = [(str(n), str(r)) for n in sizes for r in range(replicas)]
    if [(r[0], r[1]) for r in rows] != expect:
        problems.append("CSV rows are not ordered by size, then replica")
    else:
        for r in rows:
            si, rep = sizes.index(int(r[0])), int(r[1])
            if float(r[2]) != ratios[rep][si]:
                problems.append(f"CSV and JSON ratios differ at size {r[0]} replica {rep}")
                break
    final = [row[-1] for row in ratios]
    final_mean = sum(final) / len(final)
    reference = doc["reference"]
    if reference is None or not math.isfinite(final_mean):
        problems.append("no reference or non-finite mean")
    elif abs(final_mean - reference) > CONVERGE_TOL:
        problems.append(f"|final mean {final_mean} - reference {reference}| > {CONVERGE_TOL}")
    if any(float(r[3]) != reference for r in rows):
        problems.append("CSV reference differs from JSON reference")
    digest = {"csv_rows": _sha("\n".join(",".join(r) for r in rows)),
              "json_ratios": _sha(json.dumps(ratios))}
    return digest, problems


def _colored(w: Workload, outdir: str):
    import numpy as np
    from sixvertex.lattice import admissibility_violations, make_coloring, make_field
    from sixvertex.serialize import ensemble_from_json, read_ensemble

    e, _meta = read_ensemble(os.path.join(outdir, w.outputs["out"]))
    with open(os.path.join(outdir, w.outputs["json"])) as f:
        ej = ensemble_from_json(json.load(f))
    problems = []
    planes = ("v_edges", "h_edges", "boundary_left", "boundary_bottom")
    if (e.variant, e.n_colors, e.width, e.height) != (ej.variant, ej.n_colors, ej.width, ej.height) \
            or not all(np.array_equal(getattr(e, p), getattr(ej, p)) for p in planes):
        problems.append("binary and JSON ensembles differ")
    blocks = int(_opt(w.args, "--blocks"))
    x, y = _opt(w.args, "--dir").split(",")
    field = make_field(float(_opt(w.args, "--b1")), float(_opt(w.args, "--b2")))
    scheme = make_coloring(x, y, field)
    if (e.n_colors, e.width, e.height) != (blocks, scheme.bx * blocks, scheme.by * blocks):
        problems.append(f"ensemble is {e.width}x{e.height} with {e.n_colors} colors")
    else:
        bad = admissibility_violations(e, scheme)
        if bad:
            problems.append(f"{len(bad)} inadmissible vertices, first {bad[0]}")
    try:
        ET.parse(os.path.join(outdir, w.outputs["svg"]))
    except ET.ParseError as exc:
        problems.append(f"SVG does not parse: {exc}")
    h = hashlib.sha256(f"{e.variant},{e.n_colors},{e.width},{e.height}".encode())
    for p in planes:
        arr = getattr(e, p)
        h.update(f"{p}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return {"planes": h.hexdigest()}, problems


def _verify(w: Workload, outdir: str):
    with open(os.path.join(outdir, w.outputs["out"])) as f:
        doc = json.load(f)
    checks = doc["checks"]
    summary = [doc["passed"] is True and all(c["passed"] is True for c in checks),
               len(checks), sum(int(c["cases"]) for c in checks)]
    problems = [] if summary[0] else ["verify report does not pass"]
    return {"summary": summary}, problems


_CHECKS = {"converge-s6v": _converge, "converge-hammersley-w2": _converge,
           "sample-colored-io": _colored, "verify-battery": _verify}


def digest(w: Workload, outdir: str) -> dict:
    return _CHECKS[w.name](w, outdir)[0]


def check(w: Workload, seed: int, outdir: str, stdout: str, pinned: dict | None) -> list:
    """Problems found in one invocation's outputs; empty means correct.

    pinned is the workload's entry in digests.json (None skips the digest
    comparison, for pinning)."""
    lines = stdout.strip().splitlines()
    problems = []
    if not lines or not re.match(w.status, lines[-1]):
        problems.append(f"status line {lines[-1] if lines else ''!r} does not match")
    try:
        got, found = _CHECKS[w.name](w, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems += found
    if pinned is None:
        return problems
    if seed == PINNED_SEED:
        if got != pinned:
            problems.append(f"data digest {got} differs from pinned {pinned}")
    elif "summary" in pinned:
        # Unpinned seeds: at least as many checks and cases as pinned.
        if got["summary"][1] < pinned["summary"][1] or got["summary"][2] < pinned["summary"][2]:
            problems.append(f"verify ran {got['summary'][1:]} checks/cases, "
                            f"fewer than pinned {pinned['summary'][1:]}")
    return problems


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: workloads.py --pin")
    from run import run_invocation

    pinned = {}
    for w in WORKLOADS.values():
        args = list(w.args)
        if "--workers" in args:
            args[args.index("--workers") + 1] = "1"
        ref = Workload(w.name, tuple(args), w.outputs, w.status)
        inv = run_invocation(ref, PINNED_SEED, False, None, keep=True)
        try:
            if inv.problems:
                sys.exit(f"{w.name}: {inv.problems}")
            pinned[w.name] = digest(ref, inv.outdir)
        finally:
            inv.cleanup()
    with open(DIGESTS_PATH, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")

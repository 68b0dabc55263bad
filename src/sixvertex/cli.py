"""Command line front end.

Subcommands:

    verify         run the symbolic/exact verification battery
    sample         draw one configuration and write it out
    converge       height-ratio convergence experiment
    hammersley     point-process degeneration checks
    export-golden  print the canonical two-color weight table

Options can be preloaded from a JSON file via --config; flags given
explicitly on the command line override file values.  Every randomized
subcommand requires --seed.  Worker counts come from --workers unless the
SIXVERTEX_WORKERS environment variable is set, which wins.

Output files embed the resolved run configuration (command, semantic
parameters, package version).  Execution details that cannot change the
result -- worker count, output paths, the config file path -- are excluded
so reruns with different parallelism or destinations stay byte-identical.
export-golden writes the bare table so it can be diffed against a frozen
copy.

Exit status: 0 when everything requested passed, 1 when a verification
check failed, 2 on a configuration error (reported as a JSON object on
stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__, lmatrix
from .degenerations import (
    verify_hammersley_coupling,
    verify_hammersley_equivalence,
    verify_tpng_equivalence,
)
from .lattice import (
    ParameterField,
    admissibility_violations,
    complement,
    height_H,
    height_h,
    make_coloring,
    make_field,
    sample_colored_cs6v,
    sample_cs6v,
    sample_s6v,
    verify_monotonicity,
)
from .lln import (
    convergence_experiment,
    hammersley_limit,
    limit_shape_g,
    sample_shell_ensembles,
    verify_ergodic_hypotheses,
    verify_prop_X_height,
    verify_superadditivity,
)
from .lmatrix import MAX_COLORS
from .pool import resolve_workers
from .render_svg import write_svg
from .report import VerificationReport
from .serialize import write_ensemble


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


#: Option keys that never influence the produced data.
EXECUTION_KEYS = frozenset({"config", "workers", "out", "json", "csv", "svg"})

DEFAULTS: dict[str, dict] = {
    "verify": {
        "seed": None, "n": 3, "b1": 0.3, "b2": 0.7, "trials": 200,
        "max_size": 12, "replicas": 150, "workers": None, "out": None,
    },
    "sample": {
        "seed": None, "model": "cs6v", "width": 40, "height": 40,
        "blocks": 4, "dir": "1,1", "b1": 0.3, "b2": 0.7, "field": None,
        "replica": 0, "workers": None, "out": None, "json": None, "svg": None,
    },
    "converge": {
        "seed": None, "model": "s6v", "dir": "1,1", "sizes": "250,500,1000",
        "replicas": 8, "b1": 0.3, "b2": 0.7, "p": None, "field": None,
        "tol": None, "workers": None, "csv": None, "json": None,
    },
    "hammersley": {
        "seed": None, "p": 0.25, "width": 60, "height": 60,
        "coupling_seeds": 10, "law_max": 3, "sizes": None, "replicas": 8,
        "dir": "1,1", "tol": None, "workers": None, "out": None,
    },
    "export-golden": {"out": None},
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: subcommand plus merged option values."""

    command: str
    options: dict

    def provenance(self) -> dict:
        """The dict embedded in output files: semantic parameters only."""
        params = {k: v for k, v in self.options.items()
                  if k not in EXECUTION_KEYS}
        return {"tool": "sixvertex", "version": __version__,
                "command": self.command, "params": params}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through ConfigError
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="sixvertex", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"sixvertex {__version__}")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def common(sp, seed=True):
        sp.add_argument("--config", help="JSON file of option values")
        if seed:
            sp.add_argument("--seed", type=int, help="base RNG seed (required)")
            sp.add_argument("--workers", type=int,
                            help="process count for replica-parallel work")

    sp = sub.add_parser("verify", help="run the verification battery")
    common(sp)
    sp.add_argument("--n", type=int, help="max color count for exact checks")
    sp.add_argument("--b1", type=float, help="cross probability for sampled checks")
    sp.add_argument("--b2", type=float, help="no-nucleation probability")
    sp.add_argument("--trials", type=int, help="monotonicity trial count")
    sp.add_argument("--max-size", dest="max_size", type=int,
                    help="max grid side for monotonicity trials")
    sp.add_argument("--replicas", type=int, help="ergodic-check replica count")
    sp.add_argument("--out", help="write the JSON report here")

    sp = sub.add_parser("sample", help="draw one configuration")
    common(sp)
    sp.add_argument("--model", choices=("s6v", "cs6v", "colored"))
    sp.add_argument("--width", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--blocks", type=int, help="shell count (colored model)")
    sp.add_argument("--dir", help="direction 'x,y' (colored model), fractions allowed")
    sp.add_argument("--b1", type=float)
    sp.add_argument("--b2", type=float)
    sp.add_argument("--field", help="JSON file with b1/b2 matrices")
    sp.add_argument("--replica", type=int)
    sp.add_argument("--out", help="binary ensemble output path")
    sp.add_argument("--json", help="JSON ensemble output path")
    sp.add_argument("--svg", help="SVG rendering output path")

    sp = sub.add_parser("converge", help="height ratio convergence experiment")
    common(sp)
    sp.add_argument("--model", choices=("s6v", "cs6v", "hammersley"))
    sp.add_argument("--dir", help="direction 'x,y', fractions allowed")
    sp.add_argument("--sizes", help="comma-separated scale list")
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--b1", type=float)
    sp.add_argument("--b2", type=float)
    sp.add_argument("--p", type=float,
                    help="hammersley point density (sets b1=0, b2=1-p)")
    sp.add_argument("--field", help="JSON file with b1/b2 matrices")
    sp.add_argument("--tol", type=float,
                    help="fail unless |final mean - reference| <= tol")
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--json", help="JSON output path")

    sp = sub.add_parser("hammersley", help="degeneration checks")
    common(sp)
    sp.add_argument("--p", type=float, help="point density in (0, 1)")
    sp.add_argument("--width", type=int, help="coupling grid width")
    sp.add_argument("--height", type=int, help="coupling grid height")
    sp.add_argument("--coupling-seeds", dest="coupling_seeds", type=int,
                    help="number of consecutive seeds for pathwise coupling")
    sp.add_argument("--law-max", dest="law_max", type=int,
                    help="max side for exact law enumeration (<= 3)")
    sp.add_argument("--sizes", help="run a convergence experiment at these scales")
    sp.add_argument("--replicas", type=int)
    sp.add_argument("--dir", help="convergence direction 'x,y'")
    sp.add_argument("--tol", type=float,
                    help="gate the convergence mean against the limit value")
    sp.add_argument("--out", help="write the JSON report here")

    sp = sub.add_parser("export-golden", help="print the two-color weight table")
    common(sp, seed=False)
    sp.add_argument("--out", help="output path (default: stdout)")

    return p


def _merge_options(command: str, ns: argparse.Namespace) -> dict:
    """Layer defaults < config file < explicit flags; validate keys."""
    defaults = DEFAULTS[command]
    merged = dict(defaults)
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as f:
                loaded = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in defaults:
                raise ConfigError(
                    f"unknown config key {key!r} for command {command!r}")
            merged[norm] = value
    for key in defaults:
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _require_seed(options: dict) -> int:
    seed = options.get("seed")
    if seed is None:
        raise ConfigError("--seed is required")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("--seed must be a nonnegative integer")
    return seed


def _check_prob(options: dict, key: str, open_interval: bool = False) -> float:
    v = options.get(key)
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key} must be a number") from None
    if open_interval and not 0.0 < v < 1.0:
        raise ConfigError(f"--{key} must lie strictly inside (0, 1)")
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"--{key} must lie in [0, 1]")
    return v


def _parse_direction(text) -> tuple[Fraction, Fraction]:
    try:
        xs, ys = str(text).split(",")
        x, y = Fraction(xs.strip()), Fraction(ys.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad direction {text!r}: expected 'x,y'") from exc
    if x <= 0 or y <= 0:
        raise ConfigError("direction components must be positive")
    return x, y


def _parse_sizes(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = str(text).split(",")
    try:
        sizes = [int(s) for s in parts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad size list {text!r}") from exc
    if not sizes or any(s <= 0 for s in sizes) or sizes != sorted(sizes):
        raise ConfigError("sizes must be a nondecreasing list of positive integers")
    return sizes


def _load_field(options: dict) -> ParameterField:
    path = options.get("field")
    if path:
        try:
            with open(path) as f:
                data = json.load(f)
            return make_field(data["b1"], data["b2"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad field file {path!r}: {exc}") from exc
    return make_field(_check_prob(options, "b1"), _check_prob(options, "b2"))


def _workers(options: dict) -> int:
    requested = options.get("workers")
    if requested is not None and (not isinstance(requested, int)
                                  or isinstance(requested, bool)):
        raise ConfigError("--workers must be an integer")
    try:
        return resolve_workers(requested)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _emit(report_lines) -> None:
    for line in report_lines:
        print(line)


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_verify(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o)
    n = int(o["n"])
    if n < 1:
        raise ConfigError("--n must be >= 1")
    trials = int(o["trials"])
    replicas = int(o["replicas"])
    if trials < 1 or replicas < 2:
        raise ConfigError("--trials must be >= 1 and --replicas >= 2")
    field = make_field(_check_prob(o, "b1"), _check_prob(o, "b2"))
    workers = _workers(o)

    checks: list[VerificationReport] = []

    # Symbolic/exact layer.
    for k in range(1, min(n, 4) + 1):
        checks.append(lmatrix.verify_stochastic(k))
    for k in range(1, min(n, 3) + 1):
        for m in range(1, k + 1):
            checks.append(lmatrix.verify_color_ignorance(k, m))
        for cuts in lmatrix.contiguous_partitions(k):
            checks.append(lmatrix.verify_mod2_erasure(k, cuts))
        checks.append(lmatrix.verify_sampler_matrix(k))
        checks.append(verify_tpng_equivalence(k))
    checks.append(lmatrix.verify_golden_table())

    # Exact law degeneration.
    for w, h in ((2, 2), (3, 3), (2, 3)):
        for p in (0.25, 0.5, 0.75):
            checks.append(verify_hammersley_equivalence(w, h, p))
    checks.append(verify_hammersley_coupling(
        40, 40, 0.35, range(seed, seed + 5)))

    # Sampled structural identities.
    dual = VerificationReport("complement duality")
    hid = VerificationReport("height complement identity")
    for i, (w, h) in enumerate(((17, 13), (64, 64))):
        es = sample_s6v(w, h, field, seed, replica=i)
        ec = sample_cs6v(w, h, field, seed, replica=i)
        dual.cases += 1
        fc = complement(es)
        if not (np.array_equal(fc.v_edges, ec.v_edges)
                and np.array_equal(fc.h_edges, ec.h_edges)
                and np.array_equal(fc.boundary_left, ec.boundary_left)
                and np.array_equal(fc.boundary_bottom, ec.boundary_bottom)):
            dual.fail(f"complement mismatch on {w}x{h}")
        hid.cases += 1
        hh = height_h(es)
        HH = height_H(ec)
        ys = np.arange(h + 1)[None, :]
        if not np.array_equal(HH, ys - hh):
            hid.fail(f"H != y - h on {w}x{h}")
    checks.append(dual)
    checks.append(hid)

    # Colored layer on a small block scheme.
    scheme = make_coloring(1, 1, field)
    shells = sample_shell_ensembles((1, 1), field, 4, 10, seed, workers)
    adm = VerificationReport("colored admissibility")
    for idx, e in enumerate(shells):
        adm.cases += 1
        bad = admissibility_violations(e, scheme)
        if bad:
            adm.fail(f"replica {idx}: {bad[0]}")
    checks.append(adm)
    checks.append(verify_prop_X_height(shells[0], scheme))
    checks.append(verify_superadditivity(shells, scheme, 4))

    checks.append(verify_monotonicity(trials, int(o["max_size"]), field, seed))
    checks.append(verify_ergodic_hypotheses(
        (1, 1), field, 2, replicas, seed, workers=workers))

    _emit(c.summary() for c in checks)
    passed = all(c.passed for c in checks)
    print(f"verify: {'PASS' if passed else 'FAIL'} "
          f"({sum(c.passed for c in checks)}/{len(checks)} checks)")
    if o.get("out"):
        doc = {"format": "sixvertex-verify-report",
               "config": cfg.provenance(),
               "passed": passed,
               "checks": [c.to_dict() for c in checks]}
        with open(o["out"], "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if passed else 1


def _cmd_sample(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o)
    replica = int(o["replica"])
    if replica < 0:
        raise ConfigError("--replica must be >= 0")
    field = _load_field(o)
    model = o["model"]
    if model == "colored":
        x, y = _parse_direction(o["dir"])
        blocks = int(o["blocks"])
        if not 1 <= blocks <= MAX_COLORS:
            raise ConfigError(f"--blocks must be in 1..{MAX_COLORS}")
        scheme = make_coloring(x, y, field)
        e = sample_colored_cs6v(blocks, scheme, field, seed, replica)
    else:
        w, h = int(o["width"]), int(o["height"])
        if w < 1 or h < 1:
            raise ConfigError("--width and --height must be >= 1")
        sampler = sample_s6v if model == "s6v" else sample_cs6v
        e = sampler(w, h, field, seed, replica)
    meta = cfg.provenance()
    wrote = []
    if o.get("out"):
        write_ensemble(e, o["out"], meta)
        wrote.append(o["out"])
    if o.get("json"):
        from .serialize import ensemble_to_json
        with open(o["json"], "w") as f:
            json.dump(ensemble_to_json(e, meta), f, indent=2, sort_keys=True)
            f.write("\n")
        wrote.append(o["json"])
    if o.get("svg"):
        write_svg(e, o["svg"], comment=json.dumps(meta, sort_keys=True))
        wrote.append(o["svg"])
    v_count = int(np.count_nonzero(e.v_edges))
    h_count = int(np.count_nonzero(e.h_edges))
    print(f"sampled {model} {e.width}x{e.height} colors={e.n_colors} "
          f"v-edges={v_count} h-edges={h_count}"
          + (f" -> {', '.join(wrote)}" if wrote else ""))
    return 0


def _cmd_converge(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o)
    model = o["model"]
    direction = _parse_direction(o["dir"])
    sizes = _parse_sizes(o["sizes"])
    replicas = int(o["replicas"])
    if replicas < 1:
        raise ConfigError("--replicas must be >= 1")
    if model == "hammersley" and o.get("p") is not None:
        p = _check_prob(o, "p", open_interval=True)
        field = make_field(0.0, 1.0 - p)
    else:
        field = _load_field(o)
    workers = _workers(o)
    report = convergence_experiment(direction, field, sizes, replicas, seed,
                                    model=model, workers=workers)
    meta = cfg.provenance()
    if o.get("csv"):
        with open(o["csv"], "w") as f:
            f.write(report.to_csv(meta))
    if o.get("json"):
        with open(o["json"], "w") as f:
            json.dump(report.to_json_dict(meta), f, indent=2, sort_keys=True)
            f.write("\n")
    mean = report.final_mean
    line = (f"converge {model} dir={o['dir']} sizes={sizes}: "
            f"final mean {mean:.6f}, replica std {report.replica_std:.6f}")
    if report.reference is not None:
        line += f", reference {report.reference:.6f}"
    print(line)
    if o.get("tol") is not None:
        if report.reference is None:
            raise ConfigError("--tol needs a homogeneous field (known reference)")
        ok = abs(mean - report.reference) <= float(o["tol"])
        print(f"tolerance check: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_hammersley(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o)
    p = _check_prob(o, "p", open_interval=True)
    law_max = int(o["law_max"])
    if not 1 <= law_max <= 3:
        raise ConfigError("--law-max must be 1..3")
    w, h = int(o["width"]), int(o["height"])
    nseeds = int(o["coupling_seeds"])
    if w < 1 or h < 1 or nseeds < 1:
        raise ConfigError("--width/--height/--coupling-seeds must be >= 1")
    workers = _workers(o)

    checks: list[VerificationReport] = []
    for side in range(1, law_max + 1):
        checks.append(verify_hammersley_equivalence(side, side, p))
    if law_max >= 3:
        checks.append(verify_hammersley_equivalence(2, 3, p))
    checks.append(verify_hammersley_coupling(w, h, p, range(seed, seed + nseeds)))

    ident = VerificationReport("limit identity")
    for xv in (0.25, 0.5, 1.0, 2.0):
        for yv in (0.25, 0.5, 1.0, 2.0):
            ident.cases += 1
            lhs = hammersley_limit(xv, yv, p)
            rhs = yv - limit_shape_g(xv, yv, 0.0, 1.0 - p)
            if abs(lhs - rhs) > 1e-10:
                ident.fail(f"limit mismatch at ({xv}, {yv}): {lhs} vs {rhs}")
    checks.append(ident)

    conv_doc = None
    if o.get("sizes"):
        sizes = _parse_sizes(o["sizes"])
        replicas = int(o["replicas"])
        direction = _parse_direction(o["dir"])
        field = make_field(0.0, 1.0 - p)
        report = convergence_experiment(direction, field, sizes, replicas,
                                        seed, model="hammersley", workers=workers)
        conv_doc = report.to_json_dict(cfg.provenance())
        line = (f"convergence: final mean {report.final_mean:.6f}"
                + (f", reference {report.reference:.6f}"
                   if report.reference is not None else ""))
        print(line)
        if o.get("tol") is not None and report.reference is not None:
            gate = VerificationReport("convergence tolerance")
            gate.cases += 1
            if abs(report.final_mean - report.reference) > float(o["tol"]):
                gate.fail(f"|{report.final_mean:.6f} - {report.reference:.6f}| "
                          f"> {o['tol']}")
            checks.append(gate)

    _emit(c.summary() for c in checks)
    passed = all(c.passed for c in checks)
    print(f"hammersley: {'PASS' if passed else 'FAIL'}")
    if o.get("out"):
        doc = {"format": "sixvertex-hammersley-report",
               "config": cfg.provenance(),
               "passed": passed,
               "checks": [c.to_dict() for c in checks]}
        if conv_doc is not None:
            doc["convergence"] = conv_doc
        with open(o["out"], "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if passed else 1


def _cmd_export_golden(cfg: RunConfig) -> int:
    text = "\n".join(lmatrix.golden_table_lines()) + "\n"
    out = cfg.options.get("out")
    if out:
        with open(out, "w") as f:
            f.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "converge": _cmd_converge,
    "hammersley": _cmd_hammersley,
    "export-golden": _cmd_export_golden,
}


def run(cfg: RunConfig) -> int:
    """Programmatic entry point; returns the process exit status."""
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        options = _merge_options(ns.command, ns)
        return run(RunConfig(ns.command, options))
    except ConfigError as exc:
        json.dump({"error": {"type": "config", "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

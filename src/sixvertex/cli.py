"""Command line front end.

Subcommands:

    verify         run the symbolic/exact verification battery
    sample         draw one configuration and write it out
    converge       height-ratio convergence experiment
    hammersley     point-process degeneration checks
    export-golden  print the canonical two-color weight table

Each option is declared once, in OPTIONS; COMMANDS gives each subcommand's
handler, help line and option defaults, and the parser and the config-file
key check both read them.  Options can be preloaded from a JSON file via
--config; flags given explicitly on the command line override file values.
Every randomized subcommand requires --seed; the seeds a run derives from it,
and --replica, must stay below 2**64.  Worker counts come from --workers
unless the SIXVERTEX_WORKERS environment variable is set, which wins.

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
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, lmatrix
from .degenerations import (
    verify_hammersley_coupling,
    verify_hammersley_equivalence,
    verify_tpng_equivalence,
)
from .lattice import (
    ParameterField,
    _replay_s6v,
    admissibility_violations,
    height_H,
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
from .rng import MAX_SEED, row_uniforms
from .serialize import _ensemble_doc, json_chunks, write_ensemble


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


#: Option keys that never influence the produced data.
EXECUTION_KEYS = frozenset({"config", "workers", "out", "json", "csv", "svg"})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully resolved invocation: subcommand plus merged option values."""

    command: str
    options: dict
    explicit: frozenset = frozenset()  # keys set by a flag or the config file

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
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", help="JSON file of option values")
        for key in command.defaults:
            value_type, text = OPTIONS[key]
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=value_type,
                            choices=command.choices.get(key), help=text)
    return p


def _merge_options(command: str, ns: argparse.Namespace) -> tuple[dict, frozenset]:
    """Layer defaults < config file < explicit flags; validate keys.  Returns
    the merged options and the keys set by the file or a flag."""
    spec = COMMANDS[command]
    given = {}
    cfg_path = ns.config
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
            if norm not in spec.defaults:
                raise ConfigError(
                    f"unknown config key {key!r} for command {command!r}")
            allowed = spec.choices.get(norm)
            if allowed is not None and value not in allowed:
                raise ConfigError(f"config key {key!r} must be one of {allowed}")
            given[norm] = value
    given.update((k, getattr(ns, k)) for k in spec.defaults if getattr(ns, k) is not None)
    return {**spec.defaults, **given}, frozenset(given)


def _require_seed(options: dict, count: int = 1) -> int:
    """The --seed value; the run uses the count seeds seed..seed+count-1."""
    seed = options.get("seed")
    if seed is None:
        raise ConfigError("--seed is required")
    highest = MAX_SEED - count + 1
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= highest:
        raise ConfigError(f"--seed must be a nonnegative integer <= {highest}")
    return seed


def _exact(value_type, raw):
    """raw converted to value_type; a boolean, NaN, or a float that an int
    conversion would round raises TypeError instead of being converted."""
    v = value_type(raw)
    if isinstance(raw, bool) or (isinstance(raw, float) and v != raw):
        raise TypeError
    return v


def _check_number(options: dict, key: str, low, high, open_interval: bool = False):
    """options[key] as the option's declared type (see _exact), inside
    [low, high] (high None: no upper bound), or strictly inside (low, high)."""
    flag = "--" + key.replace("_", "-")
    value_type = OPTIONS[key][0]
    try:
        v = _exact(value_type, options.get(key))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{flag} must be of type {value_type.__name__}") from None
    if open_interval and not low < v < high:
        raise ConfigError(f"{flag} must lie strictly inside ({low}, {high})")
    if v < low or (high is not None and v > high):
        upper = "inf" if high is None else high
        raise ConfigError(f"{flag} must lie in [{low}, {upper}]")
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
    """A comma-separated string or a config-file list of sizes; list entries
    must be integral (see _exact), so no size is silently rounded."""
    parts = list(text) if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        sizes = [_exact(int, s) for s in parts]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"--sizes must list integers, got {text!r}") from exc
    if not sizes or any(s <= 0 for s in sizes) or sizes != sorted(sizes):
        raise ConfigError("sizes must be a nondecreasing list of positive integers")
    return sizes


def _load_field(cfg: RunConfig) -> ParameterField:
    """The field from --p (b1 = 0, b2 = 1 - p), a --field file, or --b1/--b2;
    the first two give the whole field, so neither is combined with another."""
    o = cfg.options
    given = [k for k in ("p", "field", "b1", "b2") if k in cfg.explicit and o[k] is not None]
    if len(given) > 1 and given[0] in ("p", "field"):
        raise ConfigError(f"--{' and --'.join(given)} cannot be combined")
    if o.get("p") is not None:
        return make_field(0.0, 1.0 - _check_number(o, "p", 0, 1, open_interval=True))
    if path := o.get("field"):
        try:
            with open(path) as f:
                data = json.load(f)
            return make_field(data["b1"], data["b2"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad field file {path!r}: {exc}") from exc
    return make_field(_check_number(o, "b1", 0, 1),
                      _check_number(o, "b2", 0, 1))


def _workers(options: dict) -> int:
    requested = options.get("workers")
    if requested is not None and (not isinstance(requested, int)
                                  or isinstance(requested, bool)):
        raise ConfigError("--workers must be an integer")
    try:
        return resolve_workers(requested)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as f:
        f.writelines(json_chunks(doc))
        f.write("\n")


def _finish_battery(cfg: RunConfig, checks: list[VerificationReport],
                    tally: bool = False) -> int:
    """Print the check summaries and the status line (tally: with passed/total),
    write the sixvertex-<command>-report to --out, return the exit status."""
    for c in checks:
        print(c.summary())
    passed = all(c.passed for c in checks)
    status = f"{cfg.command}: {'PASS' if passed else 'FAIL'}"
    if tally:
        status += f" ({sum(c.passed for c in checks)}/{len(checks)} checks)"
    print(status)
    if cfg.options.get("out"):
        _write_json(cfg.options["out"], {
            "format": f"sixvertex-{cfg.command}-report",
            "config": cfg.provenance(),
            "passed": passed,
            "checks": [c.to_dict() for c in checks],
        })
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_verify(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o, count=5)  # the coupling check uses seed..seed+4
    n = _check_number(o, "n", 1, 4)
    trials = _check_number(o, "trials", 1, None)
    max_size = _check_number(o, "max_size", 1, None)
    replicas = _check_number(o, "replicas", 2, None)
    field = _load_field(cfg)
    workers = _workers(o)

    checks: list[VerificationReport] = []

    # Symbolic/exact layer.
    for k in range(1, n + 1):
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
    dual = VerificationReport("complement duality")  # s6v sweep vs step-data replay
    hid = VerificationReport("height complement identity")
    for i, (w, h) in enumerate(((17, 13), (64, 64))):
        es = sample_s6v(w, h, field, seed, replica=i)
        ec = sample_cs6v(w, h, field, seed, replica=i)
        dual.cases += 1
        v, hE = _replay_s6v(field, [row_uniforms(seed, i, y, w) for y in range(1, h + 1)])
        if not (np.array_equal(v, es.v_edges) and np.array_equal(hE, es.h_edges)):
            dual.fail(f"s6v sweep differs from the vertex replay on {w}x{h}")
        hid.cases += 1
        # h off the s6v east plane: h[x, y] lines leave [1, x] x [1, y] eastward
        h_east = np.pad(np.cumsum(es.h_edges, axis=1), ((1, 0), (1, 0)))
        h_east[0] = np.arange(h + 1)
        if not np.array_equal(height_H(ec), np.arange(h + 1)[None, :] - h_east):
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

    checks.append(verify_monotonicity(trials, max_size, field, seed))
    checks.append(verify_ergodic_hypotheses(
        (1, 1), field, 2, replicas, seed, workers=workers))

    return _finish_battery(cfg, checks, tally=True)


def _cmd_sample(cfg: RunConfig) -> int:
    o = cfg.options
    seed = _require_seed(o)
    replica = _check_number(o, "replica", 0, MAX_SEED)
    field = _load_field(cfg)
    model = o["model"]
    unread = {"width", "height"} if model == "colored" else {"blocks", "dir"}
    if ignored := cfg.explicit & unread:
        raise ConfigError(f"sample --model {model} takes no --{', --'.join(sorted(ignored))}")
    if model == "colored":
        x, y = _parse_direction(o["dir"])
        blocks = _check_number(o, "blocks", 1, MAX_COLORS)
        try:  # the sampler checks its box before sampling
            e = sample_colored_cs6v(blocks, make_coloring(x, y, field), field, seed, replica)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        w, h = _check_number(o, "width", 1, None), _check_number(o, "height", 1, None)
        sampler = sample_s6v if model == "s6v" else sample_cs6v
        e = sampler(w, h, field, seed, replica)
    meta = cfg.provenance()
    wrote = []
    if o.get("out"):
        write_ensemble(e, o["out"], meta)
        wrote.append(o["out"])
    if o.get("json"):
        _write_json(o["json"], _ensemble_doc(e, meta))
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
    if o.get("p") is not None and model != "hammersley":
        raise ConfigError("--p applies only to --model hammersley")
    field = _load_field(cfg)
    tol = None if o.get("tol") is None else _check_number(o, "tol", 0, None)
    if tol is not None and (field.I, field.J) != (1, 1):  # checked before sampling
        raise ConfigError("--tol needs a homogeneous field (known reference)")
    workers = _workers(o)
    direction = _parse_direction(o["dir"])
    sizes = _parse_sizes(o["sizes"])
    replicas = _check_number(o, "replicas", 1, None)
    try:
        report = convergence_experiment(direction, field, sizes, replicas, seed,
                                        model=model, workers=workers)
    except ValueError as exc:  # the experiment checks its inputs before sampling
        raise ConfigError(str(exc)) from None
    meta = cfg.provenance()
    if o.get("csv"):
        with open(o["csv"], "w") as f:
            f.write(report.to_csv(meta))
    if o.get("json"):
        _write_json(o["json"], report.to_json_dict(meta))
    mean = report.final_mean
    line = (f"converge {model} dir={o['dir']} sizes={report.sizes}: "
            f"final mean {mean:.6f}, replica std {report.replica_std:.6f}")
    if report.reference is not None:
        line += f", reference {report.reference:.6f}"
    print(line)
    if tol is not None:
        ok = abs(mean - report.reference) <= tol
        print(f"tolerance check: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_hammersley(cfg: RunConfig) -> int:
    o = cfg.options
    p = _check_number(o, "p", 0, 1, open_interval=True)
    law_max = _check_number(o, "law_max", 1, 3)
    w, h = _check_number(o, "width", 1, None), _check_number(o, "height", 1, None)
    nseeds = _check_number(o, "coupling_seeds", 1, None)
    seed = _require_seed(o, count=nseeds)

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

    return _finish_battery(cfg, checks)


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


# ---------------------------------------------------------------------------
# Option table: the parser and the config-file check both read it


#: Every option key -> (type of its flag's value, help); the flag is --key
#: with hyphens for underscores.
OPTIONS: dict[str, tuple[type, str]] = {
    "seed": (int, "base RNG seed (required)"),
    "workers": (int, "process count for replica-parallel work"),
    "model": (str, "which model to sample"),
    "n": (int, "max color count for exact checks, at most 4"),
    "b1": (float, "cross probability (homogeneous field)"),
    "b2": (float, "no-nucleation probability (homogeneous field)"),
    "field": (str, "JSON file with b1/b2 matrices"),
    "p": (float, "point density in (0, 1): the field b1 = 0, b2 = 1 - p"),
    "width": (int, "box width (sample) or coupling grid width"),
    "height": (int, "box height (sample) or coupling grid height"),
    "blocks": (int, "shell count (colored model)"),
    "dir": (str, "direction 'x,y', fractions allowed"),
    "replica": (int, "replica index of the sample"),
    "replicas": (int, "replica count"),
    "sizes": (str, "comma-separated scales of a convergence experiment"),
    "tol": (float, "fail unless |final mean - reference| <= tol"),
    "trials": (int, "monotonicity trial count"),
    "max_size": (int, "max grid side for monotonicity trials"),
    "coupling_seeds": (int, "number of consecutive seeds for pathwise coupling"),
    "law_max": (int, "max side of the boxes whose exact laws are compared (<= 3)"),
    "out": (str, "output path: binary ensemble, JSON report or golden table"),
    "json": (str, "JSON output path"),
    "csv": (str, "CSV output path"),
    "svg": (str, "SVG rendering output path"),
}


class Command(NamedTuple):
    """A subcommand: its handler, its help line, and the option keys it takes
    with their defaults (in the order provenance lists them) and choices."""

    handler: Callable[[RunConfig], int]
    help: str
    defaults: dict
    choices: dict = {}


COMMANDS: dict[str, Command] = {
    "verify": Command(_cmd_verify, "run the verification battery", {
        "seed": None, "n": 3, "b1": 0.3, "b2": 0.7, "trials": 200,
        "max_size": 12, "replicas": 150, "workers": None, "out": None,
    }),
    "sample": Command(_cmd_sample, "draw one configuration", {
        "seed": None, "model": "cs6v", "width": 40, "height": 40,
        "blocks": 4, "dir": "1,1", "b1": 0.3, "b2": 0.7, "field": None,
        "replica": 0, "out": None, "json": None, "svg": None,
    }, choices={"model": ("s6v", "cs6v", "colored")}),
    "converge": Command(_cmd_converge, "height ratio convergence experiment", {
        "seed": None, "model": "s6v", "dir": "1,1", "sizes": "250,500,1000",
        "replicas": 8, "b1": 0.3, "b2": 0.7, "p": None, "field": None,
        "tol": None, "workers": None, "csv": None, "json": None,
    }, choices={"model": ("s6v", "cs6v", "hammersley")}),
    "hammersley": Command(_cmd_hammersley, "degeneration checks", {
        "seed": None, "p": 0.25, "width": 60, "height": 60,
        "coupling_seeds": 10, "law_max": 3, "out": None,
    }),
    "export-golden": Command(_cmd_export_golden,
                             "print the two-color weight table", {"out": None}),
}


def run(cfg: RunConfig) -> int:
    """Programmatic entry point; returns the process exit status."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return COMMANDS[cfg.command].handler(cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        return run(RunConfig(ns.command, *_merge_options(ns.command, ns)))
    except ConfigError as exc:
        json.dump({"error": {"type": "config", "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

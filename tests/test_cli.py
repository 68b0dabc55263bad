"""Command line interface: subcommands, config layering, and determinism."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from sixvertex import __version__, cli
from sixvertex.cli import main
from sixvertex.serialize import read_ensemble

GOLDEN_PATH = Path(__file__).parent / "data" / "l2_golden.txt"
README_PATH = Path(__file__).parent.parent / "README.md"


def test_export_golden_matches_frozen_file(tmp_path, capsys):
    out = tmp_path / "golden.txt"
    assert main(["export-golden", "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_PATH.read_text()
    assert main(["export-golden"]) == 0
    assert capsys.readouterr().out.endswith(GOLDEN_PATH.read_text())


def test_sample_writes_all_formats(tmp_path):
    bin_path = tmp_path / "e.bin"
    json_path = tmp_path / "e.json"
    svg_path = tmp_path / "e.svg"
    rc = main(["sample", "--seed", "11", "--model", "cs6v", "--width", "15",
               "--height", "12", "--out", str(bin_path), "--json",
               str(json_path), "--svg", str(svg_path)])
    assert rc == 0
    e, meta = read_ensemble(bin_path)
    assert (e.width, e.height, e.variant) == (15, 12, "cs6v")
    assert meta["command"] == "sample"
    assert meta["version"] == __version__
    assert meta["params"]["seed"] == 11
    assert "out" not in meta["params"]  # output paths are execution details
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["params"]["width"] == 15
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "sixvertex" in svg


def test_sample_colored_model(tmp_path):
    out = tmp_path / "c.bin"
    rc = main(["sample", "--seed", "4", "--model", "colored", "--blocks", "3",
               "--dir", "2,1", "--out", str(out)])
    assert rc == 0
    e, meta = read_ensemble(out)
    assert (e.width, e.height, e.n_colors) == (6, 3, 3)
    assert meta["params"]["dir"] == "2,1"


def test_sample_determinism(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
    main(["sample", "--seed", "9", "--out", str(a)])
    main(["sample", "--seed", "9", "--out", str(b)])
    main(["sample", "--seed", "9", "--replica", "1", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"model": "cs6v", "width": 25, "height": 14,
                               "b1": 0.4}))
    out = tmp_path / "e.bin"
    rc = main(["sample", "--seed", "2", "--config", str(cfg),
               "--width", "10", "--out", str(out)])
    assert rc == 0
    e, meta = read_ensemble(out)
    assert (e.width, e.height) == (10, 14)  # flag beats file, file beats default
    assert meta["params"]["b1"] == 0.4


@pytest.mark.parametrize("argv, fragment", [
    (["sample"], "--seed is required"),
    (["sample", "--seed", "-3"], "nonnegative"),
    (["sample", "--seed", "1", "--b1", "1.5"], "[0, 1]"),
    (["sample", "--seed", "1", "--model", "colored", "--blocks", "99"],
     "--blocks"),
    (["converge", "--seed", "1", "--sizes", "50,20"], "nondecreasing"),
    (["converge", "--seed", "1", "--dir", "0,1"], "positive"),
    (["hammersley", "--seed", "1", "--p", "0"], "(0, 1)"),
    (["verify", "--seed", "1", "--n", "0"], "--n"),
    ([], "subcommand"),
    # --p only sets a hammersley field, and never together with --field
    (["converge", "--seed", "1", "--model", "s6v", "--p", "0.25"], "--p"),
    (["converge", "--seed", "1", "--model", "hammersley", "--p", "0.25",
      "--field", "field.json"], "--field"),
    # the hammersley model would read b2 alone and ignore b1
    (["converge", "--seed", "1", "--model", "hammersley", "--b1", "0.9",
      "--sizes", "20", "--replicas", "2"], "b1 = 0"),
    # seeds and replica indices are 64-bit rng key words
    (["sample", "--seed", str(2**64)], "--seed"),
    (["sample", "--seed", str(1 + 2**64)], "--seed"),
    (["sample", "--seed", "1", "--replica", str(2**64)], "--replica"),
    (["verify", "--seed", str(2**64 - 4), "--n", "1", "--trials", "1",
      "--replicas", "2"], "--seed"),
    (["hammersley", "--seed", str(2**64 - 3), "--coupling-seeds", "4"], "--seed"),
    # a tolerance is a nonnegative number, checked before any sampling
    (["converge", "--seed", "1", "--tol", "-0.1"], "--tol"),
    # hammersley runs no convergence experiment: converge --model hammersley does
    (["hammersley", "--seed", "1", "--sizes", "20", "--tol", "-0.1"], "--sizes"),
    # size 2 in direction (1, 1/3) floors to the point (2, 0)
    (["converge", "--seed", "1", "--dir", "1,1/3", "--sizes", "2,30"], "empty box"),
    # a worker count below 1 is not read as 1
    (["converge", "--seed", "1", "--sizes", "10", "--replicas", "1", "--workers", "0"],
     "--workers"),
    (["converge", "--seed", "1", "--sizes", "10", "--replicas", "1", "--workers", "-7"],
     "--workers"),
    (["verify", "--seed", "1", "--n", "1", "--trials", "1", "--replicas", "2",
      "--workers", "0"], "--workers"),
    (["hammersley", "--seed", "1", "--law-max", "1", "--coupling-seeds", "1",
      "--width", "4", "--height", "4", "--workers", "-7"], "--workers"),
    # the exact layer enumerates at most 4 colors, and a larger n is not read as 4
    (["verify", "--seed", "1", "--n", "9", "--trials", "1", "--replicas", "2"], "--n"),
    # --p and --field give the whole field, so a --b1/--b2 next to them is not read
    (["converge", "--seed", "1", "--sizes", "10", "--replicas", "1", "--field", "field.json",
      "--b1", "0.9"], "--b1"),
    (["converge", "--seed", "1", "--model", "hammersley", "--p", "0.25", "--b1", "0.9",
      "--sizes", "10", "--replicas", "1"], "--b1"),
    (["converge", "--seed", "1", "--model", "hammersley", "--p", "0.25", "--b2", "0.75",
      "--sizes", "10", "--replicas", "1"], "--b2"),
    (["sample", "--seed", "1", "--field", "field.json", "--b2", "0.5"], "--b2"),
    # a box side past 2**64 - 1 has no coin addresses; it is rejected before
    # any sampling or reference computation
    (["converge", "--seed", "1", "--sizes", "10", "--dir", "1e300,1"], "address space"),
    (["converge", "--seed", "1", "--sizes", "10", "--dir", "1e400,1"], "address space"),
    (["sample", "--model", "colored", "--seed", "1", "--blocks", "2", "--dir", "1e300,1"],
     "address space"),
])
def test_config_errors_are_json_on_stderr(argv, fragment, capsys):
    rc = main(argv)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert fragment in err["error"]["message"]


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text('{"no_such_option": 1}')
    rc = main(["sample", "--seed", "1", "--config", str(cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "no_such_option" in err["error"]["message"]


def test_largest_seed_and_replica_are_accepted(capsys):
    top = str(2**64 - 1)
    assert main(["sample", "--seed", top, "--replica", top, "--width", "3",
                 "--height", "3"]) == 0
    assert main(["hammersley", "--seed", str(2**64 - 3), "--coupling-seeds", "3",
                 "--width", "4", "--height", "4", "--law-max", "1"]) == 0


def test_config_value_outside_the_commands_choices(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text('{"model": "hammersley"}')
    rc = main(["sample", "--seed", "1", "--config", str(cfg)])
    assert rc == 2
    assert "model" in json.loads(capsys.readouterr().err)["error"]["message"]


# Every option value of each subcommand at its defaults, in order; provenance
# leaves out the EXECUTION keys.
DEFAULT_OPTIONS = {
    "verify": [("seed", None), ("n", 3), ("b1", 0.3), ("b2", 0.7),
               ("trials", 200), ("max_size", 12), ("replicas", 150),
               ("workers", None), ("out", None)],
    "sample": [("seed", None), ("model", "cs6v"), ("width", 40), ("height", 40),
               ("blocks", 4), ("dir", "1,1"), ("b1", 0.3), ("b2", 0.7),
               ("field", None), ("replica", 0), ("out", None), ("json", None),
               ("svg", None)],
    "converge": [("seed", None), ("model", "s6v"), ("dir", "1,1"),
                 ("sizes", "250,500,1000"), ("replicas", 8), ("b1", 0.3),
                 ("b2", 0.7), ("p", None), ("field", None), ("tol", None),
                 ("workers", None), ("csv", None), ("json", None)],
    "hammersley": [("seed", None), ("p", 0.25), ("width", 60), ("height", 60),
                   ("coupling_seeds", 10), ("law_max", 3), ("out", None)],
    "export-golden": [("out", None)],
}
EXECUTION = {"workers", "out", "json", "csv", "svg"}


def _resolved_options(command, monkeypatch, argv=()):
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert main([command, *argv]) == 0
    return seen.pop()


@pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
def test_default_options_and_provenance_are_pinned(command, monkeypatch):
    cfg = _resolved_options(command, monkeypatch)
    assert list(cfg.options.items()) == DEFAULT_OPTIONS[command]
    assert list(cfg.provenance()["params"].items()) == [
        (k, v) for k, v in DEFAULT_OPTIONS[command] if k not in EXECUTION]


@pytest.mark.parametrize("command", sorted(DEFAULT_OPTIONS))
def test_every_flag_is_a_config_key(command, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"^\s+(--[\w-]+)", capsys.readouterr().out, re.M))
    flags -= {"--help", "--config"}
    assert len(flags) == len(DEFAULT_OPTIONS[command])
    defaults = dict(DEFAULT_OPTIONS[command])
    cfg = tmp_path / "conf.json"
    for flag in sorted(flags):
        key = flag[2:].replace("-", "_")
        for spelling in (flag[2:], key):
            cfg.write_text(json.dumps({spelling: defaults[key]}))
            resolved = _resolved_options(command, monkeypatch, ["--config", str(cfg)])
            assert resolved.options == defaults, spelling


def test_readme_commands_use_declared_flags():
    blocks = re.findall(r"^```sh\n(.*?)^```", README_PATH.read_text(), re.M | re.S)
    commands = [line.split() for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("sixvertex ")]
    assert len(commands) >= 5
    for _, command, *args in commands:
        declared = {"--" + key.replace("_", "-") for key in cli.COMMANDS[command].defaults}
        flags = {a for a in args if a.startswith("--")}
        assert flags <= declared | {"--config"}, (command, flags - declared)


def test_verify_quick_battery(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--seed", "1", "--n", "1", "--trials", "5",
               "--replicas", "10", "--max-size", "6", "--out", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert doc["config"]["command"] == "verify"
    assert all(c["passed"] for c in doc["checks"])
    assert {c["name"] for c in doc["checks"]} >= {
        "stochasticity n=1", "two-color table", "complement duality",
        "boundary monotonicity"}


def test_complement_duality_check_sees_a_mutated_replay_coin(monkeypatch, capsys):
    real = cli.row_uniforms

    def mutated(seed, replica, row, width):
        u1, u2 = real(seed, replica, row, width)
        if row == 1:  # vertex (1, 1): flip whether the boundary line turns north
            u2[0] = 0.0 if u2[0] >= 0.7 else 0.999
        return u1, u2

    monkeypatch.setattr(cli, "row_uniforms", mutated)
    rc = main(["verify", "--seed", "1", "--n", "1", "--trials", "5", "--replicas", "10",
               "--max-size", "6", "--b1", "0.3", "--b2", "0.7"])
    assert rc == 1
    assert "complement duality: FAIL (2/2 checks" in capsys.readouterr().out


def test_height_identity_check_sees_a_flipped_east_edge(monkeypatch, capsys):
    real = cli.sample_s6v

    def flipped(*args, **kwargs):
        e = real(*args, **kwargs)
        e.h_edges[3, 2] ^= 1
        return e

    monkeypatch.setattr(cli, "sample_s6v", flipped)
    rc = main(["verify", "--seed", "1", "--n", "1", "--trials", "5", "--replicas", "10",
               "--max-size", "6", "--b1", "0.3", "--b2", "0.7"])
    assert rc == 1
    assert "height complement identity: FAIL" in capsys.readouterr().out


def test_converge_outputs_embed_config(tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    rc = main(["converge", "--seed", "3", "--sizes", "40,80", "--replicas",
               "3", "--csv", str(csv_path), "--json", str(json_path)])
    assert rc == 0
    first = csv_path.read_text().splitlines()[0]
    meta = json.loads(first[2:])
    assert meta["command"] == "converge"
    assert meta["params"]["sizes"] == "40,80"
    assert "workers" not in meta["params"]
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["params"]["replicas"] == 3


def test_tol_without_reference_fails_before_sampling(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"b1": [[0.2], [0.3]], "b2": [[0.7], [0.6]]}))
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    rc = main(["converge", "--seed", "1", "--field", str(field), "--tol", "0.1",
               "--sizes", "20", "--replicas", "2", "--csv", str(csv_path),
               "--json", str(json_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--tol" in json.loads(captured.err)["error"]["message"]
    assert captured.out == ""
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("argv, config, ignored", [
    (["converge", "--field", "FIELD", "--b1", "0.9"], {}, {"b1"}),
    (["converge"], {"field": "FIELD", "b2": 0.5}, {"b2"}),
    (["converge", "--field", "FIELD"], {"b1": 0.3, "b2": 0.7}, {"b1", "b2"}),
    (["converge", "--model", "hammersley"], {"p": 0.25, "b1": 0.0}, {"b1"}),
    (["sample", "--field", "FIELD"], {"b1": 0.3}, {"b1"}),
])
def test_b1_b2_next_to_a_whole_field_are_rejected(argv, config, ignored, tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"b1": 0.3, "b2": 0.7}))
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({k: str(field) if v == "FIELD" else v
                               for k, v in config.items()}))
    argv = [str(field) if a == "FIELD" else a for a in argv]
    size = ["--sizes", "10", "--replicas", "1"] if argv[0] == "converge" else []
    assert main([*argv, "--seed", "1", *size, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    message = json.loads(captured.err)["error"]["message"]
    assert all(f"--{k}" in message for k in ignored) and captured.out == ""


def test_a_whole_field_alone_is_read(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"b1": 0.3, "b2": 0.7}))
    assert main(["converge", "--seed", "1", "--sizes", "10", "--replicas", "1",
                 "--field", str(field)]) == 0
    assert "reference 0.208712" in capsys.readouterr().out
    # the hammersley model takes b1 = 0 and b2 in place of --p
    assert main(["converge", "--seed", "1", "--model", "hammersley", "--b1", "0",
                 "--b2", "0.75", "--sizes", "10", "--replicas", "1"]) == 0


def test_converge_tolerance_gate(capsys):
    rc = main(["converge", "--seed", "3", "--b1", "0.2", "--b2", "0.6",
               "--sizes", "200", "--replicas", "4", "--tol", "0.05"])
    assert rc == 0
    rc = main(["converge", "--seed", "3", "--b1", "0.2", "--b2", "0.6",
               "--sizes", "200", "--replicas", "4", "--tol", "0.0001"])
    assert rc == 1


def test_workers_do_not_change_output(tmp_path, monkeypatch):
    monkeypatch.delenv("SIXVERTEX_WORKERS", raising=False)
    outs = []
    for w in ("1", "2"):
        csv_path = tmp_path / f"w{w}.csv"
        rc = main(["converge", "--seed", "5", "--sizes", "30,60",
                   "--replicas", "4", "--workers", w, "--csv", str(csv_path)])
        assert rc == 0
        outs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]
    monkeypatch.setenv("SIXVERTEX_WORKERS", "2")
    csv_path = tmp_path / "wenv.csv"
    assert main(["converge", "--seed", "5", "--sizes", "30,60", "--replicas",
                 "4", "--csv", str(csv_path)]) == 0
    assert csv_path.read_bytes() == outs[0]


def test_workers_do_not_change_the_verify_report(tmp_path, monkeypatch, capsys):
    # the ergodic check splits its replicas into one lane group per worker
    monkeypatch.delenv("SIXVERTEX_WORKERS", raising=False)
    outs = []
    for w in ("1", "2"):
        report = tmp_path / f"w{w}.json"
        assert main(["verify", "--seed", "2", "--n", "2", "--trials", "30", "--max-size", "6",
                     "--replicas", "41", "--workers", w, "--out", str(report)]) == 0
        outs.append((report.read_bytes(), capsys.readouterr().out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["abc", "0", "1.5"])
def test_bad_workers_env_is_a_config_error(value, monkeypatch, capsys):
    monkeypatch.setenv("SIXVERTEX_WORKERS", value)
    rc = main(["converge", "--seed", "1", "--sizes", "20", "--replicas", "2"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"
    assert "SIXVERTEX_WORKERS" in err["error"]["message"]


def test_non_integer_workers_in_config_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SIXVERTEX_WORKERS", raising=False)
    cfg = tmp_path / "conf.json"
    cfg.write_text('{"workers": "2"}')
    rc = main(["converge", "--seed", "1", "--sizes", "20", "--replicas", "2",
               "--config", str(cfg)])
    assert rc == 2
    assert "--workers" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_workers_below_one_win_over_the_env(monkeypatch, capsys):
    monkeypatch.setenv("SIXVERTEX_WORKERS", "2")
    rc = main(["converge", "--seed", "1", "--sizes", "10", "--replicas", "1",
               "--workers", "0"])
    assert rc == 2
    assert "--workers" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_hammersley_subcommand(tmp_path, capsys):
    report = tmp_path / "h.json"
    rc = main(["hammersley", "--seed", "2", "--p", "0.5", "--width", "20",
               "--height", "20", "--coupling-seeds", "3", "--law-max", "2",
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert any(n.startswith("hammersley law") for n in names)
    assert "limit identity" in names


@pytest.mark.parametrize("key, value", [
    ("sizes", "100,200"), ("replicas", 2), ("dir", "1,1"), ("tol", 0.05), ("workers", 1)])
def test_hammersley_takes_no_convergence_options(key, value, tmp_path, capsys):
    base = ["hammersley", "--seed", "1", "--law-max", "1", "--coupling-seeds", "1",
            "--width", "4", "--height", "4"]
    assert main([*base, "--" + key, str(value)]) == 2
    assert f"--{key}" in json.loads(capsys.readouterr().err)["error"]["message"]
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([*base, "--config", str(cfg)]) == 2
    assert repr(key) in json.loads(capsys.readouterr().err)["error"]["message"]


# sha256 of json.dumps(doc, sort_keys=True) of the converge --json document
# without its meta.  These are the digests of the convergence document that
# the hammersley report embedded when it still took --sizes 100,200
# --replicas 2, so the one route gives that data bit for bit.
HAMMERSLEY_CONVERGENCE = {
    1: "5f8d038744a626fc6b7ee92a33f72e0c4bd5ac99a694423f672f5c6f550d037f",
    3: "3732ac56cd710909ddfc7736481752c07535ee614305a950c38b742184790d8d",
}


@pytest.mark.parametrize("seed", sorted(HAMMERSLEY_CONVERGENCE))
def test_hammersley_convergence_is_pinned(seed, tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["converge", "--model", "hammersley", "--p", "0.25", "--sizes", "100,200",
                 "--replicas", "2", "--seed", str(seed), "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    del doc["meta"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == HAMMERSLEY_CONVERGENCE[seed]


@pytest.mark.parametrize("command, config", [
    ("verify", {"n": 2.7}), ("verify", {"n": True}), ("verify", {"trials": True}),
    ("verify", {"max_size": 1e999}), ("verify", {"b1": True}),
    ("converge", {"sizes": "20", "tol": "abc"}),
    ("converge", {"sizes": [2.7, 30]}), ("converge", {"sizes": [True, 30]}),
])
def test_config_numbers_are_not_rounded(command, config, tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--seed", "1", "--config", str(cfg)]) == 2
    key = list(config)[-1].replace("_", "-")
    assert f"--{key}" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_integral_float_config_integer_is_accepted(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text('{"width": 3.0, "height": 2}')
    out = tmp_path / "e.bin"
    assert main(["sample", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_ensemble(out)[0].width == 3


def test_integral_float_config_sizes_are_accepted(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text('{"sizes": [20.0, 30]}')
    out = tmp_path / "r.json"
    assert main(["converge", "--seed", "1", "--replicas", "2", "--config", str(cfg),
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["sizes"] == [20, 30]


@pytest.mark.parametrize("argv, config", [
    (["--model", "colored", "--width", "40"], {}),
    (["--model", "colored"], {"height": 5}),
    (["--model", "cs6v", "--blocks", "2"], {}),
    (["--model", "s6v"], {"dir": "1,1"}),
    # one sample runs in one process: sample declares no worker count, so the
    # flag is unrecognized and the config key unknown
    (["--model", "cs6v", "--workers", "2"], {}),
    (["--model", "colored"], {"workers": 1}),
])
def test_sample_rejects_options_its_model_ignores(argv, config, tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "e.bin"
    rc = main(["sample", "--seed", "1", *argv, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    flags = {a[2:] for a in argv if a.startswith("--")} - {"model"}
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert all(f"--{k}" in message for k in flags)
    assert all(f"--{k}" in message or repr(k) in message for k in config)
    assert not out.exists()


# Ordered (name, cases) of the battery below: 41 checks, 212,715 cases.
BATTERY_SHAPE = [
    ('stochasticity n=1', 68), ('stochasticity n=2', 272), ('stochasticity n=3', 1088),
    ('stochasticity n=4', 4352), ('color ignorance n=1 m=1', 256),
    ('mod-2 erasure n=1 cuts=(1,)', 256), ('sampler law n=1', 96),
    ('modified-min equivalence n=1', 16), ('color ignorance n=2 m=1', 1024),
    ('color ignorance n=2 m=2', 4096), ('mod-2 erasure n=2 cuts=(2,)', 1024),
    ('mod-2 erasure n=2 cuts=(1, 2)', 4096), ('sampler law n=2', 512),
    ('modified-min equivalence n=2', 256), ('color ignorance n=3 m=1', 4096),
    ('color ignorance n=3 m=2', 16384), ('color ignorance n=3 m=3', 65536),
    ('mod-2 erasure n=3 cuts=(3,)', 4096), ('mod-2 erasure n=3 cuts=(1, 3)', 16384),
    ('mod-2 erasure n=3 cuts=(2, 3)', 16384), ('mod-2 erasure n=3 cuts=(1, 2, 3)', 65536),
    ('sampler law n=3', 2496), ('modified-min equivalence n=3', 4096), ('two-color table', 68),
    ('hammersley law 2x2 p=0.25', 3), ('hammersley law 2x2 p=0.5', 3),
    ('hammersley law 2x2 p=0.75', 3), ('hammersley law 3x3 p=0.25', 4),
    ('hammersley law 3x3 p=0.5', 4), ('hammersley law 3x3 p=0.75', 4),
    ('hammersley law 2x3 p=0.25', 3), ('hammersley law 2x3 p=0.5', 3),
    ('hammersley law 2x3 p=0.75', 3), ('hammersley coupling 40x40 p=0.35', 5),
    ('complement duality', 2), ('height complement identity', 2),
    ('colored admissibility', 10), ('X equals corner height', 5),
    ('superadditivity n_max=4', 150), ('boundary monotonicity', 20),
    ('ergodic hypotheses k=2', 3),
]


def test_verify_battery_shape_is_pinned(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["verify", "--seed", "1", "--n", "4", "--trials", "20", "--max-size", "8",
               "--replicas", "20", "--out", str(report)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("verify: PASS (41/41 checks)\n")
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert [(c["name"], c["cases"]) for c in doc["checks"]] == BATTERY_SHAPE
    assert sum(c["cases"] for c in doc["checks"]) == 212_715


# SHA-256 of the verify report's checks array (json.dumps of the parsed
# list) and of stdout: (argv after the seed, seed) -> (checks, stdout).
# stdout was pinned before the monotonicity trials were run as lanes of one
# sweep, the checks when the KS p-values became the exact equal-size law.
BATTERY_ARGV = ("--n", "4", "--trials", "2000", "--max-size", "16", "--replicas", "500")
BATTERY_STDOUT = "675736de3ae4d484b974b14e3ac6e0cc9771fc6c827ee03add9c67813e2e377c"
VERIFY_PINS = [
    (BATTERY_ARGV, 1, "63deae8a0277299e02334dfdd384142076fa163d659ed350c75fac41585dc45b",
     BATTERY_STDOUT),
    (BATTERY_ARGV, 2, "6b8e1af17b629236c457e1d3d5d25118b5907c695276b49c5ccc39225dddbdba",
     BATTERY_STDOUT),
    (BATTERY_ARGV, 3, "6b35ca77bde95fcc157ec991ee922aaf76360d0552e7d4973917d615df3c01e6",
     BATTERY_STDOUT),
    ((), 1, "34e8d10765db722446047cc4a47212215dde4010bbb8fc8d1a876032c07f50be",
     "59181b8243ea0c683667a7ee8171f0dc087a20bb6e45387ef029f5d49e17a3a5"),
]


@pytest.mark.parametrize("argv, seed, checks_sha, stdout_sha", VERIFY_PINS)
def test_verify_report_and_stdout_are_pinned(argv, seed, checks_sha, stdout_sha,
                                             tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--seed", str(seed), *argv, "--out", str(report)]) == 0
    out = capsys.readouterr().out
    checks = json.loads(report.read_text())["checks"]
    assert hashlib.sha256(json.dumps(checks).encode()).hexdigest() == checks_sha
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# SHA-256 of the bytes each command writes (not a re-dump of the parsed
# document), pinned before the JSON writer left json.dump, the hammersley
# report's after it lost its convergence run, the verify report's when its
# KS p-values became the exact equal-size law: (argv after the seed, output
# flag, {seed: digest}).  The provenance, version string
# included, is part of the bytes.
WRITTEN_PINS = {
    "sample-colored": (
        ("sample", "--model", "colored", "--blocks", "10", "--dir", "16,16"), "--json",
        {1: "c0ccb325f1193739f1b81fefb0e51773a979322072054ea9766c83576f02c41c",
         3: "ea1fbe110ad9438a158582d7dd4c5ad82deaf65414a982bdc7e04fb7d4a6b93a"}),
    "sample-cs6v": (
        ("sample", "--model", "cs6v", "--width", "7", "--height", "5"), "--json",
        {1: "17f90e56a0f05e348ef816681356d5287de4d5e464b73befef368b0008b11542",
         3: "6eb795b18626255bc5518b0d1cc7e6777e6789851e0f73b1677050abeba39909"}),
    "verify-battery": (
        ("verify", *BATTERY_ARGV), "--out",
        {1: "0400704c13fc11330ee3127806dd3378093eff399beb07bce95c4d0bdf158673",
         3: "6ac47dacc9ed4fa6675cd870587fcd971df7bf46c2a3cfac05b938739345cad1"}),
    "converge-s6v": (
        ("converge", "--model", "s6v", "--sizes", "100,200,400", "--replicas", "3"), "--json",
        {1: "00e88f5edd1030bc14700c9b358f8c5052b26386ebeedb774beefc54b10e9511",
         3: "737a35059321a171c7d0804fd818f06acfa60223d376e9c152d9af1c73de20ca"}),
    "hammersley": (
        ("hammersley", "--width", "20", "--height", "20", "--coupling-seeds", "3"), "--out",
        {1: "172f78c3fad5b9e6442d3ff60dcd93385f2d9adc103fd6c4be7a7514214f7f60",
         3: "5d47bfd43b5c8ba3c6b052fb8b48bdff3de4a4229d3df834febcb2a3c08042b9"}),
    # p = 0.1 is not dyadic, so these pin the last bits of the exact-law floats
    "hammersley-p0.1": (
        ("hammersley", "--p", "0.1", "--width", "20", "--height", "20", "--coupling-seeds", "3"),
        "--out",
        {1: "4738a3ced7f37b837817886fcb1b4b2696560f03310c5a60cde03b9db56ab365",
         3: "e489e2b850636ac5135cd3d1b0df559c499560e46cf28aeda5823df092871b6d"}),
}


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("name", sorted(WRITTEN_PINS))
def test_written_json_bytes_are_pinned(name, seed, tmp_path, capsys):
    argv, flag, digests = WRITTEN_PINS[name]
    path = tmp_path / "out.json"
    assert main([*argv, "--seed", str(seed), flag, str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[seed]

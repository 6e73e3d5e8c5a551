"""Every refusal of the run-configuration parser, pinned by its whole message,
and the refusal of keys that no parser reads."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgwalk.cli import main
from wgwalk.config import (
    MAX_HOM_POINTS,
    MAX_TRACE_POINTS,
    ConfigError,
    load_run_config,
    parse_run_config,
)
from wgwalk.propagation import MAX_STEPS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DROP = object()

# (shipped config, {dotted key path: new value or DROP}, the config error it gives)
REFUSALS = {
    "layout missing": ("ellipse_walk", {"layout": DROP}, "missing config section 'layout'"),
    "layout not an object": ("ellipse_walk", {"layout": 5}, "'layout' must be a JSON object"),
    "layout kind unknown": (
        "ellipse_walk",
        {"layout.kind": "circle"},
        "'layout.kind' must be 'linear', 'ellipse', or 'fanin'",
    ),
    "layout key missing": ("ellipse_walk", {"layout.count": DROP}, "missing config key 'layout.count'"),
    "number not a number": (
        "ellipse_walk",
        {"layout.semi_major_um": "x"},
        "'layout.semi_major_um' must be a finite number",
    ),
    "count not an integer": ("ellipse_walk", {"layout.count": 6.5}, "'layout.count' must be an integer"),
    "semi-axis not positive": (
        "ellipse_walk",
        {"layout.semi_minor_um": 0},
        "'layout.semi_minor_um' must be positive",
    ),
    "index_order not a permutation": (
        "ellipse_walk",
        {"layout.index_order": [1, 2, 3, 4, 5, 5]},
        "'layout.index_order' must be a permutation of 1..6",
    ),
    "fan-in stage missing": ("fanin_walk", {"layout.final": DROP}, "missing config section 'layout.final'"),
    "fan-in stage not an object": (
        "fanin_walk",
        {"layout.input": [1]},
        "'layout.input' must be a JSON object",
    ),
    "fan-in stage key missing": (
        "fanin_walk",
        {"layout.intermediate.semi_minor_um": DROP},
        "missing config key 'layout.intermediate.semi_minor_um'",
    ),
    "fan-in stage kind unknown": (
        "fanin_walk",
        {"layout.input.kind": None},
        "'layout.input.kind' must be 'linear', 'ellipse', or 'fanin'",
    ),
    "fan-in stage length not positive": (
        "fanin_walk",
        {"layout.stage2_mm": 0},
        "'layout.stage2_mm' must be positive",
    ),
    "fan-in stages of unequal count": (
        "fanin_walk",
        {"layout.input.count": 5},
        "invalid 'layout': input, intermediate, and final layouts must have equal N",
    ),
    "fan-in index_order not a permutation": (
        "fanin_walk",
        {"layout.index_order": [1, 1, 2, 3, 4, 5]},
        "'layout.index_order' must be a permutation of 1..6",
    ),
    "coupling not an object": ("ellipse_walk", {"coupling": []}, "'coupling' must be a JSON object"),
    "coupling below its minimum": (
        "ellipse_walk",
        {"coupling.c0_per_mm": -1},
        "'coupling.c0_per_mm' must be at least 0.0",
    ),
    "coupling not positive": (
        "ellipse_walk",
        {"coupling.kappa_per_um": -0.5},
        "'coupling.kappa_per_um' must be positive",
    ),
    "z_mm below zero": ("ellipse_walk", {"z_mm": -1}, "'z_mm' must be at least 0.0"),
    "neighbor cutoff not positive": (
        "ellipse_walk",
        {"neighbor_cutoff_um": 0},
        "'neighbor_cutoff_um' must be positive",
    ),
    "input_ports not a list": (
        "ellipse_walk",
        {"input_ports": "1"},
        "'input_ports' must be a nonempty list of integers",
    ),
    "input_ports empty": ("ellipse_walk", {"input_ports": []}, "'input_ports' must be a nonempty list of integers"),
    "input port out of range": ("ellipse_walk", {"input_ports": [1, 7]}, "'input_ports' entry 7 outside [1, 6]"),
    "steps below one": ("ellipse_walk", {"steps": 0}, "'steps' must be at least 1"),
    "steps above the cap": ("ellipse_walk", {"steps": MAX_STEPS + 1}, f"'steps' must be at most {MAX_STEPS}"),
    "steps above the cap on a fan-in": (
        "fanin_walk",
        {"steps": MAX_STEPS + 1},
        f"'steps' must be at most {MAX_STEPS}",
    ),
    "trace_points not an integer": ("ellipse_walk", {"trace_points": 1.5}, "'trace_points' must be an integer"),
    "trace_points below two": ("ellipse_walk", {"trace_points": 1}, "'trace_points' must be at least 2"),
    "trace_points above the cap": (
        "ellipse_walk",
        {"trace_points": MAX_TRACE_POINTS + 1},
        f"'trace_points' must be at most {MAX_TRACE_POINTS}",
    ),
    "seed below zero": ("ellipse_walk", {"seed": -1}, "'seed' must be at least 0"),
    "out_dir not a string": ("ellipse_walk", {"out_dir": 5}, "'out_dir' must be a path string"),
    "hom not an object": ("ellipse_walk", {"hom": "yes"}, "'hom' must be a JSON object"),
    "hom points missing": ("ellipse_walk", {"hom.points": DROP}, "missing config key 'hom.points'"),
    "hom points below one": ("ellipse_walk", {"hom.points": 0}, "'hom.points' must be at least 1"),
    "hom points above the cap": (
        "ellipse_walk",
        {"hom.points": MAX_HOM_POINTS + 1},
        f"'hom.points' must be at most {MAX_HOM_POINTS}",
    ),
    "hom delay_min missing": ("ellipse_walk", {"hom.delay_min": DROP}, "missing config key 'hom.delay_min'"),
    "hom delays reversed": (
        "ellipse_walk",
        {"hom.delay_max": -5.0},
        "'hom.delay_max' must be at least 'hom.delay_min'",
    ),
    "hom width not positive": (
        "ellipse_walk",
        {"hom.coherence_sigma": 0},
        "'hom.coherence_sigma' must be positive",
    ),
    "hom visibility mode unknown": (
        "ellipse_walk",
        {"hom.visibility_mode": "max"},
        "'hom.visibility_mode' must be 'extrema' or 'fit'",
    ),
    "polarization not an object": ("ellipse_walk", {"polarization": 1}, "'polarization' must be a JSON object"),
    "polarization coupling not an object": (
        "ellipse_walk",
        {"polarization.coupling_h": 1},
        "'polarization.coupling_h' must be a JSON object",
    ),
    "polarization coupling not positive": (
        "ellipse_walk",
        {"polarization.coupling_v.r0_um": 0},
        "'polarization.coupling_v.r0_um' must be positive",
    ),
    "per-guide list not numbers": (
        "ellipse_walk",
        {"polarization.birefringence_per_mm": "x"},
        "'polarization.birefringence_per_mm' must be a list of finite numbers",
    ),
    "per-guide list of another length": (
        "ellipse_walk",
        {"polarization.loss_h": [1.0] * 5},
        "'polarization.loss_h' must have length 6",
    ),
    "loss outside (0, 1]": (
        "ellipse_walk",
        {"polarization.loss_v": [0.9, 0.9, 1.5, 0.9, 0.9, 0.9]},
        "'polarization.loss_v' amplitudes must lie in (0, 1]",
    ),
    "noise below zero": (
        "ellipse_walk",
        {"polarization.photometric_noise": -0.1},
        "'polarization.photometric_noise' must be at least 0.0",
    ),
    "both loss lists read before either range": (
        "ellipse_walk",
        {"polarization.loss_h": [1.5] * 6, "polarization.loss_v": [1.0] * 5},
        "'polarization.loss_v' must have length 6",
    ),
    "z_mm before input_ports": (
        "ellipse_walk",
        {"z_mm": -1, "input_ports": "x"},
        "'z_mm' must be at least 0.0",
    ),
}

# Faults of one config in the order they are checked: of two neighbours, the first is reported.
CHECK_ORDER = [
    "fan-in stage kind unknown",
    "fan-in stage key missing",
    "fan-in stage missing",
    "fan-in stage length not positive",
    "fan-in stages of unequal count",
    "fan-in index_order not a permutation",
    None,
    "layout key missing",
    "number not a number",
    "semi-axis not positive",
    "index_order not a permutation",
    "coupling below its minimum",
    "coupling not positive",
    "z_mm below zero",
    "neighbor cutoff not positive",
    "input_ports not a list",
    "steps below one",
    "trace_points not an integer",
    "seed below zero",
    "out_dir not a string",
    "hom points below one",
    "hom delay_min missing",
    "hom delays reversed",
    "hom width not positive",
    "hom visibility mode unknown",
    "polarization coupling not an object",
    "polarization coupling not positive",
    "per-guide list of another length",
    "loss outside (0, 1]",
    "per-guide list not numbers",
    "noise below zero",
]
for first, second in zip(CHECK_ORDER, CHECK_ORDER[1:]):
    if first and second:
        name, edits, message = REFUSALS[first]
        REFUSALS[f"{first}, then {second}"] = (name, {**REFUSALS[second][1], **edits}, message)


def edited_config(name, edits, out_dir):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["out_dir"] = str(out_dir)
    for path, value in edits.items():
        *sections, key = path.split(".")
        owner = cfg
        for section in sections:
            owner = owner[section]
        if value is DROP:
            del owner[key]
        else:
            owner[key] = value
    return cfg


@pytest.mark.parametrize("name, edits, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_exits_2_with_its_message(tmp_path, capsys, name, edits, message):
    out = tmp_path / "run"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edited_config(name, edits, out)))
    assert main(["layout", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "config root must be a JSON object"),
        ("{not json", "config file is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ],
    ids=["root not an object", "not JSON"],
)
def test_unreadable_config_file_exits_2_with_its_message(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["layout", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_file_not_text_or_absent_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"z_mm": "é"}'.encode("latin-1"))
    assert main(["layout", "--config", str(path)]) == 2
    reason = "'utf-8' codec can't decode byte 0xe9 in position 10: invalid continuation byte"
    assert capsys.readouterr().err == f"config error: config file {path} is not valid text: {reason}\n"
    absent = tmp_path / "absent.json"
    assert main(["layout", "--config", str(absent)]) == 2
    assert capsys.readouterr().err == f"config error: config file not found: {absent}\n"


@pytest.mark.parametrize("raw", [[], "layout", None])
def test_parse_run_config_refuses_a_root_that_is_not_an_object(raw):
    with pytest.raises(ConfigError) as info:
        parse_run_config(raw)
    assert str(info.value) == "config root must be a JSON object"


# Keys nobody reads: a misspelled or misplaced key exits 2 instead of running the default.
SHIPPED = sorted(path.stem for path in CONFIGS.glob("*.json"))
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _object_paths(node, prefix=()):
    """Path of the config root and of every object inside it."""
    yield prefix
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _object_paths(value, prefix + (key,))


def _exit_and_stderr(cfg, work, command="layout"):
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", str(work / "run")])
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), name=st.sampled_from(SHIPPED))
def test_unknown_key_at_any_depth_exits_2_naming_its_path(tmp_path_factory, data, name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    where = data.draw(st.sampled_from(list(_object_paths(cfg))))
    # every key the parser reads is lower case, so a capital letter makes one it does not
    key = data.draw(st.from_regex(r"[A-Z][A-Za-z0-9_]{0,11}", fullmatch=True))
    value = data.draw(st.sampled_from([None, 0, 1.5, "x", [1], {}, {"kind": "ellipse"}]))
    owner = cfg
    for section in where:
        owner = owner[section]
    owner[key] = value
    code, err = _exit_and_stderr(cfg, tmp_path_factory.mktemp("unknown"))
    assert code == 2
    assert err.startswith(f"config error: unknown config key '{'.'.join(where + (key,))}'; ")


@pytest.mark.parametrize(
    "path, closest",
    [
        ("z_mn", "z_mm"),
        ("hom.visibilty_mode", "hom.visibility_mode"),
        ("polarization.loss_vv", "polarization.loss_v"),
        ("layout.semi_minr_um", "layout.semi_minor_um"),
        ("polarization.coupling_v.kapa_per_um", "polarization.coupling_v.kappa_per_um"),
    ],
)
def test_misspelled_key_names_itself_and_the_closest_known_key(tmp_path, path, closest):
    cfg = edited_config("ellipse_walk", {path: 5.0}, tmp_path / "run")
    code, err = _exit_and_stderr(cfg, tmp_path)
    assert code == 2
    assert err == f"config error: unknown config key '{path}'; the closest known key is '{closest}'\n"
    assert not (tmp_path / "run").exists()


def test_layout_keys_follow_its_kind(tmp_path):
    # fanin_frontend's input stage is linear, where an ellipse's semi-axis means nothing
    cfg = edited_config("fanin_frontend", {"layout.input.semi_major_um": 40.8}, tmp_path / "run")
    code, err = _exit_and_stderr(cfg, tmp_path)
    assert code == 2
    assert err.startswith("config error: unknown config key 'layout.input.semi_major_um'; ")


def test_index_order_is_read_in_every_kind(tmp_path):
    identity = list(range(1, 7))
    stages = {f"layout.{stage}.index_order": identity for stage in ("input", "intermediate")}
    cfg = edited_config("fanin_frontend", {"layout.index_order": identity, **stages}, tmp_path / "run")
    assert [stage["kind"] for stage in (cfg["layout"], cfg["layout"]["input"])] == ["fanin", "linear"]
    assert _exit_and_stderr(cfg, tmp_path) == (0, "")


@pytest.mark.parametrize("command", ["correlations", "hom"])
def test_two_photon_commands_refuse_more_than_two_input_ports(tmp_path, command):
    cfg = edited_config("ellipse_walk", {"input_ports": [1, 2, 3]}, tmp_path / "run")
    code, err = _exit_and_stderr(cfg, tmp_path, command)
    assert (code, err) == (2, "config error: 'input_ports' must list two ports for this command\n")
    assert not (tmp_path / "run").exists()


def test_propagate_reads_the_first_of_any_number_of_input_ports(tmp_path):
    traces = []
    for ports in ([2], [2, 1, 3]):
        work = tmp_path / str(len(ports))
        work.mkdir()
        cfg = edited_config("ellipse_walk", {"input_ports": ports}, work / "run")
        assert _exit_and_stderr(cfg, work, "propagate") == (0, "")
        traces.append((work / "run" / "trace.csv").read_text().split("\n", 2)[2])
    assert traces[0] == traces[1]


def _workload_configs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    root = Path(__file__).resolve().parent.parent
    for name in sorted(workloads.WHY):
        for seed in (1, 101):
            yield from workloads.generate(name, seed, root, tmp_path / f"{name}{seed}").configs.values()


def test_every_shipped_and_workload_config_parses(tmp_path, monkeypatch):
    workload_configs = _workload_configs(tmp_path, monkeypatch)
    paths = [*(CONFIGS / f"{name}.json" for name in SHIPPED), *workload_configs]
    assert len(paths) == 4 + 2 * (3 + 3 + 2)
    for path in paths:
        load_run_config(path)

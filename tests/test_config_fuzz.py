"""Seeded config fuzzer built from ``cli._SCHEMA``, and the README checks.

Each case draws a valid config of one mode from the mode's key table, then
applies one mutation: drop, duplicate or retype a key, nest a value in a
list or an object, set a number to a boundary (each cap and cap + 1
among them), or, for calibrations, hand over a bad scan file.  Every case
runs in-process through ``cli.main`` and must end in exit 0, 2, 3 or 4
without a traceback; with exit 0 every number written is finite, and an
error exit writes nothing.

A case that the CLI accepts (every check passed) but whose work exceeds
``BUDGET`` is skipped at the point where the work would start: a grid of
``SCAN_POINTS`` points, a highdim ``dim`` of ``HIGHDIM_SHOT_DIM`` or more,
shots at ``DRAW_LIMIT``, or ``BOOTSTRAP_LIMIT`` resamples.  Only boundary
mutations can reach it, and the test asserts so.
"""

import json
import math
import random
import re
from pathlib import Path

import pytest

from cdtradeoff import cli

SEED = 20261018
CASES_PER_MODE = 80
BUDGET = 200_000  # points * (shots + dim**2), or resamples * scan rows

MUTATIONS = ("drop", "duplicate", "retype", "nest", "boundary", "boundary", "scan_file")
OTHER_TYPES = (None, True, False, "x", "exact", "optimal", "", [], {}, [1, 2, 3],
               {"points": 4}, 0, -1, 0.5, 7)
# numbers at the edges of double precision: the largest, ones whose squares
# overflow, subnormal ones, and integers that a double cannot hold
BOUNDARY_NUMBERS = (1.7976931348623157e308, -1.7976931348623157e308, 1e155, -1e200,
                    5e-324, -1e-310, 0, -0.0, -1, 2**53 + 1, 2**64, 10**23, 10**400)
# caps by the key that holds them; each is tried as itself and plus one
CAPS = {
    "seed": (cli.SEED_LIMIT - 1,),
    "bootstrap": (cli.BOOTSTRAP_LIMIT,),
    "points": (cli.SCAN_POINTS,),
    "dim": (cli.HIGHDIM_SHOT_DIM, cli.HIGHDIM_ENTRIES),
    "shots": (cli.DRAW_LIMIT // 4, cli.DRAW_LIMIT // 2),
}
UNIT_CAPS = ("target_strength", "c2", "gamma", "eta", "bias")  # range ends 0 and 1
GOOD_SCAN = "\n".join(
    [cli.CSV_HEADER] + [
        f"{t:.9g},{0.9 * math.cos(t) + 0.05:.9g},{abs(0.8 * math.sin(t)):.9g},0.01,0.02,0"
        for t in (2 * math.pi * i / 12 + 0.1 for i in range(12))]) + "\n"
BAD_SCANS = {
    "header": "theta,c,d\n0.1,0.5,0.5\n",
    "short_row": cli.CSV_HEADER + "\n0.1,0.5,0.5,0,0\n",
    "nan": GOOD_SCAN + "0.3,nan,0.5,0.01,0.01,0\n",
    "inf": GOOD_SCAN + "0.3,0.5,-inf,0.01,0.01,0\n",
    "non_numeric": GOOD_SCAN + "0.3,0.5,x,0.01,0.01,0\n",
    "empty": "",
    "header_only": cli.CSV_HEADER + "\n",
    "one_row": cli.CSV_HEADER + "\n0.1,0.5,0.5,0.01,0.01,0.5\n",
    "huge": GOOD_SCAN + "0.3,1e200,1e200,1e-300,1e-300,0\n",
    "unreadable": None,  # the scan_file path names a directory
    "missing": None,  # the scan_file path names nothing
}
SCAN_FILE = "<scan file>"  # stands for the path of the scan file each case writes


class OverBudget(Exception):
    pass


def bloch(rng, length):
    """A Bloch vector of the given length in a random direction."""
    vector = [rng.gauss(0.0, 1.0) for _ in "xyz"]
    norm = math.sqrt(sum(v * v for v in vector))
    return [length * v / norm for v in vector]


def measurement(rng, scan_target=False):
    """A measurement that satisfies |bias| + strength < 1."""
    gamma = rng.uniform(0.1, 0.9)
    spec = {"bias": rng.uniform(-0.9, 0.9) * (1 - gamma), "gamma": gamma}
    if scan_target:
        angle = rng.choice([("theta", rng.uniform(-7, 7)), ("theta_grid", grid(rng))])
        spec.update([angle])
    elif rng.random() < 0.3:
        spec["bloch"] = bloch(rng, spec.pop("gamma"))
    else:
        spec["theta"] = rng.uniform(-7, 7)
    return spec


def grid(rng):
    """A grid of values in [0, 1), the range that every grid key takes."""
    spec = {"start": rng.uniform(0, 0.5), "stop": 1.0, "points": rng.randint(1, 16)}
    return {key: spec[key] for key in spec if key != "start" or rng.random() < 0.7}


def detector(rng):
    """Detector parameters, or the readings they give."""
    eta, nu = rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5)
    if rng.random() < 0.5:
        return {"eta": eta, "nu": nu}
    spec = {"d1": math.exp(-nu) * eta, "c2": math.exp(-nu) * (2 - eta) - 1}
    spec.update({key: 0.001 for key in ("d1_err", "c2_err") if rng.random() < 0.5})
    return spec


def valid_value(rng, parser, args):
    """A value that ``parser`` accepts, kept small."""
    if parser is cli._integer:
        low, high = args
        return rng.randint(low, min(high, low + 20))
    if parser is cli._shots:
        return rng.choice(["exact", rng.randint(1, 2000)])
    if parser is cli._choice:
        return rng.choice(args)
    if parser is cli._number:
        return rng.uniform(0.05, 1.0)
    if parser is cli._point:
        return rng.uniform(0.0, 1.0)
    if parser is cli._grid:
        return grid(rng)
    if parser is cli._measurement:
        return measurement(rng, *args)
    if parser is cli._state:
        return rng.choice(["optimal", {"bloch": bloch(rng, rng.uniform(0.0, 1.0))}])
    if parser is cli._detector:
        return detector(rng)
    if parser is cli._path:
        return SCAN_FILE
    raise AssertionError(f"no generator for {parser.__name__}")


def valid_config(rng, mode):
    """A config of ``mode`` from its key table: every required key, each
    other key with probability 1/2, then the rules that tie keys together."""
    config = {"schema": 1, "mode": mode}
    for key, (default, parser, *args) in {**cli._SEED, **cli._SCHEMA[mode]}.items():
        if default is cli._REQUIRED or rng.random() < 0.5:
            config[key] = valid_value(rng, parser, args)
    if {"c2", "c2_grid"} <= set(config):
        del config[rng.choice(["c2", "c2_grid"])]
    if config.get("fit", "circle") != "ellipse-known-theta":
        config.pop("target_strength", None)
    if mode == "detector" and "eta" not in config["detector"]:
        config.pop("shots", None)
    return config


def paths(value, prefix=()):
    """Every (container path, key) of a config, nested ones included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield prefix, key
        if isinstance(item, (dict, list)):
            yield from paths(item, prefix + (key,))


def at(config, prefix):
    for key in prefix:
        config = config[key]
    return config


def boundary(rng, key):
    """A boundary number for ``key``: one of its caps, itself or plus one,
    the ends of a unit range, or a number at the edge of double precision."""
    if key in CAPS and rng.random() < 0.7:
        return rng.choice(CAPS[key]) + rng.choice([0, 1])
    if key in UNIT_CAPS and rng.random() < 0.7:
        return rng.choice((0.0, 1.0, -5e-324, 1.0000000000000002))
    return rng.choice(BOUNDARY_NUMBERS)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(rng, config, mutation):
    """The config text after one mutation, and a note on what changed."""
    if mutation == "duplicate":  # the key appears twice; json keeps the last
        key = rng.choice(list(config))
        other = json.dumps(rng.choice(OTHER_TYPES + (config[key],)))
        return json.dumps(config)[:-1] + f', "{key}": {other}' + "}", f"duplicate {key}"
    if mutation == "boundary":
        numbers = [(p, k) for p, k in paths(config) if is_number(at(config, p)[k])]
        prefix, key = rng.choice(numbers or [((), "seed")])
    else:
        prefix, key = rng.choice(list(paths(config)))
    parent = at(config, prefix)
    if mutation == "drop":
        parent.pop(key)
    elif mutation == "retype":
        parent[key] = rng.choice(OTHER_TYPES)
    elif mutation == "nest":
        for _ in range(rng.randint(1, 3)):
            parent[key] = rng.choice([[parent[key]], {"value": parent[key]}])
    else:
        parent[key] = boundary(rng, key)
    return json.dumps(config), f"{mutation} {'.'.join(map(str, prefix + (key,)))}"


def make_cases():
    rng = random.Random(SEED)
    cases = []
    for mode in cli.MODES:
        for index in range(CASES_PER_MODE):
            config = valid_config(rng, mode)
            mutation = MUTATIONS[index % len(MUTATIONS)]
            if mutation == "scan_file" and mode != "calibrate":
                mutation = "boundary"
            if mutation == "scan_file":
                scan = rng.choice(sorted(BAD_SCANS))
                text, note = json.dumps(config), f"scan file {scan}"
            else:
                scan = "good"
                text, note = mutate(rng, config, mutation)
            cases.append(pytest.param(text, scan, mutation, id=f"{mode}-{index}-{note}"))
    return cases


def finite_json(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(finite_json, value.values()))
    if isinstance(value, list):
        return all(map(finite_json, value))
    return True


def reject_constant(name):
    raise AssertionError(f"output holds {name}")


def guard(monkeypatch):
    """Raise OverBudget where an accepted config's work would start."""
    parse, draws, read = cli._parse, cli._draws, cli.read_scan_csv
    seen = {}

    def guarded_parse(config):
        seen.update(values := parse(config))
        return values

    def guarded_draws(points, shots):
        draws(points, shots)  # the CLI's own refusal comes first
        work = points * ((shots or 0) + (seen.get("dim") or 2) ** 2)
        if work > BUDGET:
            raise OverBudget(f"{points} points, {shots} shots, dim {seen.get('dim')}")

    def guarded_read(path):
        scan = read(path)
        if len(scan) * seen["bootstrap"] > BUDGET:
            raise OverBudget(f"{seen['bootstrap']} resamples of {len(scan)} points")
        return scan

    monkeypatch.setattr(cli, "_parse", guarded_parse)
    monkeypatch.setattr(cli, "_draws", guarded_draws)
    monkeypatch.setattr(cli, "read_scan_csv", guarded_read)


def run_case(tmp_path, text, scan="good"):
    """Exit code of the config ``text``, its scan file given by ``scan``;
    the outputs go to tmp_path/out (a scan writes out.csv and out.meta.json,
    a report out.csv alone)."""
    scan_path = tmp_path / "scan.csv"
    if scan == "unreadable":
        scan_path.mkdir()
    elif scan != "missing":
        scan_path.write_text(GOOD_SCAN if scan == "good" else BAD_SCANS[scan], encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(text.replace(json.dumps(SCAN_FILE), json.dumps(str(scan_path))),
                      encoding="utf-8")
    (tmp_path / "out").mkdir()
    return cli.main(["--config", str(config), "--out", str(tmp_path / "out" / "out.csv")])


@pytest.mark.parametrize("mode", cli.MODES)
def test_unmutated_configs_run(tmp_path, mode):
    # the fuzzer starts from valid configs; only a shot-mode detector
    # simulation may draw readings outside the physical domain (exit 4)
    rng = random.Random(f"{SEED}-{mode}")
    for index in range(20):
        config = valid_config(rng, mode)
        (tmp_path / str(index)).mkdir()
        code = run_case(tmp_path / str(index), json.dumps(config))
        assert code == 0 or (code == 4 and mode == "detector" and "shots" in config), config


@pytest.mark.parametrize("text, scan, mutation", make_cases())
def test_mutated_config_exits_cleanly(tmp_path, monkeypatch, text, scan, mutation):
    guard(monkeypatch)
    try:
        code = run_case(tmp_path, text, scan)
    except OverBudget as exc:
        assert mutation == "boundary", f"over budget without a boundary number: {exc}"
        pytest.skip(f"valid, above the work budget: {exc}")
    assert code in (0, 2, 3, 4)
    written = sorted((tmp_path / "out").iterdir())
    if code != 0:
        assert written == []
        return
    assert written
    for path in written:
        text = path.read_text(encoding="utf-8")
        if text.startswith("{"):
            assert finite_json(json.loads(text, parse_constant=reject_constant))
        else:
            lines = text.splitlines()
            assert lines[0] == cli.CSV_HEADER
            assert all(math.isfinite(float(field)) for line in lines[1:]
                       for field in line.split(","))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_keys():
    """The keys of each mode's bullet in the README config section: the
    backticked names of its "Keys:" sentence."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config format", 1)[1].split("\n### ", 1)[0]
    keys = {}
    for bullet in re.split(r"\n\* ", section)[1:]:
        mode = re.match(r"`([a-z-]+)`", bullet).group(1)
        sentence = re.search(r"Keys:\s(.*?)\.(\s|$)", bullet, re.S).group(1)
        keys[mode] = re.findall(r"`([a-z0-9_]+)`", sentence)
    return keys


def test_readme_lists_the_keys_of_each_mode():
    keys = readme_keys()
    assert sorted(keys) == sorted(cli.MODES)
    for mode, table in cli._SCHEMA.items():
        assert sorted(keys[mode]) == sorted(table), mode


def test_readme_usage_names_the_options_of_the_parser():
    usage = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("cdtradeoff --config")]
    assert len(usage) == 1
    options = [option for action in cli.build_parser()._actions
               for option in action.option_strings if option not in ("-h", "--help")]
    assert re.findall(r"--[a-z-]+", usage[0]) == options

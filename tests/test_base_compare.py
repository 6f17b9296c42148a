"""The byte-compare corpus of ``base_compare.py`` stays runnable: each case
is named once, every config is one the head's CLI parses and names the
output kind that its mode writes, every mode has a case, every
calibration reads a scan that an earlier case writes, and every one-CPU
case counts records of more than one block.  No CLI run is started."""

import json

import pytest

import base_compare
from base_compare import CASES, EXPECT
from cdtradeoff import cli, shot_sampler

NAMES = [name for name, *_ in CASES]


def test_case_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("name, config, kind, expect", CASES, ids=NAMES)
def test_config_parses(tmp_path, name, config, kind, expect):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema": 1, **config}), encoding="utf-8")
    cli._parse(cli.load_config(str(path)))
    assert kind == cli._RUNS[config["mode"]][0]
    assert expect in EXPECT


def test_every_mode_has_a_case():
    assert set(cli._RUNS) == set(cli.MODES)
    assert {config["mode"] for _, config, *_ in CASES} == set(cli.MODES)


def test_calibrations_read_earlier_scans():
    written = set(base_compare.INPUTS)
    for name, config, kind, expect in CASES:
        if config["mode"] == "calibrate":
            assert config["scan_file"] in written, name
        if kind == "csv" and EXPECT[expect] == 0:
            written.add(f"{name}.csv")


def test_one_cpu_cases_draw_records_of_several_blocks():
    one_cpu = [(name, config) for name, config, _, expect in CASES if expect == "one CPU"]
    assert {"block-uneven", "detector-sim"} <= {name for name, _ in one_cpu}
    for name, config in one_cpu:
        # a record is a joint and a probe-off arm of ``shots`` words each
        assert 2 * config["shots"] > shot_sampler._BLOCK, name

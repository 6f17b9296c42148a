"""Byte-compare the CLI of this tree with the CLI of a base source tree.

    python tests/base_compare.py BASE_SRC

Each case runs with this tree's ``src`` (the head) and with ``PYTHONPATH=BASE_SRC``
(the base; this tree's own ``src`` checks that outputs are byte-identical across
runs) and must give what EXPECT names.  The first failing case is named, exit 1.
Beside the cases written here, the corpus holds every job of the benchmark's
workloads at seed 7 (``bench/workloads.py``), named ``bench-<workload>-<job>``.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(HEAD_SRC.parent / "bench"))
import workloads  # noqa: E402

PROBE, TARGET = {"gamma": 0.8, "bias": 0.1}, {"gamma": 0.9, "bias": 0.05}
FITS = ("circle", "ellipse-known-theta", "ellipse-unknown-theta")
SHOT = {"seed": 7, "shots": 1000}
# The exit code each expectation wants on both sides (None: the base's, which
# is not 0).  At exit 0 the head and the base write the same bytes (a scan's
# CSV and .meta.json, or a report); a "one CPU" case writes them again from
# the head pinned to one CPU, and every c_err and d_err in the CSV of a
# "positive errors" case is positive.  At any other code no side writes an
# output.
EXPECT = {"same": 0, "one CPU": 0, "positive errors": 0, "refused": None, "exit 4": 4}


def scan(points, grid=None, probe=PROBE, target=TARGET, **entries):
    """A scan of ``probe`` and ``target`` on a ``points``-angle grid."""
    return {"mode": "scan", **entries, "probe": probe,
            "target": {**target, "theta_grid": {**(grid or {}), "points": points}}}


def highdim(points, dim=5, **entries):
    return {"mode": "highdim", "dim": dim, "gamma": 0.7, **entries,
            "c2_grid": {"stop": 1.0, "points": points}}


def fit(scan_case, name, strength=0.9, **entries):
    """A fit of the CSV of case ``scan_case``; a known-theta fit is told ``strength``."""
    known = {"target_strength": strength} if name == "ellipse-known-theta" and strength else {}
    return {"mode": "calibrate", "seed": 7, **entries, "scan_file": f"{scan_case}.csv",
            "fit": name, **known}


# scan files that no case writes: a 16-point circle of radius 1e80
INPUTS = {"huge.csv": "theta,c,d,c_err,d_err,c2d2\n" + "".join(
    f"{t!r},{1e80 * math.cos(t)!r},{abs(1e80 * math.sin(t))!r},0,0,1e160\n"
    for t in (2 * math.pi * k / 16 for k in range(16)))}

CASES = [
    # a 64-point, 1000-shot scan (records drawn a chunk of points at a time),
    # a 4-point, 40000-shot scan (records counted a block of words at a time),
    # exact scans of the lueders and mixed policies, an exact and a shot-mode
    # highdim scan, and a search-optimal scan
    ("chunk", scan(64, **SHOT), "csv", "positive errors"),
    ("block", scan(4, seed=2026, shots=40000), "csv", "same"),
    ("lueders", scan(64), "csv", "same"),
    ("mixed", scan(64, policy="mixed"), "csv", "same"),
    ("highdim", highdim(64), "csv", "same"),
    ("highdim-shot", highdim(64, **SHOT), "csv", "same"),
    ("search", {"mode": "search-optimal", "phi_grid": {"points": 64}}, "csv", "same"),
    # configs that leave every other key to its default, and the benchmark's
    # eigenstate scan (state given as a Bloch vector)
    ("scan-defaults", {"mode": "scan", "target": {"theta": 0.3}}, "csv", "same"),
    ("search-defaults", {"mode": "search-optimal"}, "csv", "same"),
    ("highdim-defaults", {"mode": "highdim"}, "csv", "same"),
    ("eigenstate", scan(16, probe={"gamma": 0.3, "bias": 0.6}, target={"gamma": 1},
                        policy="eigenstate", state={"bloch": [0, 0, 1]}), "csv", "same"),
    # 64-point, 1000-shot scans of both measure-and-prepare policies and of
    # the search-optimal mode
    ("mixed-shot", scan(64, policy="mixed", **SHOT), "csv", "same"),
    ("eigenstate-shot", scan(64, policy="eigenstate", **SHOT), "csv", "same"),
    ("search-shot", {"mode": "search-optimal", **SHOT, "phi_grid": {"points": 64}}, "csv", "same"),
    # records counted a block of words at a time on worker threads: a 5-point
    # scan, whose points do not split evenly over the workers, and a 4-point
    # shot-mode highdim scan
    ("block-uneven", scan(5, seed=11, shots=40000), "csv", "one CPU"),
    ("highdim-block", highdim(4, shots=40000, seed=7), "csv", "same"),
    # grids evaluated in several slices with an uneven tail: an exact mixed
    # scan, a 50-shot scan and a 100-shot highdim scan at dim 2 of 2500
    # points, and a 3000-point search-optimal scan
    ("sliced-mixed", scan(2500, policy="mixed"), "csv", "same"),
    ("sliced-shot", scan(2500, seed=11, shots=50), "csv", "same"),
    ("sliced-highdim", highdim(2500, dim=2, shots=100, seed=7), "csv", "same"),
    ("sliced-search", {"mode": "search-optimal", "phi_grid": {"points": 3000}}, "csv", "same"),
    # a weak-probe exact scan of one fixed state over two slices: its
    # probe-off tables take the one-point bits of the einsum, and evaluating
    # its states as a stack moves 18 of its 2000 rows
    ("fixed-weak", scan(2000, probe={"gamma": 0.05, "theta": 2.3},
                        target={"gamma": 0.5, "bias": 0.02},
                        state={"bloch": [-0.16, -0.07, 0.19]}), "csv", "same"),
    # corners of the chunk path: a 1-point, 32768-shot scan (a record of
    # exactly one block, two arms of 32768 words), and a sharp-probe
    # 1000-shot scan of the state (0,0,1) on a grid through 0, whose tables
    # hold zero-probability outcomes
    ("one-block", scan(1, seed=7, shots=32768), "csv", "same"),
    ("sharp-shot", scan(64, probe={"gamma": 1, "bias": 0}, target={"gamma": 1},
                        state={"bloch": [0, 0, 1]}, **SHOT), "csv", "same"),
    # an overlong state.bloch
    ("overlong", scan(8, state={"bloch": [1.1, 0, 0]}), "csv", "refused"),
    # a detector simulation from 100000 shots (two block-counted records),
    # an exact one, and an inversion of two readings with errors
    ("detector-sim", {"mode": "detector", "seed": 7, "shots": 100000,
                      "detector": {"eta": 0.7, "nu": 0.05}}, "json", "one CPU"),
    ("detector-exact", {"mode": "detector", "detector": {"eta": 0.7, "nu": 0.05}}, "json", "same"),
    ("detector-inv", {"mode": "detector", "detector": {
        "d1": 0.666, "c2": 0.236, "d1_err": 0.001, "c2_err": 0.001}}, "json", "same"),
    # the known-theta fit of the 1000-shot scan without the target strength
    # (probe parameters not separated)
    ("chunk-known-free", fit("chunk", "ellipse-known-theta", strength=None), "json", "same"),
    ("scan-1100", scan(1100, seed=5, shots=1000), "csv", "same"),
    # known-theta fits of two 4-point scans, an exact one (zero errors: an
    # unweighted fit) and a 1000-shot one (a weighted fit); many of their
    # resamples hold fewer than three distinct settings
    ("four-exact", scan(4, {"start": 0.3, "stop": 2.7}), "csv", "same"),
    ("four-shot", scan(4, {"start": 0.3, "stop": 2.7}, **SHOT), "csv", "same"),
    ("four-exact-known", fit("four-exact", "ellipse-known-theta"), "json", "same"),
    ("four-shot-known", fit("four-shot", "ellipse-known-theta"), "json", "same"),
    # the benchmark's unknown-theta fit: a 1024-point, 1000-shot scan, whose
    # bootstrap draws eight resamples per index block
    ("scan-1024", scan(1024, **SHOT), "csv", "same"),
    ("scan-1024-unknown", fit("scan-1024", "ellipse-unknown-theta"), "json", "same"),
    ("scan-300", scan(300, seed=3, shots=1000), "csv", "same"),
    ("scan-2049", scan(2049, seed=3, shots=1000), "csv", "same"),
    # unknown-theta fits of 6- and 8-point exact scans and of a 6-point shot
    # scan (at seed 0; its seed-7 bootstrap holds no singular resample):
    # each bootstrap group holds a resample whose s3 is singular
    ("six", scan(6), "csv", "same"),
    ("eight", scan(8), "csv", "same"),
    ("six-shot", scan(6, **SHOT), "csv", "same"),
    ("six-unknown", fit("six", "ellipse-unknown-theta"), "json", "same"),
    ("eight-unknown", fit("eight", "ellipse-unknown-theta"), "json", "same"),
    ("six-shot-unknown", fit("six-shot", "ellipse-unknown-theta", seed=0), "json", "same"),
    # a calibration of the 1e80 circle, whose conic scatter overflows
    ("huge", {"mode": "calibrate", "scan_file": "huge.csv", "fit": "ellipse-unknown-theta"},
     "json", "exit 4"),
]
# the three fits of the 1000-shot scan, whose C and D errors are all positive
# (weighted fits), of the 1100-point scan (seven resamples per draw block, an
# uneven tail) and of the 2500-point 50-shot scan (three resamples per block);
# every fit of the 300- and 2049-point scans at 1, 7 and 200 resamples: draw
# blocks of one or more resamples, uneven tails, and groups cut at other
# places for other block sizes
CASES += [(f"{s}-{f}", fit(s, f), "json", "same")
          for s in ("chunk", "scan-1100", "sliced-shot") for f in FITS]
CASES += [(f"{s}-{f}-{n}", fit(s, f, bootstrap=n), "json", "same")
          for s in ("scan-300", "scan-2049") for f in FITS for n in (1, 7, 200)]
# the benchmark's own jobs at seed 7 (bench/workloads.py), with the scan
# files its calibrate workload reads
for name in workloads.WORKLOADS:
    workload = workloads.build(name, 7)
    INPUTS.update(workload.inputs)
    CASES += [(f"bench-{name}-{job.name}", job.config, Path(job.out).suffix[1:], "same")
              for job in workload.jobs]


def cli(src, config, out, cwd, pinned):
    """The exit code of a CLI run with ``src`` on PYTHONPATH, on one CPU if ``pinned``."""
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if pinned else None
    command = [sys.executable, "-m", "cdtradeoff.cli", "--config", str(config), "--out", out]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(command, cwd=cwd, env=env, preexec_fn=pin).returncode


def failure(root, base, name, config, kind, expect):
    """What case ``name`` gets wrong, or None; each side runs in a directory of its own."""
    path = root / f"{name}.json"
    path.write_text(json.dumps({"schema": 1, **config}), encoding="utf-8")
    files = [f"{name}.csv", f"{name}.meta.json"] if kind == "csv" else [f"{name}.json"]
    sides = [("head", HEAD_SRC), ("base", base)] + [("one-cpu", HEAD_SRC)] * (expect == "one CPU")
    codes = {side: cli(src, path, files[0], root / side, side == "one-cpu") for side, src in sides}
    if EXPECT[expect] != 0:
        wrote = [f"{side}/{f}" for side in codes for f in files if (root / side / f).exists()]
        exits = codes["head"] == codes["base"] != 0 and EXPECT[expect] in (None, codes["head"])
        return None if exits and not wrote else f"exit codes {codes}, wrote {wrote}"
    if set(codes.values()) != {0}:
        return f"exit codes {codes}"
    head = {f: (root / "head" / f).read_bytes() for f in files}
    for side in codes:
        if differ := [f for f in files if (root / side / f).read_bytes() != head[f]]:
            return f"the {side} side's {differ[0]} differs from the head's"
    if expect == "positive errors":
        rows = (root / "head" / files[0]).read_text().splitlines()[1:]
        if not all(float(v) > 0 for row in rows for v in row.split(",")[3:5]):
            return "a c_err or d_err of the CSV is not positive"
    return None


def main(base):
    if not (base / "cdtradeoff" / "cli.py").is_file():
        return f"{base} holds no cdtradeoff package"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side in ("head", "base", "one-cpu"):
            (root / side).mkdir()
            for file, text in INPUTS.items():
                (root / side / file).write_text(text, encoding="utf-8")
        for name, config, kind, expect in CASES:
            if problem := failure(root, base, name, config, kind, expect):
                return f"case {name}: {problem}"
            print(f"{name}: {expect}", flush=True)
    return None


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/base_compare.py BASE_SRC")
    sys.exit(main(Path(sys.argv[1]).resolve()))

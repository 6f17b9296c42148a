"""Seeded Monte Carlo emulation of the two-arm experiment: finite-shot
count records drawn from the tables of any probe ``Instrument``, and
plug-in estimators for correlation and disturbance.

A record is its two count arrays in effect order: joint counts (probe
outcome, target outcome) with the probe registered, alone counts (target
outcome) with it off.  Stacks (``sample_tables``, ``estimate_columns``) add
a leading point axis; the one-record calls take and return row 0.
Estimators match a probe outcome to the target outcome of equal index.

Reproducibility contract: all randomness comes from the counter-based
Philox 4x64 bit generator (``numpy.random.Philox``) keyed by the 64-bit
seed.  Each uniform is the generator's native 53-bit conversion
``u = (x >> 11) * 2**-53`` of one raw 64-bit word ``x``.  Categorical draws
are inverse-CDF lookups against the cumulative distribution ``edge``:
outcome ``i`` is drawn when ``edge[i-1] <= u < edge[i]`` (with
``edge[-1] = 0``; the last outcome takes every ``u`` at or above its lower
edge).  The sampler makes the test ``u < edge`` on the raw word, as
``x < ceil(edge * 2**53) << 11``, which holds for exactly the same words.
Words are used in stream order, in fixed blocks; the joint arm is drawn
before the alone arm from the same stream.  A stack of records
(``sample_tables``) re-keys one generator for each point, which then
yields the same words as a fresh ``Philox(key=...)``.  Records that fit
one block over both arms are drawn a chunk of points at a time into one
reused buffer and counted per chunk, on the calling thread: each arm
compares its words against one edge's thresholds at a time into one reused
bool buffer and sums its rows as uint16, which the block bounds (an arm
holds fewer than 2**16 words); larger records are counted a block of words
at a time.  Both give the same words and counts.  The points of larger
records are split into contiguous spans, one per thread of the standard
library's pool (``ThreadPoolExecutor``), each with its own generator
re-keyed per point; the worker count is the number of CPUs the process
may run on (its affinity mask), capped by the number of points, and the
workers' blocks share one block of memory.  A point's
words, counts and bits do not depend on the worker count or the block
size.  Identical (scenario, seed) pairs yield bit-identical records on
any platform, and the bits are unchanged from 0.1.0.  This algorithm is
part of the package contract and must not change silently.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRecordError,
    InvalidSeedError,
    InvalidShotsError,
    LabelMismatchError,
    NotDichotomicError,
    NotNormalizedError,
)
from .quantum_core import (
    DensityMatrix,
    Instrument,
    Povm,
    at_index,
    first_bad,
    index_base,
    scenario_tables,
)


@dataclass(frozen=True)
class CdEstimate:
    """Plug-in estimates with one-sigma statistical errors."""

    c_hat: float
    d_hat: float
    c_err: float
    d_err: float


# Raw words are drawn this many at a time, so a draw's memory is bounded by
# the block and not by the shot count.
_BLOCK = 1 << 16
# A uniform is u = (x >> 11) * 2**-53 for the raw 64-bit word x, so u < edge
# exactly when x < ceil(edge * 2**53) << 11.  An edge of 2**53 steps or more
# lies above every uniform.
_STEPS = 2**53


def _stream(key: int, bitgen: np.random.Philox | None = None) -> np.random.Philox:
    """The Philox bit generator at the start of the stream of ``key``: a new
    ``Philox(key=key)``, or ``bitgen`` re-keyed in place to the same state
    (counter 0, empty buffer), a state assignment that costs about a tenth
    of a new generator."""
    if bitgen is None:
        return np.random.Philox(key=key)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & (2**64 - 1), key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _thresholds(tables) -> list:
    """For each (n, k) table stack, the raw-word thresholds (n, k-1) uint64
    of every row's inner cumulative edges, and a bool mask (n, k-1) of the
    edges above every uniform (their threshold reads 0; they count every
    word).

    Negative entries are clipped to zero and each row normalized; a row
    that is not finite or has no positive sum raises NotNormalizedError
    naming its point, the first such point over all stacks.
    """
    clipped = [np.clip(rows, 0.0, None) for rows in tables]
    totals = [p.sum(axis=1) for p in clipped]
    good = np.logical_and.reduce([np.isfinite(rows).all(axis=1) & (0.0 < t) & (t < np.inf)
                                  for rows, t in zip(tables, totals)])
    bad = first_bad(~good)
    if bad is not None:
        raise NotNormalizedError(
            f"probabilities must be finite with a positive sum{at_index(bad)}")
    cuts = []
    for p, total in zip(clipped, totals):
        steps = np.ceil(np.cumsum(p / total[:, None], axis=1)[:, :-1] * _STEPS)
        above = steps >= _STEPS
        cuts.append((np.where(above, 0.0, steps).astype(np.uint64) << np.uint64(11), above))
    return cuts


def _count(bitgen: np.random.Philox, thresholds: np.ndarray, above: np.ndarray,
           shots: int, block: int) -> list:
    """Outcome counts of ``shots`` draws against one row of thresholds:
    each block of at most ``block`` raw words is counted against every
    threshold (an edge ``above`` every uniform counts every word), and the
    counts are the differences of those tallies."""
    cuts = [None if a else t for t, a in zip(thresholds.tolist(), above.tolist())]
    below = [0] * len(cuts)  # draws below each edge
    for start in range(0, shots, block):
        words = bitgen.random_raw(min(block, shots - start))
        for i, threshold in enumerate(cuts):
            below[i] += words.size if threshold is None else np.count_nonzero(words < threshold)
    tallies = [0, *below, shots]
    return [high - low for low, high in zip(tallies, tallies[1:])]


def _tally(words: np.ndarray, thresholds: np.ndarray, above: np.ndarray,
           out: np.ndarray) -> None:
    """Write into ``out`` (points, k) the outcome counts of each row of
    ``words`` (points, shots) against the thresholds (points, k-1) of its
    point.  Each edge compares the words against its threshold column into
    one bool buffer, reused for every edge (one byte per word, at most
    64 KiB), whose rows are summed as uint16: a chunk-path arm holds fewer
    than 2**16 words, as both arms of a record share one block and hold at
    least one word each, so a sum cannot wrap.  The counts are the
    differences of consecutive edges' tallies."""
    shots = words.shape[1]
    hits = np.empty(words.shape, dtype=bool)
    low = 0  # draws below the previous edge
    for edge in range(thresholds.shape[1]):
        np.less(words, thresholds[:, edge, None], out=hits)
        below = hits.sum(axis=1, dtype=np.uint16)
        below[above[:, edge]] = shots
        out[:, edge] = below - low
        low = below
    out[:, -1] = shots - low


def _workers(points: int) -> int:
    """Worker threads for ``points`` records: the CPUs in the process's
    affinity mask, capped by the points (at least one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, points))


def _integer(value) -> int | float:
    """``value`` as an int if it is an integer (a numpy integer is; a bool or
    a float is not), else NaN, which fails every range test."""
    try:
        return math.nan if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return math.nan


def sample_tables(joint, alone, shots: int, seed: int, first: int = 0,
                  shots_alone: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Count stacks shaped like the table stacks ``joint`` (n, ka, kb) and
    ``alone`` (n, kb): one two-arm record per point.

    Point ``i`` draws ``shots`` joint-arm outcomes, then ``shots_alone``
    (default ``shots``) alone-arm outcomes, from the Philox stream keyed by
    ``seed ^ (first + i)``, and a table that cannot be drawn from is named
    as point ``first + i``.  A generator is re-keyed for each point; records
    of more than one block are counted on a thread pool, a span of points each.
    """
    shots, shots_alone, seed, first = map(
        _integer, (shots, shots if shots_alone is None else shots_alone, seed, first))
    if not (shots > 0 and shots_alone > 0):
        raise InvalidShotsError("shot counts must be positive integers")
    if not (0 <= seed < 2**128 and 0 <= first < 2**64):
        raise InvalidSeedError("seed and first must be integers in [0, 2**128) and [0, 2**64)")
    joint = np.asarray(joint, dtype=float)
    alone = np.asarray(alone, dtype=float)
    if joint.ndim < 2 or alone.ndim < 2 or len(joint) != len(alone):
        raise LabelMismatchError("joint and alone must be table stacks of equal length")
    rows = [t.reshape(len(t), math.prod(t.shape[1:])) for t in (joint, alone)]
    with index_base(first):
        cuts_joint, cuts_alone = _thresholds(rows)
    joint_counts, alone_counts = (np.empty(r.shape, dtype=np.int64) for r in rows)
    record = shots + shots_alone
    if record > _BLOCK:  # a flat count per block is cheaper per word than a row sum
        workers = _workers(len(joint))
        block = _BLOCK // workers  # the workers' blocks add up to one

        def count_span(points: range) -> None:
            bitgen = None
            for i in points:
                bitgen = _stream(seed ^ (first + i), bitgen)
                joint_counts[i] = _count(bitgen, *(c[i] for c in cuts_joint), shots, block)
                alone_counts[i] = _count(bitgen, *(c[i] for c in cuts_alone), shots_alone, block)

        # imported here: only records of more than one block start threads
        from concurrent.futures import ThreadPoolExecutor

        bounds = [len(joint) * w // workers for w in range(workers + 1)]
        spans = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(count_span, spans))
    else:  # a chunk of records per block of words
        bitgen = None
        chunk = _BLOCK // record
        words = np.empty((min(chunk, len(joint)), record), dtype=np.uint64)
        for start in range(0, len(joint), chunk):
            n = min(chunk, len(joint) - start)
            for row in range(n):
                bitgen = _stream(seed ^ (first + start + row), bitgen)
                words[row] = bitgen.random_raw(record)
            points = slice(start, start + n)
            _tally(words[:n, :shots], *(c[points] for c in cuts_joint), joint_counts[points])
            _tally(words[:n, shots:], *(c[points] for c in cuts_alone), alone_counts[points])
    return joint_counts.reshape(joint.shape), alone_counts.reshape(alone.shape)


def sample_distributions(
    joint, alone, shots_joint: int, shots_alone: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Joint and alone counts drawn from explicit joint and alone
    distributions: row 0 of ``sample_tables``."""
    jc, ac = sample_tables([joint], [alone], shots_joint, seed, shots_alone=shots_alone)
    return jc[0], ac[0]


def sample(
    rho: DensityMatrix,
    inst_a: Instrument,
    povm_b: Povm,
    shots_joint: int,
    shots_alone: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the two-arm experiment: ``shots_joint`` runs with the probe
    on and registered, ``shots_alone`` runs with the probe off.  Returns the
    joint and alone counts, whose outcomes match by equal index because the
    probe and target label sequences must be identical."""
    if list(inst_a.labels) != list(povm_b.labels):
        raise LabelMismatchError(
            "probe and target label sequences must be identical for matching"
        )
    joint, alone = scenario_tables(rho.matrix, inst_a, povm_b.matrices)
    return sample_distributions(joint, alone, shots_joint, shots_alone, seed)


def estimate_columns(joint_counts, alone_counts) -> np.ndarray:
    """Plug-in estimate columns (c, d, c_err, d_err), shape (4, n), of a
    stack of dichotomic records: joint counts (n, 2, 2), alone counts (n, 2).

    c = 2 (I(+,+) + I(-,-)) / sum(I) - 1 and
    d = 2 |Ialone(+)/sum(Ialone) - (I(+,+) + I(-,+))/sum(I)|, with
    binomial one-sigma errors (the two arms of d are independent and add
    in quadrature).

    Counts are whole numbers below 2**53 (whole floats estimate as their
    integers do); the first record holding another raises InvalidShotsError.
    """
    jc = np.asarray(joint_counts)
    ac = np.asarray(alone_counts)
    if jc.shape[1:] != (2, 2) or ac.shape != (len(jc), 2):
        raise LabelMismatchError("dichotomic records need (n, 2, 2) and (n, 2) counts")
    counts = np.concatenate([jc.reshape(len(jc), 4), ac], axis=1)
    bad = first_bad((counts < 0) | (counts >= 2**53) | (np.floor(counts) != counts))
    if bad is not None:
        raise InvalidShotsError(f"counts must be whole numbers in [0, 2**53){at_index(bad[:1])}")
    jc, ac = jc.astype(np.int64, copy=False), ac.astype(np.int64, copy=False)
    n_joint = jc.sum(axis=(1, 2))
    n_alone = ac.sum(axis=1)
    if not (n_joint.all() and n_alone.all()):
        raise EmptyRecordError("cannot estimate from empty record")
    q = jc / n_joint[:, None, None]
    p_match = q[:, 0, 0] + q[:, 1, 1]
    p_tilde = q[:, 0, 0] + q[:, 1, 0]
    p_alone = ac[:, 0] / n_alone
    return np.stack([
        2.0 * (p_match - 0.5),
        2.0 * np.abs(p_alone - p_tilde),
        2.0 * np.sqrt(p_match * (1.0 - p_match) / n_joint),
        2.0 * np.sqrt(p_alone * (1.0 - p_alone) / n_alone + p_tilde * (1.0 - p_tilde) / n_joint),
    ])


def estimate_cd(joint_counts, alone_counts) -> CdEstimate:
    """Plug-in estimates of one dichotomic record, joint counts (2, 2) and
    alone counts (2,) as ``sample`` returns them: column 0 of
    ``estimate_columns``.  Counts of any other shape raise NotDichotomicError."""
    if np.shape(joint_counts) != (2, 2) or np.shape(alone_counts) != (2,):
        raise NotDichotomicError("shot estimates need 2x2 joint and 2 alone counts")
    return CdEstimate(*estimate_columns([joint_counts], [alone_counts])[:, 0].tolist())

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import chunk_loop_dot

import pnpadmm
from pnpadmm.linalg import (
    REDUCE_CHUNK,
    DimensionMismatchError,
    IterateTriple,
    as_vector,
    dot,
    metric_distance,
)


def random_triple(rng, d):
    return IterateTriple(
        rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
    )


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    with pytest.raises(ValueError):
        as_vector([])


def test_triple_requires_matching_dims():
    with pytest.raises(DimensionMismatchError):
        IterateTriple([1.0, 2.0], [1.0], [1.0])


def test_triple_is_immutable():
    t = IterateTriple([1.0], [2.0], [3.0])
    with pytest.raises(ValueError):
        t.x[0] = 7.0


def test_metric_identity_case():
    rng = np.random.default_rng(7)
    t = random_triple(rng, 6)
    assert metric_distance(t, t) == 0.0


def test_metric_scalar_example():
    # d=1: (|1| + |2| + |3|) / sqrt(1) = 6
    a = IterateTriple([1.0], [2.0], [3.0])
    b = IterateTriple([0.0], [0.0], [0.0])
    assert metric_distance(a, b) == 6.0


def test_metric_d4_example():
    # only the x parts differ, by the all-ones vector: ||1||/sqrt(4) = 1
    ones = np.ones(4)
    zeros = np.zeros(4)
    a = IterateTriple(ones, zeros, zeros)
    b = IterateTriple(zeros, zeros, zeros)
    assert metric_distance(a, b) == 1.0


def test_metric_dimension_mismatch_names_component():
    a = IterateTriple(np.ones(3), np.ones(3), np.ones(3))
    b = IterateTriple(np.ones(4), np.ones(4), np.ones(4))
    with pytest.raises(DimensionMismatchError, match="x parts"):
        metric_distance(a, b)


def test_metric_symmetry_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_triple(rng, 8)
        b = random_triple(rng, 8)
        assert metric_distance(a, b) == metric_distance(b, a)


def test_metric_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = int(rng.integers(1, 12))
        a, b, c = (random_triple(rng, d) for _ in range(3))
        assert metric_distance(a, c) <= (
            metric_distance(a, b) + metric_distance(b, c) + 1e-12
        )


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_metric_scaling(t):
    rng = np.random.default_rng(17)
    a = random_triple(rng, 5)
    b = random_triple(rng, 5)
    sa = IterateTriple(t * a.x, t * a.v, t * a.u)
    sb = IterateTriple(t * b.x, t * b.v, t * b.u)
    assert metric_distance(sa, sb) == pytest.approx(
        t * metric_distance(a, b), abs=1e-12
    )


def test_metric_zero_iff_equal():
    rng = np.random.default_rng(19)
    a = random_triple(rng, 4)
    b = IterateTriple(a.x + 1e-9, a.v, a.u)
    assert metric_distance(a, b) > 0.0


def dot_mismatches() -> list[int]:
    """The sizes, around each multiple of REDUCE_CHUNK up to 25 chunks, at
    which :func:`dot` and the chunk loop differ in any bit."""
    rng = np.random.default_rng(47)
    sizes = [
        n for m in range(26) for n in (m * REDUCE_CHUNK - 1, m * REDUCE_CHUNK,
                                       m * REDUCE_CHUNK + 1) if n >= 1
    ]
    return [
        n for n in sizes
        if dot(*(a := rng.standard_normal((2, n)))) != chunk_loop_dot(*a, REDUCE_CHUNK)
    ]


@pytest.mark.parametrize("threads", ["1", None], ids=["one-thread", "default"])
def test_dot_equals_the_chunk_loop_bit_for_bit(threads):
    # a fresh interpreter, since OpenBLAS reads its thread count at import;
    # past 7 chunks a pairwise sum of the chunks would differ here
    tests = Path(__file__).resolve().parent
    src = Path(pnpadmm.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(tests)])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = "import test_linalg; print(test_linalg.dot_mismatches())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

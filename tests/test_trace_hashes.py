"""Byte-identity guard: pinned sha256 of trace.csv for three small runs.

A change that keeps the arithmetic must keep these hashes.  A change that
alters the arithmetic on purpose (a different prox solver, say) updates
them and says so.  The denoisers reach BLAS through matrix-vector
products, so another numpy/BLAS build may change the last bits too; the
hashes below come from numpy 2.4 with its bundled OpenBLAS on x86-64.
"""

import hashlib

import pytest

from pnpadmm import cli

PINNED = {
    "smoke": "fdab975f7356eefe053a7bea19e1b0226b9fc38fec582bb50a7887661b1dbaea",
    "deblur": "bdeaf097d3f8704a02f9a893ee155e9d8a8e9a186f5f3a7bc71abf21bbd57e77",
    "superres": "c27885beed7350696120ae9fdab8f185690b514ce2eb7274e5aa6a5b3c12a86e",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_trace_csv_sha256_is_pinned(tmp_path, preset):
    config = tmp_path / "run.cfg"
    config.write_text(f"preset = {preset}\nimage_size = 32\nmax_iter = 30\nseed = 0\n")
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == PINNED[preset]

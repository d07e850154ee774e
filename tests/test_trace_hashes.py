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
    "deblur": "625a50d7ee02ddac557183931cba62cc1cf282d5de0d5c0cfce0e67ab62bc912",
    "superres": "1ffebfb7dbddf6506a48ea4140abf4aa2882f4d7d884c41bf3897b73a07f77b9",
}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_trace_csv_sha256_is_pinned(tmp_path, preset):
    config = tmp_path / "run.cfg"
    config.write_text(f"preset = {preset}\nimage_size = 32\nmax_iter = 30\nseed = 0\n")
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == PINNED[preset]

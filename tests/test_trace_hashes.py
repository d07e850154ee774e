"""Byte-identity guard: pinned sha256 of trace.csv and summary.txt for three
small runs.

A change that keeps the arithmetic must keep these hashes.  A change that
alters the arithmetic on purpose (a different prox solver, say) updates
them and says so.  The Gaussian and box denoisers are BLAS matrix
products, so another numpy/BLAS build may change the last bits too; the
hashes below come from numpy 2.4 with its bundled OpenBLAS on x86-64.
"""

import hashlib

import pytest

from pnpadmm import cli

# preset -> (trace.csv, summary.txt)
PINNED = {
    "smoke": (
        "fdab975f7356eefe053a7bea19e1b0226b9fc38fec582bb50a7887661b1dbaea",
        "ef51008c0d4fc3106df1edfcc56cbb68dc0d8e5c2da2175cf2bf7804a03b5077",
    ),
    "deblur": (
        "49a690997a9b8a55dcded2ad8259de6f5fb84743dfa6f518bcc36afba0be854d",
        "963944344b985bfd11cd77da67113915f31b5d3d77fddc20807c5d5fd9e4350f",
    ),
    "superres": (
        "ab66c83bf0307fdb6f4322c18c2af94770590848d42ea815b66b61ea6b59425d",
        "a814494fea835da635acaedfea8a32ea90bd6737391a5c5e2cd9ee96e08e2825",
    ),
}


@pytest.fixture(scope="module", params=sorted(PINNED))
def run_dir(request, tmp_path_factory):
    """(preset, output directory) of one 32x32, 30-iteration run."""
    preset = request.param
    tmp = tmp_path_factory.mktemp(preset)
    config = tmp / "run.cfg"
    config.write_text(f"preset = {preset}\nimage_size = 32\nmax_iter = 30\nseed = 0\n")
    out = tmp / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return preset, out


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_csv_sha256_is_pinned(run_dir):
    preset, out = run_dir
    assert _sha256(out / "trace.csv") == PINNED[preset][0]


def test_summary_txt_sha256_is_pinned(run_dir):
    preset, out = run_dir
    assert _sha256(out / "summary.txt") == PINNED[preset][1]

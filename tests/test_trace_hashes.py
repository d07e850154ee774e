"""Byte-identity guard: pinned sha256 of trace.csv, summary.txt and
restored.pgm for three small runs.

A change that keeps the arithmetic must keep these hashes.  A change that
alters the arithmetic on purpose (a different prox solver, say) updates
them and says so.  The Gaussian and box denoisers are BLAS matrix
products, so another numpy/BLAS build may change the last bits too; the
hashes below come from numpy 2.4 with its bundled OpenBLAS on x86-64.
"""

import hashlib

import pytest

from pnpadmm import cli

# preset -> (trace.csv, summary.txt, restored.pgm)
PINNED = {
    "smoke": (
        "fdab975f7356eefe053a7bea19e1b0226b9fc38fec582bb50a7887661b1dbaea",
        "e4155c3cadc10f1e0d541fdffd164e13d8428e9bec8517c62471d8d066a7c155",
        "38ee54f65d13d44d4a1dd60b538ff8a13c052c8418fd4170db32405a72357bd8",
    ),
    "deblur": (
        "f62c4ce0241aa3a316bf9c9783f24f6eef52f43b4ff537fd63a6a65e010a2c71",
        "a3ff20d6eea21f24ee50db02f1ff35182a43abaa0314ca6622eba21a9e85b925",
        "189d9d6bcbb2c7706b7d7a982f464f3fe395491f7d91245c11d08ef67fd0e16a",
    ),
    "superres": (
        "484b44b1780b2d63160fe87f57ac274854cca0e65eb497e14ec2b03785325bc6",
        "31ec127d1bc765e3020e9e1189a2bdd8077e406539641c3808ee9ed4b4fdf248",
        "a6bff9a0be49b395810e58306336c0cac1ba3fcb452341aae5666a2ec8905c01",
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


def test_restored_pgm_sha256_is_pinned(run_dir):
    preset, out = run_dir
    assert _sha256(out / "restored.pgm") == PINNED[preset][2]

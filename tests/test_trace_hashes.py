"""Byte-identity guard: pinned sha256 of trace.csv, summary.txt and
restored.pgm for seven small runs, and of bound.csv and bound_report.txt
for a plain ``analyze`` of each run's trace.  The runs are the three
presets with their own denoisers (Gaussian for deblur and superres, the
identity for smoke) and deblur with the box and the median denoiser, so
every denoiser and the median's sampled K-hat line in summary.txt are
covered, and deblur and superres on a 24 x 40 (height x width) PGM, so a
slip between an image's (h, w) and (w, h) changes a hash.

A change that keeps the arithmetic must keep these hashes.  A change that
alters the arithmetic on purpose (a different prox solver, say) updates
them and says so.  The Gaussian and box denoisers are BLAS matrix
products, so another numpy/BLAS build may change the last bits too; the
hashes below come from numpy 2.4 with its bundled OpenBLAS on x86-64.
"""

import hashlib

import pytest

from pnpadmm import cli

# run -> the config lines that select it
RUNS = {
    "smoke": "preset = smoke\n",
    "deblur": "preset = deblur\n",
    "superres": "preset = superres\n",
    "deblur-box": "preset = deblur\ndenoiser = box\n",
    "deblur-median": "preset = deblur\ndenoiser = median\n",
    "deblur-24x40": "preset = deblur\n",
    "superres-24x40": "preset = superres\n",
}
# the runs that restore the non-square PGM instead of the builtin pattern
NONSQUARE = {"deblur-24x40", "superres-24x40"}

# run -> (trace.csv, summary.txt, restored.pgm)
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
    "deblur-box": (
        "19aeaa7c6cd0339419d89cdde97f9405341a6019bb1079deb850dd46306911b0",
        "478db231a440afbee9ec7eb89d255eb14da7242e27a190caca83f9d743a54a62",
        "c0601cebcb7960a6e750b22255607b2c030750350b07cbd4fe6c66ab0514b78c",
    ),
    "deblur-median": (
        "0deb8859ea816ceccdb7e3800b4c7f1330836b872285fcb9aededd44610ce0a8",
        "6b9d0605bc506c22d7c3a8f0b48fe02be4fa07c79026ba403d561c3253944d81",
        "d6f24fec82094c7b1400b0289ae160fcfde7ca72096ba04df643eda3d708919d",
    ),
    "deblur-24x40": (
        "f0928541c327e0af3d9652a73a407bc49c43c487822cfbde9657487dd960b50b",
        "193dc00eedb4013cad7ee8142c7f048f9f735b478581a298bdf4001984a596c7",
        "5173f60cffa5855d2d2ae3557a7d757c129a44eb130519a1b826dd302340a114",
    ),
    "superres-24x40": (
        "524c1507026b5415581aab861a35fc0af3bdeb601877cab0384b3c47765040f6",
        "2b031704da0fb2bf9bdb5d2b188e290e11e70ed212a18f994709f462d19ad5da",
        "a1a43a77c012d4e560c22602f102d5b3cce5759c95eafb31ea9edd618092015d",
    ),
}


# run -> (bound.csv, bound_report.txt without its "trace = <path>" line);
# the smoke run stops after one row, and analyze refuses it and writes neither
PINNED_ANALYSIS = {
    "smoke": (None, None),
    "deblur": (
        "9ccb5aa742c3d993b6ef0ee5ded75247a9ca0d0ee0012b6efb0720bd84feb04a",
        "703417837746c9f7a8e0cf19c68b82b309961ee1a1960b2b6ba18cb02bf7f879",
    ),
    "superres": (
        "4890009ee6f76d9b92d0853b4582d8ded25eb3fb8297abfcd57c6a61227ee97c",
        "1ad8b683a271c2ebe854747ab79f31f48cab28620713925ce107c3dbc582c4ba",
    ),
    "deblur-box": (
        "6b8b60a932d677b7a66ab94a55f1e1f8f6b1544377b17b9c6ab38b4397d70159",
        "b2e396fa11e2d2209aad10d0b30cc08ed67c6b5d6e10d9b7704c58e86afac5e5",
    ),
    "deblur-median": (
        "4662058b5c882d280ccf7472ffc7966fd58b2b7431b16b94eafe1c99732880e9",
        "68d5fea291a1b25e948e9a2f9d4fe09b2cf1d60596b52e017ee953bb2ce8c6d6",
    ),
    "deblur-24x40": (
        "917bb31fbf6ae10c609e990994dd9665ac1299af4e9184622e84dec091706eb7",
        "1c5389eacb4f7c6b3edab1b5ba68c57d8a8dca1329641fca49e9d340ed2d651f",
    ),
    "superres-24x40": (
        "81686f1f6910bcbc4edcb1eb2edb2f39745ce21f73be5ce0d0dff9c7506b1ddb",
        "d3a9e73940464ff75c1878340242ca72edc0e4e3f393d0d56e214f8a4629b676",
    ),
}


def write_nonsquare_pgm(path) -> None:
    """A 24 x 40 (height x width) 8-bit PGM whose pixel (i, j) is (7i + 3j) mod 256."""
    pixels = bytes((7 * i + 3 * j) % 256 for i in range(24) for j in range(40))
    path.write_bytes(b"P5\n40 24\n255\n" + pixels)


@pytest.fixture(scope="module", params=sorted(PINNED))
def run_dir(request, tmp_path_factory):
    """(run, output directory) of one 30-iteration run on the 32x32 builtin
    pattern or on the 24 x 40 PGM."""
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    lines = RUNS[name]
    if name in NONSQUARE:
        write_nonsquare_pgm(tmp / "nonsquare.pgm")
        lines += f"image = {tmp / 'nonsquare.pgm'}\n"
    config = tmp / "run.cfg"
    config.write_text(f"{lines}image_size = 32\nmax_iter = 30\nseed = 0\n")
    out = tmp / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    return name, out


@pytest.fixture(scope="module")
def analysis_dir(run_dir):
    """(run, output directory) of ``analyze`` on the run's trace."""
    name, out = run_dir
    analysis = out.parent / "analysis"
    argv = ["analyze", "--trace", str(out / "trace.csv"), "--out", str(analysis)]
    assert cli.main(argv) == (1 if PINNED_ANALYSIS[name][0] is None else 0)
    return name, analysis


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _analysis_sha256(path, drop_prefix=None) -> str | None:
    """sha256 of the file without its lines that start with drop_prefix, or
    None when analyze did not write it."""
    if not path.exists():
        return None
    lines = path.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not (drop_prefix and line.startswith(drop_prefix)))
    return hashlib.sha256(kept.encode()).hexdigest()


def test_trace_csv_sha256_is_pinned(run_dir):
    name, out = run_dir
    assert _sha256(out / "trace.csv") == PINNED[name][0]


def test_summary_txt_sha256_is_pinned(run_dir):
    name, out = run_dir
    assert _sha256(out / "summary.txt") == PINNED[name][1]


def test_restored_pgm_sha256_is_pinned(run_dir):
    name, out = run_dir
    assert _sha256(out / "restored.pgm") == PINNED[name][2]


def test_bound_csv_sha256_is_pinned(analysis_dir):
    name, out = analysis_dir
    assert _analysis_sha256(out / "bound.csv") == PINNED_ANALYSIS[name][0]


def test_bound_report_sha256_is_pinned(analysis_dir):
    name, out = analysis_dir
    digest = _analysis_sha256(out / "bound_report.txt", drop_prefix="trace = ")
    assert digest == PINNED_ANALYSIS[name][1]

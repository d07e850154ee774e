"""The quick subset of ``tools/sweep_extremes.py``: every run setting at its
extremes, at 16 x 16, and PGM strips up to 4096 pixels long."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import sweep_extremes  # noqa: E402


def test_every_setting_at_its_extremes_exits_cleanly():
    # one child runs every case; each exits 0 with its four files or 1 with
    # one error line and no --out, the strips as their cases name
    outcomes = sweep_extremes.sweep(sweep_extremes.QUICK, timeout=300)
    failed = {case.name: why for case, _, why in outcomes if why}
    assert failed == {}
    codes = {case.name: result["code"] for case, result, _ in outcomes}
    assert codes["smoke-gaussian-1x4096"] == codes["smoke-box-4096x2"] == 0
    assert codes["smoke-median-1x4096"] == 0
    assert codes["smoke-image_size=1"] == 0
    assert codes["superres-max_iter=1000000"] == 0
    assert codes["smoke-eta=nan"] == codes["deblur-max_iter=1000001"] == 1


def test_the_quick_subset_covers_the_table_but_its_largest_image():
    table = {case.name for case in sweep_extremes.TABLE}
    quick = {case.name for case in sweep_extremes.QUICK}
    assert len(table) == 366
    assert table - quick == {f"{p}-image_size=4096" for p in sweep_extremes.PRESETS}
    assert quick - table == {case.name for case in sweep_extremes.STRIPS}

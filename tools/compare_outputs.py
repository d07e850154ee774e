"""Check that two source trees write byte-identical outputs.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with the package under ``src/``.  The runs are
every workload of ``benchmarks/workloads.py``, plus 32x32 deblur with the
box and with the median denoiser, 32x32 smoke, and deblur and superres on
a 24 x 40 (height x width) PGM that this tool writes with a comment in its
header, each at seeds 0-3.  Every trace a run writes is analyzed twice:
plainly, and the benchmark's way, with ``--eta`` from ``run_config.txt``
and ``--gamma`` from the config.  ``pgs-demo`` runs at the settings in
:data:`PGS_DEMOS`.  Both trees run the same commands with the same relative
paths.
Every file written is compared byte for byte (``bound_report.txt``
without its ``trace =`` line), and so are each command's exit code,
stdout and stderr.  Prints the counts; exits 1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import WORKLOADS, Workload  # noqa: E402

SEEDS = range(4)
# a non-square image, so that a slip between (h, w) and (w, h) shows
NONSQUARE = "nonsquare-24x40.pgm"
# the runs no workload covers; gamma is the preset's own, which the
# benchmark's way of calling analyze passes
EXTRA = [
    Workload("deblur-box-32", {"preset": "deblur", "image_size": 32, "denoiser": "box",
                               "gamma": 1.05}),
    Workload("deblur-median-32", {"preset": "deblur", "image_size": 32, "denoiser": "median",
                                  "gamma": 1.05}),
    Workload("smoke-32", {"preset": "smoke", "image_size": 32, "gamma": 1.05}),
    Workload("deblur-24x40", {"preset": "deblur", "image": NONSQUARE, "gamma": 1.05}),
    Workload("superres-24x40", {"preset": "superres", "image": NONSQUARE, "gamma": 1.2}),
]
RUNS = {w.name: w for w in [*WORKLOADS.values(), *EXTRA]}
# pgs-demo settings: the default chunks, and longer ones at a slower decay
PGS_DEMOS = {
    "pgs-0.5": ["--beta", "0.5"],
    "pgs-0.9": ["--beta", "0.9", "--chunk-lengths", "3,5,8"],
}


def outputs(tree: Path, work: Path) -> dict[str, bytes]:
    """Run every command with ``tree``'s package in ``work``; each file
    written, by path relative to ``work``, and each command's outcome, by
    its command line."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    found = {}

    def call(argv):
        argv = [str(a) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "pnpadmm.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        found["$ pnpadmm " + " ".join(argv)] = (
            f"exit {proc.returncode}\n{proc.stdout}\n--- stderr\n{proc.stderr}".encode()
        )

    # pixel (i, j) of the 24 x 40 image is (7i + 3j) mod 256
    pixels = bytes((7 * i + 3 * j) % 256 for i in range(24) for j in range(40))
    (work / NONSQUARE).write_bytes(b"P5\n# (7i + 3j) mod 256\n40 24\n255\n" + pixels)
    for w in RUNS.values():
        w.write_config(work / f"{w.name}.cfg")
        for seed in SEEDS:
            call(w.run_argv(Path(f"{w.name}.cfg"), Path(w.name, f"seed{seed}"), seed))
    for name, args in PGS_DEMOS.items():
        call(["pgs-demo", *args, "--out", f"{name}.csv"])
    for trace in sorted(work.glob("*/seed*/**/trace.csv")):
        trace = trace.relative_to(work)
        config = (work / trace.parent / "run_config.txt").read_text().splitlines()
        eta = float(dict(line.split(" = ", 1) for line in config)["eta"])
        call(["analyze", "--trace", trace, "--out", trace.parent / "plain"])
        call(RUNS[trace.parts[0]].analyze_argv(trace, trace.parent / "benchmark", eta))
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "bound_report.txt":
                lines = data.splitlines(keepends=True)
                data = b"".join(line for line in lines if not line.startswith(b"trace = "))
            found[str(path.relative_to(work))] = data
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for name, tree in zip(("parent", "change"), argv):
            work = Path(tmp, name)
            work.mkdir()
            sides.append(outputs(Path(tree), work))
    parent, change = sides
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differ:
        print(f"differs: {key}")
    commands = sum(k.startswith("$ ") for k in parent)
    print(f"{len(parent) - commands} files and {commands} command outcomes compared, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

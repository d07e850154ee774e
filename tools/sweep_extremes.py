"""Run ``pnpadmm run`` with each setting at its extremes, and check that every
case ends cleanly.

    python tools/sweep_extremes.py [--quick] [--tree TREE]

A case passes when it exits 0 with every file of :data:`OUTPUTS` and an
empty stderr, or exits 1 with exactly one ``error:`` line and no ``--out``
directory; a warning, a traceback, any other exit code or a case over its
CPU budget fails it.  A case may also name the exit code it must give and
the text its error line must hold.

:data:`TABLE` sets one setting at a time to each of its extremes, the other
settings at the preset's defaults: the six float settings to the 12 values
of :data:`FLOAT_EXTREMES` and the five integer settings to the 10 values of
:data:`INT_EXTREMES`, under deblur, superres and smoke, 366 cases.
:data:`STRIPS` runs PGM strips with the linear denoisers, runs the median
on a 1 x 4096 strip just under ``MAX_MEDIAN_COPIES`` and has it refused on
a 16 x 4096 one.  The full table holds ``image_size = 4096`` and
``max_iter = 4096``, which take minutes, so it runs by hand only;
:data:`QUICK`, the table at 16 x 16 with every ``max_iter`` paired with
``delta_tol = 1`` and every ``image_size`` but 4096, plus the strips, is
the subset the tests run.

Every case runs in one child process, with TREE's package (the checkout
this file is in by default).  The child sets its own ``RLIMIT_AS`` to
:data:`MEMORY` and ``RLIMIT_CPU``, with BLAS on one thread, and calls
``cli.main`` once per case; before each case it moves the soft CPU limit to
:data:`CPU_S` seconds past the time used so far, and a case that reaches it
is stopped as over its budget.  Prints each failing case and the counts;
exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

OUTPUTS = {"trace.csv", "restored.pgm", "summary.txt", "run_config.txt"}
# each case's CPU seconds, and the child's address space
CPU_S = 30
MEMORY = 3 * 2**30
PRESETS = ("deblur", "superres", "smoke")
FLOAT_SETTINGS = ("lambda", "rho0", "gamma", "eta", "delta_tol", "noise_sigma")
INT_SETTINGS = ("max_iter", "seed", "image_size", "blur_size", "downsample_factor")
FLOAT_EXTREMES = (
    0.0, -0.0, -1.0, 5e-324, 1 - 2**-53, 1.0, 1 + 2**-52, 1e300, sys.float_info.max,
    math.inf, -math.inf, math.nan,
)
INT_EXTREMES = (0, -1, 1, 2, 4096, 4097, 10**6, 10**6 + 1, 2**63 - 1, 2**63)
# (height, width) of the PGM strips the child writes, pixel (i, j) being
# (7i + 3j) mod 256
STRIP_SHAPES = ((1, 4096), (4096, 2), (16, 4096))


@dataclass(frozen=True)
class Case:
    """``pnpadmm run --config NAME.cfg --out NAME``, the config holding
    ``config``; ``code``, when given, is the one right exit code, and
    ``error`` text the error line must hold."""

    name: str
    config: dict
    code: int | None = None
    error: str = ""


def _strip(h: int, w: int) -> str:
    return f"strip-{h}x{w}.pgm"


TABLE = [
    Case(f"{preset}-{setting}={value!r}", {"preset": preset, setting: value})
    for preset in PRESETS
    for setting in FLOAT_SETTINGS + INT_SETTINGS
    for value in (FLOAT_EXTREMES if setting in FLOAT_SETTINGS else INT_EXTREMES)
]
STRIPS = [
    Case(f"smoke-{kind}-{h}x{w}",
         {"preset": "smoke", "denoiser": kind, "max_iter": 3, "image": _strip(h, w)}, code=0)
    for h, w in STRIP_SHAPES[:2]
    for kind in ("gaussian", "box")
] + [
    # half-width 108: 1.93e8 copies, and one row of windows is 1.5 GB, so
    # the median must block within the row
    Case("smoke-median-1x4096",
         {"preset": "smoke", "denoiser": "median", "lambda": 7e-4, "max_iter": 1,
          "image": _strip(1, 4096)}, code=0),
    Case("smoke-median-16x4096",
         {"preset": "smoke", "denoiser": "median", "image": _strip(16, 4096)},
         code=1, error="the median denoiser's window"),
]


def _quick(case: Case) -> Case | None:
    """``case`` at 16 x 16, its ``max_iter`` ended by ``delta_tol = 1``;
    None for ``image_size = 4096``, the one accepted size above 64."""
    config = case.config
    if config.get("image_size") == 4096:
        return None
    extra = {"image_size": 16} if "image_size" not in config else {}
    if "max_iter" in config:
        extra["delta_tol"] = 1.0
    return Case(case.name, {**config, **extra})


QUICK = [q for q in map(_quick, TABLE) if q is not None] + STRIPS


def verdict(case: Case, result: dict | None) -> str | None:
    """None if ``result``, the child's record of ``case``, passes; else why
    it does not."""
    if result is None:
        return "not run: the child ended before this case"
    if result["over_budget"]:
        return "over its CPU budget"
    if result["traceback"]:
        return "traceback: " + result["traceback"].strip().splitlines()[-1]
    if result["warnings"]:
        return "warning: " + result["warnings"][0]
    code, err, files = result["code"], result["stderr"], result["files"]
    if code == 0:
        if err:
            return f"exit 0 with stderr {err!r}"
        if missing := OUTPUTS - set(files or ()):
            return f"exit 0 without {sorted(missing)}"
    elif code == 1:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"exit 1 without exactly one error line: {err!r}"
        if files is not None:
            return "exit 1 left its --out directory"
    else:
        return f"exit {code}: {err!r}"
    if case.code is not None and code != case.code:
        return f"exit {code}, want {case.code}: {err.strip()!r}"
    if case.error not in err:
        return f"error line {err.strip()!r} does not hold {case.error!r}"
    return None


def sweep(cases: list[Case], tree: Path | None = None,
          timeout: float | None = None) -> list[tuple]:
    """Run ``cases`` in one child process with ``tree``'s package; each
    case, the child's record of it (None if it never ran) and its
    :func:`verdict`."""
    tree = Path(__file__).resolve().parents[1] if tree is None else tree
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cases.json").write_text(json.dumps([asdict(c) for c in cases]))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            cwd=work, env=env, timeout=timeout, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        results_file = work / "results.jsonl"
        lines = results_file.read_text().splitlines() if results_file.exists() else []
    results = {r["name"]: r for r in map(json.loads, lines)}
    return [(c, results.get(c.name), verdict(c, results.get(c.name))) for c in cases]


class OverBudget(BaseException):
    """The case in progress reached its soft CPU limit."""


def _child() -> None:
    """Run the cases of ``cases.json`` in this process and working
    directory, appending each one's record to ``results.jsonl``."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))
    cases = [Case(**c) for c in json.loads(Path("cases.json").read_text())]
    # the hard limit only backs up the per-case soft limits, which SIGXCPU
    # enforces
    hard = math.ceil(time.process_time()) + 2 * CPU_S * len(cases)
    resource.setrlimit(resource.RLIMIT_CPU, (hard, hard))
    armed = False

    def over_budget(signum, frame):
        nonlocal armed
        if armed:
            armed = False
            raise OverBudget

    signal.signal(signal.SIGXCPU, over_budget)
    from pnpadmm import cli

    for h, w in STRIP_SHAPES:
        pixels = bytes((7 * i + 3 * j) % 256 for i in range(h) for j in range(w))
        Path(_strip(h, w)).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + pixels)
    with open("results.jsonl", "w") as results:
        for case in cases:
            lines = [f"{key} = {value}" for key, value in case.config.items()]
            Path(f"{case.name}.cfg").write_text("\n".join(lines) + "\n")
            argv = ["run", "--config", f"{case.name}.cfg", "--out", case.name]
            out, err = io.StringIO(), io.StringIO()
            record = {"name": case.name, "code": None, "over_budget": False, "traceback": None}
            soft = min(hard, math.ceil(time.process_time()) + CPU_S)
            resource.setrlimit(resource.RLIMIT_CPU, (soft, hard))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        armed = True
                        record["code"] = cli.main(argv)
                except OverBudget:
                    record["over_budget"] = True
                except SystemExit as exc:
                    record["code"] = exc.code
                except Exception:
                    record["traceback"] = traceback.format_exc()
                finally:
                    armed = False
            out_dir = Path(case.name)
            record.update(
                stdout=out.getvalue(), stderr=err.getvalue(),
                warnings=[f"{w.category.__name__}: {w.message}" for w in caught],
                files=sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else None,
            )
            results.write(json.dumps(record) + "\n")
            results.flush()


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        _child()
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true", help="run the tests' subset")
    p.add_argument("--tree", type=Path, help="checkout whose src/ to run")
    args = p.parse_args(argv)
    outcomes = sweep(QUICK if args.quick else TABLE + STRIPS, args.tree)
    for case, _, why in outcomes:
        if why:
            print(f"fails: {case.name}: {why}")
    codes = [r["code"] for _, r, _ in outcomes if r]
    failed = sum(why is not None for *_, why in outcomes)
    print(f"{len(outcomes)} cases: {codes.count(0)} exited 0, {codes.count(1)} exited 1, "
          f"{failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""pnpadmm benchmark: closed-loop restoration workloads through the public CLI.

    python3 benchmarks/run.py --workload deblur-128 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-check

One client (this process) issues ``pnpadmm run`` through
``pnpadmm.cli.main`` and, once it returns, ``pnpadmm analyze`` on every
trace the run wrote; then the next run.  Before timing, peak memory is
measured in a fresh process and one untimed warm-up cycle fills the
caches; set-up is timed in one fresh interpreter per cycle.  Every output
is checked (see ``workloads.py``); a failed check counts the operation as
failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (timings as the 10th percentile of their samples, see
``TIMINGS``); with ``--trace 1`` it holds the per-layer split from a
separate traced run (see ``tracing.py``), whose spans are also written to
``.bench_work/spans-<workload>-seed<n>.csv``.  The lines above it are a
readable table and the environment record.  The program is imported from
``src/`` next to this directory and its thread settings are left as found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

import tracing
from workloads import WORKLOADS, Workload, check_analysis, check_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E_UNITS = {"run_s": "s", "analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "psnr_db": "dB"}
# On a shared host each CPU switches between a fast and a ~1.5x slower state
# for seconds at a time, so the median of a run's timings lands on one mode
# or the other from run to run.  The fastest decile is steady across runs;
# the table prints the median and the upper percentile beside it.
TIMINGS = ("run_s", "analyze_s", "setup_s")
ANALYZE_REPEATS = 10
CHILD_TIMEOUT_S = 120

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import pnpadmm.cli; "
    "print(time.perf_counter() - t0); print(pnpadmm.cli.__file__)"
)
RSS_CODE = """
import contextlib, io, json, resource, sys
from pnpadmm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot proceed (as opposed to a failed operation)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(code: str, *args: str, cwd: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=_child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"child process failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.splitlines()


class CpuRotation:
    """Start consecutive cycles of samples on each CPU in turn.

    Each CPU of a shared host switches between a fast and a slower state
    for seconds at a time, and a thread tends to stay on the CPU it runs
    on, so without this a whole run can sample one slow CPU.  The thread is
    moved to the next CPU and its affinity mask is then restored as found,
    so the command itself (and the threads it starts) may use every CPU.
    """

    def __init__(self):
        self.mask = os.sched_getaffinity(0)
        self._cpus = itertools.cycle(sorted(self.mask))

    def next(self) -> None:
        os.sched_setaffinity(0, {next(self._cpus)})
        os.sched_setaffinity(0, self.mask)


def setup_seconds(work: Path) -> float:
    """Seconds a fresh interpreter spends importing pnpadmm.cli (numpy included)."""
    seconds, path = _child(SETUP_CODE, cwd=work)[-2:]
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported pnpadmm from {path}, not from {SRC}")
    return float(seconds)


class Session:
    """One client issuing CLI commands for one workload, counting failures."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path, clean: np.ndarray):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.clean = clean
        self.config_path = work / "run.cfg"
        workload.write_config(self.config_path)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traces: list[tuple[Path, float]] = []  # (trace.csv, eta) per member
        self.psnr: list[float] = []
        self.cpus = CpuRotation()

    def fail(self, what: str, why) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {why}")

    def _call(self, argv: list[str], command) -> tuple[float, object]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                with command:
                    rc = self.cli.main(argv)
            except Exception as exc:  # a crash of the program is a failed operation
                rc = exc
            elapsed = time.perf_counter() - start
        return elapsed, rc if rc != 0 else None

    def run(self, command=contextlib.nullcontext()) -> float | None:
        """One ``pnpadmm run``; its wall seconds, or None if it failed."""
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.traces = []
        elapsed, err = self._call(self.workload.run_argv(self.config_path, out, self.seed), command)
        if err is not None:
            self.fail("run", err)
            return None
        return elapsed if self._check_run(out) else None

    def _check_run(self, out: Path) -> bool:
        try:
            self.traces, psnr = check_run(self.workload, out, self.clean)
        except Exception as exc:
            self.fail("run output", exc)
            return False
        self.psnr.append(psnr)
        return True

    def analyze(self, index: int, command=contextlib.nullcontext()) -> float | None:
        """One ``pnpadmm analyze`` of trace ``index``; wall seconds or None."""
        out = self.work / f"analysis-{index}"
        (out / "bound_report.txt").unlink(missing_ok=True)
        self.attempted += 1
        trace, eta = self.traces[index]
        elapsed, err = self._call(self.workload.analyze_argv(trace, out, eta), command)
        if err is not None:
            self.fail("analyze", err)
            return None
        try:
            check_analysis(out)
        except Exception as exc:
            self.fail("analyze output", exc)
            return None
        return elapsed

    def peak_rss_mb(self) -> float:
        """Peak resident memory of a fresh process running the run command once."""
        out = self.work / "rss-run"
        argv = self.workload.run_argv(self.config_path, out, self.seed)
        rc, max_kb = json.loads(_child(RSS_CODE, json.dumps(argv), cwd=self.work)[-1])
        self.attempted += 1
        if rc != 0:
            self.fail("run (fresh process)", f"exit {rc}")
        else:
            self._check_run(out)
        shutil.rmtree(out, ignore_errors=True)
        return max_kb / 1024.0

    def cycle(self, analyze_repeats: int) -> tuple[float | None, list[float]]:
        self.cpus.next()
        run_s = self.run()
        analyze_s = [
            t for i in range(len(self.traces)) for _ in range(analyze_repeats)
            if (t := self.analyze(i)) is not None
        ]
        return run_s, analyze_s


def measure(session: Session, seconds: float, quick: bool) -> dict[str, list[float]]:
    """End-to-end samples, untraced."""
    setup_seconds(session.work)  # untimed: first import may compile bytecode
    rss = session.peak_rss_mb()
    repeats = 1 if quick else ANALYZE_REPEATS
    session.cycle(repeats)  # warm-up, untimed
    runs: list[float] = []
    analyses: list[float] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        run_s, analyze_s = session.cycle(repeats)
        if run_s is not None:
            runs.append(run_s)
        analyses += analyze_s
        # one fresh interpreter per cycle, so set-up is sampled across the run
        setup.append(setup_seconds(session.work))
        if time.perf_counter() >= deadline:
            break
    return {
        "run_s": runs,
        "analyze_s": analyses,
        "setup_s": setup,
        "peak_rss_mb": [rss],
        "psnr_db": session.psnr,
    }


def measure_traced(session: Session, seconds: float, quick: bool,
                   spans_path: Path) -> dict[str, float]:
    """Per-layer split from traced commands, plus their overhead.

    Each cycle runs the command once untraced and once traced, so drift in
    the machine's speed affects both sides of ``trace_overhead`` alike; the
    traced run is followed by its members run alone and by the analyses.
    """
    repeats = 1 if quick else ANALYZE_REPEATS
    session.cycle(repeats)  # warm-up, untimed
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    run_cmds: list[str] = []
    solo_cmds: list[str] = []
    analyze_cmds: list[str] = []
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        session.cpus.next()
        if (run_s := session.run()) is not None:
            untraced.append(run_s)
        tracing.instrument(tracer)
        try:
            name = f"run-{i}"
            if (run_s := session.run(tracer.command(name))) is not None:
                traced.append(run_s)
                run_cmds.append(name)
                # the same members again, one at a time: the base of cli.sweep_inflation
                for j, preset in enumerate(tracing.presets_of(tracer.spans, name)):
                    solo = f"solo-{i}-{j}"
                    session.attempted += 1
                    try:
                        with tracer.command(solo):
                            session.cli.run_preset(preset)
                        solo_cmds.append(solo)
                    except Exception as exc:
                        session.fail("solo run_preset", exc)
            for k in range(len(session.traces)):
                for r in range(repeats):
                    name = f"analyze-{i}-{k}-{r}"
                    if session.analyze(k, tracer.command(name)) is not None:
                        analyze_cmds.append(name)
        finally:
            tracer.restore()
        if time.perf_counter() >= deadline:
            break
    if tracer.missing:
        print(f"not traced (absent): {', '.join(sorted(set(tracer.missing)))}", file=sys.stderr)
    if not (untraced and run_cmds and solo_cmds and analyze_cmds):
        raise BenchmarkError(f"no successful traced command to report on: {session.errors}")
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, run_cmds, analyze_cmds, solo_cmds)
    metrics["trace_overhead"] = median(traced) / median(untraced)
    return metrics


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": _git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _reported(name: str, values: list[float]) -> float:
    """The fastest decile of a timing; the median of anything else."""
    return float(np.percentile(values, 10)) if name in TIMINGS else median(values)


def _percentile_line(values: list[float]) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (0.99, 0.9, 0.75):
        if len(values) * (1 - q) >= 10:
            return f"p{round(q * 100)}={float(np.quantile(values, q)):.6g}"
    return ""


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  quick: bool = False) -> tuple[dict, list[str]]:
    """Measure one workload; the result object and the readable table."""
    from pnpadmm import cli
    from pnpadmm.presets import synthetic_image

    clean = synthetic_image(workload.size).to_array()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    session = Session(cli, workload, seed, work, clean)
    try:
        lines = [f"workload {workload.name}: seed {seed}, closed loop, one client, "
                 f"{'traced' if trace else 'untraced'}"]
        if trace:
            spans_path = ROOT / ".bench_work" / f"spans-{workload.name}-seed{seed}.csv"
            layers = measure_traced(session, seconds, quick, spans_path)
            lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
            units = {m["name"]: m["unit"] for m in _targets()}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
            lines += [f"  {k:28s} {v:14.6g} {units[k]}" for k, v in layers.items()]
        else:
            samples = measure(session, seconds, quick)
            if not all(samples.values()):
                raise BenchmarkError(f"every operation of some metric failed: {session.errors}")
            values = {k: _reported(k, v) for k, v in samples.items()}
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            lines += [
                f"  {k:12s} {values[k]:12.6g} {E2E_UNITS[k]:3s} n={len(v)} "
                f"median={median(v):.6g} {_percentile_line(v)}"
                for k, v in samples.items()
            ]
            lines.append(
                f"  {'error_rate':12s} {session.failed / session.attempted:12.6g} "
                f"{'ratio':5s} ({session.failed} failed of {session.attempted} operations)"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    lines += [f"  failure: {e}" for e in session.errors]
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return result, lines


def _targets() -> list[dict]:
    return json.loads((HERE / "targets.json").read_text())["per_layer"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkError(f"self-check: {message}")


def self_check() -> None:
    """Every workload at 32x32 and 20 iterations, once untraced and once traced;
    each must pass its checks and report exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = _targets()
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    _require(
        [{k: m[k] for k in ("name", "unit", "better")} for m in targets] == spec["per_layer"],
        "per_layer in BENCHMARK.json differs from targets.json",
    )
    _require({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS, "end_to_end units")
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS.values():
        tiny = workload.scaled(32, 20)
        for trace, expected in ((False, e2e_names), (True, layer_names)):
            result, lines = run_benchmark(tiny, seed=1, seconds=0, trace=trace, quick=True)
            print("\n".join(lines))
            _require(result["correct"], f"{workload.name}: outputs failed their checks")
            _require(
                set(result["metrics"]) == expected,
                f"{workload.name}: metric names differ: "
                f"{sorted(set(result['metrics']) ^ expected)}",
            )
    print("self-check ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny sizes, one repetition, every workload and mode")
    args = parser.parse_args()
    if not (SRC / "pnpadmm" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.self_check:
            self_check()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        print("env " + json.dumps(environment()))
        result, lines = run_benchmark(
            WORKLOADS[args.workload], args.seed % 2**32, args.seconds, bool(args.trace)
        )
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the checks on what the program writes.

Each workload is one ``pnpadmm run`` command (a config file plus flags)
followed by ``pnpadmm analyze`` on every trace the run wrote.  The solver
parameters the checks depend on (rho0, gamma, eta) are pinned in the
config, at the preset defaults, so the checks re-derive the penalty rule
from values the benchmark itself chose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    sweep: tuple[float, ...] = ()

    @property
    def size(self) -> int:
        return int(self.config["image_size"])

    @property
    def max_iter(self) -> int:
        return int(self.config["max_iter"])

    @property
    def etas(self) -> tuple[float, ...]:
        return self.sweep or (float(self.config["eta"]),)

    def scaled(self, size: int, max_iter: int) -> "Workload":
        return replace(self, config={**self.config, "image_size": size, "max_iter": max_iter})

    def run_argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        argv = ["run", "--config", str(config_path), "--out", str(out_dir), "--seed", str(seed)]
        if self.sweep:
            argv += ["--sweep", ",".join(f"{v:g}" for v in self.sweep)]
        return argv

    def analyze_argv(self, trace: Path, out_dir: Path, eta: float) -> list[str]:
        # the run's own eta and gamma, as a user holding run_config.txt would
        # pass them: inferring eta from the trace can fail validation by one
        # rounding step (seen on deblur-128, seed 32)
        return ["analyze", "--trace", str(trace), "--out", str(out_dir),
                "--eta", repr(eta), "--gamma", str(self.config["gamma"])]

    def write_config(self, path: Path) -> None:
        path.write_text("".join(f"{k} = {v}\n" for k, v in self.config.items()))


WORKLOADS = {
    # prox-bound: ~10 blur round trips per CG prox solve; single-condition
    # tail, so analyze takes the geometric-bound path
    "deblur-128": Workload(
        "deblur-128",
        {"preset": "deblur", "image_size": 128, "max_iter": 100, "denoiser": "gaussian",
         "rho0": 1.0, "gamma": 1.05, "eta": 0.6},
    ),
    # denoiser- and bookkeeping-bound: the Identity operator makes the prox
    # two CG iterations, so a prox change is bypassed here
    "denoise-256": Workload(
        "denoise-256",
        {"preset": "smoke", "image_size": 256, "max_iter": 100, "denoiser": "gaussian",
         "noise_sigma": 0.02, "delta_tol": 0, "rho0": 1.0, "gamma": 1.05, "eta": 0.6},
    ),
    # the only concurrent path (two solver threads) and the only Downsample
    # operator; alternating traces send analyze down the PGS path
    "sweep-superres-128": Workload(
        "sweep-superres-128",
        {"preset": "superres", "image_size": 128, "max_iter": 100,
         "rho0": 5.0, "gamma": 1.2, "eta": 0.6},
        sweep=(0.6, 0.95),
    ),
}


class CheckError(Exception):
    """An output of the program is missing or wrong."""


def read_trace(path: Path) -> list[tuple[int, float, float, str]]:
    """(iter, delta, rho, condition) rows of a trace CSV."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",")[:5] != ["iter", "delta", "rho", "sigma", "condition"]:
        raise CheckError(f"{path}: unexpected header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append((int(parts[0]), float(parts[1]), float(parts[2]), parts[4]))
    return rows


def check_penalty_rule(rows, rho0: float, gamma: float, eta: float) -> None:
    """C1 iff delta_k >= eta * delta_{k-1}, then rho is multiplied by gamma;
    on C2 rho is held.  The first iteration has no flag and keeps rho0."""
    first = rows[0]
    if first[3] != "NA" or first[2] != rho0:
        raise CheckError(f"iteration 1: expected NA with rho {rho0}, got {first[3]} {first[2]}")
    for prev, cur in zip(rows, rows[1:]):
        c1 = cur[1] >= eta * prev[1]
        want = ("C1", gamma * prev[2]) if c1 else ("C2", prev[2])
        if (cur[3], cur[2]) != want:
            raise CheckError(
                f"iteration {cur[0]}: penalty rule gives {want}, trace has {(cur[3], cur[2])}"
            )


def read_pgm(path: Path) -> np.ndarray:
    """Pixels of an 8-bit binary PGM without comments, scaled to [0, 1]."""
    data = path.read_bytes()
    tokens = data.split(maxsplit=4)
    if len(tokens) < 5 or tokens[0] != b"P5" or tokens[3] != b"255":
        raise CheckError(f"{path}: not an 8-bit binary PGM")
    width, height = int(tokens[1]), int(tokens[2])
    payload = data[len(data) - width * height:]
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width) / 255.0


def psnr_db(restored: np.ndarray, clean: np.ndarray) -> float:
    mse = float(np.mean((restored - clean) ** 2))
    return 10.0 * math.log10(1.0 / mse)


def _read_keyvalues(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def check_run(
    workload: Workload, out_dir: Path, clean: np.ndarray
) -> tuple[list[tuple[Path, float]], float]:
    """Check every member a run wrote; return (trace, eta) per member and the
    lowest PSNR."""
    traces = sorted(out_dir.rglob("trace.csv"))
    if len(traces) != len(workload.etas):
        raise CheckError(f"expected {len(workload.etas)} traces, found {len(traces)}")
    seen = []
    worst = math.inf
    for trace in traces:
        member = trace.parent
        eta = float(_read_keyvalues(member / "run_config.txt")["eta"])
        seen.append(eta)
        rows = read_trace(trace)
        if len(rows) != workload.max_iter:
            raise CheckError(f"{trace}: {len(rows)} rows, expected {workload.max_iter}")
        cfg = workload.config
        check_penalty_rule(rows, float(cfg["rho0"]), float(cfg["gamma"]), eta)
        restored = read_pgm(member / "restored.pgm")
        if restored.shape != clean.shape:
            raise CheckError(f"{member}: restored image {restored.shape}, input {clean.shape}")
        worst = min(worst, psnr_db(restored, clean))
    if sorted(seen) != sorted(workload.etas):
        raise CheckError(f"member etas {seen}, expected {list(workload.etas)}")
    return list(zip(traces, seen)), worst


def check_analysis(out_dir: Path) -> None:
    report = _read_keyvalues(out_dir / "bound_report.txt")
    if report.get("bound_holds") != "True":
        raise CheckError(f"{out_dir}: bound_holds = {report.get('bound_holds')}")
    if not float(report["cauchy_tail_bound"]) < float(report["cauchy_epsilon"]):
        raise CheckError(f"{out_dir}: cauchy tail bound not below epsilon")

"""In-memory spans around the pnpadmm layer boundaries, for the traced run.

The program itself is not changed: :func:`instrument` replaces, for the
length of a traced run, each public function at the name its callers look
it up under (``solver.prox_x_update``, ``cli.run_preset``, ``as_vector`` as
bound in ``linalg``/``fidelity``/``denoisers``, ``apply``/``apply_adjoint``
on every ``ForwardOperator`` subclass, ...) with a wrapper that records one
span per call.  A span carries its name, start, end, parent span and the id
of the command it belongs to; calls made on a worker thread of a sweep get
their own command id, ``<command>/<thread name>``.  Spans stay in memory
until :meth:`Tracer.write` puts them in a CSV file at the end of the run.

:func:`layer_metrics` turns the spans of the run and analyze commands into
the ``<module>.<metric>`` numbers the benchmark reports.  A layer's time is
the summed duration of its spans; a self time is a span's duration minus
the union of the intervals its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from statistics import median
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    command: str
    name: str
    start: float
    end: float
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: tuple[int, str] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self) -> tuple[int | None, str]:
        stack = self._stack()
        if stack:
            return stack[-1]
        if self._root is not None:
            # first call on a worker thread started by the command (a sweep
            # member): its own command id, parented to the command's root
            root_id, command = self._root
            return root_id, f"{command}/{threading.current_thread().name}"
        return None, "untracked"

    @contextlib.contextmanager
    def command(self, command: str):
        """Root span ``cli.main`` around one CLI command issued by the benchmark."""
        sid = next(self._ids)
        stack = self._stack()
        self._root = (sid, command)
        stack.append((sid, command))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, None, command, "cli.main", start, end))

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, command = tracer._context()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append((sid, command))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = info(result, args) if info is not None else None
            tracer.spans.append(Span(sid, parent, command, name, start, end, extra))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, info: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a module global or a class's own method)."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, info))
        self._patched.append((owner, attr, original))

    def write(self, path) -> None:
        """All spans as CSV; times are perf_counter seconds."""
        with open(path, "w") as f:
            f.write("id,parent,command,name,start_s,end_s,info\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                info = s.info if isinstance(s.info, (int, str)) else ""
                f.write(f"{s.id},{parent},{s.command},{s.name},{s.start:.9f},{s.end:.9f},{info}\n")

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    from pnpadmm import cli, denoisers, fidelity, fileio, linalg, presets, sequences, solver

    p = tracer.patch
    # cli: the calls a run or analyze command makes into the other modules
    p(cli, "run_preset", "presets.run_preset", info=lambda res, args: args[0])
    p(cli, "estimate_gradient_bound", "fidelity.gradient_bound")
    p(cli, "estimate_denoiser_bound_constant", "denoisers.bound_estimate")
    p(cli, "fixed_point_residual", "solver.fixed_point")
    for fn in (
        "classify_case",
        "estimate_growth_coefficient",
        "construct_s3_bound",
        "construct_s12_bound",
        "verify_bound",
    ):
        p(cli, fn, "sequences.envelope")
    p(cli, "cauchy_index", "sequences.cauchy", info=lambda res, args: res.k_index)
    p(sequences.ConditionTrace, "validate", "sequences.validate")
    # presets: degradation and the hand-off to the solver loop
    p(presets, "degrade", "presets.degrade")
    p(presets, "run", "solver.run")
    # solver: one iteration and the three layers it calls
    p(solver, "step", "solver.step")
    p(solver, "prox_x_update", "fidelity.prox")
    p(solver, "denoise", "denoisers.denoise")
    p(solver, "metric_distance", "linalg.metric")
    p(solver, "update_rho", "solver.update_rho", info=lambda res, args: str(res[1]))
    # fidelity: objective value and every operator application
    p(fidelity.FidelityTerm, "value", "fidelity.value")
    for cls in fidelity.ForwardOperator.__subclasses__():
        p(cls, "apply", "fidelity.apply")
        p(cls, "apply_adjoint", "fidelity.adjoint")
    for module in (linalg, fidelity, denoisers):
        p(module, "as_vector", "linalg.as_vector")
    # fileio: outputs of run, input of analyze
    p(fileio, "write_trace_csv", "fileio.write_trace",
      info=lambda res, args: os.path.getsize(args[1]))
    p(fileio, "save_image", "fileio.write")
    p(fileio, "write_config", "fileio.write")
    p(fileio, "read_trace_csv", "fileio.read")


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the union of the children's intervals (they may overlap
    when sweep members run on concurrent threads)."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def _by_command(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for s in spans:
        grouped.setdefault(s.command.split("/")[0], []).append(s)
    return grouped


def _run_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one run command (all sweep members included)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def self_total(name):
        return sum(_self_time(s, children.get(s.id, [])) for s in spans if s.name == name)

    prox_calls = count("fidelity.prox")
    apply_in_prox = sum(
        1 for s in spans
        if s.name == "fidelity.apply" and s.parent in by_id
        and by_id[s.parent].name == "fidelity.prox"
    )
    steps_in_run = sum(
        1 for s in spans
        if s.name == "solver.step" and s.parent in by_id
        and by_id[s.parent].name == "solver.run"
    )
    return {
        "fidelity.prox_s": total("fidelity.prox"),
        "fidelity.prox_calls": prox_calls,
        "fidelity.apply_calls": count("fidelity.apply"),
        "fidelity.adjoint_calls": count("fidelity.adjoint"),
        "fidelity.op_s": total("fidelity.apply", "fidelity.adjoint"),
        "fidelity.matvecs_per_prox": apply_in_prox / prox_calls if prox_calls else 0.0,
        "fidelity.value_s": total("fidelity.value"),
        "fidelity.gradient_bound_s": total("fidelity.gradient_bound"),
        "denoisers.denoise_s": total("denoisers.denoise"),
        "denoisers.denoise_calls": count("denoisers.denoise"),
        "denoisers.bound_estimate_s": total("denoisers.bound_estimate"),
        "linalg.metric_s": total("linalg.metric"),
        "linalg.as_vector_calls": count("linalg.as_vector"),
        "linalg.as_vector_s": total("linalg.as_vector"),
        "solver.self_s": self_total("solver.run"),
        "solver.step_self_s": self_total("solver.step"),
        "solver.penalty_s": total("solver.update_rho"),
        "solver.fixed_point_s": total("solver.fixed_point"),
        "solver.iterations": steps_in_run,
        "solver.c1_count": sum(
            1 for s in spans if s.name == "solver.update_rho" and s.info == "C1"
        ),
        "presets.degrade_s": total("presets.degrade"),
        "fileio.write_s": total("fileio.write", "fileio.write_trace"),
        "fileio.trace_bytes": sum(s.info for s in spans if s.name == "fileio.write_trace"),
        "cli.self_s": self_total("cli.main"),
    }


def _analyze_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one analyze command."""

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    return {
        "fileio.read_s": total("fileio.read"),
        "sequences.validate_s": total("sequences.validate"),
        "sequences.envelope_s": total("sequences.envelope"),
        "sequences.cauchy_s": total("sequences.cauchy"),
        "sequences.cauchy_k": sum(s.info for s in spans if s.name == "sequences.cauchy"),
    }


def layer_metrics(
    spans: list[Span],
    run_commands: list[str],
    analyze_commands: list[str],
    solo_commands: list[str],
) -> dict[str, float]:
    """Median over commands of each per-layer metric.

    ``cli.sweep_inflation`` divides the median duration of ``run_preset``
    inside the run commands (``cli.sweep_member_s``) by the median duration
    of the same presets run one at a time afterwards, in the solo commands
    (``cli.sweep_solo_s``).  Outside a sweep the ratio compares a run inside
    the CLI command with the same run repeated alone.
    """
    grouped = _by_command(spans)
    per_run = [_run_metrics(grouped[c]) for c in run_commands]
    per_analyze = [_analyze_metrics(grouped[c]) for c in analyze_commands]
    out = {name: median(m[name] for m in per_run) for name in per_run[0]}
    out.update({name: median(m[name] for m in per_analyze) for name in per_analyze[0]})

    def preset_runs(commands):
        return [
            s.duration for c in commands for s in grouped[c]
            if s.name == "presets.run_preset"
        ]

    inside = median(preset_runs(run_commands))
    alone = median(preset_runs(solo_commands))
    out["cli.sweep_member_s"] = inside
    out["cli.sweep_solo_s"] = alone
    out["cli.sweep_inflation"] = inside / alone
    return out


def presets_of(spans: list[Span], command: str) -> list:
    """Preset arguments of the run_preset calls made by one command."""
    return [
        s.info for s in spans
        if s.name == "presets.run_preset" and s.command.split("/")[0] == command
    ]

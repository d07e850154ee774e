"""The benchmark's tracer still finds every layer it times.

benchmarks/tracing.py wraps functions at the names their callers look them
up under.  A refactor that moves one of those names makes the tracer skip
it silently, and the per-layer metric built on it reads 0; this test makes
that a failure.
"""

import importlib.util
from pathlib import Path

from pnpadmm import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_a_run_and_an_analyze(tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "run.cfg"
    config.write_text("preset = deblur\nimage_size = 16\nmax_iter = 10\n")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        with tracer.command("run"):
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        with tracer.command("analyze"):
            argv = ["analyze", "--trace", str(tmp_path / "r" / "trace.csv"),
                    "--out", str(tmp_path / "a")]
            assert cli.main(argv) == 0
    finally:
        tracer.restore()
    # as_vector left the denoisers module long ago; every other name is found
    assert sorted(set(tracer.missing)) == ["pnpadmm.denoisers.as_vector"]
    names = {span.name for span in tracer.spans}
    assert {"sequences.validate", "fileio.write_trace", "fileio.read"} <= names
    sizes = [span.info for span in tracer.spans if span.name == "fileio.write_trace"]
    assert sizes and all(size > 0 for size in sizes)

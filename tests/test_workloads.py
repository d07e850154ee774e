"""The benchmark's own output checks hold on every workload, at a small size.

benchmarks/workloads.py checks what a run and an analyze write: the penalty
rule in trace.csv, the eta of each sweep member, the size of the restored
image, bound_holds and the Cauchy tail.  A change that breaks one of them
fails here, not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pnpadmm import cli
from pnpadmm.presets import synthetic_image

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks the module up in sys.modules while it builds a class
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_workload_passes_the_benchmark_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name].scaled(32, 20)
    config = tmp_path / "run.cfg"
    workload.write_config(config)
    out = tmp_path / "run"
    assert cli.main(workload.run_argv(config, out, seed=1)) == 0
    clean = synthetic_image(workload.size).to_array()
    traces, _ = workloads.check_run(workload, out, clean)
    assert len(traces) == len(workload.etas)
    for index, (trace, eta) in enumerate(traces):
        analysis = tmp_path / f"analysis-{index}"
        assert cli.main(workload.analyze_argv(trace, analysis, eta)) == 0
        workloads.check_analysis(analysis)

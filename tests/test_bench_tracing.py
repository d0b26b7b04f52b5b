"""bench/tracing.py finds and times the names it wraps in bellkit's namespaces.

A rename in src/ that the tracer does not follow would make
`bench/run.py --trace 1` crash or record nothing for a layer.
"""
import importlib.util
from pathlib import Path

from bellkit import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_the_tensor_kernel_of_a_noisy_spec(capsys):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["tensor", "--state", "noise:v=0.7(ghz:N=3,alpha=0.3)"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith('{\n  "full_components"')
    names = [span[0] for span in tracer.spans]
    assert names.count("qstate.correlation_tensor") == 1
    assert {"cli.main", "families.ghz_state"} <= set(names)
    assert not hasattr(cli.correlation_tensor, "__wrapped__")

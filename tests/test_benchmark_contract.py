"""What the benchmark in `perfbench/` needs from the package.

The benchmark's own smoke test runs outside tier-1, so a change to the
package could break the benchmark unnoticed.  These tests load its span
table and workloads by file path and run the in-process workloads at their
smoke size.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_layer_exists():
    for module, attribute, _ in _load("spans").TRACED:
        assert hasattr(importlib.import_module(f"cvwitness.{module}"), attribute), \
            f"cvwitness.{module}.{attribute}"


@pytest.mark.parametrize("name", ["gaussian_batch", "fock_oracle", "nongauss_moments"])
def test_smoke_items_pass_their_checks(workloads, name):
    """Every item returns an output its check accepts, or raises one of the
    refusals it lists; the post-loop checks find nothing wrong."""
    workload = getattr(workloads, name)(seed=3, smoke=True)
    assert workload.items
    for item in workload.items:
        try:
            out = item.run()
        except item.refusals:
            continue
        message = item.check(out)
        assert message is None, f"{item.id}: {message}"
    assert workload.post() == []

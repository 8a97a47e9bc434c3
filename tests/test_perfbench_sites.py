"""The benchmark's tracing sites resolve in the library it patches.

perfbench/spans.py wraps functions by module attribute, so a renamed or
dropped import in the library only breaks a traced benchmark run. This
reads the site list from that file and checks every entry in milliseconds.
"""

import importlib.util
from pathlib import Path

import ktboost

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_site_resolves():
    sites = _load_spans()._sites()
    assert sites
    for module, attr, name, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"


def test_split_backend_name_exists():
    # perfbench/run.py imports it for the provenance line of every run
    assert ktboost.split_backend_name() == "numpy"

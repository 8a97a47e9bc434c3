"""The benchmark's tracing sites resolve, and its smoke mode passes.

perfbench/spans.py wraps functions by module attribute, so a renamed or
dropped import in the library only breaks a traced benchmark run. This
reads the site list from that file and checks every entry in milliseconds.
The smoke mode checks every persistence round trip the benchmark checks,
so a model format change that breaks one fails here too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import ktboost

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_benchmark_smoke_mode_passes():
    # every workload at reduced size, untraced and traced; about 20 s
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr

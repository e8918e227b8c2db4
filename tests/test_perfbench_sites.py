"""perfbench traces rvol by swapping wrappers in at rvol's lookup sites.

A renamed site, or a renamed parameter that a span hook binds, would
otherwise only fail the benchmark's own self-test.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_symbol_installs(spans):
    sites = [(spans._resolve_owner(path), attr) for path, attr, _, _ in spans.SPANS]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in sites] == originals


def test_hooked_functions_keep_the_bound_parameters(spans):
    binds = {
        spans._engine_hook: {"kernel"},
        spans._truncate_hook: {"kernel"},
        spans._bergomi_hook: {"kernel", "normals"},
    }
    for path, attr, name, hook in spans.SPANS:
        if hook is None:
            continue
        if "_bind(" in inspect.getsource(hook):
            assert hook in binds, f"{hook.__name__} binds parameters this test does not list"
        fn = getattr(spans._resolve_owner(path), attr)
        missing = binds.get(hook, set()) - set(inspect.signature(fn).parameters)
        assert not missing, f"{path}.{attr} ({name}) lacks {sorted(missing)}"

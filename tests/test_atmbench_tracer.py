"""The names the benchmark's tracer wraps exist, with the arguments it reads.

``atmbench/tracer.py`` patches ``repro`` functions by module and name
(its ``BOUNDARIES`` and ``ROOTS``, plus ``resolve_box``,
``FleetExecutor.imap`` and ``_run_chunk``), and its count functions read
the registry fitters' arguments by position or keyword.  A renamed or
re-shaped target makes ``install()`` raise or a count read the wrong
argument, which otherwise only a traced benchmark run would show.  The
tracer module is loaded from its file, read-only; nothing is patched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "atmbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("atmbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    """Every ``(module, attribute path)`` that ``install()`` patches."""
    targets = [(module, path) for module, path, _ in tracer.BOUNDARIES.values()]
    targets += list(tracer.ROOTS.values())
    targets += [
        ("repro.store.shards", "resolve_box"),
        ("repro.core.executor", "FleetExecutor.imap"),
        ("repro.core.executor", "_run_chunk"),
    ]
    return targets


def test_every_patched_name_resolves(tracer):
    missing = []
    for module_name, path in _targets(tracer):
        module = importlib.import_module(module_name)
        if "." in path:
            # A method is patched through its class's own __dict__.
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(cls.__dict__.get(attr))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"tracer targets that no longer exist: {missing}"


@pytest.mark.parametrize(
    "name, params",
    [
        ("fit_temporal_fleet_batch", ["name", "history_groups", "period"]),
        ("fit_temporal_batch", ["name", "histories", "period"]),
        ("fit_temporal_batch_warm", ["name", "histories", "period", "warm"]),
    ],
)
def test_registry_fitters_keep_the_arguments_the_counts_read(name, params):
    """The counts read the histories as ``args[1]`` and ``warm`` by keyword."""
    registry = importlib.import_module("repro.prediction.registry")
    signature = inspect.signature(getattr(registry, name)).parameters.values()
    assert [p.name for p in signature] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in signature)

"""The bench tracer (``bench/spans.py``) wraps beeloop functions by name and
its counter hooks read their bound arguments; a rename breaks ``--trace 1``."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TARGETS = [(mod, name, hook) for mod, names in SPANS.TRACED.items()
           for name, hook in names.items()]


def arguments_read(hook) -> set[str]:
    """Names a hook reads from the call's bound arguments."""
    return set(re.findall(r"""bound(?:\[|\.get\()["'](\w+)["']""", inspect.getsource(hook)))


def test_hooks_read_the_arguments_they_are_known_to_read():
    hooks = SPANS.TRACED
    assert arguments_read(hooks["scouting"]["simulate_at_checkpoints"]) == {
        "params", "checkpoints", "collect_trajectories"
    }
    assert arguments_read(hooks["cli"]["cmd_report"]) == {"run_dir"}
    writers = [hook for names in hooks.values() for name, hook in names.items()
               if name.startswith("write_")]
    assert writers and all(arguments_read(hook) == {"path"} for hook in writers)


@pytest.mark.parametrize("mod,name,hook", TARGETS, ids=[f"{m}.{n}" for m, n, _ in TARGETS])
def test_traced_function_exists_with_the_hooked_parameters(mod, name, hook):
    fn = getattr(importlib.import_module(f"beeloop.{mod}"), name, None)
    assert callable(fn), f"beeloop.{mod}.{name}"
    if hook is not None:
        assert arguments_read(hook) <= set(inspect.signature(fn).parameters)

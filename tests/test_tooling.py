"""The benchmark's tracer still finds every name it wraps in binloc."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_tracing():
    sys.path.insert(0, str(PERFBENCH))  # as perfbench/run.py imports it
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_uninstalls_on_current_modules():
    tracing = _import_tracing()
    owners = [importlib.import_module(f"binloc.{m}")
              for m in (*tracing.LAYERS, "config", "util")]
    for layer, classes in tracing.METHODS.items():
        module = importlib.import_module(f"binloc.{layer}")
        owners += [getattr(module, name) for name in classes]
    before = {(owner, attr): value for owner in owners
              for attr, value in list(vars(owner).items())}

    tracer = tracing.Tracer()
    tracer.install()  # raises if a wrapped method is gone
    try:
        wrapped = {f"{owner.__name__}.{attr}" for (owner, attr), value in before.items()
                   if vars(owner)[attr] is not value}
    finally:
        tracer.uninstall()

    for classes in tracing.METHODS.values():
        for cls, methods in classes.items():
            assert {f"{cls}.{m}" for m in methods} <= wrapped
    # the step timer ends on zero_grads; integrate has its own metric
    assert {"binloc.optim.zero_grads", "binloc.model.integrate",
            "binloc.train.train", "binloc.cli.main"} <= wrapped
    after = {(owner, attr): value for owner in owners
             for attr, value in list(vars(owner).items())}
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key

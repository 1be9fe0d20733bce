"""The benchmark's tracer still finds every name it wraps in binloc and reads
the tape as perfbench/run.py expects; binloc exports only what it uses."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

import binloc
from binloc import engine as E
from binloc.config import desk_profile
from binloc.losses import LOSS_KINDS, LossConfig, make_loss
from binloc.model import BinauralTransformer

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


def test_traced_desk_step_counts_63_tape_nodes():
    # perfbench/run.py fails a traced run whose train steps record differing
    # node counts; the tracer reads len(graph) after backward has run
    tracer = _import_tracing().Tracer()
    tracer.install()
    try:
        cfg = desk_profile()
        model = BinauralTransformer(cfg.model, seed=0)
        x = np.zeros((2, cfg.model.height, cfg.model.width))
        with E.Graph() as g:
            pred = model.forward(x, x, rng=np.random.default_rng(0))
            loss = make_loss(cfg.loss)(np.ones((2, 2)), pred)
        g.backward(loss)
        for kind in LOSS_KINDS:
            make_loss(LossConfig(kind))(np.ones((2, 2)), E.Tensor(np.ones((2, 2))))
    finally:
        tracer.uninstall()
    assert [n for _, _, n in tracer.samples["engine.tape_nodes"]] == [63]
    assert all(p.grad is not None for p in model.parameters())
    # losses.loss_ms reads these span names: every kind's loss runs under one
    loss_spans = [s[0] for s in tracer.spans if s[0].startswith("losses.")]
    assert len(loss_spans) == 1 + len(LOSS_KINDS)
    assert set(loss_spans) <= {"losses.mse_loss", "losses.ad_loss",
                               "losses.hybrid_loss"}
    # engine.op_ms counts each op's own span, so no op may run inside another
    ops = {f"engine.{name}" for name in E.__all__
           if inspect.isfunction(getattr(E, name))}
    spans = tracer.spans
    op_spans = [s for s in spans if s[0] in ops]
    # each of the 9 blocks runs its attention sublayer and its fc1 with its
    # layer norm as one op each
    assert sum(s[0] == "engine.attention" for s in op_spans) == 9
    assert sum(s[0] == "engine.norm_linear" for s in op_spans) == 9
    nested = [(s[0], spans[s[3]][0]) for s in op_spans
              if s[3] >= 0 and spans[s[3]][0].startswith("engine.")]
    assert nested == []


# the paper's MSE and AD objectives by name: README says why they stay,
# though training reaches both through ``hybrid_loss``
UNCALLED_EXPORTS = {"losses.mse_loss", "losses.ad_loss"}


def _defines(stmt, name):
    """Whether top-level statement ``stmt`` defines ``name``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in stmt.targets)


def test_every_exported_name_has_a_user_in_src():
    # a name in a module's __all__ must be read somewhere in src/binloc other
    # than in its own definition; the tracer wraps whatever __all__ lists
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(Path(binloc.__file__).parent.glob("*.py"))}

    def used(name, home):
        return any(
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            for module, tree in trees.items() for stmt in tree.body
            if not (module == home and _defines(stmt, name))
            for node in ast.walk(stmt))

    unused = {f"{module}.{name}"
              for module, tree in trees.items() for stmt in tree.body
              if _defines(stmt, "__all__")
              for name in ast.literal_eval(stmt.value)
              if not used(name, module)}
    assert unused == UNCALLED_EXPORTS

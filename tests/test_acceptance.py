"""Acceptance suite: one test per release criterion, cheap to heavy.

Each test prints a single ``[criterion N] ... PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and then asserts. The last three
criteria train desk-profile models and dominate the runtime.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from binloc import engine as E
from binloc import spatial as S
from binloc.config import desk_profile
from binloc.data import load_samples
from binloc.frontend import CANONICAL, Waveform, binaural_spectrogram
from binloc.losses import ad_loss, hybrid_loss, mse_loss
from binloc.metrics import bh_adjust, evaluate, paired_t
from binloc.model import BinauralTransformer, ModelConfig, patch_counts
from binloc.rollout import bast_rollout
from binloc.train import train, run_env_transfer
from binloc.metrics import write_overall, write_per_azimuth, per_azimuth

from helpers import max_rel_err


def _report(number: int, name: str, ok: bool, details: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({details})" if details else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")
    return ok


def _pred64(data):
    return E.parameter(np.asarray(data, dtype=np.float64), dtype=np.float64)


# -- corpora shared by the training criteria ---------------------------------


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    """8 azimuths x 16 sources, anechoic."""
    root = tmp_path_factory.mktemp("overfit")
    kinds = list(S.SOURCE_KINDS)
    sources = {f"s{i:02d}": S.make_source(kinds[i % 4], seed=1000 + i)
               for i in range(16)}
    azimuths = (0, 40, 90, 130, 180, 220, 270, 310)
    S.build_dataset(sources, azimuths, {"AE": S.anechoic_scene()},
                    ratio=0.75, seed=5, out_dir=root)
    return root / "manifest.jsonl"


@pytest.fixture(scope="module")
def transfer_corpus(tmp_path_factory):
    """8 azimuths x 8 pool sources x both environments + held-out test sources."""
    root = tmp_path_factory.mktemp("transfer")
    kinds = list(S.SOURCE_KINDS)
    sources = {f"s{i:02d}": S.make_source(kinds[i % 4], seed=2000 + i)
               for i in range(8)}
    test_sources = {f"t{i:02d}": S.make_source(kinds[i % 4], seed=3000 + i)
                    for i in range(4)}
    azimuths = (0, 40, 90, 130, 180, 220, 270, 310)
    S.build_dataset(sources, azimuths,
                    {"AE": S.anechoic_scene(), "RV": S.reverberant_scene()},
                    ratio=0.75, seed=6, out_dir=root,
                    test_sources=test_sources)
    return root / "manifest.jsonl"


def test_criterion_01_patch_count_oracle():
    t0 = time.time()
    mismatches = 0
    for height, width in itertools.product(range(16, 65), repeat=2):
        for stride in range(1, 17):
            grid = patch_counts(height, width, 16, stride)
            n_h = 1
            while (n_h - 1) * stride + 16 < height:
                n_h += 1
            n_t = 1
            while (n_t - 1) * stride + 16 < width:
                n_t += 1
            if (grid.n_h, grid.n_t) != (n_h, n_t):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert _report(1, "patch formula equals sliding-window enumeration", ok,
                   f"{49 * 49 * 16} cases, {mismatches} mismatches, "
                   f"{elapsed:.1f}s")


def test_criterion_02_canonical_geometry():
    grid = patch_counts(129, 61, 16, 6)
    cfg = ModelConfig(dim=64, heads=4, mlp_dim=64, layers=1, dropout=0.0,
                      integration="sub")
    model = BinauralTransformer(cfg, seed=0)
    rng = np.random.default_rng(0)
    _, capture = model.forward_with_attention(
        rng.standard_normal((1, 129, 61)), rng.standard_normal((1, 129, 61)))
    shapes = {a.shape[-2:] for group in (capture.left, capture.right,
                                         capture.center) for a in group}
    ok = grid.n_patches == 180 and shapes == {(180, 180)}
    assert _report(2, "canonical config yields 180 patches and 180x180 attention",
                   ok, f"grid {grid.n_h}x{grid.n_t}, attention {shapes}")


def test_criterion_03_parameter_budgets():
    # counted from shapes: every parameter is a read-only broadcast zero
    counts = {}
    for shared, integration in ((False, "sub"), (True, "sub"),
                                (False, "concat"), (True, "concat")):
        model = BinauralTransformer(
            ModelConfig(shared=shared, integration=integration),
            init=lambda name, shape, fill: np.broadcast_to(np.float32(0), shape))
        counts[(shared, integration)] = model.count_parameters()
    nsp = counts[(False, "sub")]
    sp = counts[(True, "sub")]
    assert (nsp, sp) == (57_245_698, 38_077_442)
    dev_nsp = abs(nsp - 57_000_000) / 57_000_000
    dev_sp = abs(sp - 38_000_000) / 38_000_000
    ok = dev_nsp <= 0.05 and dev_sp <= 0.05 and sp < nsp
    assert _report(
        3, "trainable budgets near 57M (non-shared) and 38M (shared)", ok,
        f"non-shared {nsp / 1e6:.2f}M ({dev_nsp:.1%} off), "
        f"shared {sp / 1e6:.2f}M ({dev_sp:.1%} off); concat reported "
        f"ungated: {counts[(False, 'concat')] / 1e6:.1f}M / "
        f"{counts[(True, 'concat')] / 1e6:.1f}M")


def test_criterion_04_full_model_gradient_check():
    t0 = time.time()
    cfg = ModelConfig(height=20, width=16, patch=8, stride=6, dim=32,
                      layers=1, heads=2, mlp_dim=32, dropout=0.0,
                      integration="sub", shared=False)
    model = BinauralTransformer(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    xl = rng.standard_normal((2, 20, 16))
    xr = rng.standard_normal((2, 20, 16))
    target = np.stack([S.azimuth_to_xy(40), S.azimuth_to_xy(220)])

    def loss_value():
        return hybrid_loss(target, model.forward(xl, xr), alpha=0.5).item()

    with E.Graph() as graph:
        loss = hybrid_loss(target, model.forward(xl, xr), alpha=0.5)
    graph.backward(loss)

    h = 1e-5
    worst = 0.0
    worst_name = ""
    checked = 0
    for p in model.parameters():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_value()
            flat[i] = orig - h
            f_minus = loss_value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-7)
            checked += 1
            if rel > worst:
                worst, worst_name = rel, f"{p.name}[{i}]"
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 300.0
    assert _report(4, "hybrid-loss gradients match finite differences", ok,
                   f"{checked} parameters, worst rel err {worst:.2e} at "
                   f"{worst_name}, {elapsed:.0f}s")


def test_criterion_05_loss_identities():
    rng = np.random.default_rng(2)
    c = np.array([[0.6, 0.8], [0.0, 1.0], [1.0, 0.0]])
    exact_zero = ad_loss(c, _pred64(c)).item() == 0.0
    p = rng.standard_normal((6, 2))
    cc = rng.standard_normal((6, 2))
    scale_dev = abs(ad_loss(cc, _pred64(p)).item()
                    - ad_loss(cc, _pred64(3.0 * p)).item())
    in_range = all(
        0.0 <= ad_loss(rng.standard_normal((4, 2)),
                       _pred64(rng.standard_normal((4, 2)))).item() <= 1.0
        for _ in range(25))
    h1 = hybrid_loss(cc, _pred64(p), alpha=1.0).item() == \
        ad_loss(cc, _pred64(p)).item()
    h0 = hybrid_loss(cc, _pred64(p), alpha=0.0).item() == \
        mse_loss(cc, _pred64(p)).item()
    unit = mse_loss(np.array([[0.0, 1.0]]), _pred64([[0.0, 0.0]])).item() == 1.0
    ok = exact_zero and scale_dev <= 1e-12 and in_range and h1 and h0 and unit
    assert _report(5, "loss identities and invariances", ok,
                   f"AD(c,c)==0: {exact_zero}, scale dev {scale_dev:.1e}, "
                   f"range ok: {in_range}, hybrid boundaries exact: {h1 and h0}, "
                   f"unit-offset MSE exact: {unit}")


def test_criterion_06_frontend_shape_contract():
    rng = np.random.default_rng(3)
    shapes = set()
    waves = [Waveform(rng.standard_normal((2, 8000)) * 0.2, 16000)
             for _ in range(3)]
    src = S.make_source("chirp", seed=77)
    waves.append(S.render_binaural(src, S.LocalizationTarget(130, "AE"),
                                   S.anechoic_scene()))
    waves.append(S.render_binaural(src, S.LocalizationTarget(130, "RV"),
                                   S.reverberant_scene()))
    for wave in waves:
        left, right = binaural_spectrogram(wave, CANONICAL)
        shapes.add(left.shape)
        shapes.add(right.shape)
    ok = shapes == {(129, 61)}
    assert _report(6, "8000-sample stereo input maps to two 129x61 grids", ok,
                   f"shapes {shapes} over {len(waves)} waveforms")


def test_criterion_07_rollout_stochasticity_and_oracle():
    cfg = ModelConfig(height=20, width=16, patch=8, stride=6, dim=32,
                      layers=3, heads=2, mlp_dim=32, dropout=0.0,
                      integration="sub")
    model = BinauralTransformer(cfg, seed=0)
    rng = np.random.default_rng(4)
    record = bast_rollout(model, rng.standard_normal((1, 20, 16)),
                          rng.standard_normal((1, 20, 16)))
    worst_row = 0.0
    for chain in record.rollouts.values():
        for r in chain:
            worst_row = max(worst_row, float(np.abs(r.sum(axis=1) - 1).max()))

    # independent 64-bit product oracle, including the center seeding
    def aug(attn):
        mean = np.asarray(attn, dtype=np.float64).mean(axis=0)
        a = mean + np.eye(mean.shape[0])
        return a / a.sum(axis=1, keepdims=True)

    worst_oracle = 0.0
    for key in ("left", "right"):
        running = np.eye(record.attention[key][0].shape[-1])
        for attn, rolled in zip(record.attention[key], record.rollouts[key]):
            running = aug(attn) @ running
            worst_oracle = max(worst_oracle,
                               float(np.abs(running - rolled).max()))
    seed = record.rollouts["left"][-1] + record.rollouts["right"][-1]
    running = seed / seed.sum(axis=1, keepdims=True)
    for attn, rolled in zip(record.attention["center"],
                            record.rollouts["center"]):
        running = aug(attn) @ running
        worst_oracle = max(worst_oracle, float(np.abs(running - rolled).max()))
    ok = worst_row <= 1e-5 and worst_oracle <= 1e-6
    assert _report(7, "rollout rows stochastic and equal to the product oracle",
                   ok, f"row-sum dev {worst_row:.1e}, oracle dev "
                   f"{worst_oracle:.1e}")


def test_criterion_08_shared_sub_antisymmetry():
    cfg = ModelConfig(height=20, width=16, patch=8, stride=6, dim=32,
                      layers=2, heads=2, mlp_dim=32, dropout=0.0,
                      integration="sub", shared=True)
    model = BinauralTransformer(cfg, seed=0)
    rng = np.random.default_rng(5)
    xl = rng.standard_normal((2, 20, 16))
    xr = rng.standard_normal((2, 20, 16))
    forward = model.integrated(xl, xr).data
    swapped = model.integrated(xr, xl).data
    dev = float(np.abs(forward + swapped).max())
    ok = dev <= 1e-5
    assert _report(8, "swapping ears negates the integrated map (shared+sub)",
                   ok, f"max |z + z_swapped| = {dev:.2e}")


def test_criterion_09_desk_scale_overfit(overfit_corpus):
    t0 = time.time()
    cfg = desk_profile().override(
        epochs=200, env_filter="AE", seed=3, lr=1e-3,
        loss=dataclasses.replace(desk_profile().loss, kind="hybrid"),
        model=dataclasses.replace(desk_profile().model, integration="sub"),
        early_stop_train_ad=4.0)
    result = train(cfg, overfit_corpus, overfit_corpus.parent / "run_c9")
    train_samples = load_samples(overfit_corpus, cfg.frontend,
                                 splits=("train",), environments=("AE",))
    final = BinauralTransformer.load(result.final_checkpoint, cfg.model)
    _, agg = evaluate(final, train_samples)
    elapsed = time.time() - t0
    ok = agg["ad_deg"] < 5.0 and elapsed < 1200.0 and len(result.history) <= 200
    assert _report(9, "desk-profile training overfits to <5 deg", ok,
                   f"train AD {agg['ad_deg']:.2f} deg after "
                   f"{len(result.history)} epochs, {elapsed / 60:.1f} min")


def test_criterion_10_environment_transfer_pattern(transfer_corpus):
    cfg = desk_profile().override(
        epochs=120, lr=1e-3, early_stop_train_ad=4.0,
        model=dataclasses.replace(desk_profile().model, integration="sub"))
    rows = run_env_transfer(cfg, transfer_corpus,
                            transfer_corpus.parent / "run_c10")
    cells = {(r["train_env"], r["test_env"]): r["ad_deg"] for r in rows}
    matched_ae = cells[("AE", "AE")] < cells[("AE", "RV")]
    matched_rv = cells[("RV", "RV")] < cells[("RV", "AE")]
    both_worst = max(cells[("AE+RV", "AE")], cells[("AE+RV", "RV")])
    dominated = (both_worst <= cells[("AE", "RV")]
                 and both_worst <= cells[("RV", "AE")])
    ok = matched_ae and matched_rv and dominated
    detail = ", ".join(f"{tr}->{te} {cells[(tr, te)]:.1f}"
                       for tr, te in sorted(cells))
    assert _report(10, "environment transfer reproduces the qualitative pattern",
                   ok, detail)


def test_criterion_11_statistics_correctness():
    adjusted = bh_adjust([0.01, 0.02, 0.03, 0.04])
    bh_ok = bool(np.all(np.abs(adjusted - 0.04) <= 1e-12))
    t, p = paired_t(np.zeros(17))
    t_ok = t == 0.0 and abs(p - 1.0) <= 1e-12
    ok = bh_ok and t_ok
    assert _report(11, "step-up adjustment and null paired t-test exact", ok,
                   f"BH fixture -> {np.round(adjusted, 4).tolist()}, "
                   f"null t={t}, p={p}")


def test_criterion_12_end_to_end_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    kinds = list(S.SOURCE_KINDS)
    sources = {f"s{i:02d}": S.make_source(kinds[i % 4], seed=4000 + i)
               for i in range(4)}
    S.build_dataset(sources, (0, 90, 180, 270), {"AE": S.anechoic_scene()},
                    ratio=0.75, seed=9, out_dir=root / "data")
    manifest = root / "data" / "manifest.jsonl"
    cfg = desk_profile().override(epochs=3, env_filter="AE", seed=13)

    artifacts = []
    for run_name in ("one", "two"):
        run_dir = root / run_name
        result = train(cfg, manifest, run_dir)
        val = load_samples(manifest, cfg.frontend, splits=("val",),
                           environments=("AE",))
        records, agg = evaluate(result.model, val)
        write_overall(run_dir, agg, label="determinism")
        write_per_azimuth(run_dir, per_azimuth(records))
        artifacts.append({
            "best": result.best_checkpoint.read_bytes(),
            "final": result.final_checkpoint.read_bytes(),
            "overall": (run_dir / "overall.csv").read_bytes(),
            "per_azimuth": (run_dir / "per_azimuth.csv").read_bytes(),
        })
    mismatched = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1][k]]
    ok = not mismatched
    assert _report(12, "identical seeds give bit-identical checkpoints and CSVs",
                   ok, f"mismatched artifacts: {mismatched or 'none'}")

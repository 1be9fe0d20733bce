"""Evaluation and statistics: per-azimuth errors, hemifield tests, transfer.

Angles are reported in degrees throughout (the normalized angular loss
times 180). The left/right hemifield comparison pairs each azimuth with
its mirror (t, 360-t), runs a paired t-test over the 17 pair means, and
corrects families of such comparisons with the Benjamini-Hochberg
step-up procedure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from .data import Sample, batches
from .losses import angular_errors_deg
from .spatial import AZIMUTH_GRID

__all__ = [
    "EvalRecord",
    "HemifieldComparison",
    "HemifieldReport",
    "StatsError",
    "MIRROR_PAIRS",
    "FDR_ALPHA",
    "evaluate",
    "per_azimuth",
    "paired_t",
    "bh_adjust",
    "hemifield_test",
    "hemifield_report",
    "fdr_correct",
    "environment_transfer",
    "write_overall",
    "write_per_azimuth",
    "write_hemifield",
    "write_env_transfer",
]

# (right-hemifield azimuth, mirrored left-hemifield azimuth); 0 and 180 sit
# on the midline and belong to neither side.
MIRROR_PAIRS = tuple((theta, 360 - theta) for theta in range(10, 180, 10))

# Benjamini-Hochberg false discovery rate at which a comparison is significant
FDR_ALPHA = 0.05


class StatsError(ValueError):
    """Not enough data for the requested statistic."""


@dataclass(frozen=True)
class EvalRecord:
    sample_id: str
    azimuth: int
    environment: str
    ad_deg: float
    sq_err: float


def evaluate(model, samples: list[Sample], batch_size: int = 32
             ) -> tuple[list[EvalRecord], dict[str, float]]:
    """Eval-mode predictions for every sample plus unweighted mean errors.

    ``model`` only needs a ``predict(x_left, x_right) -> (n, 2)`` method.
    """
    if not samples:
        raise StatsError("cannot evaluate an empty split")
    records = []
    for x_left, x_right, target, chunk in batches(samples, batch_size):
        pred = np.asarray(model.predict(x_left, x_right), dtype=np.float64)
        ad = angular_errors_deg(target, pred)
        sq = np.sum((target.astype(np.float64) - pred) ** 2, axis=1)
        records.extend(
            EvalRecord(s.sample_id, s.azimuth, s.environment, float(a), float(q))
            for s, a, q in zip(chunk, ad, sq))
    aggregates = {
        "ad_deg": float(np.mean([r.ad_deg for r in records])),
        "mse": float(np.mean([r.sq_err for r in records])),
    }
    return records, aggregates


def per_azimuth(records: list[EvalRecord]) -> list[tuple[int, float | None]]:
    """Mean angular error per azimuth in radar order 0..350; absent azimuths
    are None."""
    by_az: dict[int, list[float]] = {}
    for r in records:
        by_az.setdefault(r.azimuth, []).append(r.ad_deg)
    return [(az, float(np.mean(by_az[az])) if az in by_az else None)
            for az in AZIMUTH_GRID]


def paired_t(differences: np.ndarray) -> tuple[float, float]:
    """Two-sided paired t-test on a vector of per-pair differences.

    The p-value comes from the exact t CDF (regularized incomplete beta via
    ``stdtr``), not a normal approximation. A zero-variance difference
    vector yields t = 0, p = 1 when the mean is zero and p = 0 otherwise.
    """
    d = np.asarray(differences, dtype=np.float64)
    n = d.size
    if n < 3:
        raise StatsError(f"paired t-test needs at least 3 pairs, got {n}")
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        return (0.0, 1.0) if mean == 0.0 else (math.copysign(math.inf, mean), 0.0)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * stdtr(n - 1, -abs(t))
    return float(t), float(min(1.0, p))


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values (monotone, clipped at 1)."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    if m == 0:
        return p
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


@dataclass
class HemifieldComparison:
    """One condition x metric comparison between mirrored hemifields."""

    label: str
    metric: str
    pairs: list[tuple[int, int]]
    right_means: list[float]
    left_means: list[float]
    t_stat: float
    p_raw: float
    p_adj: float | None = None
    significant: bool | None = None


@dataclass
class HemifieldReport:
    family: str
    comparisons: list[HemifieldComparison] = field(default_factory=list)


def hemifield_test(records: list[EvalRecord], label: str = ""
                   ) -> list[HemifieldComparison]:
    """Raw (uncorrected) mirror-pair comparisons for one evaluation run, one
    per metric: angular error, then squared error."""
    comparisons = []
    for metric, fieldname in (("ad_deg", "ad_deg"), ("mse", "sq_err")):
        by_az: dict[int, list[float]] = {}
        for r in records:
            by_az.setdefault(r.azimuth, []).append(getattr(r, fieldname))
        pairs, right_means, left_means = [], [], []
        for right_az, left_az in MIRROR_PAIRS:
            if right_az in by_az and left_az in by_az:
                pairs.append((right_az, left_az))
                right_means.append(float(np.mean(by_az[right_az])))
                left_means.append(float(np.mean(by_az[left_az])))
        t, p = paired_t(np.array(left_means) - np.array(right_means))
        comparisons.append(HemifieldComparison(
            label=label, metric=metric, pairs=pairs,
            right_means=right_means, left_means=left_means,
            t_stat=t, p_raw=p))
    return comparisons


def fdr_correct(comparisons: list[HemifieldComparison], family: str
                ) -> HemifieldReport:
    """Adjust a family of comparisons together; significant below FDR_ALPHA."""
    adjusted = bh_adjust([c.p_raw for c in comparisons])
    for c, p in zip(comparisons, adjusted):
        c.p_adj = float(p)
        c.significant = bool(p < FDR_ALPHA)
    return HemifieldReport(family=family, comparisons=comparisons)


def hemifield_report(records: list[EvalRecord], label: str = "") -> HemifieldReport:
    """Single-run report; the FDR family is this run's metrics."""
    return fdr_correct(hemifield_test(records, label),
                       family="metrics within one evaluation run")


def environment_transfer(models: dict[str, object],
                         test_splits: dict[str, list[Sample]]
                         ) -> list[dict[str, object]]:
    """Cross table: every trained model evaluated on every environment split.

    Returns one row per (training environment, testing environment) cell
    with mean angular error (degrees) and mean squared error.
    """
    rows = []
    for train_env, model in models.items():
        for test_env, samples in test_splits.items():
            _, agg = evaluate(model, samples)
            rows.append({"train_env": train_env, "test_env": test_env,
                         "ad_deg": agg["ad_deg"], "mse": agg["mse"]})
    return rows


# ---------------------------------------------------------------------------
# CSV / JSON emission


def _write_table(out_dir, stem: str, header: list[str], rows, payload,
                 preamble: str = "") -> None:
    """``<stem>.csv`` (``preamble``, then ``header`` and ``rows``) and
    ``<stem>.json`` (``payload``, indented, keys sorted) in ``out_dir``."""
    out_dir = Path(out_dir)
    with open(out_dir / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble)
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    (out_dir / f"{stem}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_overall(out_dir, aggregates: dict[str, float], label: str = "") -> None:
    _write_table(out_dir, "overall", ["label", "ad_deg", "mse"],
                 [[label, f"{aggregates['ad_deg']:.6f}", f"{aggregates['mse']:.6f}"]],
                 {"label": label, **aggregates})


def write_per_azimuth(out_dir, table: list[tuple[int, float | None]]) -> None:
    _write_table(out_dir, "per_azimuth", ["azimuth_deg", "ad_deg"],
                 [[az, "" if value is None else f"{value:.6f}"] for az, value in table],
                 {"metric": "ad_deg", "table": [
                     {"azimuth_deg": az, "value": value} for az, value in table]})


def write_hemifield(out_dir, report: HemifieldReport) -> None:
    _write_table(
        out_dir, "hemifield",
        ["label", "metric", "n_pairs", "t_stat", "p_raw", "p_adj", "significant"],
        [[c.label, c.metric, len(c.pairs), f"{c.t_stat:.6g}", f"{c.p_raw:.6g}",
          f"{c.p_adj:.6g}", c.significant] for c in report.comparisons],
        {"family": report.family, "alpha": FDR_ALPHA,
         "comparisons": [asdict(c) for c in report.comparisons]},
        preamble=f"# fdr_family: {report.family}; alpha={FDR_ALPHA}\n")


def write_env_transfer(out_dir, rows: list[dict[str, object]]) -> None:
    _write_table(out_dir, "env_transfer", ["train_env", "test_env", "ad_deg", "mse"],
                 [[row["train_env"], row["test_env"], f"{row['ad_deg']:.6f}",
                   f"{row['mse']:.6f}"] for row in rows],
                 rows)

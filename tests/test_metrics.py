"""Evaluation metrics, paired t-test, and BH false-discovery control."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc.data import Sample
from binloc.metrics import (
    MIRROR_PAIRS,
    EvalRecord,
    StatsError,
    bh_adjust,
    environment_transfer,
    evaluate,
    fdr_correct,
    hemifield_report,
    hemifield_test,
    paired_t,
    per_azimuth,
    write_env_transfer,
    write_hemifield,
    write_overall,
    write_per_azimuth,
)
from binloc.spatial import AZIMUTH_GRID, azimuth_to_xy


class _StubModel:
    """Fixed-output predictor for metric plumbing tests."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, x_left, x_right):
        return self.fn(x_left)


def _samples(azimuths=AZIMUTH_GRID, env="AE"):
    out = []
    for az in azimuths:
        target = azimuth_to_xy(az).astype(np.float32)
        # encode the target in the (otherwise unused) spectrogram pixel 0,0
        spec = np.zeros((4, 4), dtype=np.float32)
        spec[0, 0] = az
        out.append(Sample(f"s{az:03d}", az, env, "val", spec, spec, target))
    return out


def _perfect_model():
    return _StubModel(lambda xl: np.stack([
        azimuth_to_xy(int(x[0, 0])) for x in xl]))


def _records(values_by_az, env="AE"):
    recs = []
    for az, values in values_by_az.items():
        for i, v in enumerate(values):
            recs.append(EvalRecord(f"{az}-{i}", az, env, float(v), float(v) ** 2))
    return recs


class TestEvaluate:
    def test_perfect_predictor(self):
        samples = _samples()
        records, agg = evaluate(_perfect_model(), samples)
        assert len(records) == len(samples)
        assert agg["ad_deg"] == pytest.approx(0.0, abs=1e-4)
        assert agg["mse"] == pytest.approx(0.0, abs=1e-9)

    def test_constant_front_predictor_averages_90_degrees(self):
        model = _StubModel(lambda xl: np.tile([0.0, 1.0], (len(xl), 1)))
        _, agg = evaluate(model, _samples())
        assert agg["ad_deg"] == pytest.approx(90.0, abs=1e-6)

    def test_empty_split_rejected(self):
        with pytest.raises(StatsError, match="empty"):
            evaluate(_perfect_model(), [])

    def test_record_count_matches_split_size(self):
        samples = _samples(azimuths=(0, 50, 180, 270))
        records, _ = evaluate(_perfect_model(), samples, batch_size=3)
        assert [r.sample_id for r in records] == [s.sample_id for s in samples]


class TestPerAzimuth:
    def test_flat_table_for_equal_errors(self):
        table = per_azimuth(_records({az: [2.5] for az in AZIMUTH_GRID}))
        assert len(table) == 36
        assert all(v == pytest.approx(2.5) for _, v in table)

    def test_recovers_group_means_exactly(self):
        table = per_azimuth(_records({az: [az / 10.0] for az in AZIMUTH_GRID}))
        for az, value in table:
            assert value == pytest.approx(az / 10.0)

    def test_missing_azimuth_marked_absent(self):
        table = per_azimuth(_records({0: [1.0], 10: [2.0]}))
        values = dict(table)
        assert values[0] == pytest.approx(1.0)
        assert values[20] is None
        assert len(table) == 36


class TestPairedT:
    def test_mirrored_identical_data_is_null(self):
        t, p = paired_t(np.zeros(17))
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            left = rng.standard_normal(17)
            right = rng.standard_normal(17)
            t, p = paired_t(left - right)
            ref = scipy.stats.ttest_rel(left, right)
            assert t == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_too_few_pairs(self):
        with pytest.raises(StatsError, match="3"):
            paired_t(np.array([1.0, 2.0]))


class TestBhAdjust:
    def test_hand_computed_fixture(self):
        adjusted = bh_adjust([0.01, 0.02, 0.03, 0.04])
        np.testing.assert_allclose(adjusted, [0.04, 0.04, 0.04, 0.04], atol=1e-12)

    def test_single_value_unchanged(self):
        np.testing.assert_allclose(bh_adjust([0.2]), [0.2])

    def test_adjusted_at_least_raw(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, 20)
        adjusted = bh_adjust(p)
        assert np.all(adjusted >= p - 1e-15)
        assert np.all(adjusted <= 1.0)

    @given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_rank(self, pvals):
        p = np.array(pvals)
        adjusted = bh_adjust(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adjusted[order]) >= -1e-15)


class TestHemifield:
    def test_mirrored_errors_not_significant(self):
        values = {}
        for right_az, left_az in MIRROR_PAIRS:
            values[right_az] = [right_az / 100.0] * 3
            values[left_az] = [right_az / 100.0] * 3
        report = hemifield_report(_records(values))
        c = report.comparisons[0]
        assert len(c.pairs) == 17
        assert c.t_stat == 0.0
        assert c.p_raw == pytest.approx(1.0)
        assert not c.significant

    def test_constant_offset_detected(self):
        rng = np.random.default_rng(2)
        values = {}
        for right_az, left_az in MIRROR_PAIRS:
            base = rng.uniform(2.0, 4.0)
            noise = rng.normal(0, 0.05)
            values[right_az] = [base]
            values[left_az] = [base + 5.0 + noise]
        report = hemifield_report(_records(values))
        c = report.comparisons[0]
        assert c.p_adj < 0.05
        assert c.significant

    def test_adjusted_at_least_raw_per_comparison(self):
        rng = np.random.default_rng(3)
        values = {az: list(rng.uniform(1, 3, 4)) for az in AZIMUTH_GRID}
        report = hemifield_report(_records(values))
        for c in report.comparisons:
            assert c.p_adj >= c.p_raw - 1e-15

    def test_missing_pairs_error_below_three(self):
        values = {10: [1.0], 350: [1.0], 20: [1.0], 340: [1.0]}
        with pytest.raises(StatsError):
            hemifield_test(_records(values))

    def test_family_correction_across_conditions(self):
        rng = np.random.default_rng(4)
        comparisons = []
        for label in ("cond-a", "cond-b", "cond-c"):
            values = {az: list(rng.uniform(1, 3, 3)) for az in AZIMUTH_GRID}
            comparisons.extend(hemifield_test(_records(values), label=label))
        report = fdr_correct(comparisons, family="labels x metrics")
        assert len(report.comparisons) == 6
        raw = [c.p_raw for c in report.comparisons]
        np.testing.assert_allclose([c.p_adj for c in report.comparisons],
                                   bh_adjust(raw), atol=1e-15)


class TestEnvironmentTransfer:
    def test_six_cells(self):
        splits = {"AE": _samples(env="AE"), "RV": _samples(env="RV")}
        models = {"AE": _perfect_model(), "RV": _perfect_model(),
                  "AE+RV": _perfect_model()}
        rows = environment_transfer(models, splits)
        assert len(rows) == 6
        assert {(r["train_env"], r["test_env"]) for r in rows} == {
            (tr, te) for tr in models for te in splits}


class TestWriters:
    def test_all_outputs_written(self, tmp_path):
        samples = _samples()
        records, agg = evaluate(_perfect_model(), samples)
        write_overall(tmp_path, agg, label="stub")
        write_per_azimuth(tmp_path, per_azimuth(records))
        write_hemifield(tmp_path, hemifield_report(records))
        rows = environment_transfer(
            {"AE": _perfect_model()}, {"AE": samples, "RV": samples})
        write_env_transfer(tmp_path, rows)
        for stem in ("overall", "per_azimuth", "hemifield", "env_transfer"):
            assert (tmp_path / f"{stem}.csv").exists()
            assert (tmp_path / f"{stem}.json").exists()
        head = (tmp_path / "hemifield.csv").read_text().splitlines()[0]
        assert head.startswith("# fdr_family:")
        per_az_lines = (tmp_path / "per_azimuth.csv").read_text().splitlines()
        assert len(per_az_lines) == 1 + 36

"""Loss identities, invariances, and gradient oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binloc import engine as E
from binloc.losses import (
    LOSS_KINDS,
    LossConfig,
    LossError,
    ad_loss,
    angular_errors_deg,
    hybrid_loss,
    make_loss,
    mse_loss,
)

from helpers import central_diff, max_rel_err, mul, tsum


def _pred(data):
    return E.parameter(np.asarray(data, dtype=np.float64), dtype=np.float64)


def _old_hybrid_chain(target, pred, alpha):
    """The hybrid loss as primitive ops: the angular node, then ``sub``, the
    ``mul`` and ``tsum`` probes and ``tmean`` for the squared distance, each
    term times its weight as a constant of ``pred``'s dtype, then their sum."""
    def weight(c):
        return E.Tensor(c, dtype=pred.dtype)

    ad = ad_loss(target, pred) if alpha > 0.0 else None
    diff = E.sub(pred, E.Tensor(target, dtype=pred.dtype))
    mse = E.tmean(tsum(mul(diff, diff), axis=1))
    if alpha == 0.0:
        return mse
    if alpha == 1.0:
        return ad
    return E.add(mul(ad, weight(alpha)), mul(mse, weight(1.0 - alpha)))


class TestMse:
    def test_exact_prediction_is_zero(self):
        c = np.array([[0.3, 0.4], [1.0, 0.0]])
        assert mse_loss(c, _pred(c)).item() == 0.0

    def test_unit_offset(self):
        assert mse_loss(np.array([[0.0, 1.0]]), _pred([[0.0, 0.0]])).item() == 1.0

    def test_two_sample_batch(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = _pred([[0.0, 0.0], [0.0, 0.0]])
        assert mse_loss(c, p).item() == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(LossError, match="empty"):
            mse_loss(np.zeros((0, 2)), _pred(np.zeros((0, 2))))

    def test_nonnegative_with_equality_iff_exact(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((8, 2))
        p = c.copy()
        p[3, 1] += 1e-3
        assert mse_loss(c, _pred(p)).item() > 0.0


class TestAngular:
    def test_zero_angle(self):
        c = np.array([[0.6, 0.8]])
        assert ad_loss(c, _pred(c)).item() == 0.0

    def test_right_angle_is_half(self):
        assert ad_loss(np.array([[0.0, 1.0]]), _pred([[1.0, 0.0]])).item() == \
            pytest.approx(0.5, abs=1e-12)

    def test_antipodal_is_one(self):
        assert ad_loss(np.array([[0.0, 1.0]]), _pred([[0.0, -1.0]])).item() == \
            pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((6, 2))
        p = rng.standard_normal((6, 2))
        base = ad_loss(c, _pred(p)).item()
        scaled = ad_loss(c, _pred(3.0 * p)).item()
        assert abs(base - scaled) <= 1e-12

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_scaling_of_target_ray_keeps_zero(self, lam):
        c = np.array([[0.6, 0.8]])
        assert ad_loss(c, _pred(lam * c)).item() <= 1e-7

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = rng.standard_normal((4, 2))
            p = rng.standard_normal((4, 2))
            v = ad_loss(c, _pred(p)).item()
            assert 0.0 <= v <= 1.0

    def test_rotation_invariance_on_grid(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((5, 2))
        p = rng.standard_normal((5, 2))
        base = ad_loss(c, _pred(p)).item()
        for deg in range(0, 360, 10):
            th = math.radians(deg)
            rot = np.array([[math.cos(th), -math.sin(th)],
                            [math.sin(th), math.cos(th)]])
            rotated = ad_loss(c @ rot.T, _pred(p @ rot.T)).item()
            assert abs(rotated - base) <= 1e-6

    def test_zero_norm_target_rejected(self):
        with pytest.raises(LossError, match="zero norm"):
            ad_loss(np.array([[0.0, 0.0]]), _pred([[1.0, 0.0]]))

    def test_degenerate_prediction_max_angle_zero_grad(self):
        c = np.array([[0.0, 1.0]])
        p = _pred([[0.0, 0.0]])
        with E.Graph() as g:
            loss = ad_loss(c, p)
        g.backward(loss)
        assert loss.item() == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((6, 2))
        p = _pred(rng.standard_normal((6, 2)) * 1.5)

        def run():
            with E.Graph() as g:
                loss = ad_loss(c, p)
            return g, loss

        g, loss = run()
        g.backward(loss)
        (fd,) = central_diff(lambda: run()[1].item(), [p.data], h=1e-5)
        assert max_rel_err(p.grad, fd) <= 1e-4

    def test_gradient_finite_at_clamp_boundary(self):
        c = np.array([[0.0, 1.0]])
        p = _pred([[0.0, 2.5]])  # aligned: cosine pinned at the clamp
        with E.Graph() as g:
            loss = ad_loss(c, p)
        g.backward(loss)
        assert np.all(np.isfinite(p.grad))


class TestHybrid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_matches_old_chain_bitwise(self, alpha, dtype):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((9, 2))
        pd = rng.standard_normal((9, 2)) * 3.0
        pd[2] = 0.0             # degenerate: no angular gradient
        pd[5] = 2.5 * c[5]      # collinear: cosine at the clamp
        pd[7] = -0.5 * c[7]     # antipodal
        results = []
        for loss_fn in (lambda p: hybrid_loss(c, p, alpha),
                        lambda p: _old_hybrid_chain(c, p, alpha)):
            p = E.parameter(pd, dtype=dtype)
            with E.Graph() as g:
                loss = loss_fn(p)
            g.backward(loss)
            results.append((loss.data, p.grad))
        (value, grad), (ref, ref_grad) = results
        assert value.dtype == dtype and np.array_equal(value, ref)
        assert grad.dtype == dtype and np.array_equal(grad, ref_grad)

    def test_each_loss_is_one_tape_node(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        for kind in LOSS_KINDS:
            p = _pred([[1.0, 1.0], [0.5, -1.0]])
            with E.Graph() as g:
                make_loss(LossConfig(kind))(c, p)
            assert len(g) == 1, kind

    def test_squared_distance_alone_does_no_angular_work(self):
        # the angle to a zero-norm target is undefined, its distance is not
        c = np.array([[0.0, 0.0]])
        assert hybrid_loss(c, _pred([[0.0, 2.0]]), alpha=0.0).item() == 4.0
        with pytest.raises(LossError, match="zero norm"):
            hybrid_loss(c, _pred([[0.0, 2.0]]), alpha=0.25)

    def test_alpha_one_is_ad_bitwise(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((4, 2))
        pd = rng.standard_normal((4, 2))
        assert hybrid_loss(c, _pred(pd), alpha=1.0).item() == \
            ad_loss(c, _pred(pd)).item()

    def test_alpha_zero_is_mse_bitwise(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((4, 2))
        pd = rng.standard_normal((4, 2))
        assert hybrid_loss(c, _pred(pd), alpha=0.0).item() == \
            mse_loss(c, _pred(pd)).item()

    def test_even_mix_value(self):
        c = np.array([[0.0, 1.0]])
        p = _pred([[1.0, 0.0]])
        assert hybrid_loss(c, p, alpha=0.5).item() == pytest.approx(1.25, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(LossError, match="alpha"):
            hybrid_loss(np.array([[0.0, 1.0]]), _pred([[1.0, 0.0]]), alpha=1.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal((5, 2))
        p = _pred(rng.standard_normal((5, 2)))

        def run():
            with E.Graph() as g:
                loss = hybrid_loss(c, p, alpha=0.5)
            return g, loss

        g, loss = run()
        g.backward(loss)
        (fd,) = central_diff(lambda: run()[1].item(), [p.data], h=1e-5)
        assert max_rel_err(p.grad, fd) <= 1e-4


class TestLossConfig:
    def test_factory_dispatch(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((3, 2))
        pd = rng.standard_normal((3, 2))
        assert make_loss(LossConfig("mse"))(c, _pred(pd)).item() == \
            mse_loss(c, _pred(pd)).item()
        assert make_loss(LossConfig("ad"))(c, _pred(pd)).item() == \
            ad_loss(c, _pred(pd)).item()
        assert make_loss(LossConfig("hybrid", alpha=0.25))(c, _pred(pd)).item() == \
            hybrid_loss(c, _pred(pd), alpha=0.25).item()

    def test_validation(self):
        with pytest.raises(LossError):
            LossConfig("l1")
        with pytest.raises(LossError):
            LossConfig("hybrid", alpha=2.0)
        with pytest.raises(LossError):
            LossConfig("hybrid", epsilon=0.0)


class TestAngularErrorsDeg:
    def test_matches_normalized_loss_times_180(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((10, 2))
        p = rng.standard_normal((10, 2))
        per_sample = angular_errors_deg(c, p)
        loss_value = ad_loss(c, _pred(p)).item()
        assert per_sample.mean() == pytest.approx(180.0 * loss_value, abs=1e-9)

    def test_zero_norm_target_names_its_row(self):
        with pytest.raises(LossError, match="target row 1 has zero norm"):
            angular_errors_deg(np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_bounds(self):
        assert angular_errors_deg(np.array([[0.0, 1.0]]),
                                  np.array([[0.0, 3.0]]))[0] == 0.0
        assert angular_errors_deg(np.array([[0.0, 1.0]]),
                                  np.array([[0.0, -3.0]]))[0] == 180.0

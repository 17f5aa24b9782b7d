"""Classifier head, softmax probabilities, and the 2D cross-entropy loss."""

import numpy as np
import pytest

from conftest import make_camera, random_cloud
from gradiseg.render import render
from gradiseg.semantic import (ClassifierHead, _group_probs, class_groups, loss_2d,
                               segment_mask)
from oracles import dense_classify, dense_loss_2d, full_image_segment_mask


def classify(features, head):
    """Per-class probabilities from the softmax over distinct head rows that
    loss_2d takes."""
    groups = class_groups(head)
    return groups.expand(_group_probs(np.asarray(features), groups))


class TestClassify:
    def test_zero_head_uniform(self):
        head = ClassifierHead.zeros(256, 16, dtype=np.float64)
        p = classify(np.random.default_rng(0).standard_normal((5, 16)), head)
        np.testing.assert_allclose(p, 1.0 / 256, atol=1e-12)

    def test_dominant_bias(self):
        head = ClassifierHead.zeros(8, 4, dtype=np.float64)
        head.biases[0] = 10.0
        p = classify(np.zeros((3, 4)), head)
        assert np.all(p[:, 0] > 0.999)

    def test_rows_sum_to_one(self, rng=np.random.default_rng(1)):
        head = ClassifierHead(rng.standard_normal((12, 6)), rng.standard_normal(12))
        p = classify(rng.standard_normal((4, 7, 6)), head)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        head = ClassifierHead(rng.standard_normal((10, 5)), rng.standard_normal(10))
        feats = rng.standard_normal((20, 5))
        p = classify(feats, head)
        for i in range(20):
            logits = np.array([head.weights[c] @ feats[i] + head.biases[c]
                               for c in range(10)])
            ex = np.exp(logits - logits.max())
            np.testing.assert_allclose(p[i], ex / ex.sum(), rtol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        head = ClassifierHead(rng.standard_normal((6, 4)), rng.standard_normal(6))
        shifted = ClassifierHead(head.weights, head.biases + 123.0)
        f = rng.standard_normal((8, 4))
        np.testing.assert_allclose(classify(f, head), classify(f, shifted),
                                   atol=1e-9)

    def test_nonfinite_rejected(self):
        head = ClassifierHead.zeros(4, 2)
        with pytest.raises(ValueError, match="finite"):
            classify(np.array([[np.nan, 0.0]]), head)


class TestLoss2d:
    def test_uniform_head_gives_log_c(self):
        head = ClassifierHead.zeros(256, 16, dtype=np.float64)
        ident = np.random.default_rng(0).standard_normal((4, 4, 16))
        mask = np.zeros((4, 4), dtype=np.uint8)
        loss, _, _ = loss_2d(ident, mask, head)
        assert loss == pytest.approx(np.log(256.0), rel=1e-9)

    def test_confident_correct_loss_near_zero(self):
        head = ClassifierHead.zeros(8, 4, dtype=np.float64)
        head.weights[3, 0] = 100.0
        ident = np.zeros((3, 3, 4))
        ident[..., 0] = 1.0
        mask = np.full((3, 3), 3, dtype=np.uint8)
        loss, _, _ = loss_2d(ident, mask, head)
        assert 0.0 <= loss < 1e-6

    def test_mask_id_out_of_range(self):
        head = ClassifierHead.zeros(4, 2, dtype=np.float64)
        with pytest.raises(ValueError, match="out of range"):
            loss_2d(np.zeros((2, 2, 2)), np.full((2, 2), 7, dtype=np.uint8), head)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        head = ClassifierHead(rng.standard_normal((6, 3)), rng.standard_normal(6))
        for _ in range(20):
            ident = rng.standard_normal((3, 3, 3))
            mask = rng.integers(0, 6, (3, 3)).astype(np.uint8)
            loss, _, _ = loss_2d(ident, mask, head)
            assert loss >= 0.0

    def test_logit_grads_rows_sum_zero(self):
        # softmax-CE identity: d loss / d logits sums to 0 per pixel,
        # equivalently dW rows dotted against constant-feature direction...
        # check directly via db: sum over classes of db must be 0.
        rng = np.random.default_rng(5)
        head = ClassifierHead(rng.standard_normal((6, 3)), rng.standard_normal(6))
        ident = rng.standard_normal((4, 4, 3))
        mask = rng.integers(0, 6, (4, 4)).astype(np.uint8)
        _, _, (dw, db) = loss_2d(ident, mask, head)
        assert db.sum() == pytest.approx(0.0, abs=1e-9)

    def test_finite_difference_head_and_features(self):
        rng = np.random.default_rng(6)
        head = ClassifierHead(rng.standard_normal((5, 3)), rng.standard_normal(5))
        ident = rng.standard_normal((4, 4, 3))
        mask = rng.integers(0, 5, (4, 4)).astype(np.uint8)
        loss, d_ident, (dw, db) = loss_2d(ident, mask, head)
        h = 1e-6

        for ix in np.ndindex(*ident.shape):
            ip, im = ident.copy(), ident.copy()
            ip[ix] += h
            im[ix] -= h
            fd = (loss_2d(ip, mask, head)[0] - loss_2d(im, mask, head)[0]) / (2 * h)
            assert d_ident[ix] == pytest.approx(fd, rel=1e-4, abs=1e-9)

        for ix in np.ndindex(*head.weights.shape):
            hp, hm = head.copy(), head.copy()
            hp.weights[ix] += h
            hm.weights[ix] -= h
            fd = (loss_2d(ident, mask, hp)[0] - loss_2d(ident, mask, hm)[0]) / (2 * h)
            assert dw[ix] == pytest.approx(fd, rel=1e-4, abs=1e-9)

        for c in range(5):
            hp, hm = head.copy(), head.copy()
            hp.biases[c] += h
            hm.biases[c] -= h
            fd = (loss_2d(ident, mask, hp)[0] - loss_2d(ident, mask, hm)[0]) / (2 * h)
            assert db[c] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def identity_map(kind, rng, dtype, h=37, w=29, d=8):
    """Identity maps with no, all, or some all-zero feature rows; "rendered"
    holds uncovered pixels and pixels covered only by zero encodings."""
    if kind == "rendered":
        cloud = random_cloud(rng, 12, dim=d, dtype=dtype, scale_range=(0.05, 0.12))
        cloud.encodings[:6] = 0.0
        out = render(cloud, make_camera(width=w, height=h))
        zero = ~out.identity.any(axis=2)
        covered = np.diff(out.frag_start).reshape(h, w) > 0
        assert (zero & covered).any() and (zero & ~covered).any() and not zero.all()
        return out.identity
    ident = rng.standard_normal((h, w, d)).astype(dtype)
    if kind == "zero":
        ident[:] = 0.0
    elif kind == "mixed":
        ident[rng.uniform(size=(h, w)) < 0.5] = 0.0
    return ident


class TestLoss2dOracle:
    """loss_2d against the per-class expression. Each output may differ by
    the summation error bound of the sums behind it: n eps sum|terms| with n
    the number of terms (pixels for the loss, dW and db; classes for the
    feature gradients)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dense", "zero", "mixed", "rendered"])
    def test_matches_full_image_oracle(self, rng, dtype, kind):
        c = 40
        ident = identity_map(kind, rng, dtype)
        h, w, d = ident.shape
        head = ClassifierHead(rng.standard_normal((c, d)).astype(dtype),
                              rng.standard_normal(c).astype(dtype))
        mask = rng.integers(0, c, (h, w)).astype(np.uint8)
        loss, d_feats, (dw, db) = loss_2d(ident, mask, head)
        want_loss, want_feats, (want_dw, want_db) = dense_loss_2d(
            ident.copy(), mask, head)
        for got in (d_feats, dw, db):
            assert got.dtype == dtype

        eps, npix = np.finfo(dtype).eps, h * w
        feats = ident.reshape(npix, d).astype(np.float64)
        dl = classify(feats, ClassifierHead(head.weights.astype(np.float64),
                                            head.biases.astype(np.float64)))
        dl[np.arange(npix), mask.ravel()] -= 1.0
        dl = np.abs(dl) / npix
        assert abs(loss - want_loss) <= (npix + 2) * eps * want_loss
        assert np.all(np.abs(d_feats.reshape(npix, d) - want_feats.reshape(npix, d))
                      <= (c + 2) * eps * (dl @ np.abs(head.weights)))
        assert np.all(np.abs(dw - want_dw) <= (npix + 2) * eps * (dl.T @ np.abs(feats)))
        assert np.all(np.abs(db - want_db) <= (npix + 2) * eps * dl.sum(axis=0))

    def test_finite_difference_at_zero_rows(self):
        rng = np.random.default_rng(7)
        head = ClassifierHead(rng.standard_normal((5, 3)), rng.standard_normal(5))
        ident = rng.standard_normal((4, 4, 3))
        ident[1:3] = 0.0
        mask = rng.integers(0, 5, (4, 4)).astype(np.uint8)
        _, d_ident, _ = loss_2d(ident, mask, head)
        h = 1e-6
        for y, x in ((1, 0), (1, 3), (2, 1)):
            for k in range(3):
                ip, im = ident.copy(), ident.copy()
                ip[y, x, k] += h
                im[y, x, k] -= h
                fd = (loss_2d(ip, mask, head)[0] - loss_2d(im, mask, head)[0]) / (2 * h)
                assert d_ident[y, x, k] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestSegmentMask:
    def test_argmax_and_background_rule(self):
        head = ClassifierHead(np.eye(4), np.zeros(4))
        ident = np.zeros((2, 2, 4))
        ident[0, 0, 2] = 0.9   # class 2, enough foreground
        ident[0, 1, 1] = 0.9
        t_final = np.array([[0.1, 0.8], [1.0, 0.3]])
        mask = segment_mask(ident, t_final, head)
        assert mask[0, 0] == 2
        assert mask[0, 1] == 0   # foreground weight 0.2 < 0.5 -> background
        assert mask[1, 0] == 0
        assert mask[1, 1] == 0   # all-zero features argmax to class 0 anyway

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("coverage", ["all", "none", "mixed"])
    def test_matches_full_image_oracle(self, rng, dtype, coverage):
        h, w, d, c = 37, 29, 8, 40
        head = ClassifierHead(rng.standard_normal((c, d)).astype(dtype),
                              rng.standard_normal(c).astype(dtype))
        ident = rng.standard_normal((h, w, d)).astype(dtype)
        t_final = {"all": np.zeros((h, w)), "none": np.ones((h, w)),
                   "mixed": rng.uniform(0.0, 1.0, (h, w))}[coverage].astype(dtype)
        if coverage == "mixed":
            t_final.flat[:3] = 0.5   # exactly at the threshold: foreground
        mask = segment_mask(ident, t_final, head)
        want = full_image_segment_mask(ident, t_final, head)
        assert mask.dtype == want.dtype == np.uint8
        assert mask.tobytes() == want.tobytes()
        assert (mask != 0).any() == (coverage != "none")


def repeated_head(rng, dtype, c=40, d=8):
    """A head with six distinct rows: class k shares the row of class k % 6,
    and class 5's row is all zero, as an untrained class starts."""
    head = ClassifierHead(rng.standard_normal((c, d)).astype(dtype),
                          rng.standard_normal(c).astype(dtype))
    head.weights[5], head.biases[5] = 0.0, 0.0
    head.weights[:] = head.weights[np.arange(c) % 6]
    head.biases[:] = head.biases[np.arange(c) % 6]
    return head


def float64_head(head):
    return ClassifierHead(head.weights.astype(np.float64), head.biases.astype(np.float64))


class TestClassGroups:
    def test_groups_by_first_index_with_sizes(self, rng):
        head = repeated_head(rng, np.float32)
        groups = class_groups(head)
        assert groups.first.tolist() == [0, 1, 2, 3, 4, 5]
        assert groups.size.tolist() == [7, 7, 7, 7, 6, 6]
        np.testing.assert_array_equal(groups.first[groups.of_class[groups.first]],
                                      groups.first)
        for cls in range(head.num_classes):
            g = groups.first[groups.of_class[cls]]
            assert head.weights[cls].tobytes() == head.weights[g].tobytes()
            assert head.biases[cls] == head.biases[g]

    def test_kept_classes_get_their_own_group(self, rng):
        head = repeated_head(rng, np.float64)
        groups = class_groups(head, keep=np.array([9, 13]))
        assert groups.size[groups.of_class[9]] == 1
        assert groups.size[groups.of_class[13]] == 1
        assert groups.size[groups.of_class[3]] == 6   # 9 leaves 3's group
        assert groups.size[groups.of_class[1]] == 6   # and 13 leaves 1's
        assert groups.first.tolist() == sorted(groups.first.tolist())

    def test_distinct_rows_are_their_own_groups(self, rng):
        head = ClassifierHead(rng.standard_normal((12, 4)), rng.standard_normal(12))
        groups = class_groups(head)
        assert groups.size.tolist() == [1] * 12
        assert groups.of_class.tolist() == groups.first.tolist() == list(range(12))


class TestRepeatedRows:
    """classify, segment_mask and loss_2d on heads with repeated rows against
    the float64 per-class oracles, and on heads without them, byte for byte
    against the per-class forms."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_classify_matches_oracle(self, rng, dtype):
        head = repeated_head(rng, dtype)
        feats = rng.standard_normal((50, 8)).astype(dtype)
        got = classify(feats, head)
        want = dense_classify(feats.astype(np.float64), float64_head(head))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=1e-12 if dtype == np.float64 else 1e-5)
        # classes of one group get the same bytes
        assert (got[:, 1::6] == got[:, [1]]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_classify_distinct_rows_parent_bytes(self, rng, dtype):
        head = ClassifierHead(rng.standard_normal((40, 8)).astype(dtype),
                              rng.standard_normal(40).astype(dtype))
        feats = rng.standard_normal((50, 8)).astype(dtype)
        assert classify(feats, head).tobytes() == dense_classify(feats, head).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_mask_ties_across_groups(self, rng, dtype):
        # classes 2 and 5 tie at zero features (equal biases, different
        # weights) above every other class; 5 also repeats as 9
        head = ClassifierHead(rng.standard_normal((12, 4)).astype(dtype),
                              np.zeros(12, dtype=dtype))
        head.weights[9], head.weights[7] = head.weights[5], head.weights[0]
        head.biases[[2, 5, 9]] = 3.0
        ident = rng.standard_normal((9, 7, 4)).astype(dtype)
        ident[::2] = 0.0
        t_final = np.zeros((9, 7), dtype=dtype)
        mask = segment_mask(ident, t_final, head)
        want = full_image_segment_mask(ident.astype(np.float64), t_final, float64_head(head))
        assert (mask[::2] == 2).all()
        assert mask.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_mask_matches_oracle(self, rng, dtype):
        head = repeated_head(rng, dtype)
        ident = rng.standard_normal((37, 29, 8)).astype(dtype)
        t_final = rng.uniform(0.0, 1.0, (37, 29)).astype(dtype)
        mask = segment_mask(ident, t_final, head)
        want = full_image_segment_mask(ident.astype(np.float64), t_final, float64_head(head))
        assert mask.tobytes() == want.tobytes()
        assert set(np.unique(mask)) <= {0, 1, 2, 3, 4, 5}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dense", "zero", "mixed", "rendered"])
    def test_loss_2d_matches_oracle(self, rng, dtype, kind):
        """Bounds as in TestLoss2dOracle, against the oracle in float64. The
        labels include class 9, which shares its row with 3, 15, 21, ...,
        and class 11, which shares the all-zero row with 5, 17, ..."""
        ident = identity_map(kind, rng, dtype)
        h, w, d = ident.shape
        head = repeated_head(rng, dtype, d=d)
        c = head.num_classes
        mask = rng.choice([0, 3, 5, 9, 11, 21], (h, w)).astype(np.uint8)
        loss, d_feats, (dw, db) = loss_2d(ident, mask, head)
        want_loss, want_feats, (want_dw, want_db) = dense_loss_2d(
            ident.astype(np.float64), mask, float64_head(head))
        for got in (d_feats, dw, db):
            assert got.dtype == dtype

        eps, npix = np.finfo(dtype).eps, h * w
        feats = ident.reshape(npix, d).astype(np.float64)
        dl = dense_classify(feats, float64_head(head))
        dl[np.arange(npix), mask.ravel()] -= 1.0
        dl = np.abs(dl) / npix
        assert abs(loss - want_loss) <= (npix + 2) * eps * want_loss
        assert np.all(np.abs(d_feats.reshape(npix, d) - want_feats.reshape(npix, d))
                      <= (c + 2) * eps * (dl @ np.abs(head.weights)))
        assert np.all(np.abs(dw - want_dw) <= (npix + 2) * eps * (dl.T @ np.abs(feats)))
        assert np.all(np.abs(db - want_db) <= (npix + 2) * eps * dl.sum(axis=0))
        # unlabelled classes of one group get the same gradient bytes
        for members in ([1, 7, 13, 37], [2, 8, 14, 38]):
            assert (dw[members] == dw[members[0]]).all()
            assert (db[members] == db[members[0]]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dense", "mixed", "rendered"])
    def test_loss_2d_distinct_rows_parent_bytes(self, rng, dtype, kind):
        ident = identity_map(kind, rng, dtype)
        h, w, d = ident.shape
        head = ClassifierHead(rng.standard_normal((40, d)).astype(dtype),
                              rng.standard_normal(40).astype(dtype))
        mask = rng.integers(0, 40, (h, w)).astype(np.uint8)
        got = loss_2d(ident, mask, head)
        want = dense_loss_2d(ident, mask, head)
        assert got[0] == want[0]
        for a, b in ((got[1], want[1]), (got[2][0], want[2][0]), (got[2][1], want[2][1])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

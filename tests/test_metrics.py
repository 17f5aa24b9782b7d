"""mIoU / boundary-IoU / PSNR against pixel-enumeration oracles."""

import numpy as np
import pytest

from gradiseg.metrics import (_boundary_band, _boundary_pixels, default_band_px,
                              evaluate_masks, mbiou, miou, psnr)
from oracles import boundary_band, boundary_pixels


def mbiou_oracle(pred, gt, band):
    classes = sorted(set(np.unique(gt).tolist()) - {0})
    scores = []
    for c in classes:
        p, g = pred == c, gt == c
        bp = boundary_band(p, band)
        bg = boundary_band(g, band)
        num = int(((bp & p) & (bg & g)).sum())
        den = int(((bp & p) | (bg & g)).sum())
        scores.append(num / den if den else (1.0 if np.array_equal(p, g) else 0.0))
    return float(np.mean(scores))


class TestMiou:
    def test_identical_masks(self):
        m = np.array([[0, 1], [2, 1]], dtype=np.uint8)
        assert miou(m, m) == 1.0

    def test_disjoint_masks(self):
        gt = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        pred = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        assert miou(pred, gt) == 0.0

    def test_half_vs_three_quarters(self):
        # gt: left half class 1; pred: left 3/4 on 8x8 -> IoU = 32/48
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[:, :4] = 1
        pred = np.zeros((8, 8), dtype=np.uint8)
        pred[:, :6] = 1
        assert miou(pred, gt) == pytest.approx(32 / 48)

    def test_class_absent_in_pred_scores_zero(self):
        gt = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        pred = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        # class 1: inter 2, union 4 -> 0.5 ; class 2: 0
        assert miou(pred, gt) == pytest.approx(0.25)

    def test_monotone_growing_overlap(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2:6, 2:6] = 1
        prev = -1.0
        for width in (2, 3, 4):
            pred = np.zeros((8, 8), dtype=np.uint8)
            pred[2:6, 2:2 + width] = 1
            score = miou(pred, gt)
            assert score > prev
            prev = score

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            miou(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8))


class TestMbiou:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 4, (16, 16)).astype(np.uint8)
        assert mbiou(m, m, band_px=2) == 1.0

    def test_absent_class_scores_zero(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2:6, 2:6] = 1
        pred = np.zeros((8, 8), dtype=np.uint8)
        assert mbiou(pred, gt, band_px=2) == 0.0

    def test_shifted_square_matches_oracle(self):
        gt = np.zeros((12, 12), dtype=np.uint8)
        gt[3:9, 3:9] = 1
        pred = np.zeros((12, 12), dtype=np.uint8)
        pred[3:9, 4:10] = 1  # shifted right by 1
        got = mbiou(pred, gt, band_px=2)
        want = mbiou_oracle(pred, gt, 2)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("cut, shift, want", [
        (False, 1, 0.714), (False, 2, 0.500), (False, 4, 0.318), (True, 0, 0.757)])
    def test_published_definition(self, cut, shift, want):
        # Boundary IoU (Cheng et al. 2021) is the IoU of the masks' inner
        # bands; the union of both bands over the union of both masks reads
        # 0.290 for the 4 px shift and 0.626 for the cut
        gt = np.zeros((64, 64), dtype=np.uint8)
        gt[16:48, 16:48] = 1
        pred = np.zeros_like(gt)
        pred[16:48, 16 + shift:48 + shift] = 1
        if cut:
            pred[20:24, 20:44] = 0
        assert mbiou(pred, gt, band_px=2) == pytest.approx(want, abs=5e-4)

    def test_random_masks_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            gt = rng.integers(0, 3, (10, 10)).astype(np.uint8)
            pred = rng.integers(0, 3, (10, 10)).astype(np.uint8)
            assert mbiou(pred, gt, band_px=1) == pytest.approx(
                mbiou_oracle(pred, gt, 1), abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 4, (12, 12)).astype(np.uint8)
        pred = rng.integers(0, 4, (12, 12)).astype(np.uint8)
        # permute non-background labels consistently in both masks
        perm = {0: 0, 1: 3, 2: 1, 3: 2}
        gt_p = np.vectorize(perm.get)(gt).astype(np.uint8)
        pred_p = np.vectorize(perm.get)(pred).astype(np.uint8)
        assert mbiou(pred_p, gt_p, 2) == pytest.approx(mbiou(pred, gt, 2))

    def test_score_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gt = rng.integers(0, 3, (9, 9)).astype(np.uint8)
            pred = rng.integers(0, 3, (9, 9)).astype(np.uint8)
            assert 0.0 <= mbiou(pred, gt, 1) <= 1.0

    def test_default_band(self):
        assert default_band_px((64, 64)) == 2
        assert default_band_px((10, 10)) == 1


def scipy_boundary_band(binary, band_px):
    """The band as scipy.ndimage forms it: erosion with the border outside
    the mask, then dilation by a (2 band_px + 1)^2 square."""
    from scipy.ndimage import binary_dilation, binary_erosion

    square = np.ones((3, 3), dtype=bool)
    boundary = binary & ~binary_erosion(binary, square, border_value=0)
    size = 2 * band_px + 1
    return boundary, binary_dilation(boundary, np.ones((size, size), dtype=bool))


def band_masks():
    rng = np.random.default_rng(11)
    row = np.array([[0, 1, 1, 1, 0, 1, 1, 0, 0, 1]], dtype=bool)
    border = np.zeros((10, 12), dtype=bool)
    border[:4, :5] = True
    border[6:, 9:] = True
    holed = np.zeros((12, 12), dtype=bool)
    holed[2:10, 3:11] = True
    holed[5:7, 6:8] = False
    return {
        "1x1-set": np.ones((1, 1), dtype=bool),
        "1x1-unset": np.zeros((1, 1), dtype=bool),
        "1xW": row,
        "Hx1": row.T.copy(),
        "all-true": np.ones((7, 9), dtype=bool),
        "all-false": np.zeros((7, 9), dtype=bool),
        "touching-border": border,
        "holed-square": holed,
        "random": rng.random((13, 17)) < 0.5,
    }


BAND_MASKS = band_masks()
BANDS = (1, 2, 3, 5, 16, 40)   # 16 and 40 reach past every side


class TestBoundaryBands:
    """The separable square filter against the pixel-by-pixel reference of
    tests/oracles.py and against scipy.ndimage."""

    @pytest.mark.parametrize("band_px", BANDS)
    @pytest.mark.parametrize("name", list(BAND_MASKS))
    def test_band_matches_references(self, name, band_px):
        binary = BAND_MASKS[name]
        want_boundary, want_band = scipy_boundary_band(binary, band_px)
        np.testing.assert_array_equal(_boundary_pixels(binary), boundary_pixels(binary))
        np.testing.assert_array_equal(_boundary_pixels(binary), want_boundary)
        np.testing.assert_array_equal(_boundary_band(binary, band_px),
                                      boundary_band(binary, band_px))
        np.testing.assert_array_equal(_boundary_band(binary, band_px), want_band)

    @pytest.mark.parametrize("band_px", BANDS)
    @pytest.mark.parametrize("name", list(BAND_MASKS))
    def test_mbiou_matches_reference(self, name, band_px):
        binary = BAND_MASKS[name]
        flip = np.random.default_rng(band_px).random(binary.shape) < 0.2
        gt = np.where(binary, 1, 2).astype(np.uint8)
        pred = np.where(binary ^ flip, 1, 2).astype(np.uint8)
        assert mbiou(pred, gt, band_px) == mbiou_oracle(pred, gt, band_px)
        assert mbiou(gt, gt, band_px) == 1.0


class TestPsnr:
    def test_identical_images_capped(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        assert psnr(img, img) == 99.0

    def test_known_mse(self):
        a = np.zeros((4, 4, 3))
        b = np.full((4, 4, 3), 0.5)
        assert psnr(a, b) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-9)
        assert psnr(a, b) == pytest.approx(6.0206, abs=1e-3)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0, 1, (5, 5, 3)), rng.uniform(0, 1, (5, 5, 3))
        assert psnr(a, b) == psnr(b, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_image_rejected(self, bad):
        # min(99, nan) is 99: a NaN pixel would score as a perfect match
        a = np.full((4, 4, 3), 0.5)
        b = a.copy()
        b[1, 2, 0] = bad
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="finite"):
                psnr(x, y)


class TestEvaluateMasks:
    def test_pooled_counts(self):
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[:, :2] = 1
        pred_good = gt.copy()
        pred_half = np.zeros_like(gt)
        pred_half[:2, :2] = 1
        report = evaluate_masks([pred_good, pred_half], [gt, gt])
        # pooled: inter = 8 + 4, union = 8 + 8
        assert report.per_class_iou[1] == pytest.approx(12 / 16)
        assert report.pixel_counts[1] == 16
        assert 0 < report.mbiou < 1
        assert report.miou_per_view == [1.0, miou(pred_half, gt)] == [1.0, 0.5]
        assert report.mbiou_per_view == [1.0, mbiou(pred_half, gt)]
        assert report.mbiou == pytest.approx(np.mean(report.mbiou_per_view))

    def test_no_views_rejected(self):
        with pytest.raises(ValueError, match="no masks"):
            evaluate_masks([], [])

    @pytest.mark.parametrize("n_pred, n_gt", [(1, 3), (3, 1), (0, 2)])
    def test_unequal_view_counts_rejected(self, n_pred, n_gt):
        mask = np.ones((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"{n_pred} predicted masks for {n_gt}"):
            evaluate_masks([mask] * n_pred, [mask] * n_gt)

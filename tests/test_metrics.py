"""mIoU / boundary-IoU / PSNR against pixel-enumeration oracles."""

import numpy as np
import pytest

from gradiseg.metrics import default_band_px, evaluate_masks, mbiou, miou, psnr


def boundary_band_oracle(binary, band):
    """Exhaustive per-pixel oracle, written against the documented definition:
    a boundary pixel is a mask pixel with an 8-neighbor outside the mask (the
    image border counts as outside); the band is every pixel within Chebyshev
    distance `band` of a boundary pixel."""
    h, w = binary.shape
    boundary = np.zeros_like(binary)
    for y in range(h):
        for x in range(w):
            if not binary[y, x]:
                continue
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if ny < 0 or ny >= h or nx < 0 or nx >= w or not binary[ny, nx]:
                        boundary[y, x] = True
    out = np.zeros_like(binary)
    for y in range(h):
        for x in range(w):
            y0, y1 = max(0, y - band), min(h, y + band + 1)
            x0, x1 = max(0, x - band), min(w, x + band + 1)
            out[y, x] = boundary[y0:y1, x0:x1].any()
    return out


def mbiou_oracle(pred, gt, band):
    classes = sorted(set(np.unique(gt).tolist()) - {0})
    scores = []
    for c in classes:
        p, g = pred == c, gt == c
        bp = boundary_band_oracle(p, band)
        bg = boundary_band_oracle(g, band)
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

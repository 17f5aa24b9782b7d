"""Projection geometry: screen means, EWA covariance, culling, depth order."""

import numpy as np
import pytest

from conftest import random_cloud, quat_rotation_ref
from gradiseg.camera import CameraView, look_at, project_cloud
from gradiseg.scene import GaussianCloud
from oracles import Gaussian, project_gaussian


def identity_camera(**kw):
    defaults = dict(world_to_camera=np.eye(4), fx=100.0, fy=100.0,
                    cx=32.0, cy=32.0, width=64, height=64)
    defaults.update(kw)
    return CameraView(**defaults)


def simple_gaussian(position, scale=(0.1, 0.1, 0.1)):
    return Gaussian(position=np.asarray(position, dtype=np.float64),
                    scale=np.asarray(scale, dtype=np.float64),
                    rotation=np.array([1.0, 0.0, 0.0, 0.0]),
                    opacity=0.8, color=np.array([0.5, 0.5, 0.5]),
                    encoding=np.zeros(4))


class TestProjection:
    def test_on_axis_pinhole(self):
        cam = identity_camera()
        splat = project_gaussian(simple_gaussian([0.0, 0.0, 2.0]), cam)
        np.testing.assert_allclose(splat.mean2d, [32.0, 32.0], atol=1e-12)
        assert splat.depth == pytest.approx(2.0)

    def test_orthographic_isotropic_cov(self):
        cam = identity_camera(mode="orthographic", fx=1.0, fy=1.0)
        g = simple_gaussian([0.0, 0.0, 1.0], scale=(1.0, 1.0, 1.0))
        splat = project_gaussian(g, cam)
        np.testing.assert_allclose(splat.cov2d, np.eye(2) * 1.3, atol=1e-12)

    def test_near_plane_culling(self):
        cam = identity_camera()
        assert project_gaussian(simple_gaussian([0.0, 0.0, 0.005]), cam) is None
        assert project_gaussian(simple_gaussian([0.0, 0.0, -1.0]), cam) is None

    def test_offscreen_culling(self):
        cam = identity_camera()
        assert project_gaussian(simple_gaussian([50.0, 0.0, 1.0]), cam) is None

    def test_cov2d_matches_fd_jacobian(self, rng):
        # numerical-Jacobian oracle: FD of the projection map around p,
        # then J_fd Sigma3 J_fd^T + dilation
        cloud = random_cloud(rng, 100, dim=4, z_range=(-0.3, 0.3))
        cloud.positions[:, :2] *= 0.5   # every centre in view: no row is culled
        cam = CameraView(look_at((0.3, -0.2, -3.0), (0.0, 0.0, 0.0)),
                         fx=90.0, fy=110.0, cx=24.0, cy=20.0, width=48, height=40)
        splats = project_cloud(cloud, cam)
        R_cw, t_cw = cam.rotation, cam.translation
        h = 1e-5
        checked = 0
        for row in range(splats.count):
            i = splats.index[row]

            def proj(p):
                t = R_cw @ p + t_cw
                return np.array([cam.fx * t[0] / t[2] + cam.cx,
                                 cam.fy * t[1] / t[2] + cam.cy])

            p0 = cloud.positions[i]
            J = np.zeros((2, 3))
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                J[:, k] = (proj(p0 + dp) - proj(p0 - dp)) / (2 * h)
            Rg = quat_rotation_ref(cloud.rotations[i])
            S = np.diag(cloud.scales[i])
            cov3 = Rg @ S @ S @ Rg.T
            expect = J @ cov3 @ J.T + 0.3 * np.eye(2)
            np.testing.assert_allclose(splats.cov2d[row], expect,
                                       rtol=1e-3, atol=1e-6)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize("mode", ["pinhole", "orthographic"])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_cov2d_matches_stacked_matrices(self, rng, mode, dtype, rtol):
        # float64 reference A Sigma3 A^T + dilation, A = J R_cw, as stacked
        # matrices from the cloud's own (possibly float32) values; each
        # row's error is bounded by rtol times its largest entry
        cloud = random_cloud(rng, 200, dim=4, dtype=dtype, scale_range=(0.01, 0.8))
        cloud.positions[:, :2] *= 0.5   # every centre in view: no row is culled
        f = 90.0 if mode == "pinhole" else 30.0
        cam = CameraView(look_at((0.3, -0.2, -3.0), (0.0, 0.0, 0.0)), fx=f,
                         fy=1.2 * f, cx=24.0, cy=20.0, width=48, height=40, mode=mode)
        splats = project_cloud(cloud, cam)
        assert splats.count == 200 and splats.cov2d.dtype == dtype
        idx = splats.index
        t = cloud.positions[idx].astype(np.float64) @ cam.rotation.T + cam.translation
        J = np.zeros((200, 2, 3))
        if mode == "pinhole":
            J[:, 0, 0], J[:, 1, 1] = cam.fx / t[:, 2], cam.fy / t[:, 2]
            J[:, 0, 2] = -cam.fx * t[:, 0] / t[:, 2] ** 2
            J[:, 1, 2] = -cam.fy * t[:, 1] / t[:, 2] ** 2
        else:
            J[:, 0, 0], J[:, 1, 1] = cam.fx, cam.fy
        A = J @ cam.rotation
        R = np.stack([quat_rotation_ref(q) for q in cloud.rotations[idx].astype(np.float64)])
        M = R * cloud.scales[idx].astype(np.float64)[:, None, :]
        expect = A @ M @ np.swapaxes(M, 1, 2) @ np.swapaxes(A, 1, 2) + 0.3 * np.eye(2)
        err = np.abs(splats.cov2d - expect).max(axis=(1, 2))
        assert np.all(err <= rtol * np.abs(expect).max(axis=(1, 2)))

    def test_culling_monotone_in_image_size(self, rng):
        cloud = random_cloud(rng, 300, dim=4, z_range=(-1.0, 1.0))
        small = CameraView(look_at((0, 0, -3.0), (0, 0, 0)), fx=60, fy=60,
                           cx=16, cy=16, width=32, height=32)
        big = CameraView(look_at((0, 0, -3.0), (0, 0, 0)), fx=60, fy=60,
                         cx=16, cy=16, width=128, height=128)
        vis_small = set(project_cloud(cloud, small).index.tolist())
        vis_big = set(project_cloud(cloud, big).index.tolist())
        assert vis_small <= vis_big

    def test_cov2d_positive_definite(self, rng):
        cloud = random_cloud(rng, 200, dim=4, scale_range=(0.01, 0.8))
        cam = CameraView(look_at((0, 0, -2.5), (0, 0, 0)), fx=70, fy=70,
                         cx=32, cy=32, width=64, height=64)
        splats = project_cloud(cloud, cam)
        for cov in splats.cov2d:
            np.linalg.cholesky(cov)  # raises if not PD


def depth_cloud(positions):
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    return GaussianCloud(positions, np.full((n, 3), 0.05),
                         np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.full(n, 0.5),
                         np.full((n, 3), 0.5), np.zeros((n, 4)))


class TestDepthSort:
    """The order project_cloud emits: the camera is the identity, so each
    splat's depth is exactly its z coordinate."""

    def test_basic_order(self):
        cloud = depth_cloud([[0.0, 0.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        splats = project_cloud(cloud, identity_camera())
        np.testing.assert_array_equal(splats.index, [1, 2, 0])
        assert np.all(np.diff(splats.depth) >= 0)

    def test_tie_by_source_index(self):
        # rows 0 and 2 share a depth behind row 1
        cloud = depth_cloud([[0.1, 0.0, 2.0], [0.0, 0.0, 1.0], [-0.1, 0.0, 2.0]])
        splats = project_cloud(cloud, identity_camera())
        np.testing.assert_array_equal(splats.index, [1, 0, 2])

    def test_matches_reference_sort(self, rng):
        n = 1000
        z = rng.uniform(1.0, 10.0, n)
        z[rng.integers(0, n, 50)] = 2.5  # inject ties
        xy = rng.uniform(-0.2, 0.2, (n, 2))
        splats = project_cloud(depth_cloud(np.column_stack([xy, z])),
                               identity_camera())
        assert splats.count == n
        expect = sorted(range(n), key=lambda k: (z[k], k))
        np.testing.assert_array_equal(splats.index, expect)
        np.testing.assert_array_equal(splats.depth, z[expect])

    def test_culled_rows_absent(self):
        # behind the near plane, behind the camera, off screen, then visible
        cloud = depth_cloud([[0.0, 0.0, 0.005], [0.0, 0.0, -1.0],
                             [50.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.1, 0.0, 1.5]])
        splats = project_cloud(cloud, identity_camera())
        np.testing.assert_array_equal(splats.index, [4, 3])
        assert splats.n_source == 5

    def test_splat_that_reaches_no_pixel_culled(self):
        # opacity below ALPHA_CUTOFF shrinks the bbox to the mean, here
        # (32.5, 32): no integer pixel, so no fragment, though its CULL_SIGMA
        # ellipse covers several pixels
        cloud = depth_cloud([[0.01, 0.0, 2.0], [0.0, 0.0, 2.5]])
        cloud.opacities[0] = 0.003
        splats = project_cloud(cloud, identity_camera())
        np.testing.assert_array_equal(splats.index, [1])


class TestCameraValidation:
    def test_bad_focal(self):
        with pytest.raises(ValueError, match="focal"):
            identity_camera(fx=-1.0)

    @pytest.mark.parametrize("field, entry", [
        ("fx", None), ("fy", None), ("cx", None), ("cy", None),
        ("world_to_camera", (0, 3)), ("world_to_camera", (1, 1)),
        ("world_to_camera", (3, 0))],
        ids=["fx", "fy", "cx", "cy", "translation", "rotation", "bottom-row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, field, entry, bad):
        if entry is None:
            kw = {field: bad}
            words = "intrinsics fx, fy, cx and cy must be finite"
        else:
            m = np.eye(4)
            m[entry] = bad
            kw = {field: m}
            words = "world_to_camera must be finite"
        with pytest.raises(ValueError, match=words):
            identity_camera(**kw)

    def test_non_orthonormal_rotation(self):
        m = np.eye(4)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="orthonormal"):
            identity_camera(world_to_camera=m)

    def test_look_at_points_camera_at_target(self):
        w2c = look_at((2.0, 1.0, 1.5), (0.0, 0.0, 0.0))
        target_cam = w2c[:3, :3] @ np.zeros(3) + w2c[:3, 3]
        assert target_cam[0] == pytest.approx(0.0, abs=1e-12)
        assert target_cam[1] == pytest.approx(0.0, abs=1e-12)
        assert target_cam[2] == pytest.approx(np.sqrt(2 ** 2 + 1 + 1.5 ** 2))

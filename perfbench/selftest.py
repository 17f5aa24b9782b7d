"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must pass on the engine's real output and fail on one corrupted
copy of it. Runs on a small scene in a few seconds; exits 1 if any check
passes a corrupted output or rejects a correct one.
"""

import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GRADISEG_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def expect(name: str, good, bad, checks) -> bool:
    """`good()` must pass and `bad()` must raise CheckFailed."""
    try:
        good()
    except checks.CheckFailed as exc:
        print(f"FAIL {name}: rejects the engine's output: {exc}")
        return False
    try:
        bad()
    except checks.CheckFailed as exc:
        print(f"ok   {name}: corrupted output caught ({exc})")
        return True
    print(f"FAIL {name}: corrupted output passed")
    return False


def main() -> int:
    if not (SRC / "gradiseg" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dataclasses

    import numpy as np

    import checks
    import run as bench
    from workloads import G

    rng = np.random.default_rng(7)
    base = G["synth"].default_scene_spec(seed=3)
    spec = dataclasses.replace(base, views=4, image_size=32, objects=[
        dataclasses.replace(o, count=o.count // 4) for o in base.objects])
    cloud, head, ds, _ = G["synth"].generate(spec)
    cam = ds.views[0]
    out = G["render"].render(cloud, cam)
    results = []

    # render: one clear covered pixel shifted by 0.01
    pixels = checks.sample_pixels(rng, out, 24)
    amb = checks.composite_pixels(cloud, cam, pixels)[3]
    x, y = next(p for p, a in zip(pixels, amb)
                if not a and out.final_transmittance[p[1], p[0]] < 0.999)
    bad_out = G["render"].render(cloud, cam)
    bad_out.color[y, x, 1] += 0.01
    results.append(expect("render", lambda: checks.check_render(cloud, cam, out, pixels),
                          lambda: checks.check_render(cloud, cam, bad_out, pixels), checks))

    # loss_3d: the engine's value with k+1 neighbours stands in for a wrong search
    moved = cloud.copy()
    moved.pos_grad_ema = rng.standard_normal(moved.pos_grad_ema.shape).astype(np.float32)
    probe = G["semantic"].ClassifierHead(*checks.probe_head(moved.encodings, head.num_classes, rng))
    for mode in ("global", "local-adaptive"):
        ref = checks.reference_loss_3d(moved, probe, 200, 5, mode, (1, 2))
        right = G["laknn"].loss_3d(moved, probe, 200, 5, mode, (1, 2))[0]
        wrong = G["laknn"].loss_3d(moved, probe, 200, 6, mode, (1, 2))[0]
        results.append(expect(f"loss_3d[{mode}]",
                              lambda: checks.check_loss_3d(right, ref, mode),
                              lambda: checks.check_loss_3d(wrong, ref, mode), checks))

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        # GSEG1 round trip: one payload byte flipped on disk
        path = Path(tmp) / "scene.gseg"
        G["scene"].save_scene(cloud, head, path)
        good = G["scene"].load_scene(path)
        blob = bytearray(path.read_bytes())
        blob[21 + 4 * 7] ^= 0x01            # a low mantissa bit of positions[2, 1]
        path.write_bytes(bytes(blob))
        bad = G["scene"].load_scene(path)
        results.append(expect("gseg round trip",
                              lambda: checks.check_same_scene((cloud, head), good, "gseg"),
                              lambda: checks.check_same_scene((cloud, head), bad, "gseg"),
                              checks))

    # metrics.csv: a NaN, and an objective that rises
    csv_ok = "iter,l1,l2d,l3d,n_gaussians,psnr_holdout\n10,0.1,5.5,0.001,100,15\n20,0.09,5.4,0.001,100,16\n"
    csv_nan = csv_ok.replace("5.4,", "nan,")
    csv_up = csv_ok.replace("5.4,", "5.6,")
    results.append(expect("metrics.csv finite", lambda: checks.check_metrics_csv(csv_ok, 1.0, 2.0),
                          lambda: checks.check_metrics_csv(csv_nan, 1.0, 2.0), checks))
    results.append(expect("metrics.csv objective", lambda: checks.check_metrics_csv(csv_ok, 1.0, 2.0),
                          lambda: checks.check_metrics_csv(csv_up, 1.0, 2.0), checks))

    # serving checks
    mask = G["semantic"].segment_mask(out.identity, out.final_transmittance, head)
    bad_mask = mask.copy()
    bad_mask[y, x] = 7
    results.append(expect("segment", lambda: checks.check_mask_equal(mask, cam.mask),
                          lambda: checks.check_mask_equal(bad_mask, cam.mask), checks))
    shifted = out.color.copy()
    shifted[y, x, 0] += 1.0 / 255.0
    results.append(expect("image", lambda: checks.check_image(out.color, cam.image),
                          lambda: checks.check_image(shifted, cam.image), checks))
    gid = int(mask[y, x]) or 1
    full = G["render"].group_weight_mask(cloud, cam)
    removed = G["render"].group_weight_mask(G["scene"].remove_group(cloud, gid), cam)
    results.append(expect("remove_group", lambda: checks.check_removed(removed, gid),
                          lambda: checks.check_removed(full, gid), checks))
    extracted = G["render"].group_weight_mask(G["scene"].extract_group(cloud, gid), cam)
    results.append(expect("extract_group", lambda: checks.check_extracted(extracted, gid),
                          lambda: checks.check_extracted(full, gid), checks))
    rgb = (0.25, 0.5, 0.75)
    recolored = G["scene"].recolor_group(cloud, gid, rgb)
    spill = recolored.copy()
    spill.colors[np.nonzero(cloud.group_ids != gid)[0][0]] = rgb
    results.append(expect("recolor_group", lambda: checks.check_recolored(cloud, recolored, gid, rgb),
                          lambda: checks.check_recolored(cloud, spill, gid, rgb), checks))

    # determinism: a later round whose digest differs from the first
    class Fixed:
        def check(self, out):
            return []
    same = [{"digests": {"a": "1"}}, {"digests": {"a": "1"}}]
    differ = [{"digests": {"a": "1"}}, {"digests": {"a": "2"}}]
    ok_same, _ = bench.verify(Fixed(), same)
    ok_differ, _ = bench.verify(Fixed(), differ)
    print(("ok  " if ok_same and not ok_differ else "FAIL") + " round digests: a differing round is caught")
    results.append(ok_same and not ok_differ)

    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Generate the stored references once, from a trusted version of the code.

    python3 perfbench/make_references.py

Writes references/refs.json (digests of the inputs, the inference
checkpoints, the whole and tiled radiance, and the final checkpoints of each
training variant) and references/radiance.npz (the whole-image radiance of
each scene as float32, for the size of any difference).  It refuses to
overwrite existing references: the benchmark checks the code under test
against them, so they must not be regenerated from that code by accident.
Delete the files first to regenerate on purpose.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import scenes  # noqa: E402
from workloads import Inference, Training  # noqa: E402

OUT = os.path.join(HERE, "references")


def main():
    targets = [os.path.join(OUT, name) for name in ("refs.json", "radiance.npz")]
    if any(os.path.exists(t) for t in targets):
        print(f"error: references already exist in {OUT}", file=sys.stderr)
        return 1
    work = os.path.join(os.path.dirname(HERE), ".perfbench_work", f"references-{os.getpid()}")
    os.makedirs(work)
    try:
        refs = {"scenes": [], "train": {}}
        radiance = {}
        whole = Inference(work, 0)
        whole.setup(0)
        tiled = Inference(work, scenes.TILE_SIZE)
        tiled.setup(0)
        refs["models_sha256"] = [scenes.file_digest(p) for p in whole.checkpoints]
        for k, path in enumerate(whole.inputs):
            _, rad_whole = whole.op(k)
            _, rad_tiled = tiled.op(k)
            radiance[f"scene{k}"] = rad_whole.astype(np.float32)
            refs["scenes"].append(
                {
                    "input_sha256": scenes.file_digest(path),
                    "whole_sha256": scenes.array_digest(rad_whole),
                    "tiled_sha256": scenes.array_digest(rad_tiled),
                    "radiance_mean": float(rad_whole.mean()),
                    "radiance_clipped_share": float(np.mean((rad_whole <= 0) | (rad_whole >= 1))),
                    "tiled_max_abs_diff": float(np.max(np.abs(rad_whole - rad_tiled))),
                }
            )
            print(json.dumps(refs["scenes"][-1]), flush=True)
        for variant in range(scenes.TRAIN_VARIANTS):
            bench = Training(work, variant)
            bench.setup(1)
            refs["train"][str(variant)] = bench.op()[3]
            print(f"train variant {variant}: {refs['train'][str(variant)]}", flush=True)
        os.makedirs(OUT, exist_ok=True)
        np.savez_compressed(os.path.join(OUT, "radiance.npz"), **radiance)
        with open(os.path.join(OUT, "refs.json"), "w") as f:
            json.dump(refs, f, indent=1)
            f.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's operations: one image through the inference path, or one
training pass.  Both the runner and the reference generator call these, so
the references are made by exactly the code path that is measured.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

import scenes
from nightdehaze.imageio import read_ppm, write_ppm
from nightdehaze.networks import load_model
from nightdehaze.pipeline import run_pipeline
from nightdehaze.synthesis import build_dataset
from nightdehaze.training import load_samples_from_manifest, train_deglow, train_dehaze

HERE = os.path.dirname(os.path.abspath(__file__))


def _no_span(name):
    return nullcontext()


def setup_probe(deglow_path, dehaze_path):
    """Inference set-up in a fresh interpreter: package import plus
    load_model of both checkpoints; returns {"import_s", "load_s"}."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), deglow_path, dehaze_path],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Inference:
    """read_ppm -> run_pipeline -> write_ppm on the scene pool, whole-image
    (tile_size 0) or tiled."""

    def __init__(self, work, tile_size, write=True):
        """Inputs and checkpoints live in `work`; `write` makes them, and a
        round worker passes False to use its parent's."""
        self.work = work
        self.tile_size = tile_size
        self.inputs = [os.path.join(work, f"scene{k}.ppm") for k in range(scenes.SCENE_POOL)]
        self.checkpoints = scenes.model_paths(work)
        if write:
            for k, path in enumerate(self.inputs):
                write_ppm(path, scenes.night_scene(k))
            scenes.write_models(work)
        self.output = os.path.join(work, "radiance.ppm")
        self.deglow = self.dehaze = None

    def probe(self, repeats):
        """Time `repeats` cold set-ups, each in a fresh interpreter; returns
        the probe results."""
        return [setup_probe(*self.checkpoints) for _ in range(repeats)]

    def load(self):
        """Load the models into this process."""
        self.deglow, self.dehaze = (load_model(path) for path in self.checkpoints)

    def setup(self, repeats):
        """probe(repeats), then load(); returns the probe results."""
        probes = self.probe(repeats)
        self.load()
        return probes

    def op(self, scene, tracer=None):
        """One image; returns (seconds, radiance)."""
        span = tracer.span if tracer is not None else _no_span
        start = time.perf_counter()
        with span("op"):
            with span("imageio.read"):
                image = read_ppm(self.inputs[scene])
            with span("pipeline.run"):
                artifacts = run_pipeline(image, self.deglow, self.dehaze, tile_size=self.tile_size)
            with span("imageio.write"):
                write_ppm(self.output, artifacts.radiance)
        return time.perf_counter() - start, artifacts.radiance

    def written_matches(self, radiance):
        """The output file decodes to the 8-bit quantisation of `radiance`."""
        expected = np.rint(np.clip(radiance, 0.0, 1.0) * 255.0) / 255.0
        return np.array_equal(read_ppm(self.output), expected)


class Training:
    """One pass: fresh criterion-6 models, train_deglow then train_dehaze,
    final checkpoints hashed."""

    def __init__(self, work, variant):
        self.work = work
        self.variant = variant
        self.pairs = scenes.train_pairs(variant)
        self.dataset = os.path.join(work, "dataset")
        self.deglow_set = self.dehaze_set = None

    def setup(self, repeats):
        """Build the dataset, read it back and initialise the models,
        `repeats` times into a fresh directory; the last build stays for
        load().  Returns one dict of {"setup_s", "build_s", "read_s"} per
        repetition."""
        timings = []
        for _ in range(repeats):
            # deleting the files before their pages are written back keeps
            # one repetition's disk writes from slowing the next
            shutil.rmtree(self.dataset, ignore_errors=True)
            t0 = time.perf_counter()
            build_dataset(self.pairs, scenes.train_synthesis(self.variant), self.dataset)
            t1 = time.perf_counter()
            self.load()
            t2 = time.perf_counter()
            scenes.fresh_train_models(self.variant)
            t3 = time.perf_counter()
            timings.append({"setup_s": t3 - t0, "build_s": t1 - t0, "read_s": t2 - t1})
        return timings

    def load(self):
        """Read the dataset that setup() built into this process."""
        self.deglow_set = load_samples_from_manifest(self.dataset, "deglow")
        self.dehaze_set = load_samples_from_manifest(self.dataset, "dehaze")

    def op(self, tracer=None):
        """One training pass; returns (seconds, deglow seconds, dehaze
        seconds, checkpoint digest)."""
        span = tracer.span if tracer is not None else _no_span
        deglow, dehaze = scenes.fresh_train_models(self.variant)
        deglow_schedule, dehaze_schedule = scenes.train_schedules(self.variant)
        t0 = time.perf_counter()
        with span("op"):
            with span("training.deglow"):
                train_deglow(deglow, self.deglow_set, deglow_schedule)
            t1 = time.perf_counter()
            with span("training.dehaze"):
                train_dehaze(dehaze, self.dehaze_set, dehaze_schedule)
        t2 = time.perf_counter()
        digest = scenes.checkpoint_digest((deglow, dehaze), self.work)
        return t2 - t0, t1 - t0, t2 - t1, digest

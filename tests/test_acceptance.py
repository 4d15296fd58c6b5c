"""Acceptance gate: one test per release criterion.

Each test prints a single `PASS criterion-N ...` (or `FAIL ...`) line with the
measured quantity, so `pytest tests/test_acceptance.py -v -s` doubles as a
release report.  Training-based criteria (6, 9, 10) run real SGD at desk
scale and are marked `slow`; 6, 8 and 9 run in single-threaded subprocesses.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nightdehaze.atmospherics import (
    compose_haze,
    estimate_atmospheric_light,
    recover_radiance,
    transmission_from_depth,
)
from nightdehaze.engine import ConvParams, dilated_conv2d
from nightdehaze.gradsuite import run_gradient_suite
from nightdehaze.metrics import psnr, ssim
from nightdehaze.synthesis import SynthesisConfig, build_dataset, procedural_scene

from conftest import make_scene, small_config, ssim_reference

T_MIN = 0.05


@pytest.fixture(autouse=True)
def _uncaptured_report(request):
    # Route the per-criterion pass/fail line around pytest's output capture so
    # it lands in the terminal (and any tee'd log) even without -s.
    global _emit
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)

    yield


def _report(n, ok, detail):
    _emit(f"\n{'PASS' if ok else 'FAIL'} criterion-{n} {detail}")
    assert ok, f"criterion-{n}: {detail}"


def _single_threaded_env():
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def _run_py(code, timeout=1800):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_single_threaded_env(),
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_01_physics_roundtrip():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        reflection = rng.uniform(0.0, 1.0, (64, 64, 3))
        beta = rng.uniform(0.5, 1.5)
        # keep t >= t_min: t = exp(-beta * d) >= 0.05 iff d <= ln(20) / beta
        depth = rng.uniform(0.0, np.log(1.0 / T_MIN) / beta, (64, 64))
        light = rng.uniform(0.5, 1.0, 3)
        t = transmission_from_depth(depth, beta)
        assert t.min() >= T_MIN - 1e-12
        haze = compose_haze(reflection, t, light)
        back = recover_radiance(haze, t, light, t_min=T_MIN)
        worst = max(worst, float(np.max(np.abs(back - reflection))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-5 and elapsed < 5.0,
        f"physics-roundtrip: max|err| {worst:.2e} (<= 1e-5), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_atmospheric_light_estimation():
    rng = np.random.default_rng(5)
    beta = 4.6  # far region depth 1.0 -> t = e^-4.6 ~ 0.01 < 0.1
    worst = 0.0
    for lr in (0.5, 0.7, 0.9):
        for lg in (0.5, 0.7, 0.9):
            for lb in (0.5, 0.7, 0.9):
                light = np.array([lr, lg, lb])
                depth = np.full((32, 32), 0.1)
                depth[:, 16:] = 1.0
                reflection = rng.uniform(0.0, 1.0, (32, 32, 3))
                t = transmission_from_depth(depth, beta)
                assert t.min() < 0.1
                haze = compose_haze(reflection, t, light)
                estimate = estimate_atmospheric_light(t, haze)
                worst = max(worst, float(np.max(np.abs(estimate - light))))
    _report(
        2,
        worst <= 0.02,
        f"atmospheric-light: max per-channel error {worst:.4f} over 27 true values (<= 0.02)",
    )


def test_criterion_03_gradient_fidelity():
    results = [(name, report.error) for name, report in run_gradient_suite(seed=0)]
    names = " ".join(name for name, _ in results)
    for required in ("DF=1", "DF=2", "DF=3", "relu", "concat", "mse", "bce",
                     "deglow_step", "deglow_loss", "dehaze_loss"):
        assert required in names, f"gradient suite missing case {required}"
    # a NaN case ranks worst, so it fails the criterion
    worst_name, worst = max(results, key=lambda r: (np.isnan(r[1]), r[1]))
    _report(
        3,
        worst <= 1e-3,
        f"gradient-fidelity: worst rel error {worst:.2e} ({worst_name}) (<= 1e-3)",
    )


def _analytic_extent(layers, dilation):
    """Impulse-response support of `layers` stacked 3x3 convs at one dilation."""
    return 1 + 2 * layers * dilation


def _impulse_support(dilation, layers=3):
    size = 4 * _analytic_extent(layers, dilation)  # generous margin
    x = np.zeros((1, 1, size, size))
    x[0, 0, size // 2, size // 2] = 1.0
    params = ConvParams(
        weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1), dilation=dilation
    )
    for _ in range(layers):
        x = dilated_conv2d(x, params)
    rows = np.flatnonzero(x[0, 0].any(axis=1))
    cols = np.flatnonzero(x[0, 0].any(axis=0))
    assert rows[-1] - rows[0] == cols[-1] - cols[0]
    return int(rows[-1] - rows[0] + 1)


def test_criterion_04_receptive_fields():
    # The dilation-3 chain is pinned at the analytic/measured value 19; the
    # decisions ledger entry "Receptive field DF=3 = 19" records why that
    # value, and no other, is authoritative.
    measured = {d: _impulse_support(d) for d in (1, 2, 3)}
    analytic = {d: _analytic_extent(3, d) for d in (1, 2, 3)}
    ok = measured == {1: 7, 2: 13, 3: 19} and analytic == measured
    _report(
        4,
        ok,
        f"receptive-fields: impulse support {measured} (expected {{1: 7, 2: 13, 3: 19}})",
    )


def test_criterion_05_dataset_combinatorics(tmp_path):
    config = SynthesisConfig(
        target_size=(32, 24),
        glow_radius_range=(3.0, 10.0),
        sources_per_image_range=(1, 2),
        rng_seed=9,
    )
    scene_rng = np.random.default_rng(1)
    pairs = [procedural_scene(scene_rng, (24, 32)) for _ in range(10)]
    records_a, _ = build_dataset(pairs, config, tmp_path / "a")
    records_b, _ = build_dataset(pairs, config, tmp_path / "b")
    identical = True
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b
    for name in names_a:
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            identical = False
            break
    ok = len(records_a) == 90 and len(records_b) == 90 and identical
    _report(
        5,
        ok,
        f"dataset-combinatorics: 10 pairs x 3 beta x 3 q -> {len(records_a)} records "
        f"(expected 90), rebuild byte-identical: {identical}",
    )


_TRAIN_GAIN_SCRIPT = """
import numpy as np
from nightdehaze.networks import DeGlowModel, DeHazeModel
from nightdehaze.training import TrainSchedule, train_deglow, train_dehaze, sample_from_layers
from nightdehaze.synthesis import (SynthesisConfig, procedural_scene, sample_scene_params,
                                   sample_glow_sources, synthesize_example)
from nightdehaze.pipeline import run_pipeline
from nightdehaze.metrics import psnr

cfg = SynthesisConfig(target_size=(64, 64), glow_radius_range=(4.0, 12.0),
                      sources_per_image_range=(1, 2))
scenes = []
for i in range(80):
    r = np.random.default_rng((123, i))
    clean, depth = procedural_scene(r, (64, 64))
    beta, q, light = sample_scene_params(r, cfg)
    sources = sample_glow_sources(r, (64, 64), q, cfg)
    observed, haze, t, glow = synthesize_example(clean, depth, beta, q, light, sources, cfg)
    scenes.append((observed, haze, t, glow, clean))

deglow_ds = [sample_from_layers(observed=o, haze=h, streak=g.streak_sum(), glow=g.mask)
             for o, h, t, g, c in scenes[:64]]
dehaze_ds = [sample_from_layers(haze=h, transmission=t) for o, h, t, g, c in scenes[:64]]

deglow_model = DeGlowModel(features=8).init(np.random.default_rng(0), std=0.05)
schedule = TrainSchedule(learning_rate=0.005, batch_size=8, max_iterations=600,
                         plateau_patience=200, checkpoint_interval=10**9, seed=1)
result = train_deglow(deglow_model, deglow_ds, schedule)
losses = [v for _, v in result.loss_log]
first, last = float(np.mean(losses[:20])), float(np.mean(losses[-20:]))

dehaze_model = DeHazeModel(features=8).init(np.random.default_rng(0), std=0.05)
schedule = TrainSchedule(learning_rate=0.01, batch_size=8, max_iterations=600,
                         plateau_patience=200, checkpoint_interval=10**9, seed=1)
train_dehaze(dehaze_model, dehaze_ds, schedule)

gains = []
for observed, haze, t, glow, clean in scenes[64:]:
    artifacts = run_pipeline(observed, deglow_model, dehaze_model)
    gains.append(psnr(artifacts.radiance, clean) - psnr(observed, clean))
print(f"first={first} last={last} gain={float(np.mean(gains))}")
"""


@pytest.mark.slow
def test_criterion_06_training_smoke_and_gain():
    out = _run_py(_TRAIN_GAIN_SCRIPT)
    fields = dict(kv.split("=") for kv in out.split())
    first, last, gain = (float(fields[k]) for k in ("first", "last", "gain"))
    ok = last < 0.5 * first and gain >= 1.0
    _report(
        6,
        ok,
        f"training-smoke: smoothed deglow loss {first:.4f} -> {last:.4f} "
        f"(need < 50%), held-out PSNR gain {gain:+.2f} dB (need >= +1)",
    )


def test_criterion_07_metrics_oracles():
    rng = np.random.default_rng(3)
    base = np.full((32, 32, 3), 0.4)
    exact_20 = abs(psnr(base, base + 0.1) - 20.0)
    img = rng.uniform(0, 1, (32, 32, 3))
    self_ssim = ssim(img, img)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0, 1, (32, 32, 3))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        worst = max(worst, abs(ssim(a, b) - ssim_reference(a, b)))
    ok = exact_20 <= 1e-6 and self_ssim == 1.0 and worst <= 1e-6
    _report(
        7,
        ok,
        f"metrics-oracles: |psnr(0.1 offset) - 20| = {exact_20:.1e}, ssim(self) = {self_ssim}, "
        f"max |ssim - reference| {worst:.1e} over 50 pairs (<= 1e-6)",
    )


_RUNTIME_SCRIPT = """
import time
import numpy as np
from nightdehaze.networks import DeGlowModel, DeHazeModel
from nightdehaze.pipeline import run_pipeline

rng = np.random.default_rng(0)
image = rng.uniform(0, 1, (240, 320, 3))
deglow_model = DeGlowModel().init(rng)
dehaze_model = DeHazeModel().init(rng)
start = time.perf_counter()
artifacts = run_pipeline(image, deglow_model, dehaze_model)
total = time.perf_counter() - start
print(f"total={total}")
print("stages=" + ",".join(sorted(artifacts.timings)))
"""


def test_criterion_08_runtime_sanity():
    out = _run_py(_RUNTIME_SCRIPT, timeout=300)
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    total = float(fields["total"])
    stages = fields["stages"].split(",")
    expected = sorted(["deglow", "dehaze", "atmospheric_light", "recover"])
    ok = total < 60.0 and stages == expected
    _report(
        8,
        ok,
        f"runtime: 320x240 single-threaded inference {total:.1f}s (< 60s), "
        f"timed stages: {','.join(stages)}",
    )


def _cli(*argv, timeout=900):
    proc = subprocess.run(
        [sys.executable, "-m", "nightdehaze.cli", *argv],
        capture_output=True,
        text=True,
        env=_single_threaded_env(),
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{argv}: {proc.stderr}"
    return proc


def _full_run(root):
    root.mkdir()
    config = root / "run.cfg"
    config.write_text(
        "[synthesis]\n"
        "target_size = 24, 24\n"
        "glow_radius_range = 3, 8\n"
        "sources_per_image_range = 1, 2\n"
        "rng_seed = 4\n"
        "[training]\n"
        "learning_rate = 0.002\n"
        "batch_size = 4\n"
        "max_iterations = 100\n"
        "checkpoint_interval = 1000\n"
        "plateau_patience = 1000\n"
    )
    data = root / "data"
    _cli("synth", "--config", str(config), "--out", str(data), "--pairs", "2")
    ckpts = {}
    for cmd in ("train-deglow", "train-dehaze"):
        out = root / cmd
        _cli(
            cmd, "--config", str(config), "--data", str(data),
            "--out", str(out), "--features", "4", "--val", "2",
        )
        ckpts[cmd] = out / "ckpt_final.nckp"
    results = root / "results"
    _cli(
        "run", str(data / "rec_000000.observed.ppm"), "--out", str(results),
        "--checkpoint", f"deglow={ckpts['train-deglow']}",
        "--checkpoint", f"dehaze={ckpts['train-dehaze']}",
    )
    return {
        "deglow.nckp": ckpts["train-deglow"].read_bytes(),
        "dehaze.nckp": ckpts["train-dehaze"].read_bytes(),
        "out.ppm": (results / "rec_000000.observed.out.ppm").read_bytes(),
        "manifest.txt": (data / "manifest.txt").read_bytes(),
    }


@pytest.mark.slow
def test_criterion_09_end_to_end_determinism(tmp_path):
    first = _full_run(tmp_path / "one")
    second = _full_run(tmp_path / "two")
    mismatched = [name for name in first if first[name] != second[name]]
    _report(
        9,
        not mismatched,
        "determinism: synth -> train 100 iters -> run twice, "
        f"checkpoints and outputs byte-identical (mismatches: {mismatched or 'none'})",
    )


@pytest.mark.slow
def test_criterion_10_overfit_capacity():
    from nightdehaze.engine import Tensor
    from nightdehaze.networks import DeGlowModel, LossConfig, deglow_unroll
    from nightdehaze.training import TrainSchedule, train_deglow, sample_from_layers

    observed, haze, t, glow, _, _ = make_scene(
        42, config=small_config(32, sources_per_image_range=(1, 1))
    )
    sample = sample_from_layers(
        observed=observed, haze=haze, streak=glow.streak_sum(), glow=glow.mask
    )
    model = DeGlowModel(features=8, tau=1).init(np.random.default_rng(3), std=0.05)
    schedule = TrainSchedule(
        learning_rate=0.05,
        batch_size=1,
        max_iterations=2000,
        val_interval=10,
        plateau_patience=10**9,
        checkpoint_interval=10**9,
        seed=0,
    )
    train_deglow(model, [sample], schedule, loss_config=LossConfig(0.0, 0.0))
    final, _ = deglow_unroll(Tensor(sample["observed"][None]), model)
    mse = float(np.mean((final.data[0] - sample["haze"]) ** 2))
    _report(
        10,
        mse < 1e-3,
        f"overfit-capacity: one-pair reconstruction MSE {mse:.2e} "
        f"after 2000 iterations (< 1e-3)",
    )

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nightdehaze import cli
from nightdehaze.config import SECTIONS
from nightdehaze.engine import load_checkpoint, save_checkpoint
from nightdehaze.gradsuite import STEPS, Report
from nightdehaze.imageio import read_ppm, write_ppm
from nightdehaze.networks import DeGlowModel, DeHazeModel, save_model
from nightdehaze.synthesis import parse_manifest


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.mark.parametrize("errors", [(1e-4, np.nan, 2e-4), (np.nan, 1e-4), (1e-4, 2e-4)])
def test_gradcheck_fails_on_any_nan_case(monkeypatch, capsys, errors):
    results = [
        (f"case{i}", Report(dict.fromkeys(STEPS, (1, err)), [1])) for i, err in enumerate(errors)
    ]
    monkeypatch.setattr(cli, "run_gradient_suite", lambda: results)
    ok = not any(np.isnan(errors))
    assert run_cli("gradcheck") == (0 if ok else 1)
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("gradcheck PASS" if ok else "gradcheck FAIL")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "set"
    config = tmp_path_factory.mktemp("cfg") / "synth.cfg"
    config.write_text(
        "[synthesis]\n"
        "target_size = 24, 24\n"
        "glow_radius_range = 3, 8\n"
        "sources_per_image_range = 1, 2\n"
        "rng_seed = 7\n"
    )
    assert run_cli("synth", "--config", str(config), "--out", str(out), "--pairs", "2") == 0
    return out


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    rng = np.random.default_rng(0)
    out = tmp_path_factory.mktemp("ckpt")
    save_model(DeGlowModel(features=4, tau=2).init(rng, std=0.05), out / "deglow.nckp")
    save_model(DeHazeModel(features=4).init(rng, std=0.05), out / "dehaze.nckp")
    return out


class TestUsage:
    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nightdehaze.cli", "run", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()

    def test_unknown_subcommand_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nightdehaze.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_unknown_flag_exits_two(self):
        # --tau sets the DeGlow recurrence count only, so train-dehaze has none
        for argv in (
            ["synth", "--bogus"],
            ["train-dehaze", "--data", "d", "--out", "o", "--tau", "5"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "nightdehaze.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, argv


class TestSynth:
    def test_manifest_record_count(self, dataset_dir):
        lines = (dataset_dir / "manifest.txt").read_text().strip().split("\n")
        assert len(lines) == 2 * 3 * 3

    def test_layer_files_exist(self, dataset_dir):
        first = (dataset_dir / "manifest.txt").read_text().split("\n")[0]
        fields = dict(kv.split("=", 1) for kv in first.split(" "))
        for key in ("observed", "haze", "transmission", "glow_mask", "streak_sum"):
            assert (dataset_dir / fields[key]).exists()


class TestTrain:
    def test_train_both_models(self, dataset_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "[training]\n"
            "learning_rate = 0.002\n"
            "batch_size = 2\n"
            "max_iterations = 4\n"
            "checkpoint_interval = 2\n"
        )
        for cmd in ("train-deglow", "train-dehaze"):
            out = tmp_path / cmd
            status = run_cli(
                cmd,
                "--config",
                str(config),
                "--data",
                str(dataset_dir),
                "--out",
                str(out),
                "--features",
                "4",
                "--val",
                "2",
            )
            assert status == 0
            assert (out / "ckpt_final.nckp").exists()
            assert (out / "ckpt_000002.nckp").exists()

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        status = run_cli(
            "train-dehaze", "--data", str(tmp_path), "--out", str(tmp_path / "o")
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "stage=" in err and "manifest" in err


class TestRunRecoverEval:
    def test_run_writes_outputs(self, dataset_dir, checkpoints, tmp_path, capsys):
        inp = dataset_dir / "rec_000000.observed.ppm"
        out = tmp_path / "out"
        status = run_cli(
            "run",
            str(inp),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--dump-intermediates",
        )
        assert status == 0
        stem = "rec_000000.observed"
        for suffix in (".out.ppm", ".deglow.ppm", ".trans.pgm", ".light.txt", ".stages.npz"):
            assert (out / f"{stem}{suffix}").exists()
        printed = capsys.readouterr().out
        for stage in ("deglow", "dehaze", "atmospheric_light", "recover"):
            assert f"{stage}=" in printed

    def test_recover_stage_isolation_is_bit_exact(
        self, dataset_dir, checkpoints, tmp_path
    ):
        out = tmp_path / "out"
        run_cli(
            "run",
            str(dataset_dir / "rec_000001.observed.ppm"),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--dump-intermediates",
        )
        stem = "rec_000001.observed"
        redo = tmp_path / "redo"
        status = run_cli(
            "recover", "--intermediates", str(out / f"{stem}.stages.npz"), "--out", str(redo)
        )
        assert status == 0
        assert (out / f"{stem}.out.ppm").read_bytes() == (
            redo / f"{stem}.out.ppm"
        ).read_bytes()

    def test_run_directory_mode_with_threads(self, dataset_dir, checkpoints, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        for i in range(2):
            img = read_ppm(dataset_dir / f"rec_00000{i}.observed.ppm")
            write_ppm(indir / f"img{i}.ppm", img)
        out = tmp_path / "out"
        status = run_cli(
            "run",
            str(indir),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--threads",
            "2",
        )
        assert status == 0
        assert (out / "img0.out.ppm").exists()
        assert (out / "img1.out.ppm").exists()

    def test_threaded_run_prints_whole_lines_in_input_order(
        self, dataset_dir, checkpoints, tmp_path, capsys, monkeypatch
    ):
        indir = tmp_path / "in"
        indir.mkdir()
        stems = [f"img{i}" for i in range(6)]
        for i, stem in enumerate(reversed(stems)):
            image = read_ppm(dataset_dir / f"rec_00000{i % 2}.observed.ppm")
            write_ppm(indir / f"{stem}.ppm", image)
        real_read = cli._read_image

        def read_first_slowly(stage, path):
            # the first input finishes after the others have started
            if os.path.basename(path) == "img0.ppm":
                time.sleep(0.3)
            return real_read(stage, path)

        monkeypatch.setattr(cli, "_read_image", read_first_slowly)
        status = run_cli(
            "run", str(indir), "--out", str(tmp_path / "out"), "--threads", "2",
            "--checkpoint", f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint", f"dehaze={checkpoints / 'dehaze.nckp'}",
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        stages = ("deglow", "dehaze", "atmospheric_light", "recover")
        timing = " ".join(rf"{stage}=\d+\.\d{{4}}s" for stage in stages)
        assert [line.split(":")[0] for line in lines] == stems
        assert all(re.fullmatch(rf"img\d: {timing}", line) for line in lines), lines

    def test_missing_checkpoint_exits_one(self, dataset_dir, tmp_path, capsys):
        status = run_cli(
            "run",
            str(dataset_dir / "rec_000000.observed.ppm"),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            "deglow=/nonexistent.nckp",
            "--checkpoint",
            "dehaze=/nonexistent.nckp",
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=")

    def test_eval_self_comparison(self, dataset_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        img = read_ppm(dataset_dir / "rec_000000.observed.ppm")
        write_ppm(pred / "a.out.ppm", img)
        truth = tmp_path / "truth"
        truth.mkdir()
        write_ppm(truth / "a.ppm", img)
        status = run_cli("eval", "--pred", str(pred), "--truth", str(truth))
        assert status == 0
        out = capsys.readouterr().out
        assert "a inf 1.000000" in out

    @pytest.mark.parametrize("bad_side", ["pred", "truth"])
    def test_eval_names_the_file_that_failed(self, dataset_dir, tmp_path, capsys, bad_side):
        img = read_ppm(dataset_dir / "rec_000000.observed.ppm")
        # a truncated truth image used to be reported under the prediction's name
        for side in ("pred", "truth"):
            (tmp_path / side).mkdir()
            write_ppm(tmp_path / side / "a.ppm", img)
        bad = _write(tmp_path / bad_side / "a.ppm", b"P6\n16 16\n255\n\0\0")
        pred, truth = str(tmp_path / "pred"), str(tmp_path / "truth")
        assert run_cli("eval", "--pred", pred, "--truth", truth) == 1
        assert capsys.readouterr().err.startswith(f"error: stage=eval file={bad}: ")

    def test_eval_no_matches_exits_one(self, tmp_path, capsys):
        (tmp_path / "p").mkdir()
        (tmp_path / "t").mkdir()
        assert run_cli("eval", "--pred", str(tmp_path / "p"), "--truth", str(tmp_path / "t")) == 1
        assert "stage=" in capsys.readouterr().err


def _write(path, content):
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    return str(path)


def _sidecar(path, **overrides):
    arrays = dict(
        deglowed=np.zeros((4, 4, 3)),
        transmission=np.ones((4, 4)),
        light=np.ones(3),
        t_min=np.array(0.05),
    )
    arrays.update(overrides)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return str(path)


def _cut_in_half(path):
    blob = Path(path).read_bytes()
    return _write(Path(path), blob[: len(blob) // 2])


def _broken_crc(path):
    """The sidecar at `path` with one data byte of its first member changed."""
    blob = bytearray(Path(path).read_bytes())
    blob[blob.index(b"\x93NUMPY") + 200] ^= 1  # past the 128-byte .npy header
    return _write(Path(path), bytes(blob))


def _manifest_dir(path, line):
    """A dataset directory whose manifest is the text `line`, or these bytes."""
    path.mkdir()
    _write(path / "manifest.txt", line + "\n" if isinstance(line, str) else line)
    return str(path)


def _checkpoint(path, records=None, model=None):
    """A small DeGlow checkpoint (or `model`'s) with some records replaced."""
    save_model(model or DeGlowModel(features=4, tau=2), path)
    arrays = load_checkpoint(path)
    for name, value in (records or {}).items():
        arrays[name] = np.asarray(value, dtype=np.float32)
    save_checkpoint(path, arrays)
    return str(path)


def _overflowing_checkpoint(path):
    """A DeGlow checkpoint whose finite weights, all 1e30, overflow at run time."""
    save_model(DeGlowModel(features=4, tau=2), path)
    arrays = load_checkpoint(path)
    save_checkpoint(
        path, {k: v if k.startswith("meta.") else np.full_like(v, 1e30) for k, v in arrays.items()}
    )
    return str(path)


def _deglow_slot(t, records):
    return ["--checkpoint", f"deglow={_checkpoint(t / 'c.nckp', records)}"]


def _small_synth(t, line):
    """synth argv for one 24x24 pair, with one more [synthesis] line."""
    config = _write(t / "c.cfg", f"[synthesis]\ntarget_size = 24, 24\n{line}\n")
    return ["synth", "--out", str(t / "d"), "--pairs", "1", "--config", config]


def _record_count(data_dir):
    return len(parse_manifest(str(Path(data_dir) / "manifest.txt")))


MANIFEST_LINE = " ".join([
    "id=rec_0", "observed=o.ppm", "haze=h.ppm", "transmission=t.pgm",
    "glow_mask=g.pgm", "streak_sum=s.ppm", "beta=1", "q=0.5", "light=1,1,1",
])


# each row: the stage the error line names, and argv built from
# (tmp dir, image, run flags, dataset dir)
BAD_INPUTS = {
    "truncated-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n4 4\n255\n" + bytes(10)), *run
    ]),
    "non-numeric-ppm-header": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\nfour 4\n255\n" + bytes(48)), *run
    ]),
    # a 0-pixel image used to reach the pipeline and fail on an empty reduction
    "zero-width-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n0 5\n255\n"), *run
    ]),
    "zero-size-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n0 0\n255\n"), *run
    ]),
    "run-threads-zero": ("run", lambda t, image, run, data: [
        "run", image, *run, "--threads", "0"
    ]),
    "run-threads-negative": ("run", lambda t, image, run, data: [
        "run", image, *run, "--threads", "-3"
    ]),
    "negative-tile-size": ("pipeline", lambda t, image, run, data: [
        "run", image, *run, "--tile-size", "-4"
    ]),
    "config-tile-size-abc": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\ntile_size = abc\n")
    ]),
    # rejected as the config is read, before either network runs
    "config-t-min-nan": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\nt_min = nan\n")
    ]),
    "config-t-min-one": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\nt_min = 1\n")
    ]),
    "config-fractional-target-size": ("synth", lambda t, image, run, data: [
        "synth", "--out", str(t / "d"),
        "--config", _write(t / "c.cfg", "[synthesis]\ntarget_size = 32.5, 20\n"),
    ]),
    # a seed below 0 used to reach numpy's seeding and end in a traceback
    "synth-seed-negative": ("synth", lambda t, image, run, data: [
        *_small_synth(t, ""), "--seed", "-1"
    ]),
    "config-rng-seed-negative": ("synth", lambda t, image, run, data: (
        _small_synth(t, "rng_seed = -1")
    )),
    "config-sources-range-reversed": ("synth", lambda t, image, run, data: (
        _small_synth(t, "sources_per_image_range = 3, 1")
    )),
    "config-beta-range-inf": ("synth", lambda t, image, run, data: (
        _small_synth(t, "beta_range = 0.5, inf")
    )),
    # these three used to build a dataset: glows that grow with distance, an
    # airlight above 1, and a word read as false
    "config-glow-radius-negative": ("synth", lambda t, image, run, data: (
        _small_synth(t, "glow_radius_range = -5, -1")
    )),
    "config-light-range-above-one": ("synth", lambda t, image, run, data: (
        _small_synth(t, "light_range = 5, 6")
    )),
    "config-taylor-glow-maybe": ("synth", lambda t, image, run, data: (
        _small_synth(t, "use_taylor_glow = maybe")
    )),
    "sidecar-without-light": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", light=None),
        "--out", str(t / "r"),
    ]),
    "sidecar-light-two-values": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", light=np.ones(2)),
        "--out", str(t / "r"),
    ]),
    "sidecar-deglowed-nan": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates",
        _sidecar(t / "x.stages.npz", deglowed=np.full((4, 4, 3), np.nan)), "--out", str(t / "r"),
    ]),
    "sidecar-transmission-wrong-size": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", transmission=np.ones((4, 5))),
        "--out", str(t / "r"),
    ]),
    "sidecar-t-min-two-values": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", t_min=np.ones(2)),
        "--out", str(t / "r"),
    ]),
    # these five used to escape as tracebacks: BadZipFile and ValueError
    "sidecar-cut-in-half": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _cut_in_half(_sidecar(t / "x.stages.npz")),
        "--out", str(t / "r"),
    ]),
    "sidecar-zip-header-then-zeros": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _write(t / "x.stages.npz", b"PK\x03\x04" + bytes(200)),
        "--out", str(t / "r"),
    ]),
    "sidecar-broken-crc": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _broken_crc(_sidecar(t / "x.stages.npz")),
        "--out", str(t / "r"),
    ]),
    "sidecar-deglowed-objects": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates",
        _sidecar(t / "x.stages.npz", deglowed=np.full((4, 4, 3), None)), "--out", str(t / "r"),
    ]),
    "sidecar-deglowed-strings": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates",
        _sidecar(t / "x.stages.npz", deglowed=np.full((4, 4, 3), "x")), "--out", str(t / "r"),
    ]),
    "manifest-layer-file-missing": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", " ".join([
            "id=rec_0", "observed=o.ppm", "haze=h.ppm", "transmission=t.pgm",
            "glow_mask=g.pgm", "streak_sum=s.ppm", "beta=1", "q=0.5", "light=1,1,1",
        ])),
        "--out", str(t / "o"),
    ]),
    "manifest-missing-layer-keys": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", "id=rec_0 beta=1"),
        "--out", str(t / "o"),
    ]),
    "manifest-token-without-equals": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", "id=rec_0 observed"),
        "--out", str(t / "o"),
    ]),
    # these two used to end in UnicodeDecodeError and "embedded null byte"
    "manifest-not-utf8": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", MANIFEST_LINE.encode() + b"\xff\n"),
        "--out", str(t / "o"),
    ]),
    "manifest-layer-path-nul": ("load-data", lambda t, image, run, data: [
        "train-dehaze",
        "--data", _manifest_dir(t / "m", MANIFEST_LINE.replace("h.ppm", "h\0.ppm")),
        "--out", str(t / "o"),
    ]),
    # open() rejects the path with ValueError, not OSError
    "config-checkpoint-path-nul": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[pipeline]\ndeglow_checkpoint = c\0.nckp\n"),
    ]),
    "checkpoint-untied": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tied": [0.0]})
    ]),
    "checkpoint-wrong-kind": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run,
        "--checkpoint", f"deglow={_checkpoint(t / 'h.nckp', model=DeHazeModel(features=4))}",
    ]),
    "checkpoint-nan-weight": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"head_residual.bias": [0.0, np.nan, 0.0]})
    ]),
    "checkpoint-fractional-tau": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [2.7]})
    ]),
    "checkpoint-nan-tau": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [np.nan]})
    ]),
    "checkpoint-tau-above-max": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [1e9]})
    ]),
    "checkpoint-features-zero": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.features": [0.0]})
    ]),
    "checkpoint-features-mismatch": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.features": [8.0]})
    ]),
    # load_model accepts the finite weights; the deglow stage's output is not finite
    "checkpoint-overflowing-weights": ("pipeline", lambda t, image, run, data: [
        "run", image, *run, "--checkpoint", f"deglow={_overflowing_checkpoint(t / 'c.nckp')}"
    ]),
    "train-tau-zero": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--tau", "0"
    ]),
    # numpy overflow warnings must not precede the divergence's error line
    "train-deglow-diverges": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nlearning_rate = 1e12\n"),
    ]),
    "train-dehaze-diverges": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nlearning_rate = 1e12\n"),
    ]),
    # each interval is the divisor of an iteration-count modulo
    "val-interval-zero": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nval_interval = 0\n"),
    ]),
    "checkpoint-interval-zero": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\ncheckpoint_interval = 0\n"),
    ]),
    "train-seed-negative": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--seed", "-1"
    ]),
    # zero iterations used to end in an IndexError on the empty loss log
    "config-max-iterations-zero": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nmax_iterations = 0\n"),
    ]),
    # a negative count would train on the first records and validate on the rest
    "train-val-negative": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--val", "-2"
    ]),
    # holding back every record used to fail as "dataset is empty"
    "train-val-all-records": ("load-data", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--val", str(_record_count(data))
    ]),
    "train-features-zero": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"), "--features", "0"
    ]),
    # --out names an existing regular file, so no output directory can be made
    "run-out-is-file": ("write-output", lambda t, image, run, data: [
        "run", image, *run, "--out", _write(t / "f", "x")
    ]),
    "recover-out-is-file": ("write-output", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz"), "--out", _write(t / "f", "x")
    ]),
    "train-dehaze-out-is-file": ("write-output", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", _write(t / "f", "x")
    ]),
    "eval-out-is-directory": ("write-output", lambda t, image, run, data: [
        "eval", "--pred", data, "--truth", data, "--out", str(t)
    ]),
    # the directories used to be listed outside any error handling
    "eval-pred-missing": ("eval", lambda t, image, run, data: [
        "eval", "--pred", str(t / "missing"), "--truth", data
    ]),
    "eval-truth-is-file": ("eval", lambda t, image, run, data: [
        "eval", "--pred", data, "--truth", _write(t / "f", "x")
    ]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_error_line(case, dataset_dir, checkpoints, tmp_path):
    run_flags = [
        "--out", str(tmp_path / "out"),
        "--checkpoint", f"deglow={checkpoints / 'deglow.nckp'}",
        "--checkpoint", f"dehaze={checkpoints / 'dehaze.nckp'}",
    ]
    image = str(dataset_dir / "rec_000000.observed.ppm")
    stage, build_argv = BAD_INPUTS[case]
    argv = build_argv(tmp_path, image, run_flags, str(dataset_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "nightdehaze.cli", *argv], capture_output=True, text=True
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith(f"error: stage={stage} "), proc.stderr
    assert "Traceback" not in proc.stderr


# The CLI contract as a property: any subcommand with valid, boundary or
# garbage flag values, and a config file setting one numeric key to a bad
# value, ends in exit 0, a usage error (2), or exit 1 with one error line.
FLAG_VALUES = {
    "--seed": ["0", "7", "-1", "x"],
    "--pairs": ["1", "0", "-1", "x"],
    "--features": ["1", "2", "0", "-1", "x"],
    "--tau": ["1", "2", "0", "-1", "17", "x"],
    "--val": ["0", "2", "-1", "100", "x"],
    "--tile-size": ["0", "8", "-1", "x"],
    # never more than 2, so that no draw starts many threads
    "--threads": ["-1", "0", "1", "2"],
}
COMMANDS = {
    "synth": (["--seed", "--pairs"], ["synthesis"]),
    "train-deglow": (["--seed", "--features", "--val", "--tau"], ["training", "loss"]),
    "train-dehaze": (["--seed", "--features", "--val"], ["training", "loss"]),
    "run": (["--tile-size", "--threads"], ["pipeline"]),
}
# settings that keep every run small: a 24x24 pair, two iterations of batch 2
BASE_CONFIG = {
    "synthesis": {"target_size": "24, 24", "glow_radius_range": "3, 8"},
    "training": {"batch_size": "2", "max_iterations": "2", "val_interval": "1"},
}
BAD_NUMBERS = ["0", "-1", "nan", "inf"]
NUMERIC_DEFAULTS = {
    section: {
        f.name: f.default
        for f in fields(cls)
        if isinstance(f.default, (int, float, tuple)) and not isinstance(f.default, bool)
    }
    for section, cls in SECTIONS.items()
}


@st.composite
def cli_calls(draw, dataset, checkpoints, scratch):
    """argv for one CLI call, and the text of its config file."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, sections = COMMANDS[command]
    argv = [command, "--out", str(scratch / "out")]
    if command.startswith("train-"):
        argv += ["--data", dataset]
    if command == "run":
        image = draw(st.sampled_from(["rec_000000.observed.ppm", "manifest.txt"]))
        argv += [str(Path(dataset) / image), *checkpoints]
        if draw(st.booleans()):
            argv.append("--dump-intermediates")
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    config = {section: dict(BASE_CONFIG.get(section, {})) for section in sections}
    section = draw(st.sampled_from(sections))
    key = draw(st.none() | st.sampled_from(sorted(NUMERIC_DEFAULTS[section])))
    if key is not None:
        value = draw(st.sampled_from(BAD_NUMBERS))
        if isinstance(NUMERIC_DEFAULTS[section][key], tuple):
            value = f"{value}, {draw(st.sampled_from(BAD_NUMBERS))}"
        config[section][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        for name, values in config.items()
    )
    return argv + ["--config", str(scratch / "c.cfg")], text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_zero_one_or_two(dataset_dir, checkpoints, data):
    slots = [
        "--checkpoint", f"deglow={checkpoints / 'deglow.nckp'}",
        "--checkpoint", f"dehaze={checkpoints / 'dehaze.nckp'}",
    ]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        argv, text = data.draw(cli_calls(str(dataset_dir), slots, scratch))
        (scratch / "c.cfg").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                status = cli.main(argv)
            except SystemExit as e:
                status = e.code
    lines = err.getvalue().splitlines()
    assert status in (0, 1, 2), (argv, text)
    if status == 1:
        assert len(lines) == 1 and lines[0].startswith("error: stage="), (argv, text, lines)
    if status == 0:
        assert lines == [], (argv, text, lines)

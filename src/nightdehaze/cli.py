"""Command-line interface.

Subcommands:
    synth         build a synthetic dataset from procedural scenes
    train-deglow  train the glow-removal model on a dataset directory
    train-dehaze  train the transmission model on a dataset directory
    run           dehaze images end to end
    recover       redo only the recovery stage from dumped intermediates
    eval          score outputs against ground truth (PSNR/SSIM)
    gradcheck     run the finite-difference gradient suite

Exit codes: 0 success, 1 runtime failure (one-line `error: stage=... ` on
stderr), 2 usage error.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import metrics, synthesis
from .atmospherics import recover_radiance
from .config import default_config, load_config
from .errors import CheckpointError, DataError, NightDehazeError, ParameterError
from .gradsuite import STEPS, TOLERANCE, run_gradient_suite
from .imageio import read_ppm, write_pgm, write_ppm
from .networks import DEFAULT_FEATURES, DEFAULT_TAU, DeGlowModel, DeHazeModel, load_model
from .pipeline import run_pipeline
from .training import load_samples_from_manifest, train_deglow, train_dehaze


SIDECAR_KEYS = ("deglowed", "transmission", "light", "t_min")


class StageFailure(Exception):
    """A failure worded as the error line's `stage=<stage> file=<file>: <cause>`."""


@contextmanager
def stage(name, file, errors=(OSError, NightDehazeError)):
    """Turn one of `errors` raised in the block into the StageFailure of
    stage `name` on `file`, or on the OSError's own filename where it has
    one.  A StageFailure of an inner stage passes through unchanged."""
    try:
        yield
    except errors as e:
        raise StageFailure(f"stage={name} file={getattr(e, 'filename', None) or file}: {e}")


def _make_out_dir(path):
    with stage("write-output", path):
        os.makedirs(path, exist_ok=True)


def _read_image(name, path):
    with stage(name, path):
        return read_ppm(path)


def build_parser():
    parser = argparse.ArgumentParser(prog="nightdehaze", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a synthetic training dataset")
    p.add_argument("--config", help="config file ([synthesis] section)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override synthesis rng seed")
    p.add_argument("--pairs", type=int, default=10, help="number of procedural scenes")

    for name in ("train-deglow", "train-dehaze"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on a dataset directory")
        p.add_argument("--config", help="config file ([training]/[loss] sections)")
        p.add_argument("--data", required=True, help="dataset directory with manifest.txt")
        p.add_argument("--out", required=True, help="checkpoint output directory")
        p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--features", type=int, default=DEFAULT_FEATURES, help="feature channels")
        p.add_argument("--val", type=int, default=0, help="hold out last N records for validation")
        if name == "train-deglow":
            p.add_argument("--tau", type=int, default=DEFAULT_TAU, help="recurrence count")

    p = sub.add_parser("run", help="dehaze images end to end")
    p.add_argument("inputs", nargs="+", help="input .ppm files or a directory")
    p.add_argument("--config", help="config file ([pipeline] section)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--checkpoint",
        action="append",
        default=[],
        metavar="KIND=PATH",
        help="model checkpoint, e.g. deglow=d.nckp (repeatable)",
    )
    p.add_argument("--tile-size", type=int, help="process in tiles of this size")
    p.add_argument("--threads", type=int, default=1, help="parallel images in directory mode")
    p.add_argument("--dump-intermediates", action="store_true")

    p = sub.add_parser("recover", help="recovery stage only, from dumped intermediates")
    p.add_argument("--intermediates", required=True, help="<stem>.stages.npz from run")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .ppm images")
    p.add_argument("--truth", required=True, help="directory of ground-truth .ppm images")
    p.add_argument("--out", help="write the report table to this file")

    sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    return parser


def cmd_synth(args):
    cfg = (load_config(args.config) if args.config else default_config())["synthesis"]
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    width, height = cfg.target_size
    scene_rng = np.random.default_rng([cfg.rng_seed, 0])
    pairs = [synthesis.procedural_scene(scene_rng, (height, width)) for _ in range(args.pairs)]
    with stage("synth", args.out):
        records, manifest = synthesis.build_dataset(pairs, cfg, args.out)
    print(f"wrote {len(records)} records to {manifest}")
    return 0


def _cmd_train(args, kind):
    if args.val < 0:
        raise ParameterError(f"--val must be >= 0, got {args.val}")
    cfgs = load_config(args.config) if args.config else default_config()
    schedule = cfgs["training"]
    if args.seed is not None:
        schedule = replace(schedule, seed=args.seed)
    with stage("load-data", os.path.join(args.data, "manifest.txt")):
        samples = load_samples_from_manifest(args.data, kind)
        if args.val and args.val >= len(samples):
            raise ParameterError(
                f"--val {args.val} leaves none of {len(samples)} records to train on"
            )
    val = None
    if args.val:
        samples, val = samples[: -args.val], samples[-args.val :]
    rng = np.random.default_rng([schedule.seed, 1])
    if kind == "deglow":
        model = DeGlowModel(features=args.features, tau=args.tau).init(rng)
    else:
        model = DeHazeModel(features=args.features).init(rng)
    # an unwritable --out fails here, before any training time is spent
    _make_out_dir(args.out)
    # a divergence is left to the train-<kind> stage of main
    with stage("write-output", args.out, errors=OSError):
        if kind == "deglow":
            result = train_deglow(model, samples, schedule, cfgs["loss"], val, args.out)
        else:
            result = train_dehaze(model, samples, schedule, val, args.out)
    final_loss = result.loss_log[-1][1]
    print(f"trained {kind}: {len(result.loss_log)} iterations, final loss {final_loss:.6g}")
    print(f"checkpoints: {', '.join(result.checkpoints)}")
    return 0


def _load_models(args):
    cfg = (load_config(args.config) if args.config else default_config())["pipeline"]
    paths = {"deglow": cfg.deglow_checkpoint, "dehaze": cfg.dehaze_checkpoint}
    for item in args.checkpoint:
        with stage("load-checkpoint", item):
            if "=" not in item:
                raise ParameterError("expected KIND=PATH")
            kind, path = item.split("=", 1)
            if kind not in paths:
                raise ParameterError(f"unknown model kind '{kind}'")
        paths[kind] = path
    models = {}
    for kind, path in paths.items():
        with stage("load-checkpoint", path or "-"):
            if not path:
                raise ParameterError(f"no {kind} checkpoint given")
            models[kind] = load_model(path)
            if models[kind].kind != kind:
                raise CheckpointError(f"holds a {models[kind].kind} model, not {kind}")
    return models["deglow"], models["dehaze"], cfg


def _run_one(path, out_dir, deglow, dehaze, cfg, args):
    image = _read_image("read-input", path)
    with stage("pipeline", path):
        art = run_pipeline(
            image,
            deglow,
            dehaze,
            t_min=cfg.t_min,
            tile_size=args.tile_size if args.tile_size is not None else cfg.tile_size,
        )
    stem = os.path.splitext(os.path.basename(path))[0]
    with stage("write-output", out_dir):
        write_ppm(os.path.join(out_dir, f"{stem}.out.ppm"), art.radiance)
        if args.dump_intermediates:
            write_ppm(os.path.join(out_dir, f"{stem}.deglow.ppm"), art.deglowed)
            write_pgm(os.path.join(out_dir, f"{stem}.trans.pgm"), art.transmission)
            with open(os.path.join(out_dir, f"{stem}.light.txt"), "w") as f:
                f.write(" ".join(f"{v:.17g}" for v in art.light) + "\n")
            stages = (art.deglowed, art.transmission, art.light, cfg.t_min)
            sidecar = os.path.join(out_dir, f"{stem}.stages.npz")
            np.savez(sidecar, **dict(zip(SIDECAR_KEYS, stages)))
    timing = " ".join(f"{k}={art.timings[k]:.4f}s" for k in art.timings)
    return f"{stem}: {timing}"


def read_intermediates(path):
    """The float64 deglowed image, transmission and light, and the float
    t_min, of a `.stages.npz` sidecar as `_run_one` writes it above.  A
    file that cannot be opened raises OSError; any other file that is not
    such a sidecar raises DataError."""
    with open(path, "rb") as f:
        try:
            with np.load(f) as blob:
                arrays = {key: blob[key] for key in SIDECAR_KEYS if key in blob.files}
        # the file is open, so whatever zipfile and numpy raise here is about
        # its bytes, and they raise many types for that: BadZipFile,
        # ValueError, EOFError, RuntimeError, NotImplementedError, zlib.error
        except Exception as e:
            raise DataError(f"not a .npz archive: {e}") from e
    missing = [key for key in SIDECAR_KEYS if key not in arrays]
    if missing:
        raise DataError(f"missing {missing}")
    for key, a in arrays.items():
        if a.dtype.kind not in "iuf":
            raise DataError(f"{key} holds {a.dtype} values, not real numbers")
    *maps, t_min = (arrays[key] for key in SIDECAR_KEYS)
    if t_min.shape != ():
        raise DataError(f"t_min has shape {t_min.shape}, not a single value")
    return (*(a.astype(np.float64) for a in maps), float(t_min))


def cmd_run(args):
    if args.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {args.threads}")
    inputs = []
    for item in args.inputs:
        if os.path.isdir(item):
            inputs.extend(
                os.path.join(item, f) for f in sorted(os.listdir(item)) if f.endswith(".ppm")
            )
        else:
            inputs.append(item)
    with stage("read-input", args.inputs[0]):
        if not inputs:
            raise DataError("no .ppm inputs found")
    deglow, dehaze, cfg = _load_models(args)
    _make_out_dir(args.out)

    def run_one(path):
        return _run_one(path, args.out, deglow, dehaze, cfg, args)

    if args.threads > 1 and len(inputs) > 1:
        # the workers return their lines, which this thread prints whole
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            for line in pool.map(run_one, inputs):
                print(line)
    else:
        for path in inputs:
            print(run_one(path))
    return 0


def cmd_recover(args):
    with stage("read-intermediates", args.intermediates):
        stages = read_intermediates(args.intermediates)
    with stage("recover", args.intermediates):
        radiance = recover_radiance(*stages)
    stem = os.path.basename(args.intermediates).replace(".stages.npz", "")
    _make_out_dir(args.out)
    out_path = os.path.join(args.out, f"{stem}.out.ppm")
    with stage("write-output", out_path):
        write_ppm(out_path, radiance)
    print(f"wrote {out_path}")
    return 0


def _stem_map(directory):
    with stage("eval", directory):
        names = sorted(os.listdir(directory))
    out = {}
    for f in names:
        if not f.endswith(".ppm"):
            continue
        stem = f[: -len(".ppm")]
        if stem.endswith(".out"):
            stem = stem[: -len(".out")]
        out[stem] = os.path.join(directory, f)
    return out


def cmd_eval(args):
    preds = _stem_map(args.pred)
    truths = _stem_map(args.truth)
    shared = sorted(set(preds) & set(truths))
    with stage("eval", args.pred):
        if not shared:
            raise DataError("no matching image stems between --pred and --truth")
    pairs = [
        (stem, _read_image("eval", preds[stem]), _read_image("eval", truths[stem]))
        for stem in shared
    ]
    report = metrics.evaluate_pairs(pairs)
    text = metrics.format_report(report)
    if args.out:
        with stage("write-output", args.out), open(args.out, "w") as f:
            f.write(text)
    print(text, end="")
    return 0


def _sci(value):
    return np.format_float_scientific(value, trim="-", exp_digits=1)


def cmd_gradcheck(args):
    reports = run_gradient_suite()
    worst = 0.0
    for name, report in reports:
        print(f"{name}: max rel error {report.error:.3e}")
        worst = np.maximum(worst, report.error)  # a NaN case stays NaN and fails
    for step in STEPS:
        count = sum(report.steps[step][0] for _, report in reports)
        err = np.max([report.steps[step][1] for _, report in reports])
        print(f"step {_sci(step)}: {count} coordinates, max rel error {err:.3e}")
    ok = worst <= TOLERANCE
    verdict = "PASS" if ok else "FAIL"
    print(f"gradcheck {verdict} (worst {worst:.3e}, tolerance {_sci(TOLERANCE)})")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train-deglow": lambda a: _cmd_train(a, "deglow"),
        "train-dehaze": lambda a: _cmd_train(a, "dehaze"),
        "run": cmd_run,
        "recover": cmd_recover,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }
    try:
        with stage(args.command, "-"):
            return handlers[args.command](args)
    except StageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""nightdehaze benchmark: runs one workload and prints its metrics, measured
from outside the program.

    python3 perfbench/run.py --workload infer_whole --seed 0 --seconds 30 --trace 0

Workloads (NOTES.md says why each was chosen):
  infer_whole  320x240 night scenes, read_ppm -> run_pipeline -> write_ppm
  infer_tiled  the same with tile_size 96 (12 tiles with halos)
  train        criterion-6 training passes: train_deglow, then train_dehaze

An operation is one image or one training pass.  With --trace 0 the
operations run in rounds for --seconds, one after another: each round is a
fresh worker process that runs one cold operation (first_op_s), and the first
two rounds then run a warm one (op_s).  With --trace 1 one process runs a first
operation and then alternates untraced and traced ones for --seconds, and
the per-layer metrics come from the traced ones.  Every output is checked
against the stored references in references/, and a mismatch counts as a
failed operation.

The last line of stdout is the result JSON; the line before it is the run
record (versions, BLAS, cores, thread pinning, seed, per-operation times).
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("infer_whole", "infer_tiled", "train")
INFER_SETUP_REPEATS = 9
TRAIN_SETUP_REPEATS = 5
# An untraced run is a series of rounds, each a fresh worker process that
# runs one cold operation; the first WARM_ROUNDS also run one warm operation.
# Warm times vary little within a run and cold ones a lot, so the later
# rounds spend their time on cold operations only.
WARM_ROUNDS = 2
MIN_ROUNDS = 2
# a worker still running this long after the first round started is killed
# and its operations count as failed, so that the run ends in time
ROUNDS_DEADLINE_S = 140
# an output passes when every radiance value is within half an 8-bit level of
# the reference: a float32 network path passes, a wrong stage does not
TOLERANCE = 0.5 / 255.0

END_TO_END = {"op_s": "s", "first_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "pipeline.deglow_s": "s",
    "pipeline.dehaze_s": "s",
    "pipeline.atmospheric_light_s": "s",
    "pipeline.recover_s": "s",
    "pipeline.other_s": "s",
    "pipeline.tiles_per_image": "count",
    "pipeline.halo_ratio": "ratio",
    "networks.step_s": "s",
    "networks.step_calls": "count",
    "networks.dehaze_forward_s": "s",
    "tensor.conv2d_calls": "count",
    "tensor.conv2d_self_s": "s",
    "tensor.tape_nodes": "count",
    "tensor.backward_s": "s",
    "kernels.im2col_s": "s",
    "kernels.im2col_calls": "count",
    "kernels.matmul_s": "s",
    "kernels.conv_gflop": "GFLOP",
    "kernels.im2col_mb": "MB",
    "kernels.conv_gflops_per_s": "GFLOP/s",
    "kernels.col2im_s": "s",
    "kernels.conv_backward_s": "s",
    "kernels.im2col_calls_per_iter.deglow": "count",
    "kernels.im2col_calls_per_iter.dehaze": "count",
    "training.deglow_iter_s": "s",
    "training.dehaze_iter_s": "s",
    "training.forward_s.deglow": "s",
    "training.forward_s.dehaze": "s",
    "training.other_s.deglow": "s",
    "training.other_s.dehaze": "s",
    "optim.sgd_step_s.deglow": "s",
    "optim.sgd_step_s.dehaze": "s",
    "imageio.read_s": "s",
    "imageio.write_s": "s",
    "checkpoint.load_s": "s",
    "synthesis.build_dataset_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.stage_share": "ratio",
    "check.output_max_abs_diff": "1",
}

# spans the benchmark itself opens around the program's calls; everything
# else is a span of a program function
BENCH_SPANS = ("op", "pipeline.run", "training.deglow", "training.dehaze")


def median(values):
    return statistics.median(values) if values else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by run_rounds for the worker of one round
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads its thread count when numpy is first imported, below
    for var in PINNED:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "nightdehaze", "__init__.py")):
        print(f"error: no nightdehaze sources at {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(REFERENCES, "refs.json")):
        print(f"error: no stored references at {REFERENCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import nightdehaze

    if not os.path.realpath(nightdehaze.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported nightdehaze from {nightdehaze.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.round is not None:
        return run_round(args)

    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "train":
            result, record = run_train(args, work)
        else:
            result, record = run_infer(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    record.update(environment(args))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def load_references():
    import numpy as np

    with open(os.path.join(REFERENCES, "refs.json")) as f:
        refs = json.load(f)
    with np.load(os.path.join(REFERENCES, "radiance.npz")) as arrays:
        radiance = [arrays[f"scene{k}"] for k in range(len(refs["scenes"]))]
    return refs, radiance


def closed_loop(args, op):
    """Run op(index, traced) once on its own, then repeatedly for
    args.seconds and at least once; with tracing, steady operations alternate
    untraced (even) and traced (odd) and each kind runs at least once.
    Returns the list of op results in order."""
    results = [op(0, False)]
    start = time.perf_counter()
    index = 1
    while index < 2 + args.trace or time.perf_counter() - start < args.seconds:
        results.append(op(index, bool(args.trace) and index % 2 == 1))
        index += 1
    return results


def run_op(fn, tracer, traced):
    """fn(tracer), inside the span wrappers, for a traced operation; fn(None)
    otherwise."""
    import spans

    if not traced:
        return fn(None)
    with spans.instrument(tracer):
        return fn(tracer)


def run_rounds(args, work):
    """The untraced operations, in fresh processes one after another: each
    round is a worker (this script with --round) that runs the operations of
    round_ops().  Rounds start while less than args.seconds have passed, and
    at least MIN_ROUNDS run.  Returns (the operation results, each marked
    cold or not, and one dict of {"peak_rss_mb", "problems"} per round)."""
    ops = []
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        k = len(rounds)
        command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        command += ["--round", str(k), "--work", work]
        out = None
        try:
            timeout = max(1.0, ROUNDS_DEADLINE_S - (time.perf_counter() - start))
            proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                failure = f"exited with code {proc.returncode}"
            else:
                try:
                    out = json.loads(proc.stdout.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    failure = "printed no result"
        except subprocess.TimeoutExpired:
            failure = f"still ran {ROUNDS_DEADLINE_S} s after the first round started"
        if out is None:
            out = {
                "ops": [{"index": i, "s": float("nan"), "ok": False} for i in round_ops(k)],
                "peak_rss_mb": float("nan"),
                "problems": [f"round {k}: worker {failure}"],
            }
        for i, result in enumerate(out.pop("ops")):
            ops.append(dict(result, round=k, cold=i == 0))
        rounds.append(out)
    return ops, rounds


def round_ops(k):
    """Operation indices of round k: a cold one, then a warm one in the
    first WARM_ROUNDS rounds."""
    first = k + min(k, WARM_ROUNDS)
    return range(first, first + (2 if k < WARM_ROUNDS else 1))


def round_metrics(ops, rounds):
    """op_s and first_op_s from the rounds, as medians over the warm and the
    cold operations, and peak_rss_mb, the largest peak of any worker."""
    times = {True: [], False: []}
    for r in ops:
        if math.isfinite(r["s"]):
            times[r["cold"]].append(r["s"])
    return {
        "op_s": median(times[False]),
        "first_op_s": median(times[True]),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in rounds if math.isfinite(r["peak_rss_mb"])], default=0.0),
    }


def run_round(args):
    """Worker: round args.round of an untraced run, in this fresh process,
    on the inputs its parent made in args.work.  Prints {"ops",
    "peak_rss_mb", "problems"} as the last line of stdout."""
    indices = round_ops(args.round)
    if args.workload == "train":
        bench, _, op, problems = train_session(args, args.work)
        bench.load()
        results = [op(i, False) for i in indices]
    else:
        import scenes

        bench, _, op, problems = infer_session(args, args.work, write=False)
        bench.load()
        order = scenes.scene_order(args.seed)
        for _ in range(indices[0]):
            next(order)
        results = [op(i, next(order), False) for i in indices]
    print(json.dumps({"ops": results, "peak_rss_mb": peak_rss_mb(), "problems": problems}))
    return 0


def infer_session(args, work, write):
    """The inference bench on the inputs in `work` (written first when
    `write`), checked against the references.  Returns (bench, tracer,
    op(index, scene, traced) -> result dict, problems)."""
    import numpy as np

    import scenes
    import spans
    from workloads import Inference

    refs, ref_radiance = load_references()
    mode = "tiled" if args.workload == "infer_tiled" else "whole"
    bench = Inference(work, scenes.TILE_SIZE if mode == "tiled" else 0, write)
    problems = []
    bad_scenes = set()
    for k, path in enumerate(bench.inputs):
        if scenes.file_digest(path) != refs["scenes"][k]["input_sha256"]:
            bad_scenes.add(k)
            problems.append(f"scene {k}: input differs from the reference input")
    models_ok = [scenes.file_digest(p) for p in bench.checkpoints] == refs["models_sha256"]
    if not models_ok:
        problems.append("model checkpoints differ from the reference checkpoints")
    tracer = spans.Tracer()

    def op(index, scene, traced):
        tracer.op = index
        try:
            seconds, radiance = run_op(lambda t: bench.op(scene, t), tracer, traced)
        except Exception:
            traceback.print_exc()
            return {"index": index, "scene": scene, "s": float("nan"), "traced": traced, "ok": False, "diff": None}
        ref = ref_radiance[scene]
        if scenes.array_digest(radiance) == refs["scenes"][scene][f"{mode}_sha256"]:
            diff = 0.0
        elif radiance.shape == ref.shape:
            diff = float(np.max(np.abs(radiance - ref)))
        else:
            diff = float("inf")
        ok = (
            models_ok
            and scene not in bad_scenes
            and diff <= TOLERANCE
            and bench.written_matches(radiance)
        )
        if not ok:
            problems.append(f"op {index} (scene {scene}): output differs, max abs diff {diff}")
        return {"index": index, "scene": scene, "s": seconds, "traced": traced, "ok": ok, "diff": diff}

    return bench, tracer, op, problems


def run_infer(args, work):
    import scenes

    bench, tracer, op, problems = infer_session(args, work, write=True)
    if args.trace:
        probes = bench.setup(INFER_SETUP_REPEATS)
        order = scenes.scene_order(args.seed)
        results = closed_loop(args, lambda index, traced: op(index, next(order), traced))
        rounds = []
    else:
        probes = bench.probe(INFER_SETUP_REPEATS)
        results, rounds = run_rounds(args, work)
    diffs = [r["diff"] for r in results if r.get("diff") is not None]
    record = {
        "tile_size": bench.tile_size,
        "ops": results,
        "rounds": rounds,
        "setup_probes": probes,
        "output_max_abs_diff": max(diffs) if diffs else None,
        "problems": problems,
    }
    if args.trace:
        steady = [r["s"] for r in results[1:] if not r["traced"] and math.isfinite(r["s"])]
        traced = [i for i, r in enumerate(results) if r["traced"]]
        metrics = layer_metrics(tracer, traced, results, steady, problems)
        metrics["checkpoint.load_s"] = median([p["load_s"] for p in probes])
        metrics["check.output_max_abs_diff"] = record["output_max_abs_diff"] or 0.0
    else:
        metrics = round_metrics(results, rounds)
        metrics["setup_s"] = median([p["import_s"] + p["load_s"] for p in probes])
    return finish(args, results, rounds, metrics, problems), record


def train_session(args, work):
    """The training bench in `work`, checked against the references.
    Returns (bench, tracer, op(index, traced) -> result dict, problems)."""
    import scenes
    import spans
    from workloads import Training

    refs, _ = load_references()
    variant = args.seed % scenes.TRAIN_VARIANTS
    expected = refs["train"][str(variant)]
    bench = Training(work, variant)
    tracer = spans.Tracer()
    problems = []

    def op(index, traced):
        tracer.op = index
        try:
            seconds, deglow_s, dehaze_s, digest = run_op(bench.op, tracer, traced)
        except Exception:
            traceback.print_exc()
            return {"index": index, "s": float("nan"), "traced": traced, "ok": False}
        ok = digest == expected
        if not ok:
            problems.append(f"pass {index}: final checkpoints differ from the reference")
        return {
            "index": index,
            "s": seconds,
            "deglow_iter_s": deglow_s / scenes.DEGLOW_ITERS,
            "dehaze_iter_s": dehaze_s / scenes.DEHAZE_ITERS,
            "traced": traced,
            "ok": ok,
        }

    return bench, tracer, op, problems


def run_train(args, work):
    import spans

    bench, tracer, op, problems = train_session(args, work)
    setups = bench.setup(TRAIN_SETUP_REPEATS)
    if args.trace:
        results = closed_loop(args, op)
        steady = [r for r in results[1:] if not r["traced"] and math.isfinite(r["s"])]
        rounds = []
    else:
        results, rounds = run_rounds(args, work)
        steady = [r for r in results if not r["cold"] and math.isfinite(r["s"])]
    iter_s = {
        phase: median([r[f"{phase}_iter_s"] for r in steady]) for phase in spans.PHASES
    }
    record = {
        "variant": bench.variant,
        "ops": results,
        "rounds": rounds,
        "setups": setups,
        "iter_s": iter_s,
        "problems": problems,
    }
    if args.trace:
        traced = [i for i, r in enumerate(results) if r["traced"]]
        metrics = layer_metrics(tracer, traced, results, [r["s"] for r in steady], problems)
        iterations = list(spans.training_iterations(tracer))
        for phase in spans.PHASES:
            rows = [it for it in iterations if it[1] == phase]
            metrics[f"training.{phase}_iter_s"] = iter_s[phase]
            metrics[f"training.forward_s.{phase}"] = median(
                [d[f"training.forward.{phase}"] for _, _, _, d, _ in rows]
            )
            metrics[f"optim.sgd_step_s.{phase}"] = median([d["optim.sgd_step"] for _, _, _, d, _ in rows])
            metrics[f"training.other_s.{phase}"] = median(
                [
                    s - d[f"training.forward.{phase}"] - d["tensor.backward"] - d["optim.sgd_step"]
                    for _, _, s, d, _ in rows
                ]
            )
            calls = [c for _, _, _, _, c in rows]
            if len(set(calls)) > 1:
                problems.append(f"{phase}: im2col calls per iteration vary: {sorted(set(calls))}")
            metrics[f"kernels.im2col_calls_per_iter.{phase}"] = median(calls)
        metrics["imageio.read_s"] = median([s["read_s"] for s in setups])
        metrics["synthesis.build_dataset_s"] = median([s["build_s"] for s in setups])
    else:
        metrics = round_metrics(results, rounds)
        metrics["setup_s"] = median([s["setup_s"] for s in setups])
    return finish(args, results, rounds, metrics, problems), record


def layer_metrics(tracer, traced, results, untraced_s, problems):
    """Per-operation medians over the traced operations."""
    import scenes
    import spans

    by_op = spans.per_operation(tracer)
    rows = [by_op[i] for i in traced]

    def med(fn):
        return median([fn(r) for r in rows])

    if any(r["calls"] != rows[0]["calls"] or r["counts"] != rows[0]["counts"] for r in rows):
        problems.append("span calls or computed counts differ between traced operations")

    traced_s = median([results[i]["s"] for i in traced])
    m = {
        "pipeline.deglow_s": med(lambda r: r["incl"]["pipeline.deglow"]),
        "pipeline.dehaze_s": med(lambda r: r["incl"]["pipeline.dehaze"]),
        "pipeline.atmospheric_light_s": med(lambda r: r["incl"]["pipeline.atmospheric_light"]),
        "pipeline.recover_s": med(lambda r: r["incl"]["pipeline.recover"]),
        "pipeline.other_s": med(lambda r: r["self"]["pipeline.run"]),
        "pipeline.tiles_per_image": med(lambda r: r["counts"]["tiles"]),
        "pipeline.halo_ratio": med(
            lambda r: r["counts"]["network_input_pixels"] / (2 * scenes.IMAGE_SIZE[0] * scenes.IMAGE_SIZE[1])
        ),
        "networks.step_s": med(lambda r: r["self"]["networks.step"]),
        "networks.step_calls": med(lambda r: r["calls"]["networks.step"]),
        "networks.dehaze_forward_s": med(
            lambda r: r["self"]["pipeline.dehaze"] + r["self"]["networks.dehaze_forward"]
        ),
        "tensor.conv2d_calls": med(lambda r: r["calls"]["tensor.conv2d"]),
        "tensor.conv2d_self_s": med(lambda r: r["self"]["tensor.conv2d"]),
        # training counts the graph from each loss; its dehaze sigmoid
        # outputs are part of that graph already
        "tensor.tape_nodes": med(
            lambda r: r["counts"]["tape_nodes.loss"] or r["counts"]["tape_nodes.stage"]
        ),
        "tensor.backward_s": med(lambda r: r["self"]["tensor.backward"]),
        "kernels.im2col_s": med(lambda r: r["incl"]["kernels.im2col"]),
        "kernels.im2col_calls": med(lambda r: r["calls"]["kernels.im2col"]),
        "kernels.matmul_s": med(lambda r: r["self"]["kernels.conv"]),
        "kernels.conv_gflop": med(lambda r: r["counts"]["conv_flop"] / 1e9),
        "kernels.im2col_mb": med(lambda r: r["counts"]["im2col_bytes"] / 1e6),
        "kernels.conv_gflops_per_s": med(
            lambda r: r["counts"]["conv_flop"]
            / 1e9
            / max(r["incl"]["kernels.conv"] + r["incl"]["kernels.conv_backward"], 1e-12)
        ),
        "kernels.col2im_s": med(lambda r: r["incl"]["kernels.col2im"]),
        "kernels.conv_backward_s": med(lambda r: r["self"]["kernels.conv_backward"]),
        "imageio.read_s": med(lambda r: r["incl"]["imageio.read"]),
        "imageio.write_s": med(lambda r: r["incl"]["imageio.write"]),
        "trace.op_s": traced_s,
        "trace.overhead_s": traced_s - median(untraced_s),
        "trace.stage_share": median(
            [
                1.0 - sum(r["self"][name] for name in BENCH_SPANS) / results[i]["s"]
                for i, r in zip(traced, rows)
            ]
        ),
    }
    return m


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish(args, results, rounds, metrics, problems):
    for r in rounds:
        problems.extend(r["problems"])
    names = PER_LAYER if args.trace else END_TO_END
    failed = sum(not r["ok"] for r in results)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {var: os.environ.get(var) for var in PINNED},
    }


if __name__ == "__main__":
    sys.exit(main())

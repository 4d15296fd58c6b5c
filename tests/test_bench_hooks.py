"""The benchmark (perfbench/) imports and wraps library functions by name; a
rename or deletion in the library must fail here, not only in a benchmark run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nightdehaze.engine import Tensor, add, conv2d, mul, relu, tsum
from nightdehaze.engine.tensor import walk
from nightdehaze.networks import DeGlowModel, deglow_loss, deglow_steps

from conftest import REFERENCE_CORE, REFERENCE_CORE_REASON, blas_core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_on_its_owner():
    table = _load_spans()._patch_table()
    assert table
    for owner, attr, _, _ in table:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def _library_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nightdehaze":
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(_library_imports())


def test_benchmark_imports_something_from_the_library():
    assert {name for name, _, _ in IMPORTS} >= {"scenes.py", "spans.py", "workloads.py"}


@pytest.mark.parametrize(("path", "module", "name"), IMPORTS)
def test_every_benchmark_import_resolves(path, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")  # a submodule the package does not import


def test_traced_fused_conv_reports_kernel_spans_and_counts():
    # the traced benchmark sees the kernels only through the module globals
    # it wraps; a kernel reached some other way would read as zero work
    spans = _load_spans()
    tracer = spans.Tracer()
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 1, (2, 3, 9, 8)), requires_grad=True)
    weight = Tensor(rng.normal(0, 0.5, (4, 3, 3, 3)), requires_grad=True)
    bias = Tensor(rng.normal(0, 0.5, 4), requires_grad=True)
    with spans.instrument(tracer):
        out = conv2d(x, weight, bias, 2, relu=True)
        tsum(mul(out, rng.normal(0, 1, out.shape))).backward()
    # span: [name, start, end, parent index, operation]
    parents = {
        tracer.spans[span[3]][0] for span in tracer.spans if span[0] == "kernels.im2col"
    }
    assert parents == {"kernels.conv", "kernels.conv_backward"}
    counts = {}
    for _, name, value in tracer.counts:
        counts[name] = counts.get(name, 0) + value
    assert counts.get("conv_flop", 0) > 0 and counts.get("im2col_bytes", 0) > 0


def _diamond():
    x = Tensor(np.arange(4.0), requires_grad=True)
    shared = relu(x)
    return add(mul(shared, 2.0), mul(shared, 3.0))


def _deglow_loss_tape():
    rng = np.random.default_rng(0)
    model = DeGlowModel(features=4, tau=2).init(rng, std=0.1)
    image = rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
    targets = {
        "haze": rng.uniform(0, 1, image.shape),
        "streak": rng.uniform(0, 1, image.shape),
        "glow": (rng.uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float32),
    }
    return deglow_loss(deglow_steps(image, model, model.step), targets)


@pytest.mark.parametrize("build", [_diamond, _deglow_loss_tape], ids=["diamond", "deglow-tau2"])
def test_benchmark_tape_count_is_the_library_walk(build):
    # perfbench/spans.py counts tape nodes with a walk of its own
    root = build()
    order = walk(root)
    assert _load_spans().tape_nodes(root) == len(order) - 1
    assert len({id(node) for node in order}) == len(order)
    assert order[-1] is root
    position = {id(node): i for i, node in enumerate(order)}
    for i, node in enumerate(order):
        assert all(position[id(p)] < i for p in node._parents)


TRAINING_PASS = """
import tempfile
from workloads import Training
with tempfile.TemporaryDirectory() as work:
    bench = Training(work, 0)
    bench.setup(1)
    print(bench.op()[3])
"""


@pytest.mark.skipif(blas_core() != REFERENCE_CORE, reason=REFERENCE_CORE_REASON)
def test_training_pass_matches_the_benchmark_reference():
    # one training pass of the benchmark's variant 0, run as the references
    # were made (BLAS pinned to one thread): an engine change that moves a
    # byte of training fails here, and not only in a benchmark run
    src = PERFBENCH.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, PERFBENCH))))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-c", TRAINING_PASS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    refs = json.loads((PERFBENCH / "references" / "refs.json").read_text())
    assert proc.stdout.split()[-1] == refs["train"]["0"]

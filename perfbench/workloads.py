"""The benchmark's three workloads, their closed timing loop and their metrics.

Every input is generated by ``fusehash.synth`` from the seed during set-up,
before any timing starts. Each workload then runs a closed loop with one
caller: operation ``k + 1`` starts only after operation ``k`` has returned.
Outputs are checked against the independent oracles in ``oracles.py``
outside the timed region, after every operation.

The set-up of ``noisy_stream`` and ``query_topk`` trains a model. It runs in
a child process (``prepare.py``) that leaves the model and codes on disk, so
the measuring process only loads them and its peak RSS covers loading and
the timed loop, not training.

Library functions are always looked up through their module at call time
(``training.fit``, never a name bound at import), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import oracles
from fusehash import (
    centers,
    encoding,
    evaluation,
    exceptions,
    kernel,
    packing,
    storage,
    synth,
    training,
)
from spans import SpanRecorder, read_spans, self_times

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the baseline sizes."""

    num_classes: int = 16
    train_per_class: int = 625  # 10,000 training samples
    heldout_per_class: int = 256  # 4,096 items outside train and database
    database_per_class: int = 1813  # 29,008 database items
    dims: tuple[int, ...] = (256, 64)
    spread: float = 4.0  # keeps mAP near 0.8 instead of saturating at 1.0
    anchors: int = 1000
    bits: int = 64
    index_queries: int = 992
    topk_queries: int = 1000
    batch_size: int = 8
    map_floor: float = 0.6  # index_build mAP measured 0.82 at seed 0

    @classmethod
    def from_json(cls, text: str) -> "Sizes":
        fields = json.loads(text)
        return cls(**{**fields, "dims": tuple(fields["dims"])})


BASELINE = Sizes()

# A few-second configuration for the benchmark's own tests.
TINY = Sizes(
    num_classes=4,
    train_per_class=30,
    heldout_per_class=16,
    database_per_class=40,
    dims=(12, 6),
    spread=1.0,
    anchors=24,
    bits=16,
    index_queries=20,
    topk_queries=24,
    batch_size=4,
    map_floor=0.3,
)

TOP = 10  # query_topk answers, as ``fusehash query --top 10``
NOISE_SCALE = 2.0  # noisy_stream corruption, in standard deviations
MISSING_EVERY = 5  # every fifth noisy_stream batch lacks modality 1
SETUP_REPS = 3  # setup_s is the median of this many set-ups
TOPK_WARMUP_QUERIES = 100
ORACLE_QUERIES = 16  # queries per pass checked against the naive oracles


@functools.cache
def declared_metrics(section: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of each metric that BENCHMARK.json declares in ``section``.

    Per-layer names without a "setup." or "trace." prefix are per timed
    operation; "setup." names are per set-up repetition.
    """
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple((m["name"], m["unit"]) for m in spec[section])


# Counts that the traced run's counters attach to spans (see TRACE_TARGETS).
SPAN_COUNTS = {"columns", "gflop", "bytes", "failed", "relevance_bytes", "bytes_written", "bytes_read"}


# Operations per tail block. Over a whole run the tail sits near p99.9 and
# measures host stalls (its spread across seeds was 0.47 of its median on a
# 2-vCPU VM); inside blocks of 256 it is p96.1, which the data decide.
TAIL_BLOCK = 256


# ---------------------------------------------------------------- inputs


def spread_pick(indices, count: int) -> np.ndarray:
    """``count`` entries spread evenly over ``indices`` (so over every class)."""
    indices = np.asarray(indices)
    if count > indices.shape[0]:
        raise ValueError(f"cannot pick {count} of {indices.shape[0]} items")
    return indices[(np.arange(count) * indices.shape[0]) // count]


def make_bundle(sizes: Sizes, seed: int):
    per_class = sizes.train_per_class + sizes.heldout_per_class + sizes.database_per_class
    spec = synth.SynthSpec(
        num_classes=sizes.num_classes,
        samples_per_class=per_class,
        modality_dims=sizes.dims,
        cluster_spread=sizes.spread,
        seed=seed,
        train_fraction=sizes.train_per_class / per_class,
        query_fraction=sizes.heldout_per_class / per_class,
    )
    bundle = synth.generate_synthetic(spec)
    got = (len(bundle.train_indices), len(bundle.query_indices), len(bundle.retrieval_indices))
    want = tuple(
        sizes.num_classes * c
        for c in (sizes.train_per_class, sizes.heldout_per_class, sizes.database_per_class)
    )
    if got != want:
        raise ValueError(f"split sizes {got} differ from the requested {want}")
    return bundle


def train_model(sizes: Sizes, seed: int, train_features, train_labels):
    table = centers.build_center_table(sizes.bits, sizes.num_classes, seed)
    config = training.TrainConfig(seed=seed, num_anchors=sizes.anchors)
    return training.fit(train_features, train_labels, table, config)


# Generous; a baseline set-up takes a few seconds.
PREPARE_TIMEOUT_S = 120


def prepare_in_child(name: str, sizes: Sizes, seed: int, workdir: Path, recorder=None) -> None:
    """Run the ``prepare`` step of workload ``name`` in a new Python process.

    Waits for the child to end. With a recorder, the child traces its calls
    under the recorder's current operation id and the recorder adopts them.
    """
    command = [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(workdir)]
    command.append(json.dumps(asdict(sizes)))
    if recorder is not None:
        command.append(recorder.op)
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=PREPARE_TIMEOUT_S)
    if recorder is not None:
        recorder.extend(read_spans(workdir / "setup-spans.json"))


def prepare(name: str, sizes: Sizes, seed: int, workdir: Path, trace_op: str | None) -> None:
    """The child process's work (see ``prepare.py``); traced when ``trace_op`` is set."""
    if trace_op is None:
        WORKLOADS[name].prepare(sizes, seed, workdir)
        return
    recorder = SpanRecorder()
    with recorder.tracing(TRACE_TARGETS):
        recorder.op = trace_op
        WORKLOADS[name].prepare(sizes, seed, workdir)
    recorder.write(workdir / "setup-spans.json")


def dump_inputs(workdir: Path, **arrays) -> None:
    with open(workdir / "inputs.pkl", "wb") as handle:
        pickle.dump(arrays, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_inputs(workdir: Path) -> dict:
    with open(workdir / "inputs.pkl", "rb") as handle:
        return pickle.load(handle)


# ---------------------------------------------------------------- workloads


class IndexBuild:
    """Offline pipeline: train, store, encode the database, reload, score."""

    name = "index_build"
    trace_block = 1  # operations per traced or untraced block; a pass takes seconds

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed = sizes, seed
        self.model_path = workdir / "model.amfh"
        self.db_path = workdir / "db.amfh"
        self.first_map = None
        self.build_s: list[float] = []
        self.eval_s: list[float] = []
        self.map = float("nan")

    def setup(self, recorder=None) -> None:
        """Generates the inputs in this process: the pass's own peak exceeds theirs."""
        bundle = make_bundle(self.sizes, self.seed)
        train = bundle.train_indices
        queries = spread_pick(bundle.query_indices, self.sizes.index_queries)
        self.train_features = bundle.features_at(train)
        self.train_labels = bundle.labels_at(train)
        self.db_features = bundle.features_at(bundle.retrieval_indices)
        self.db_labels = bundle.labels_at(bundle.retrieval_indices)
        self.query_features = bundle.features_at(queries)
        self.query_labels = bundle.labels_at(queries)
        self.items_per_op = len(self.db_labels)
        self.queries_per_op = len(self.query_labels)
        self.warmup_ops = 1

    def op(self, k: int):
        t0 = time.perf_counter()
        model = train_model(self.sizes, self.seed, self.train_features, self.train_labels)
        db_codes = training.fuse_encode_fixed(model, self.db_features)
        storage.store_model(model, self.model_path)
        storage.store_codes(db_codes, self.db_path)
        t1 = time.perf_counter()
        loaded = storage.load_model(self.model_path)
        loaded_db = storage.load_codes(self.db_path)
        batch = encoding.QueryBatch(features=self.query_features)
        result = encoding.encode_adaptive(loaded, batch)
        report = evaluation.mean_average_precision(
            result.codes, self.query_labels, loaded_db, self.db_labels
        )
        t2 = time.perf_counter()
        return model, db_codes, loaded, loaded_db, result, report, t1 - t0, t2 - t1

    def check(self, k: int, out, timed: bool) -> tuple[bool, list[str]]:
        model, db_codes, loaded, loaded_db, result, report, build_s, eval_s = out
        failures = oracles.check_nonincreasing(model.objective_trace)
        failures += oracles.check_models_equal(model, loaded)
        failures += oracles.check_equal_arrays("reloaded codes", db_codes, loaded_db)
        subset = spread_pick(np.arange(report.num_queries), ORACLE_QUERIES)
        failures += oracles.check_average_precision(
            result.codes, self.query_labels, loaded_db, self.db_labels, report.per_query_ap, subset
        )
        if not report.map > self.sizes.map_floor:
            failures.append(f"mAP {report.map} is not above the floor {self.sizes.map_floor}")
        if self.first_map is None:
            self.first_map = report.map
        elif report.map != self.first_map:
            failures.append(f"pass {k} mAP {report.map!r} != first pass {self.first_map!r}")
        if timed:
            self.build_s.append(build_s)
            self.eval_s.append(eval_s)
        self.map = report.map
        return False, failures

    def finish(self) -> tuple[float, list[str]]:
        return self.map, []

    def report(self, e2e: dict) -> dict:
        return {
            "build_s": (statistics.median(self.build_s), "s"),
            "eval_s": (statistics.median(self.eval_s), "s"),
            "map": (self.map, "1"),
        }


class NoisyStream:
    """Adaptive encoding of a corrupted stream in small batches; no training timed."""

    name = "noisy_stream"
    trace_block = 64

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.reference: list = []
        self.stream_map = float("nan")

    @staticmethod
    def prepare(sizes: Sizes, seed: int, workdir: Path) -> None:
        """Child process: train, encode the database, store both and the stream's inputs."""
        bundle = make_bundle(sizes, seed)
        train = bundle.train_indices
        model = train_model(sizes, seed, bundle.features_at(train), bundle.labels_at(train))
        db_codes = training.fuse_encode_fixed(model, bundle.features_at(bundle.retrieval_indices))
        storage.store_model(model, workdir / "model.amfh")
        storage.store_codes(db_codes, workdir / "db.amfh")
        dump_inputs(
            workdir,
            stream_features=bundle.features_at(bundle.query_indices),
            stream_labels=bundle.labels_at(bundle.query_indices),
            db_labels=bundle.labels_at(bundle.retrieval_indices),
        )

    def setup(self, recorder=None) -> None:
        prepare_in_child(self.name, self.sizes, self.seed, self.workdir, recorder)
        self.model = storage.load_model(self.workdir / "model.amfh")
        self.db_codes = storage.load_codes(self.workdir / "db.amfh")
        inputs = load_inputs(self.workdir)
        self.db_labels = inputs["db_labels"]
        self.stream_labels = inputs["stream_labels"]
        self.batches, _ = synth.make_noisy_stream(
            inputs["stream_features"], self.sizes.batch_size, NOISE_SCALE, self.seed
        )
        for b, batch in enumerate(self.batches):
            if b % MISSING_EVERY == MISSING_EVERY - 1:
                batch.features[1] = None
        self.items_per_op = self.sizes.batch_size
        self.queries_per_op = self.sizes.batch_size
        self.warmup_ops = len(self.batches)
        self.reference = []

    def op(self, k: int):
        batch = self.batches[k % len(self.batches)]
        return encoding.encode_stream(self.model, [batch], mode="adaptive")[0]

    def check(self, k: int, out, timed: bool) -> tuple[bool, list[str]]:
        b = k % len(self.batches)
        if not timed:
            self.reference.append(out)
        if isinstance(out, encoding.FailedBatch):
            return True, []
        failures = oracles.check_pm1(out.codes)
        failures += oracles.check_weights(out.dynamic_weights, self.batches[b].present_modalities)
        ref = self.reference[b]
        if not isinstance(ref, encoding.FailedBatch):
            failures += oracles.check_equal_arrays(f"batch {b} codes", ref.codes, out.codes)
            failures += oracles.check_equal_arrays(
                f"batch {b} weights", ref.dynamic_weights, out.dynamic_weights
            )
        return False, failures

    def finish(self) -> tuple[float, list[str]]:
        if len(self.reference) != len(self.batches) or any(
            isinstance(r, encoding.FailedBatch) for r in self.reference
        ):
            return float("nan"), ["the reference pass over the stream had failed batches"]
        codes = np.concatenate([r.codes for r in self.reference], axis=1)
        # Chunks keep the n_q x n_db relevance matrix of the library small.
        ap = []
        for start in range(0, codes.shape[1], 512):
            stop = min(start + 512, codes.shape[1])
            report = evaluation.mean_average_precision(
                codes[:, start:stop], self.stream_labels[start:stop], self.db_codes, self.db_labels
            )
            ap.append(report.per_query_ap)
        self.stream_map = float(np.concatenate(ap).mean())
        return self.stream_map, []

    def report(self, e2e: dict) -> dict:
        return {
            "encode_p50_ms": (e2e["op_p50_ms"], "ms"),
            "encode_tail_ms": (e2e["op_tail_ms"], "ms"),
            "encode_samples_per_s": (e2e["items_per_s"], "1/s"),
            "stream_map": (self.stream_map, "1"),
        }


class QueryTopK:
    """Top-10 Hamming queries against a stored and reloaded code database."""

    name = "query_topk"
    trace_block = 16

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.ap: dict[int, float] = {}

    @staticmethod
    def prepare(sizes: Sizes, seed: int, workdir: Path) -> None:
        """Child process: train, encode and store the database and the query codes."""
        bundle = make_bundle(sizes, seed)
        train = bundle.train_indices
        model = train_model(sizes, seed, bundle.features_at(train), bundle.labels_at(train))
        db_codes = training.fuse_encode_fixed(model, bundle.features_at(bundle.retrieval_indices))
        queries = spread_pick(bundle.query_indices, sizes.topk_queries)
        result = encoding.encode_adaptive(
            model, encoding.QueryBatch(features=bundle.features_at(queries))
        )
        storage.store_codes(db_codes, workdir / "db.amfh")
        storage.store_codes(result.codes, workdir / "queries.amfh")
        dump_inputs(
            workdir,
            query_labels=bundle.labels_at(queries),
            db_labels=bundle.labels_at(bundle.retrieval_indices),
        )

    def setup(self, recorder=None) -> None:
        prepare_in_child(self.name, self.sizes, self.seed, self.workdir, recorder)
        self.db = storage.load_codes(self.workdir / "db.amfh")
        self.queries = storage.load_codes(self.workdir / "queries.amfh")
        inputs = load_inputs(self.workdir)
        self.db_labels = inputs["db_labels"]
        self.query_labels = inputs["query_labels"]
        n_queries = self.queries.shape[1]
        self.oracle_subset = set(spread_pick(np.arange(n_queries), ORACLE_QUERIES).tolist())
        self.items_per_op = 1
        self.queries_per_op = 1
        self.warmup_ops = TOPK_WARMUP_QUERIES

    def op(self, k: int):
        ranking = evaluation.hamming_rank(self.queries[:, k % self.queries.shape[1]], self.db)
        return ranking.ranked_indices[:TOP], ranking.distances[:TOP]

    def check(self, k: int, out, timed: bool) -> tuple[bool, list[str]]:
        i = k % self.queries.shape[1]
        indices, distances = out
        failures = []
        if i in self.oracle_subset:
            failures = oracles.check_topk(self.queries[:, i], self.db, indices, distances, TOP)
        if timed and i not in self.ap:
            labels = self.query_labels[i]
            relevant = [bool(labels & self.db_labels[j]) for j in indices]
            self.ap[i] = evaluation.average_precision(relevant, len(relevant))
        return False, failures

    def finish(self) -> tuple[float, list[str]]:
        return float(np.mean(list(self.ap.values()))), []

    def report(self, e2e: dict) -> dict:
        return {
            "query_p50_ms": (e2e["op_p50_ms"], "ms"),
            "query_tail_ms": (e2e["op_tail_ms"], "ms"),
            "queries_per_s": (e2e["items_per_s"], "1/s"),
            "map_at_10": (e2e["map"], "1"),
        }


WORKLOADS = {w.name: w for w in (IndexBuild, NoisyStream, QueryTopK)}


# ---------------------------------------------------------------- tracing


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_counts(args, kwargs, result):
    d, p = _arg(args, kwargs, 1, "anchor_set").anchors.shape
    n = result.shape[1]
    return {"columns": n, "gflop": 2.0 * d * p * n / 1e9}


def _projection_counts(args, kwargs, result):
    r, n = np.shape(_arg(args, kwargs, 0, "targets"))
    p = np.shape(_arg(args, kwargs, 1, "kernel_features"))[0]
    # K K^T, T K^T, the Cholesky factorization, and the two triangular solves.
    return {"gflop": (2.0 * p * p * n + 2.0 * r * p * n + p**3 / 3.0 + 2.0 * p * p * r) / 1e9}


def _relevance_counts(args, kwargs, result):
    n_q = np.shape(_arg(args, kwargs, 0, "query_codes"))[1]
    n_db = np.shape(_arg(args, kwargs, 2, "db_codes"))[1]
    return {"relevance_bytes": 8 * n_q * n_db}


def _written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


TRACE_TARGETS = {
    kernel.select_anchors: None,
    kernel.apply_kernel: _kernel_counts,
    training.fit: lambda a, k, r: {"iterations": len(r.objective_trace)},
    training.update_projection: _projection_counts,
    training.objective: None,
    training.update_weights: None,
    training.fuse_encode_fixed: None,
    centers.build_center_table: None,
    centers.assign_target_codes: None,
    encoding.encode_adaptive: lambda a, k, r: {"iterations": r.iterations},
    encoding.encode_fixed: None,
    encoding.encode_stream: lambda a, k, r: {
        "failed": sum(isinstance(x, encoding.FailedBatch) for x in r)
    },
    packing.sign_to_pm1: None,
    packing.pack_codes: lambda a, k, r: {"bytes": r.nbytes},
    packing.unpack_codes: None,
    packing.packed_hamming: None,
    evaluation.hamming_rank: None,
    evaluation.mean_average_precision: _relevance_counts,
    evaluation.average_precision: None,
    storage.store_model: _written,
    storage.load_model: _read,
    storage.store_codes: _written,
    storage.load_codes: _read,
    synth.generate_synthetic: None,
    synth.make_noisy_stream: None,
}


def layer_metrics(spans, loop_ops: int, setup_times: list[float], queries_per_op: int) -> dict:
    """Every declared per-layer metric but ``trace.*``, from recorded spans.

    A name is ``[setup.]<layer>[.<function>].<what>``. With a function it
    covers that function's spans, without one every span of the layer.
    """
    own = self_times(spans)
    scopes = {
        "op": ([i for i, s in enumerate(spans) if (s.op or "").startswith("op-")], loop_ops),
        "setup": ([i for i, s in enumerate(spans) if (s.op or "").startswith("setup-")], len(setup_times)),
    }
    out = {}
    for metric, _ in declared_metrics("per_layer"):
        parts = metric.split(".")
        if parts[0] == "trace":
            continue
        scope = "setup" if parts[0] == "setup" else "op"
        indices, divisor = scopes[scope]
        if scope == "setup":
            parts = parts[1:]
        if parts == ["other", "self_s"]:  # set-up time outside every library call
            top_level = sum(spans[i].duration for i in indices if spans[i].parent is None)
            out[metric] = (sum(setup_times) - top_level) / divisor
            continue
        *where, what = parts
        if len(where) == 1:
            chosen = [i for i in indices if spans[i].layer == where[0]]
        else:
            chosen = [i for i in indices if spans[i].name == ".".join(where)]
        if what in ("iterations", "iterations_mean"):  # mean per call, not per operation
            values = [spans[i].counts["iterations"] for i in chosen]
            out[metric] = float(np.mean(values)) if values else 0.0
            continue
        if what == "s":
            total = sum(spans[i].duration for i in chosen)
        elif what == "self_s":
            total = sum(own[i] for i in chosen)
        elif what == "calls":
            total = len(chosen)
        elif what == "bytes_per_query":
            total = sum(spans[i].counts["bytes"] for i in chosen) / queries_per_op
        elif what in SPAN_COUNTS:
            total = sum(spans[i].counts.get(what, 0) for i in chosen)
        else:
            raise ValueError(f"no rule computes the per-layer metric {metric!r}")
        out[metric] = total / divisor
    out["trace.spans_per_op"] = len(scopes["op"][0]) / loop_ops
    return out


# ---------------------------------------------------------------- running


@dataclass
class LoopResult:
    latencies: list[float]
    failed: int = 0
    busy: float = 0.0

    def run(self, workload, k: int, failures: list[str], recorder=None) -> None:
        """Time operation ``k``, then check its output outside the timed region."""
        if recorder is not None:
            recorder.op = f"op-{k}"
        t0 = time.perf_counter()
        try:
            out = workload.op(k)
        except exceptions.FusehashError as exc:
            out = exc
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = None
        self.latencies.append(dt)
        self.busy += dt
        if isinstance(out, exceptions.FusehashError):
            self.failed += 1
        else:
            was_failed, problems = workload.check(k, out, timed=True)
            self.failed += was_failed
            failures += problems


def closed_loop(workload, seconds: float, failures: list[str]) -> LoopResult:
    """One caller runs operations back to back until ``seconds`` of them have passed."""
    loop = LoopResult([])
    k = 0
    while loop.busy < seconds or not loop.latencies:
        loop.run(workload, k, failures)
        k += 1
    return loop


def traced_loop(workload, seconds: float, failures: list[str], recorder: SpanRecorder):
    """Closed loop that alternates untraced and traced blocks of ``workload.trace_block`` ops.

    Pairs of blocks run in alternating order (untraced first, then traced
    first), so a drift in the host's speed cancels out of the per-pair
    differences of block medians. Returns the traced and the untraced
    operations and those differences.
    """
    traced, plain = LoopResult([]), LoopResult([])
    differences: list[float] = []
    k = 0
    while traced.busy + plain.busy < seconds or not differences:
        medians = {}
        order = (False, True) if len(differences) % 2 == 0 else (True, False)
        for tracing in order:
            loop = traced if tracing else plain
            first = len(loop.latencies)
            with recorder.tracing(TRACE_TARGETS) if tracing else contextlib.nullcontext():
                for _ in range(workload.trace_block):
                    loop.run(workload, k, failures, recorder if tracing else None)
                    k += 1
            medians[tracing] = statistics.median(loop.latencies[first:])
        differences.append(medians[True] - medians[False])
    return traced, plain, differences


def tail(latencies: list[float], block: int = TAIL_BLOCK) -> tuple[float, float]:
    """Median over blocks of the highest order statistic with ten samples beyond it.

    The loop's latencies are cut into consecutive blocks of ``block``
    operations (a shorter run forms one block). In each block the tail is
    the highest percentile with at least ten samples beyond it; the median
    over blocks is returned with that percentile. A block of ten or fewer
    samples yields its maximum as the 100th percentile.
    """
    if len(latencies) < block:
        block = len(latencies)
    values = []
    for start in range(0, len(latencies) - block + 1, block):
        ordered = sorted(latencies[start : start + block])
        values.append(ordered[max(block - 11, 0)] if block > 10 else ordered[-1])
    return statistics.median(values), (100.0 * (block - 10) / block if block > 10 else 100.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: dict  # workload-specific names -> (value, unit)
    context: dict
    failures: list[str]


def run(
    name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = BASELINE, out_dir: Path = OUT_DIR
) -> RunResult:
    """Set up, warm up, time and check one workload.

    Model and code files live in a scratch directory under ``out_dir`` that
    is removed afterwards; the traced run leaves its spans there as JSON.
    """
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, sizes, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, sizes, workdir, out_dir) -> RunResult:
    workload = WORKLOADS[name](sizes, seed, workdir)
    recorder = SpanRecorder() if trace else None
    failures: list[str] = []

    setup_times = []
    for rep in range(SETUP_REPS):
        with recorder.tracing(TRACE_TARGETS) if trace else contextlib.nullcontext():
            if trace:
                recorder.op = f"setup-{rep}"
            t0 = time.perf_counter()
            workload.setup(recorder)
            setup_times.append(time.perf_counter() - t0)
            if trace:
                recorder.op = None
    setup_s = statistics.median(setup_times)

    for k in range(workload.warmup_ops):
        _, problems = workload.check(k, workload.op(k), timed=False)
        failures += problems

    if trace:
        loop, plain, differences = traced_loop(workload, seconds, failures, recorder)
        attempted = len(loop.latencies) + len(plain.latencies)
        failed = loop.failed + plain.failed
    else:
        loop = closed_loop(workload, seconds, failures)
        attempted, failed = len(loop.latencies), loop.failed
    # Read before finish(), whose scoring is not part of the timed loop.
    peak_mb = peak_rss_mb()

    quality, problems = workload.finish()
    failures += problems

    if trace:
        metrics = layer_metrics(recorder.spans, len(loop.latencies), setup_times, workload.queries_per_op)
        overhead = statistics.median(differences)
        metrics["trace.overhead_op_p50_ms"] = overhead * 1e3
        metrics["trace.overhead_frac"] = overhead / statistics.median(plain.latencies)
        metrics = {m: (metrics[m], unit) for m, unit in declared_metrics("per_layer")}
        recorder.write(out_dir / f"spans-{name}-seed{seed}.json")
    else:
        tail_value, tail_pct = tail(loop.latencies)
        values = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(loop.latencies) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "items_per_s": workload.items_per_op * len(loop.latencies) / loop.busy,
            "map": quality,
            "peak_rss_mb": peak_mb,
        }
        metrics = {m: (values[m], unit) for m, unit in declared_metrics("end_to_end")}

    report = {"setup_s": (setup_s, "s")}
    if not trace:
        report.update(workload.report({m: v for m, (v, _) in metrics.items()}))
        report["peak_rss_mb"] = metrics["peak_rss_mb"]
    report["failed_fraction"] = (failed / attempted, "1")

    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {
            **asdict(sizes),
            "n_train": sizes.num_classes * sizes.train_per_class,
            "n_heldout": sizes.num_classes * sizes.heldout_per_class,
            "n_database": sizes.num_classes * sizes.database_per_class,
            "top": TOP,
            "noise_scale": NOISE_SCALE,
            "missing_every": MISSING_EVERY,
        },
        "setup_times_s": setup_times,
        "timed_ops": len(loop.latencies),
        "timed_busy_s": loop.busy,
    }
    if trace:
        context.update(untraced_ops=len(plain.latencies), trace_block=workload.trace_block)
    else:
        context.update(tail_percentile=tail_pct, tail_block=min(TAIL_BLOCK, len(loop.latencies)))
    return RunResult(
        correct=not failures,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        context=context,
        failures=failures,
    )

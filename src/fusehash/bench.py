"""Synthetic end-to-end protocol and the acceptance-check harness.

The helpers here wire the library stages together on a dataset bundle:
train on the train split, encode the retrieval split with training weights,
encode queries either fixed or adaptively, and score mAP.

``CHECKS`` is the acceptance checklist: twelve seeded checks, each with its
own independent oracle. The naive oracles live here, beside the checks, and
the tests import the same functions. ``fusehash bench`` runs it through
``run_benchmark``, which returns one ``BenchCheck`` per check, and
``tests/test_acceptance.py`` runs it under pytest. An ``AblationResult``
reads its tracking fraction from its per-batch weights.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .centers import audit_centers, build_center_table, count_classes, required_order
from .encoding import (
    QueryBatch,
    _stream_codes,
    encode_adaptive,
    encode_fixed,
    encode_stream,
)
from .evaluation import average_precision, mean_average_precision
from .kernel import AnchorSet, apply_kernel
from .packing import sign_to_pm1
from .synth import DatasetBundle, SynthSpec, generate_synthetic, make_noisy_stream
from .training import (
    TrainConfig,
    TrainedModel,
    fit,
    update_projection,
    update_weights,
)

DELTA_SWEEP = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

# Noise level (in units of per-modality standard deviation) that makes one
# modality clearly unreliable without drowning the batch entirely.
ABLATION_NOISE_SCALE = 2.0


def train_on_bundle(bundle: DatasetBundle, bits: int, config: TrainConfig | None = None):
    """Fit a model on the bundle's train split; returns (model, centers).
    ``config.seed`` seeds both the center table and the anchors."""
    config = TrainConfig() if config is None else config
    centers = build_center_table(bits, count_classes(bundle.labels), config.seed)
    model = fit(
        bundle.features_at(bundle.train_indices),
        bundle.labels_at(bundle.train_indices),
        centers,
        config,
    )
    return model, centers


def retrieval_map(
    model: TrainedModel, bundle: DatasetBundle, cutoff: int | None = None
) -> float:
    """mAP of the bundle's query split against its retrieval split.

    Database codes come from the training-weight hash function and query
    codes from the adaptive encoder.
    """
    db_codes, db_labels = _retrieval_database(model, bundle)
    batch = QueryBatch(features=bundle.features_at(bundle.query_indices))
    result = encode_adaptive(model, batch)
    report = mean_average_precision(
        result.codes, bundle.labels_at(bundle.query_indices), db_codes, db_labels, cutoff
    )
    return report.map


def _retrieval_database(model: TrainedModel, bundle: DatasetBundle):
    """The retrieval split's training-weight codes and its labels."""
    db_batch = QueryBatch(features=bundle.features_at(bundle.retrieval_indices))
    return encode_fixed(model, db_batch).codes, bundle.labels_at(bundle.retrieval_indices)


@dataclass
class AblationResult:
    """Adaptive-versus-fixed comparison on a noise-scheduled stream."""

    adaptive_map: float
    fixed_map: float
    corrupted: list[int]  # per batch, the modality carrying the noise
    adaptive_weights: list[np.ndarray]  # per batch

    @property
    def tracking_fraction(self) -> float:
        """Share of batches whose noisy modality got the top adaptive weight."""
        tracked = sum(
            int(np.argmax(weights)) == noisy
            for weights, noisy in zip(self.adaptive_weights, self.corrupted)
        )
        return tracked / len(self.corrupted)


def run_ablation(
    model: TrainedModel,
    bundle: DatasetBundle,
    batches: list[QueryBatch],
    corrupted: list[int],
    cutoff: int | None = None,
) -> AblationResult:
    """Encode a corrupted query stream both ways and compare retrieval mAP.

    ``batches`` and ``corrupted`` are what :func:`make_noisy_stream` returns
    for the bundle's query split: batches alternate which modality carries
    the noise. The per-batch weight vectors are kept for trace output.
    """
    adaptive = encode_stream(model, batches, mode="adaptive")
    fixed = encode_stream(model, batches, mode="fixed")
    db_codes, db_labels = _retrieval_database(model, bundle)
    query_labels = bundle.labels_at(bundle.query_indices)

    adaptive_map = mean_average_precision(
        _stream_codes(adaptive), query_labels, db_codes, db_labels, cutoff
    ).map
    fixed_map = mean_average_precision(
        _stream_codes(fixed), query_labels, db_codes, db_labels, cutoff
    ).map
    return AblationResult(
        adaptive_map=adaptive_map,
        fixed_map=fixed_map,
        corrupted=corrupted,
        adaptive_weights=[r.dynamic_weights for r in adaptive],
    )


def sweep_delta(
    bundle: DatasetBundle, bits: int, seed: int = 0, cutoff: int | None = None
) -> list[tuple[float, float]]:
    """Retrain per delta of ``DELTA_SWEEP`` and score adaptive-query mAP;
    returns (delta, mAP) pairs."""
    results = []
    for delta in DELTA_SWEEP:
        model, _ = train_on_bundle(bundle, bits, TrainConfig(delta=delta, seed=seed))
        results.append((delta, retrieval_map(model, bundle, cutoff=cutoff)))
    return results


# --- acceptance checklist ---------------------------------------------
#
# A check takes a seed, raises AssertionError naming what broke, and
# otherwise returns a one-line summary. Failures are raised explicitly, not
# with ``assert``, so that the checks still check under ``python -O``.


@dataclass(frozen=True)
class AcceptanceCheck:
    """One acceptance criterion: its report label, check and time bound."""

    name: str
    check: Callable[[int], str]
    bound: float | None = None  # wall-time bound in seconds


@dataclass
class BenchCheck:
    name: str
    passed: bool
    detail: str
    seconds: float


def _expect(ok, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _standard_bundle(seed: int, spread: float = 0.3) -> DatasetBundle:
    return generate_synthetic(
        SynthSpec(
            num_classes=4,
            samples_per_class=100,
            modality_dims=(32, 16),
            cluster_spread=spread,
            seed=seed,
        )
    )


# --- naive oracles, shared with the tests ---------------------------------
# Plain numpy on int8 codes, label sets and float64 arrays: no packing, no
# blocked ranking, no rank-based AP and no ridge solve.


def naive_hamming(a, b) -> int:
    """Per-coordinate disagreement count, no packing involved."""
    return int(np.sum(np.asarray(a) != np.asarray(b)))


def naive_ranking(query, db):
    """(order, sorted distances): int8 mismatch counts, ties by database index."""
    distances = (np.asarray(db, dtype=np.int8) != np.asarray(query, dtype=np.int8)[:, None]).sum(axis=0)
    order = np.argsort(distances, kind="stable")
    return order, distances[order]


def naive_average_precision(relevance) -> float:
    """Literal transcription of the AP definition; a cutoff slices ``relevance``."""
    hits, total = 0, 0.0
    for rank, relevant in enumerate(relevance, start=1):
        if relevant:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def naive_query_ap(query, query_labels, db, db_labels, cutoff=None) -> float:
    """One query's AP within ``cutoff``: naive ranking, label-set intersection."""
    order, _ = naive_ranking(query, db)
    return naive_average_precision([bool(db_labels[j] & query_labels) for j in order][:cutoff])


def pairwise_distances(centers) -> list[int]:
    """All column-pair Hamming distances, by direct comparison."""
    columns = np.asarray(centers).T
    return [naive_hamming(a, b) for i, a in enumerate(columns) for b in columns[i + 1 :]]


def row_counts(centers) -> tuple[int, int]:
    """Bit rows distinct up to sign (one canonical sign per row), and constant rows."""
    rows = [tuple(row) for row in np.asarray(centers).tolist()]
    distinct = {max(row, tuple(-v for v in row)) for row in rows}
    return len(distinct), sum(len(set(row)) == 1 for row in rows)


def simplex_grid_min(squares, step: float = 1e-3) -> float:
    """Exhaustive simplex grid minimum of sum(squares / weights), M = 2 or 3."""
    squares = np.asarray(squares, dtype=np.float64)
    ticks = np.arange(step, 1.0, step)
    if squares.shape[0] == 2:
        return float(np.min(squares[0] / ticks + squares[1] / (1.0 - ticks)))
    best = np.inf
    for a in ticks:
        bs = np.arange(step, 1.0 - a, step)
        cs = 1.0 - a - bs
        keep = cs > step / 2
        if np.any(keep):
            values = squares[0] / a + squares[1] / bs[keep] + squares[2] / cs[keep]
            best = min(best, float(values.min()))
    return best


def ridge_objective(proj, feats, targets, weight: float, delta: float):
    """||W K - T||^2 / w + delta ||W||^2 and its gradient, shaped like ``proj`` (flat or r x p)."""
    matrix = np.reshape(proj, (targets.shape[0], feats.shape[0]))
    resid = matrix @ feats - targets
    value = np.sum(resid**2) / weight + delta * np.sum(matrix**2)
    grad = (2.0 / weight) * resid @ feats.T + 2.0 * delta * matrix
    return value, grad.reshape(np.shape(proj))


def c01_hadamard_center_distances_exact(seed: int) -> str:
    """Exact tables: center pairs lie r/2 apart; the audit's row counts match brute force."""
    covered = 0
    for code_length in (8, 16, 32, 64, 128):
        for num_categories in (2, 10, 20, 81):
            if required_order(code_length, num_categories) != code_length:
                continue  # re-dimensioned, checked by c02
            covered += 1
            table = build_center_table(code_length, num_categories, seed=seed)
            where = f"r={code_length} C={num_categories}"
            _expect(table.is_exact, f"{where}: table is not exact")
            distances = pairwise_distances(table.centers)
            _expect(
                distances == [code_length // 2] * len(distances),
                f"{where}: pair distances {sorted(set(distances))}, want {code_length // 2}",
            )
            audit = audit_centers(table)
            rows, want = (audit.distinct_rows, audit.constant_rows), row_counts(table.centers)
            _expect(rows == want, f"{where}: audit rows (distinct, constant) {rows}, want {want}")
    _expect(covered == 13, f"{covered} exact grid points, want 13")
    return "every pair of 13 exact tables at distance r/2, rows counted as the audit counts them"


def c02_redimensioned_center_distance_band(seed: int) -> str:
    """LSH re-dimensioning keeps each table's mean distance near half the bits."""
    code_length, num_categories = 48, 20
    low, high = 0.45 * code_length, 0.55 * code_length
    means = []
    for table_seed in range(seed, seed + 20):
        table = build_center_table(code_length, num_categories, seed=table_seed)
        _expect(not table.is_exact, f"seed {table_seed}: table is exact")
        _expect(audit_centers(table).passed, f"seed {table_seed}: audit failed")
        means.append(float(np.mean(pairwise_distances(table.centers))))
        _expect(
            low <= means[-1] <= high,
            f"seed {table_seed}: mean distance {means[-1]:.2f} outside [{low:.1f}, {high:.1f}]",
        )
    return (
        f"mean distances {min(means):.2f}..{max(means):.2f} over 20 seeds, "
        f"band [{low:.1f}, {high:.1f}]"
    )


def c03_projection_solve_gradient_and_descent_oracle(seed: int) -> str:
    """The ridge solve is stationary and matches an L-BFGS optimizer."""
    # Imported here: scipy.optimize is heavy, and ``import fusehash`` loads
    # this module.
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed + 100)
    worst_grad = worst_gap = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        n = int(rng.integers(1, 13))
        num_modalities = int(rng.integers(1, 4))
        targets = sign_to_pm1(rng.standard_normal((r, n))).astype(np.float64)
        target_norm = max(np.linalg.norm(targets), 1.0)
        delta = float(rng.uniform(1e-3, 1e-1))
        for _ in range(num_modalities):
            feats = rng.standard_normal((p, n))
            weight = float(rng.uniform(0.2, 0.8))
            closed = update_projection(targets, feats, weight=weight, delta=delta)
            _, grad = ridge_objective(closed, feats, targets, weight, delta)
            worst_grad = max(worst_grad, float(np.max(np.abs(grad))) / target_norm)
            _expect(worst_grad < 1e-6, f"gradient ratio {worst_grad:.2e}, bound 1e-6")
            numeric = minimize(
                ridge_objective,
                np.zeros(r * p),
                args=(feats, targets, weight, delta),
                jac=True,
                method="L-BFGS-B",
                options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 5000},
            )
            worst_gap = max(worst_gap, float(np.linalg.norm(closed - numeric.x.reshape(r, p))))
            _expect(worst_gap < 1e-5, f"L-BFGS solution {worst_gap:.2e} away, bound 1e-5")
    return (
        f"worst gradient ratio {worst_grad:.2e} (bound 1e-6), "
        f"worst gap to L-BFGS {worst_gap:.2e} (bound 1e-5)"
    )


def c04_weight_solve_beats_simplex_grid(seed: int) -> str:
    """No point of a fine simplex grid improves on the closed-form weights."""
    rng = np.random.default_rng(seed + 200)
    for num_modalities in (2, 3):
        for _ in range(5):
            norms = rng.uniform(0.1, 4.0, size=num_modalities)
            squares = norms**2
            closed = float(np.sum(squares / update_weights(norms)))
            grid = simplex_grid_min(squares)
            _expect(
                closed <= grid,
                f"M={num_modalities}: closed form {closed:.9f} above grid minimum {grid:.9f}",
            )
    return "closed-form weights at or below every simplex grid point, M=2 and 3"


def c05_weighted_sum_grid_matches_squared_norm_sum(seed: int) -> str:
    """The grid minimum lands on (sum of norms)^2, the analytic optimum."""
    rng = np.random.default_rng(seed + 300)
    worst = 0.0
    for num_modalities in (2, 3):
        for _ in range(5):
            norms = rng.uniform(0.1, 4.0, size=num_modalities)
            target = float(np.sum(norms) ** 2)
            worst = max(worst, abs(simplex_grid_min(norms**2) - target) / target)
            _expect(worst <= 1e-3, f"M={num_modalities}: relative gap {worst:.2e}, bound 1e-3")
    return f"worst relative gap {worst:.2e} over M=2 and 3, bound 1e-3"


def c06_training_converges_quickly(seed: int) -> str:
    """On the standard bundle the trace is monotone and settles fast."""
    model, _ = train_on_bundle(_standard_bundle(seed), 16, TrainConfig(seed=seed))
    trace = np.asarray(model.objective_trace)
    _expect(
        np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1])),
        f"objective rose: trace {trace.tolist()}",
    )
    _expect(model.converged, "training did not converge")
    _expect(len(trace) <= 10, f"{len(trace)} iterations, bound 10")
    last_step = abs(trace[-1] - trace[-2])
    _expect(
        last_step < 1e-5 * abs(trace[-2]),
        f"last step {last_step:.3g} above 1e-5 of the objective {trace[-2]:.6g}",
    )
    return f"converged in {len(trace)} iterations, last step {last_step:.3g}"


def c07_end_to_end_retrieval_quality(seed: int) -> str:
    """Train, encode, evaluate: high mAP, and a perfect score at spread 0."""
    scores = []
    for spread in (0.3, 0.0):
        bundle = _standard_bundle(seed, spread)
        model, _ = train_on_bundle(bundle, 16, TrainConfig(seed=seed))
        scores.append(retrieval_map(model, bundle))
    score, clean_score = scores
    _expect(score >= 0.95, f"spread 0.3 mAP {score:.4f} below 0.95")
    _expect(clean_score == 1.0, f"spread 0 mAP {clean_score:.4f}, want 1.0")
    return f"mAP {score:.4f} at spread 0.3, {clean_score:.4f} at spread 0"


def c08_adaptive_beats_fixed_on_noisy_stream(seed: int) -> str:
    """Per-batch weights track the corrupted modality and do not hurt mAP."""
    # Wider clusters than c07: with fully separable data both modes score
    # 1.0 and the comparison is vacuous.
    bundle = _standard_bundle(seed, spread=1.0)
    model, _ = train_on_bundle(bundle, 16, TrainConfig(seed=seed))
    stream = make_noisy_stream(
        bundle.features_at(bundle.query_indices), 10, ABLATION_NOISE_SCALE, seed
    )
    result = run_ablation(model, bundle, *stream)
    detail = (
        f"adaptive {result.adaptive_map:.4f} vs fixed {result.fixed_map:.4f}, "
        f"noisy modality tracked in {result.tracking_fraction:.0%} of batches"
    )
    _expect(result.adaptive_map >= result.fixed_map, detail)
    _expect(result.tracking_fraction >= 0.9, detail)
    return detail


def c09_encoding_reaches_joint_fixed_point(seed: int) -> str:
    """Returned codes and weights solve each other's subproblem, on 20
    batches of 3 columns at r = 8 and 20 of 200 columns at r = 64, which take
    several sign steps; at r = 8 the codes also beat every one of the 2^24
    alternatives at the final weights."""
    rng = np.random.default_rng(seed + 400)
    column_patterns = np.array(
        [[1 if (idx >> bit) & 1 else -1 for bit in range(8)] for idx in range(2**8)],
        dtype=np.float64,
    )  # (256, 8), every possible code column
    for trial, (code_length, batch_size) in enumerate([(8, 3)] * 20 + [(64, 200)] * 20):
        dims = [int(rng.integers(3, 7)) for _ in range(2)]
        num_anchors = int(rng.integers(3, 6))
        weights = rng.uniform(0.2, 1.0, size=2)
        model = TrainedModel(
            projections=[rng.standard_normal((code_length, num_anchors)) for _ in range(2)],
            anchor_sets=[
                AnchorSet(anchors=rng.standard_normal((dims[m], num_anchors)), kernel_width=1.0)
                for m in range(2)
            ],
            train_weights=weights / weights.sum(),
            delta=1e-3,
        )
        batch = QueryBatch(
            features=[rng.standard_normal((dims[m], batch_size)) for m in range(2)]
        )
        result = encode_adaptive(model, batch)
        codes = result.codes.astype(np.float64)
        mu = result.dynamic_weights
        projected = [
            model.projections[m] @ apply_kernel(batch.features[m], model.anchor_sets[m])
            for m in range(2)
        ]

        # code subproblem: sign of the weight-fused projections
        fused = projected[0] / mu[0] + projected[1] / mu[1]
        _expect(
            np.array_equal(codes, np.where(fused >= 0, 1.0, -1.0)),
            f"trial {trial}: codes are not the sign of the fused projections",
        )

        # weight subproblem: normalized residual norms at the codes
        norms = np.array([np.linalg.norm(codes - p) for p in projected])
        _expect(
            np.allclose(mu, norms / norms.sum(), rtol=1e-7, atol=1e-12),
            f"trial {trial}: weights {mu} are not the normalized residual norms",
        )
        if code_length != 8:
            continue

        # the objective of every possible code matrix, column costs combined
        # over all 256^3 = 2^24 combinations
        column_costs = []
        for j in range(batch_size):
            gaps = [column_patterns - p[:, j] for p in projected]
            column_costs.append(
                (gaps[0] ** 2).sum(axis=1) / mu[0] + (gaps[1] ** 2).sum(axis=1) / mu[1]
            )
        every_objective = (
            column_costs[0][:, None, None]
            + column_costs[1][None, :, None]
            + column_costs[2][None, None, :]
        )
        returned = sum(((codes - p) ** 2).sum() / w for p, w in zip(projected, mu))
        best = float(every_objective.min())
        _expect(
            returned <= best + 1e-9,
            f"trial {trial}: objective {returned:.9f} above enumerated minimum {best:.9f}",
        )
    return "40 batches at joint fixed points, r = 8 codes optimal among all 2^24"


def c10_evaluator_exactness(seed: int) -> str:
    """AP formula, naive-oracle agreement, and the random-code baseline."""
    value = average_precision([1, 0, 1], 3)
    _expect(abs(value - 5.0 / 6.0) < 1e-12, f"AP([1,0,1], 3) = {value}, want 0.8333…")

    rng = np.random.default_rng(seed + 500)
    for _ in range(5):
        db = sign_to_pm1(rng.standard_normal((12, 30)))
        db_labels = [{int(rng.integers(0, 3))} for _ in range(30)]
        queries = sign_to_pm1(rng.standard_normal((12, 5)))
        query_labels = [{int(rng.integers(0, 3))} for _ in range(5)]
        report = mean_average_precision(queries, query_labels, db, db_labels)
        aps = [naive_query_ap(queries[:, q], query_labels[q], db, db_labels) for q in range(5)]
        gap = abs(report.map - float(np.mean(aps)))
        _expect(gap < 1e-12, f"mAP deviates from the naive oracle by {gap:.2e}")

    db = sign_to_pm1(rng.standard_normal((16, 500)))
    queries = sign_to_pm1(rng.standard_normal((16, 100)))
    random_map = mean_average_precision(
        queries, [{q % 2} for q in range(100)], db, [{j % 2} for j in range(500)]
    ).map
    _expect(abs(random_map - 0.5) <= 0.05, f"random 2-class mAP {random_map:.4f}, band 0.5 ± 0.05")
    return f"naive-oracle mAP agrees; random 2-class mAP {random_map:.4f}, band 0.5 ± 0.05"


def c11_missing_modality_single_projection_identity(seed: int) -> str:
    """With one modality absent the code is the other's projection sign."""
    bundle = _standard_bundle(seed)
    model, _ = train_on_bundle(bundle, 16, TrainConfig(seed=seed))
    feats = bundle.features_at(bundle.query_indices)
    for present in (0, 1):
        features = [None, None]
        features[present] = feats[present]
        batch = QueryBatch(features=features)
        scores = model.projections[present] @ apply_kernel(
            feats[present], model.anchor_sets[present]
        )
        want = np.where(scores >= 0, 1, -1)
        for encode in (encode_adaptive, encode_fixed):
            result = encode(model, batch)
            where = f"{encode.__name__} with only modality {present}"
            _expect(np.array_equal(result.codes, want), f"{where}: codes differ from sgn(W phi)")
            _expect(result.dynamic_weights[1 - present] == 0.0, f"{where}: absent weight nonzero")
    return "codes equal sgn(W phi) bit for bit, either modality alone, both encoders"


def c12_delta_sweep_stability(seed: int) -> str:
    """Retrieval quality barely moves across four decades of ridge strength."""
    scores = [score for _, score in sweep_delta(_standard_bundle(seed), 16, seed=seed)]
    spread = max(scores) - min(scores)
    _expect(spread < 0.05, f"mAP range {spread:.4f} over deltas {DELTA_SWEEP}, bound 0.05")
    return f"mAP range {spread:.4f} over deltas {DELTA_SWEEP}, bound 0.05"


CHECKS = (
    AcceptanceCheck("hadamard-center-distances", c01_hadamard_center_distances_exact, 1.0),
    AcceptanceCheck("lsh-redimensioned-distances", c02_redimensioned_center_distance_band, 5.0),
    AcceptanceCheck("projection-closed-form", c03_projection_solve_gradient_and_descent_oracle),
    AcceptanceCheck("weight-closed-form", c04_weight_solve_beats_simplex_grid),
    AcceptanceCheck("fused-residual-identity", c05_weighted_sum_grid_matches_squared_norm_sum),
    AcceptanceCheck("training-convergence", c06_training_converges_quickly, 10.0),
    AcceptanceCheck("end-to-end-retrieval", c07_end_to_end_retrieval_quality, 30.0),
    AcceptanceCheck("adaptive-vs-fixed-ablation", c08_adaptive_beats_fixed_on_noisy_stream),
    AcceptanceCheck("encoding-fixed-point", c09_encoding_reaches_joint_fixed_point, 60.0),
    AcceptanceCheck("evaluator-exactness", c10_evaluator_exactness),
    AcceptanceCheck("missing-modality-rule", c11_missing_modality_single_projection_identity),
    AcceptanceCheck("delta-sensitivity", c12_delta_sweep_stability),
)


def _check(entry: AcceptanceCheck, seed: int) -> BenchCheck:
    start = time.perf_counter()
    try:
        passed, detail = True, entry.check(seed)
    except AssertionError as exc:
        passed, detail = False, " ".join(str(exc).split())
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if passed and entry.bound is not None and seconds >= entry.bound:
        passed, detail = False, f"{detail}; ran {seconds:.1f}s, bound {entry.bound:.0f}s"
    return BenchCheck(entry.name, passed, detail, seconds)


def run_benchmark(seed: int = 0) -> list[BenchCheck]:
    """Run every check of ``CHECKS`` at ``seed``; one result per check."""
    return [_check(entry, seed) for entry in CHECKS]


def format_benchmark(checks: list[BenchCheck]) -> str:
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{status}] {check.name} ({check.seconds:.2f}s): {check.detail}")
    passed = sum(check.passed for check in checks)
    summary = "all checks passed" if passed == len(checks) else "FAILURES PRESENT"
    lines.append(f"{passed}/{len(checks)} passed; {summary}")
    return "\n".join(lines)

"""Command-line interface: subcommands, argument files, error lines.

An ``@FILE`` argument is replaced by the file's lines, one argument per line,
in its place on the command line: a flag after it wins, one before it loses.
The file has no ``key=value`` form, comments, blank lines or ``true``/``false``
values. A missing file exits 2 with argparse's usage error, and
``--config`` is an unknown argument.
"""

import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from fusehash import bench, cli, load_centers, load_codes, load_model, store_codes
from fusehash.cli import main
from fusehash.evaluation import RANK_BLOCK


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv_line(line):
    return dict(pair.split("=", 1) for pair in line.split())


def run_fresh(argv, cwd):
    """``fusehash`` in a fresh interpreter, with no test warning filters, so
    whatever it writes on stderr is captured as a user would see it."""
    package_root = str(Path(cli.__file__).parents[1])  # the fusehash under test
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fusehash.cli", *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A bundle, a trained model, and encoded splits shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    bundle = root / "bundle"
    model = root / "model.amfh"
    query_codes = root / "query.amfh"
    db_codes = root / "db.amfh"
    assert main([
        "synth", "--classes", "4", "--per-class", "20", "--dims", "8,4",
        "--spread", "0.3", "--seed", "3", "--out", str(bundle),
    ]) == 0
    assert main([
        "train", "--bundle", str(bundle), "--bits", "8", "--seed", "3",
        "--out", str(model),
    ]) == 0
    assert main([
        "encode", "--model", str(model), "--bundle", str(bundle),
        "--split", "query", "--mode", "adaptive", "--out", str(query_codes),
    ]) == 0
    assert main([
        "encode", "--model", str(model), "--bundle", str(bundle),
        "--split", "retrieval", "--mode", "fixed", "--out", str(db_codes),
    ]) == 0
    return {
        "root": root,
        "bundle": bundle,
        "model": model,
        "query_codes": query_codes,
        "db_codes": db_codes,
    }


class TestSynth:
    def test_creates_bundle_files_and_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code, stdout, _ = run([
            "synth", "--classes", "3", "--per-class", "8", "--dims", "5,2",
            "--seed", "1", "--out", str(out),
        ], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert values["samples"] == "24"
        assert values["modalities"] == "2"
        assert values["train"] == "12"
        assert values["query"] == "6"
        assert values["retrieval"] == "6"
        for name in ("manifest.txt", "mod0.amfh", "mod1.amfh", "labels.txt",
                     "split.train.txt", "split.query.txt", "split.retrieval.txt"):
            assert (out / name).is_file()


class TestListOptions:
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--dims", "8,x", "expected comma-separated integers, got '8,x'"),
            ("--spread", "0.3,y", "expected comma-separated numbers, got '0.3,y'"),
        ],
    )
    def test_malformed_list_is_one_error_line(self, tmp_path, capsys, option, value, message):
        code, stdout, stderr = run(
            ["synth", option, value, "--out", str(tmp_path / "bundle")], capsys
        )
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: InvalidParameterError: {message}\n"
        assert not (tmp_path / "bundle").exists()


class TestCenters:
    def test_exact_table_audit_passes(self, capsys):
        code, stdout, _ = run(["centers", "--bits", "16", "--classes", "10"], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert values["exact"] == "True"
        assert values["audit"] == "PASS"
        assert float(values["average_distance"]) == 8.0
        assert values["min_distance"] == "8"

    def test_redimensioned_table_audit_passes(self, tmp_path, capsys):
        out = tmp_path / "centers.amfh"
        code, stdout, _ = run([
            "centers", "--bits", "48", "--classes", "20", "--out", str(out),
        ], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert values["exact"] == "False"
        assert values["audit"] == "PASS"
        table = load_centers(out)
        assert table.code_length == 48
        assert table.num_categories == 20


class TestTrain:
    def test_bundle_training_reports_convergence(self, workspace, capsys):
        out = workspace["root"] / "model2.amfh"
        code, stdout, _ = run([
            "train", "--bundle", str(workspace["bundle"]), "--bits", "8",
            "--seed", "3", "--out", str(out),
        ], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert values["converged"] == "True"
        assert values["modalities"] == "2"
        weights = [float(w) for w in values["weights"].split(",")]
        assert sum(weights) == pytest.approx(1.0, abs=1e-5)
        assert load_model(out).code_length == 8

    def test_file_training_derives_classes_from_labels(self, tmp_path, capsys):
        from fusehash import store_features

        rng = np.random.default_rng(4)
        f0, f1 = tmp_path / "f0.amfh", tmp_path / "f1.amfh"
        store_features(rng.standard_normal((6, 30)), f0)
        store_features(rng.standard_normal((3, 30)), f1)
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(str(i % 3) for i in range(30)) + "\n")
        out = tmp_path / "model.amfh"
        code, stdout, _ = run([
            "train", "--features", str(f0), str(f1), "--labels", str(labels),
            "--bits", "8", "--out", str(out),
        ], capsys)
        assert code == 0
        assert load_model(out).num_modalities == 2

    def test_requires_some_input(self, tmp_path, capsys):
        code, _, stderr = run([
            "train", "--bits", "8", "--out", str(tmp_path / "m.amfh"),
        ], capsys)
        assert code == 1
        assert stderr.startswith("error:")

    def test_negative_label_is_a_label_error(self, tmp_path, capsys):
        """Not "need at least 2 categories", which counting from the largest
        id would report for labels 0 and -1."""
        from fusehash import store_features

        features = tmp_path / "f0.amfh"
        store_features(np.random.default_rng(6).standard_normal((4, 6)), features)
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n0\n-1\n0\n-1\n0\n")
        out = tmp_path / "model.amfh"
        code, stdout, stderr = run([
            "train", "--features", str(features), "--labels", str(labels),
            "--bits", "8", "--out", str(out),
        ], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "error: LabelError: labels must be non-negative integers\n"
        assert not out.exists()


class TestEncode:
    def test_reports_batches_and_writes_codes(self, workspace, capsys):
        out = workspace["root"] / "batched.amfh"
        code, stdout, _ = run([
            "encode", "--model", str(workspace["model"]),
            "--bundle", str(workspace["bundle"]), "--split", "query",
            "--batch-size", "7", "--out", str(out),
        ], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert values["samples"] == "20"
        assert values["bits"] == "8"
        assert values["batches"] == "3"  # 7 + 7 + 6
        assert load_codes(out).shape == (8, 20)

    def test_rerun_is_byte_identical(self, workspace, capsys, tmp_path):
        a, b = tmp_path / "a.amfh", tmp_path / "b.amfh"
        for out in (a, b):
            code, _, _ = run([
                "encode", "--model", str(workspace["model"]),
                "--bundle", str(workspace["bundle"]), "--split", "query",
                "--out", str(out),
            ], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_modality_flag(self, workspace, capsys, tmp_path):
        out = tmp_path / "partial.amfh"
        trace = tmp_path / "weights.txt"
        code, stdout, _ = run([
            "encode", "--model", str(workspace["model"]),
            "--bundle", str(workspace["bundle"]), "--split", "query",
            "--missing", "1", "--weights-trace", str(trace), "--out", str(out),
        ], capsys)
        assert code == 0
        assert load_codes(out).shape == (8, 20)
        tokens = trace.read_text().splitlines()[0].split()
        assert float(tokens[2]) == 0.0  # weight of the missing modality

    def test_feature_file_placeholder(self, workspace, capsys, tmp_path):
        from fusehash import load_bundle, store_features

        bundle = load_bundle(workspace["bundle"])
        feats = bundle.features_at(bundle.query_indices)
        f0 = tmp_path / "f0.amfh"
        store_features(feats[0], f0)
        out = tmp_path / "codes.amfh"
        code, _, _ = run([
            "encode", "--model", str(workspace["model"]),
            "--features", str(f0), "-", "--out", str(out),
        ], capsys)
        assert code == 0
        assert load_codes(out).shape == (8, 20)

    def test_zero_sample_features_are_an_empty_batch(self, workspace, capsys, tmp_path):
        from fusehash import store_features

        f0 = tmp_path / "f0.amfh"
        store_features(np.zeros((8, 0)), f0)
        out = tmp_path / "codes.amfh"
        code, _, stderr = run([
            "encode", "--model", str(workspace["model"]),
            "--features", str(f0), "-", "--out", str(out),
        ], capsys)
        assert code == 1
        assert stderr == "error: EmptyBatchError: the features have zero samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", [[], ["--batch-size", "4"]], ids=["one-batch", "batches"])
    def test_feature_files_of_different_sample_counts(
        self, workspace, capsys, tmp_path, batch_size
    ):
        """8 and 12 samples are an error, not 8 codes that drop f1's last 4."""
        from fusehash import store_features

        rng = np.random.default_rng(5)
        f0, f1 = tmp_path / "f0.amfh", tmp_path / "f1.amfh"
        store_features(rng.standard_normal((8, 8)), f0)
        store_features(rng.standard_normal((4, 12)), f1)
        out = tmp_path / "codes.amfh"
        code, _, stderr = run([
            "encode", "--model", str(workspace["model"]),
            "--features", str(f0), str(f1), *batch_size, "--out", str(out),
        ], capsys)
        assert code == 1
        assert stderr == (
            "error: ShapeError: modalities disagree on sample count: [8, 12]\n"
        )
        assert not out.exists()

    def test_a_failed_batch_stops_the_encode(self, workspace, capsys, tmp_path):
        from fusehash import load_bundle, store_features

        bundle = load_bundle(workspace["bundle"])
        feats = bundle.features_at(bundle.query_indices)
        feats[0][:, 10] = np.nan  # column 10 falls in the second batch of 7
        paths = [tmp_path / "f0.amfh", tmp_path / "f1.amfh"]
        for mat, path in zip(feats, paths):
            store_features(mat, path)
        out = tmp_path / "codes.amfh"
        code, _, stderr = run([
            "encode", "--model", str(workspace["model"]),
            "--features", *map(str, paths), "--batch-size", "7", "--out", str(out),
        ], capsys)
        assert code == 1
        assert stderr == (
            "error: FusehashError: batch 1 failed: "
            "modality 0 features hold a NaN or an infinity\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("index", ["-1", "999"])
    def test_split_index_outside_the_bundle(self, workspace, capsys, tmp_path, index):
        import shutil

        bundle = tmp_path / "bundle"
        shutil.copytree(workspace["bundle"], bundle)
        (bundle / "split.query.txt").write_text(f"0\n{index}\n")
        out = tmp_path / "codes.amfh"
        code, _, stderr = run([
            "encode", "--model", str(workspace["model"]),
            "--bundle", str(bundle), "--out", str(out),
        ], capsys)
        assert code == 1
        lines = stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: CorruptFileError: ")
        assert f"split index {index} outside [0, 80)" in lines[0]
        assert not out.exists()

    def test_split_all_encodes_every_sample(self, workspace, capsys, tmp_path):
        out = tmp_path / "all.amfh"
        code, stdout, _ = run([
            "encode", "--model", str(workspace["model"]),
            "--bundle", str(workspace["bundle"]), "--split", "all", "--out", str(out),
        ], capsys)
        assert code == 0
        assert parse_kv_line(stdout.strip())["samples"] == "80"
        assert load_codes(out).shape == (8, 80)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--missing", "2"], "InvalidParameterError: missing modality 2 out of range for 2"),
            (["--missing", "-1"], "InvalidParameterError: missing modality -1 out of range for 2"),
            ([], "InvalidParameterError: encode needs either --bundle or --features"),
            (["--features", "-"], "ShapeError: model has 2 modalities, got 1 feature files"),
        ],
        ids=["missing-too-high", "missing-negative", "no-input", "feature-count"],
    )
    def test_input_errors_are_one_line(self, workspace, capsys, tmp_path, argv, message):
        out = tmp_path / "codes.amfh"
        code, stdout, stderr = run(
            ["encode", "--model", str(workspace["model"]), *argv, "--out", str(out)], capsys
        )
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {message}\n"
        assert not out.exists()

    def test_far_features_encode_without_stderr(self, workspace, tmp_path):
        """Features at 1e20 map to 0 through float32 overflow, a documented
        rule and not a fault, so the command succeeds silently."""
        from fusehash import load_bundle, store_features

        bundle = load_bundle(workspace["bundle"])
        feats = bundle.features_at(bundle.query_indices)
        paths = [tmp_path / "f0.amfh", tmp_path / "f1.amfh"]
        store_features(feats[0] * 1e20, paths[0])
        store_features(feats[1], paths[1])
        result = run_fresh([
            "encode", "--model", str(workspace["model"]),
            "--features", *map(str, paths), "--out", "codes.amfh",
        ], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert load_codes(tmp_path / "codes.amfh").shape == (8, 20)

    def test_all_missing_is_an_error(self, workspace, capsys, tmp_path):
        code, _, stderr = run([
            "encode", "--model", str(workspace["model"]),
            "--bundle", str(workspace["bundle"]), "--missing", "0,1",
            "--out", str(tmp_path / "x.amfh"),
        ], capsys)
        assert code == 1
        assert stderr.startswith("error:")


class TestQuery:
    def test_self_query_hits_distance_zero(self, workspace, capsys):
        code, stdout, _ = run([
            "query", "--db", str(workspace["db_codes"]),
            "--queries", str(workspace["db_codes"]), "--top", "3",
        ], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        db = load_codes(workspace["db_codes"])
        assert len(lines) == 3 * db.shape[1]
        first = parse_kv_line(lines[0])
        assert first == {"query": "0", "rank": "1", "index": "0", "distance": "0"}
        for line in lines:
            values = parse_kv_line(line)
            if values["rank"] == "1":
                assert values["distance"] == "0"


    def test_top_must_be_positive(self, workspace, capsys):
        code, stdout, stderr = run([
            "query", "--db", str(workspace["db_codes"]),
            "--queries", str(workspace["query_codes"]), "--top", "0",
        ], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "error: InvalidParameterError: --top must be positive, got 0\n"

    @pytest.mark.parametrize("top", [4, 15])
    def test_output_matches_per_query_ranking(self, tmp_path, capsys, top):
        """Blocks of queries print what ranking each query alone prints, ties included."""
        rng = np.random.default_rng(12)
        db = np.where(rng.random((3, 10)) < 0.5, 1, -1).astype(np.int8)  # 8 codes, 10 items: ties
        queries = np.where(rng.random((3, RANK_BLOCK + 6)) < 0.5, 1, -1).astype(np.int8)
        store_codes(db, tmp_path / "db.amfh")
        store_codes(queries, tmp_path / "queries.amfh")
        code, stdout, _ = run([
            "query", "--db", str(tmp_path / "db.amfh"),
            "--queries", str(tmp_path / "queries.amfh"), "--top", str(top),
        ], capsys)
        assert code == 0
        expected = []
        for i in range(queries.shape[1]):
            distances = (db != queries[:, i : i + 1]).sum(axis=0)
            order = sorted(range(10), key=lambda j: (distances[j], j))
            for rank, index in enumerate(order[:top], 1):
                expected.append(f"query={i} rank={rank} index={index} distance={distances[index]}\n")
        assert stdout == "".join(expected)


class TestLoadedCodes:
    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_output_equals_plain_copies(self, tmp_path, capsys, monkeypatch, command):
        """Ranking from the carried bytes prints what plain int8 copies print."""
        rng = np.random.default_rng(14)
        db = np.where(rng.random((13, 30)) < 0.5, 1, -1).astype(np.int8)
        queries = np.where(rng.random((13, RANK_BLOCK + 6)) < 0.5, 1, -1).astype(np.int8)
        store_codes(db, tmp_path / "db.amfh")
        store_codes(queries, tmp_path / "q.amfh")
        (tmp_path / "db.txt").write_text("".join(f"{j % 3}\n" for j in range(30)))
        (tmp_path / "q.txt").write_text("".join(f"{j % 4}\n" for j in range(RANK_BLOCK + 6)))
        argv = {
            "query": ["query", "--db", str(tmp_path / "db.amfh"),
                      "--queries", str(tmp_path / "q.amfh"), "--top", "12"],
            "eval": ["eval", "--db", str(tmp_path / "db.amfh"),
                     "--queries", str(tmp_path / "q.amfh"),
                     "--db-labels", str(tmp_path / "db.txt"),
                     "--query-labels", str(tmp_path / "q.txt"),
                     "--per-query", "--out", str(tmp_path / "report.txt")],
        }[command]
        code, loaded_out, _ = run(argv, capsys)
        assert code == 0
        loaded_report = (tmp_path / "report.txt").read_text() if command == "eval" else ""
        monkeypatch.setattr(cli, "load_codes", lambda path: np.array(load_codes(path)))
        code, plain_out, _ = run(argv, capsys)
        assert code == 0
        assert loaded_out == plain_out
        if command == "eval":
            assert (tmp_path / "report.txt").read_text() == loaded_report


class TestEval:
    def test_bundle_eval_reports_high_map(self, workspace, capsys, tmp_path):
        report_file = tmp_path / "report.txt"
        code, stdout, _ = run([
            "eval", "--queries", str(workspace["query_codes"]),
            "--db", str(workspace["db_codes"]), "--bundle", str(workspace["bundle"]),
            "--out", str(report_file), "--per-query",
        ], capsys)
        assert code == 0
        map_line = [l for l in stdout.splitlines() if l.startswith("mAP")][0]
        score = float(map_line.split()[-1])
        assert 0.8 <= score <= 1.0
        pairs = dict(
            line.split(" ", 1) for line in report_file.read_text().splitlines()
        )
        assert float(pairs["map"]) == pytest.approx(score, abs=1e-6)
        assert int(pairs["num_queries"]) == 20
        assert "ap[0]" in pairs

    def test_label_file_eval(self, workspace, capsys, tmp_path):
        from fusehash import load_bundle

        bundle = load_bundle(workspace["bundle"])
        query_labels = tmp_path / "ql.txt"
        db_labels = tmp_path / "dl.txt"
        query_labels.write_text(
            "\n".join(str(next(iter(s))) for s in bundle.labels_at(bundle.query_indices)) + "\n"
        )
        db_labels.write_text(
            "\n".join(str(next(iter(s))) for s in bundle.labels_at(bundle.retrieval_indices)) + "\n"
        )
        code, stdout, _ = run([
            "eval", "--queries", str(workspace["query_codes"]),
            "--db", str(workspace["db_codes"]),
            "--query-labels", str(query_labels), "--db-labels", str(db_labels),
        ], capsys)
        assert code == 0
        assert "mAP" in stdout

    def test_a_short_codes_file_is_named(self, workspace, capsys, tmp_path):
        """A codes file whose header declares more codes than it holds (its
        checksum intact) is reported with its path, so eval says which of
        its two code files is at fault."""
        short = tmp_path / "short.amfh"
        body = b"AMFH" + struct.pack("<BH", 2, 1) + struct.pack("<QQ", 8, 100) + bytes(10)
        short.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        code, _, stderr = run([
            "eval", "--queries", str(workspace["query_codes"]), "--db", str(short),
            "--bundle", str(workspace["bundle"]),
        ], capsys)
        assert code == 1
        assert stderr == (
            f"error: CorruptFileError: {short}: payload shorter than its declared contents\n"
        )

    def test_needs_labels_or_bundle(self, workspace, capsys):
        code, _, stderr = run([
            "eval", "--queries", str(workspace["query_codes"]),
            "--db", str(workspace["db_codes"]),
        ], capsys)
        assert code == 1
        assert stderr.startswith("error:")


class TestBenchAndStudies:
    def test_bench_all_checks_pass(self, capsys):
        code, stdout, _ = run(["bench", "--seed", "0"], capsys)
        assert code == 0
        assert "12/12 passed" in stdout
        assert stdout.count("[PASS]") == 12
        assert "[FAIL]" not in stdout

    def test_bench_reports_failing_and_raising_checks(self, capsys, monkeypatch):
        def wrong(seed):
            raise AssertionError("distance 3,\n  want 4")

        def broken(seed):
            raise ValueError(f"no data for seed {seed}")

        monkeypatch.setattr(bench, "CHECKS", (
            bench.AcceptanceCheck("wrong", wrong),
            bench.AcceptanceCheck("broken", broken),
        ))
        code, stdout, _ = run(["bench", "--seed", "4"], capsys)
        assert code == 1
        lines = stdout.splitlines()
        assert lines[0].startswith("[FAIL] wrong (")
        assert lines[0].endswith("): distance 3, want 4")
        assert lines[1].startswith("[FAIL] broken (")
        assert lines[1].endswith("): raised ValueError: no data for seed 4")
        assert lines[2] == "0/2 passed; FAILURES PRESENT"

    def test_bench_fails_a_check_over_its_bound(self, capsys, monkeypatch):
        slow = bench.AcceptanceCheck("slow", lambda seed: "fine", bound=1e-9)
        monkeypatch.setattr(bench, "CHECKS", (slow,))
        code, stdout, _ = run(["bench"], capsys)
        assert code == 1
        assert stdout.startswith("[FAIL] slow (")
        assert "fine; ran 0.0s, bound 0s" in stdout

    def test_import_loads_no_scipy(self):
        """No module imports scipy: the L-BFGS oracle's import stays inside
        its check, and the kernel width needs no scipy distance."""
        probe = (
            "import sys, fusehash; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        package_root = str(Path(cli.__file__).parents[1])  # the fusehash under test
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_sweep_delta_lines(self, workspace, capsys):
        code, stdout, _ = run([
            "sweep-delta", "--bundle", str(workspace["bundle"]),
            "--bits", "8", "--seed", "3",
        ], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 6  # five deltas plus the range summary
        deltas = []
        for line in lines[:-1]:
            values = parse_kv_line(line)
            deltas.append(float(values["delta"]))
            assert 0.0 <= float(values["map"]) <= 1.0
        assert deltas == list(bench.DELTA_SWEEP)
        assert lines[-1].startswith("map_range=")

    @pytest.mark.parametrize("command", ["train", "sweep-delta", "ablate"])
    def test_unlabelled_bundle_is_a_label_error(self, workspace, capsys, tmp_path, command):
        """Every command that counts classes names the missing labels."""
        from fusehash import load_bundle, store_bundle

        bundle = load_bundle(workspace["bundle"])
        bundle.labels = [set() for _ in bundle.labels]
        store_bundle(bundle, tmp_path / "unlabelled")
        argv = [command, "--bundle", str(tmp_path / "unlabelled"), "--bits", "8"]
        if command == "train":
            argv += ["--out", str(tmp_path / "model.amfh")]
        code, _, stderr = run(argv, capsys)
        assert code == 1
        assert stderr.startswith("error: LabelError:")

    def test_ablate_weight_trace_has_one_line_per_batch(self, workspace, capsys, tmp_path):
        trace = tmp_path / "weights.txt"
        code, stdout, _ = run([
            "ablate", "--bundle", str(workspace["bundle"]), "--bits", "8",
            "--seed", "3", "--weights-trace", str(trace),
        ], capsys)
        assert code == 0
        batches = int(parse_kv_line(stdout.strip())["batches"])
        lines = trace.read_text().splitlines()
        assert len(lines) == batches == 2  # 20 queries in batches of 10
        for index, line in enumerate(lines):
            tokens = line.split()
            assert tokens[0] == str(index)
            assert sum(float(w) for w in tokens[1:]) == pytest.approx(1.0, abs=1e-9)
            assert len(tokens) == 3

    def test_tracking_fraction_counts_batches_led_by_their_noisy_modality(self):
        result = bench.AblationResult(
            adaptive_map=0.9,
            fixed_map=0.8,
            corrupted=[0, 1, 0],
            adaptive_weights=[np.array([0.7, 0.3]), np.array([0.6, 0.4]), np.array([0.9, 0.1])],
        )
        assert result.tracking_fraction == 2 / 3

    def test_ablate_reports_both_modes(self, workspace, capsys):
        code, stdout, _ = run([
            "ablate", "--bundle", str(workspace["bundle"]), "--bits", "8",
            "--seed", "3", "--noise-scale", "2.0",
        ], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert 0.0 <= float(values["fixed_map"]) <= float(values["adaptive_map"]) <= 1.0
        assert 0.0 <= float(values["tracking"]) <= 1.0


class TestConfigFile:
    """``@FILE`` arguments come from argparse; these tests cover only that the
    top-level parser turns them on."""

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        args = tmp_path / "centers.args"
        args.write_text("--bits\n16\n--classes=10\n")
        code, stdout, _ = run(["centers", f"@{args}"], capsys)
        assert code == 0
        values = parse_kv_line(stdout.strip())
        assert (values["bits"], values["classes"]) == ("16", "10")

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        args = tmp_path / "centers.args"
        args.write_text("--bits\n16\n--classes=10\n")
        code, stdout, _ = run(["centers", f"@{args}", "--bits", "32"], capsys)
        assert code == 0
        assert parse_kv_line(stdout.strip())["bits"] == "32"

    def test_missing_config_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.args"
        with pytest.raises(SystemExit) as info:
            main(["centers", f"@{missing}"])
        assert info.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.endswith(f"fusehash: error: [Errno 2] No such file or directory: '{missing}'\n")


class TestErrorHandling:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    def test_corrupt_input_reports_single_error_line(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.amfh"
        bad.write_bytes(b"AMFH\x01\x01\x00garbage")
        code, _, stderr = run([
            "encode", "--model", str(bad),
            "--bundle", str(workspace["bundle"]), "--out", str(tmp_path / "o.amfh"),
        ], capsys)
        assert code == 1
        lines = [l for l in stderr.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("error: CorruptFileError:")

    def test_model_with_nan_weights_is_rejected(self, workspace, capsys, tmp_path):
        """A checksum-valid model whose train weights are NaN would encode
        every query as all -1; the load rejects it instead."""
        blob = bytearray(workspace["model"].read_bytes()[:-4])
        blob[39:55] = np.full(2, np.nan).tobytes()  # after magic, kind, version and 4 sizes
        bad = tmp_path / "nan.amfh"
        bad.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))
        out = tmp_path / "o.amfh"
        code, stdout, stderr = run([
            "encode", "--model", str(bad),
            "--bundle", str(workspace["bundle"]), "--out", str(out),
        ], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == (
            f"error: CorruptFileError: {bad}: modality 0 train weight nan "
            "is not finite and positive\n"
        )
        assert not out.exists()

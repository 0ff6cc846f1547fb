"""Tests for the command-line interface: demo -> build -> info -> query."""

import numpy as np
import pytest

from repro.cli import iter_image_files, main, read_image_file
from repro.errors import ReproError
from repro.image.core import Image
from repro.image.io_ppm import write_ppm


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """A small synthetic corpus written once for the whole module."""
    directory = tmp_path_factory.mktemp("corpus")
    code = main(
        ["demo", str(directory), "--per-class", "2", "--size", "32", "--seed", "5"]
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def built_db(demo_dir, tmp_path_factory):
    db_dir = tmp_path_factory.mktemp("db") / "corpus.db"
    code = main(
        ["--working-size", "32", "build", str(demo_dir), "--db", str(db_dir)]
    )
    assert code == 0
    return db_dir


class TestFileHelpers:
    def test_read_image_file_roundtrip(self, tmp_path, rng):
        image = Image(rng.random((8, 10, 3)))
        write_ppm(image, tmp_path / "x.ppm")
        loaded = read_image_file(tmp_path / "x.ppm")
        assert loaded.allclose(image, atol=1 / 255)

    def test_read_image_file_rejects_unknown_extension(self, tmp_path):
        (tmp_path / "x.jpeg").write_bytes(b"not really")
        with pytest.raises(ReproError, match="unsupported"):
            read_image_file(tmp_path / "x.jpeg")

    def test_iter_image_files_labels_by_directory(self, tmp_path, rng):
        (tmp_path / "cats").mkdir()
        image = Image(rng.random((4, 4)))
        write_ppm(image, tmp_path / "cats" / "a.pgm")
        write_ppm(image, tmp_path / "loose.pgm")
        found = iter_image_files(tmp_path)
        labels = {path.name: label for path, label in found}
        assert labels == {"a.pgm": "cats", "loose.pgm": ""}

    def test_iter_image_files_rejects_missing_directory(self, tmp_path):
        with pytest.raises(ReproError, match="directory"):
            iter_image_files(tmp_path / "nope")


class TestDemoCommand:
    def test_writes_class_directories(self, demo_dir):
        from repro.eval.datasets import CORPUS_CLASS_NAMES

        subdirs = {p.name for p in demo_dir.iterdir() if p.is_dir()}
        assert subdirs == set(CORPUS_CLASS_NAMES)
        files = list(demo_dir.rglob("*.ppm"))
        assert len(files) == 2 * len(CORPUS_CLASS_NAMES)

    def test_bmp_format(self, tmp_path):
        code = main(
            ["demo", str(tmp_path / "c"), "--per-class", "1", "--size", "16",
             "--format", "bmp"]
        )
        assert code == 0
        assert len(list((tmp_path / "c").rglob("*.bmp"))) == 8

    def test_demo_images_are_readable(self, demo_dir):
        path, label = iter_image_files(demo_dir)[0]
        image = read_image_file(path)
        assert image.width == 32
        assert label in str(path)


class TestBuildAndInfo:
    def test_build_creates_database(self, built_db):
        assert (built_db / "catalog.json").exists()
        assert (built_db / "config.json").exists()

    def test_info_reports_labels(self, built_db, capsys):
        code = main(["--working-size", "32", "info", "--db", str(built_db)])
        assert code == 0
        out = capsys.readouterr().out
        assert "red_scenes" in out
        assert "features:" in out

    def test_build_empty_directory_fails_cleanly(self, tmp_path, capsys):
        code = main(["build", str(tmp_path), "--db", str(tmp_path / "db")])
        assert code == 1
        assert "no images" in capsys.readouterr().err


class TestQueryCommand:
    def test_query_finds_same_class_neighbours(self, demo_dir, built_db, capsys):
        query_file = next(demo_dir.glob("checkerboards/*.ppm"))
        code = main(
            ["--working-size", "32", "query", str(query_file),
             "--db", str(built_db), "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The query image itself is in the database: distance 0, same label.
        assert "checkerboards" in out
        assert "distance computations" in out

    def test_query_with_explicit_feature(self, demo_dir, built_db, capsys):
        query_file = next(demo_dir.glob("noise_fine/*.ppm"))
        code = main(
            ["--working-size", "32", "query", str(query_file),
             "--db", str(built_db), "-k", "2", "--feature", "wavelet_sig_3l"]
        )
        assert code == 0
        assert "wavelet_sig_3l" in capsys.readouterr().out

    def test_query_batch_over_directory(self, demo_dir, built_db, capsys):
        code = main(
            ["--working-size", "32", "query-batch",
             str(demo_dir / "checkerboards"), "--db", str(built_db), "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Every query image is itself in the database: best match at 0.
        assert "checkerboards" in out
        assert "queries/s" in out
        assert "distance computations" in out

    def test_query_batch_explicit_files(self, demo_dir, built_db, capsys):
        files = sorted(demo_dir.glob("noise_fine/*.ppm"))[:2]
        code = main(
            ["--working-size", "32", "query-batch", str(files[0]), str(files[1]),
             "--db", str(built_db), "-k", "1", "--feature", "wavelet_sig_3l"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wavelet_sig_3l" in out
        assert "2 queries" in out

    def test_query_batch_unknown_file_fails_cleanly(self, built_db, capsys):
        code = main(
            ["--working-size", "32", "query-batch", "missing.png",
             "--db", str(built_db)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_unknown_file_fails_cleanly(self, built_db, capsys):
        code = main(
            ["--working-size", "32", "query", "missing.png", "--db", str(built_db)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401  (import must succeed)


class TestServeHelp:
    def test_serve_help_epilog_points_at_docs(self, capsys):
        # The epilog is the discoverability hook for the serving docs
        # and the documented SIGTERM exit-code contract.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "docs/serving.md" in out
        assert "docs/mutability.md" in out
        assert "SIGTERM" in out and "code 0" in out

    def test_serve_help_lists_mutation_endpoints(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "/add" in out and "/remove" in out


class TestRecoverCommand:
    @pytest.fixture()
    def durable_root(self, built_db, tmp_path):
        """A serving root with one journaled (un-compacted) remove."""
        from repro.cli import _make_schema
        from repro.db.database import ImageDatabase
        from repro.db.journal import JournalRecord
        from repro.db.recovery import open_serving_root

        db = ImageDatabase.load(built_db, _make_schema(32))
        root = tmp_path / "root"
        db, journal, _ = open_serving_root(root, db)
        victim = sorted(db.catalog.ids)[0]
        db.remove([victim])
        journal.append(JournalRecord.remove(journal.next_seq(), [victim]), sync=True)
        journal.close()
        return root, victim, len(db)

    def test_recover_prints_replay_summary(self, durable_root, capsys):
        root, _victim, n_items = durable_root
        code = main(["--working-size", "32", "recover", "--journal", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"recovered {n_items} items" in out
        assert "1 removes replayed" in out

    def test_recover_export_is_loadable(self, durable_root, tmp_path, capsys):
        from repro.cli import _make_schema
        from repro.db.database import ImageDatabase

        root, victim, n_items = durable_root
        export = tmp_path / "exported.db"
        code = main(
            [
                "--working-size",
                "32",
                "recover",
                "--journal",
                str(root),
                "--export",
                str(export),
            ]
        )
        assert code == 0
        assert "exported" in capsys.readouterr().out
        loaded = ImageDatabase.load(export, _make_schema(32))
        assert len(loaded) == n_items
        assert victim not in loaded.catalog.ids

    def test_recover_compact_folds_and_resets(self, durable_root, capsys):
        from repro.db.journal import JOURNAL_FILE, Journal

        root, _victim, _n_items = durable_root
        code = main(
            ["--working-size", "32", "recover", "--journal", str(root), "--compact"]
        )
        assert code == 0
        assert "compacted into snap-" in capsys.readouterr().out
        assert not Journal.scan(root / JOURNAL_FILE).records
        # A second recover replays nothing: the remove is in the snapshot.
        code = main(["--working-size", "32", "recover", "--journal", str(root)])
        assert code == 0
        assert "0 removes replayed" in capsys.readouterr().out

    def test_recover_wrong_schema_refused(self, tmp_path, rng, capsys):
        # A root written under a schema the CLI does not serve must be
        # refused rather than misread.
        from repro.db.database import ImageDatabase
        from repro.db.recovery import open_serving_root
        from repro.features.base import PresetSignature
        from repro.features.pipeline import FeatureSchema

        db = ImageDatabase(FeatureSchema([PresetSignature(6)]))
        db.add_vectors(rng.random((4, 6)))
        root = tmp_path / "alien-root"
        _db, journal, _ = open_serving_root(root, db)
        journal.close()
        code = main(["--working-size", "32", "recover", "--journal", str(root)])
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_recover_compact_refuses_multi_shard_root(self, durable_root, capsys):
        # wal-001.log marks a root an earlier multi-shard server wrote:
        # refused, and nothing under the root is compacted or deleted.
        root, _victim, _n_items = durable_root
        (root / "wal-001.log").write_bytes(b"")
        before = sorted(path.name for path in root.rglob("*"))
        code = main(
            ["--working-size", "32", "recover", "--journal", str(root), "--compact"]
        )
        assert code == 1
        assert "wal-001.log" in capsys.readouterr().err
        assert sorted(path.name for path in root.rglob("*")) == before

    def test_recover_help_points_at_docs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["recover", "--help"])
        assert exit_info.value.code == 0
        assert "docs/durability.md" in capsys.readouterr().out

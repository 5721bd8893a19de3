"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def ccpp_csv(tmp_path):
    path = tmp_path / "ccpp.csv"
    code = main([
        "generate", "--dataset", "ccpp", "--rows", "20000",
        "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_csv(self, ccpp_csv, capsys):
        assert ccpp_csv.exists()
        header = ccpp_csv.read_text().splitlines()[0]
        assert header == "T,V,AP,RH,EP"

    @pytest.mark.parametrize("dataset", ["tpcds", "beijing"])
    def test_other_datasets(self, tmp_path, dataset):
        path = tmp_path / f"{dataset}.csv"
        assert main([
            "generate", "--dataset", dataset, "--rows", "1000",
            "--out", str(path),
        ]) == 0
        assert path.exists()


class TestBuildAndQuery:
    def test_full_offline_workflow(self, ccpp_csv, tmp_path, capsys):
        catalog = tmp_path / "models.pkl"
        code = main([
            "build", "--csv", str(ccpp_csv), "--x", "T", "--y", "EP",
            "--sample-size", "4000", "--regressor", "plr",
            "--seed", "5", "--catalog", str(catalog),
        ])
        assert code == 0
        assert catalog.exists()
        out = capsys.readouterr().out
        assert "built model ccpp/T->EP" in out

        code = main([
            "query", "--catalog", str(catalog),
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20;",
        ])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("\t")[1])
        assert 420 <= value <= 496  # within the CCPP output range

    def test_incremental_catalog(self, ccpp_csv, tmp_path):
        catalog = tmp_path / "models.pkl"
        for y in ("EP", "V"):
            assert main([
                "build", "--csv", str(ccpp_csv), "--x", "T", "--y", y,
                "--sample-size", "2000", "--regressor", "plr",
                "--catalog", str(catalog),
            ]) == 0
        from repro.core.catalog import ModelCatalog

        restored = ModelCatalog.load(catalog)
        assert len(restored) == 2

    def test_group_by_query_output(self, tmp_path, capsys):
        csv_path = tmp_path / "sales.csv"
        main([
            "generate", "--dataset", "tpcds", "--rows", "30000",
            "--out", str(csv_path),
        ])
        catalog = tmp_path / "models.pkl"
        assert main([
            "build", "--csv", str(csv_path), "--table", "store_sales",
            "--x", "ss_sold_date_sk", "--y", "ss_sales_price",
            "--group-by", "ss_store_sk", "--sample-size", "20000",
            "--regressor", "plr", "--catalog", str(catalog),
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "--catalog", str(catalog),
            "SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales "
            "WHERE ss_sold_date_sk BETWEEN 2451000 AND 2451500 "
            "GROUP BY ss_store_sk;",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 10  # one line per group

    def test_query_without_model_is_reported(self, ccpp_csv, tmp_path, capsys):
        catalog = tmp_path / "models.pkl"
        main([
            "build", "--csv", str(ccpp_csv), "--x", "T", "--y", "EP",
            "--sample-size", "2000", "--regressor", "plr",
            "--catalog", str(catalog),
        ])
        code = main([
            "query", "--catalog", str(catalog),
            "SELECT AVG(RH) FROM ccpp WHERE AP BETWEEN 1000 AND 1010;",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAdvise:
    def test_recommends_from_log(self, tmp_path, capsys):
        log = tmp_path / "workload.sql"
        log.write_text(
            "-- analyst workload\n"
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 1 AND 5;\n"
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 5 AND 9;\n"
            "SELECT SUM(EP) FROM ccpp WHERE RH BETWEEN 40 AND 50;\n"
        )
        assert main(["advise", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "x=T y=EP" in out
        assert "66.7%" in out

    def test_empty_log(self, tmp_path):
        log = tmp_path / "empty.sql"
        log.write_text("-- nothing here\n")
        assert main(["advise", "--log", str(log)]) == 1


class TestServe:
    @pytest.fixture
    def catalog(self, ccpp_csv, tmp_path):
        path = tmp_path / "models.pkl"
        assert main([
            "build", "--csv", str(ccpp_csv), "--x", "T", "--y", "EP",
            "--sample-size", "4000", "--regressor", "plr",
            "--seed", "3", "--catalog", str(path),
        ]) == 0
        return path

    def test_pack_store_and_serve(self, catalog, tmp_path, capsys):
        store = tmp_path / "models.store"
        assert main([
            "pack-store", "--catalog", str(catalog), "--store", str(store),
        ]) == 0
        queries = tmp_path / "q.sql"
        queries.write_text(
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20;\n"
            "-- a comment line\n"
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20;\n"
        )
        assert main([
            "serve", "--store", str(store), "--queries", str(queries),
            "--workers", "2",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("AVG(EP)\t") == 2
        assert "served 2 queries" in captured.err
        assert "store:" in captured.err

    def test_cache_bytes_rejected_with_catalog(self, catalog, tmp_path, capsys):
        queries = tmp_path / "q.sql"
        queries.write_text("SELECT AVG(EP) FROM ccpp WHERE T <= 20;\n")
        assert main([
            "serve", "--catalog", str(catalog), "--queries", str(queries),
            "--cache-bytes", "1000",
        ]) == 2
        assert "--cache-bytes only applies to --store" in capsys.readouterr().err

    def test_serve_continues_past_bad_lines(self, catalog, tmp_path, capsys):
        queries = tmp_path / "q.sql"
        queries.write_text(
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20;\n"
            "SELECT BOGUS FROM nowhere;\n"
            "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 12 AND 22;\n"
        )
        assert main([
            "serve", "--catalog", str(catalog), "--queries", str(queries),
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("AVG(EP)\t") == 2  # both valid queries answered
        assert "error:" in out               # the bad line is reported

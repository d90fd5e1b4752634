import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atomdyn.cli import COMMANDS, main

# a RuntimeWarning in the child fails the test, as pyproject's filterwarnings does in process
RUN = [sys.executable, "-W", "error::RuntimeWarning", "-m", "atomdyn.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, env=env
    )


class TestVerify:
    def test_passes_with_default_tolerances(self, tmp_path):
        out = tmp_path / "verify.csv"
        res = run_cli(["verify", "--seed", "7", "--out", str(out)])
        assert res.returncode == 0
        text = out.read_text()
        assert "# atomdyn report v1" in text
        assert "weyl" in text and "fourier_isometry" in text

    def test_fault_injection_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"weyl": 0.0}}))
        res = run_cli(["verify", "--seed", "7", "--config", str(cfg)])
        assert res.returncode == 1

    def test_main_callable_in_process(self, tmp_path, capsys):
        rc = main(["verify", "--seed", "7", "--out", str(tmp_path / "v.json"),
                   "--format", "json"])
        assert rc == 0
        data = json.loads((tmp_path / "v.json").read_text())
        assert all(row["passed"] for row in data["rows"])


class TestChernoff:
    def test_row_per_n(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [10, 20, 40]}))
        rc = main(["chernoff", "--seed", "1", "--config", str(cfg),
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert [row["n"] for row in data["rows"]] == [10, 20, 40]
        errs = [row["sup_error"] for row in data["rows"]]
        assert errs[0] > errs[1] > errs[2]

    def test_law_from_a_file_gives_the_inline_rows(self, tmp_path):
        law = {"kind": "uniform", "a": -1.0, "b": 1.0}
        law_path = tmp_path / "law.json"
        law_path.write_text(json.dumps(law))
        out, cfg = tmp_path / "c.json", tmp_path / "cfg.json"
        rows = []
        for doc in (law, str(law_path)):
            cfg.write_text(json.dumps({"distribution": doc, "n_list": [10, 20]}))
            assert main(["chernoff", "--seed", "1", "--config", str(cfg),
                         "--out", str(out), "--format", "json"]) == 0
            rows.append(json.loads(out.read_text())["rows"])
        assert rows[0] == rows[1]

    def test_infinite_variance_law_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distribution": {"kind": "cauchy", "gamma": 1.0}}))
        res = run_cli(["chernoff", "--config", str(cfg)])
        assert res.returncode == 2


class TestCesaro:
    def test_error_decreases_with_window(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"X_list": [100.0, 1000.0]}))
        rc = main(["cesaro", "--seed", "2", "--config", str(cfg),
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["abs_error"] > rows[1]["abs_error"]
        assert all("mod_gap" in r for r in rows)

    @pytest.mark.parametrize("X", [1e12, 1e290])
    def test_any_window_is_the_closed_form(self, tmp_path, X):
        out = tmp_path / "c.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"X_list": [X]}))
        assert main(["cesaro", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["rows"] == [{
            "X": X, "abs_error": abs(math.sin(X) / X), "mod_gap": 2.0 - 2.0 * math.sin(X) / X}]


class TestWalkDecay:
    def test_discrete_law_warns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distribution": {"kind": "pointmass", "a": 1.0}}))
        res = run_cli(["walk-decay", "--seed", "3", "--config", str(cfg)])
        assert res.returncode == 0
        assert "discrete" in res.stderr.lower()

    @pytest.mark.parametrize("doc", [
        {"kind": "gaussian", "D": 1.0}, {"kind": "cauchy", "gamma": 1.0}, {"kind": "rademacher"},
        {"kind": "mixture", "components": [
            {"weight": 0.5, "distribution": {"kind": "rademacher"}},
            {"weight": 0.5, "distribution": {"kind": "gaussian", "D": 1.0}}]},
    ], ids=["gaussian", "cauchy", "rademacher", "mixture"])
    def test_row_memory(self, doc):
        """A row of 1e5 draws holds the draws (or atom indices) and the overlaps, and
        no more full-length arrays (MB = 1e6 bytes)."""
        from atomdyn.cli import run_walk_decay
        tracemalloc.start()
        try:
            run_walk_decay({"distribution": doc, "N_list": [100_000]}, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("doc", [
        {"kind": "gaussian", "D": 1.0}, {"kind": "rademacher"}, {"kind": "pointmass", "a": 0.5},
        {"kind": "mixture", "components": [
            {"weight": 0.5, "distribution": {"kind": "rademacher"}},
            {"weight": 0.5, "distribution": {"kind": "gaussian", "D": 1.0}}]},
    ], ids=["gaussian", "rademacher", "pointmass", "mixture"])
    def test_phase_mean_is_numpy_mean(self, doc):
        """mod_mean_error is |np.mean of the phases of the row's draws - chi(p)|, bit for
        bit, at N about multiples of 2**13 and at an odd N past 1e5."""
        from atomdyn.cli import run_walk_decay
        from atomdyn.rand import SeededRng, distribution_from_json
        d = distribution_from_json(doc)
        p, seed, n_list = 0.7, 11, [8191, 8192, 8193, 16392, 100003]
        rows, _ = run_walk_decay({"distribution": doc, "N_list": n_list, "probe_p": p}, seed)
        for i, (n, row) in enumerate(zip(n_list, rows)):
            xs = d.sample(SeededRng(seed).stream(i), n)
            assert row["mod_mean_error"] == abs(complex(np.exp(1j * p * xs).mean()) - d.chi(p)), n


class TestReportCells:
    @pytest.mark.parametrize("command,cfg", [
        ("chernoff", {"distribution": {"kind": "uniform", "a": -1.3, "b": 1.3},
                      "n_list": [7, 14, 700]}),
        ("walk-decay", {"distribution": {"kind": "uniform", "a": -0.8, "b": 0.8},
                        "N_list": [100, 1000]}),
    ])
    def test_uniform_law_cells_are_plain_numbers(self, tmp_path, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        assert main([command, "--seed", "5", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        lines = [x for x in out.read_text().splitlines() if not x.startswith("#")]
        for line in lines[1:]:
            for cell in line.split(","):
                if cell:
                    float(cell)  # raises on np.float64(...) and other reprs


class TestReportRows:
    """A command returns (rows, status); a report's columns are its rows' keys, in order."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_columns_are_the_keys_of_every_row(self, tmp_path, command):
        cfg = {"N_list": [100]} if command == "walk-decay" else {}
        rows, status = COMMANDS[command](cfg, 3)
        assert rows and status in (0, 1)
        columns = list(rows[0])
        assert all(list(row) == columns for row in rows)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for fmt in ("csv", "json"):
            out = tmp_path / f"r.{fmt}"
            assert main([command, "--seed", "3", "--config", str(cfg_path), "--format", fmt,
                         "--out", str(out)]) == status
            text = out.read_text()
            if fmt == "csv":
                header = next(x for x in text.splitlines() if not x.startswith("#"))
                assert header.split(",") == columns
            else:
                assert json.loads(text)["columns"] == columns


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # neither scipy nor a thread pool (concurrent.futures) is loaded
        code = ("import sys, atomdyn.cli; "
                "sys.exit(' '.join(m for m in ('scipy', 'concurrent.futures') if m in sys.modules) or None)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True)
        assert res.returncode == 0, f"importing atomdyn.cli loaded: {res.stderr}"


class TestExitCodes:
    def test_unknown_command(self):
        res = run_cli(["frobnicate"])
        assert res.returncode == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        res = run_cli(["verify", "--config", str(cfg)])
        assert res.returncode == 2

    @pytest.mark.parametrize("command,cfg", [
        ("chernoff", {"distribution": {"kind": "mixture", "components": [
            [0.5, {"kind": "rademacher"}], [0.5, {"kind": "gaussian", "D": 1.0}]]}}),
        ("chernoff", {"distribution": [1, 2]}),
        ("chernoff", {"n_list": "abc"}),
        ("cesaro", {"X_list": [0.0]}),
        ("walk-decay", {"N_list": [0]}),
        ("walk-decay", {"u": {"atoms": [{"p": "x", "re": 1.0, "im": 0.0}]}}),
        # values the library rejects, which main reports as configuration errors
        ("chernoff", {"distribution": {"kind": "uniform", "a": 0.0, "b": 2.0}}),
        ("chernoff", {"t": -1}),
        ("semigroup", {"t_list": [1e308]}),
        ("cesaro", {"delta_p": 1e308}),
        ("verify", {"tolerances": {"bogus": 1.0}}),
        ("verify", {"tolerances": {"weyl": -1}}),
        ("walk-decay", {"probe_p": 1e308, "N_list": [1000]}),
        ("walk-decay", {"probe_p": 1e308, "N_list": [1000],
                        "distribution": {"kind": "cauchy", "gamma": 1.0}}),
        # 1e15 draws need 7 PiB, beyond any 64-bit address space, so the
        # allocation fails at once
        ("walk-decay", {"N_list": [1e15]}),
        ("walk-decay", {"N_list": [1e15], "distribution": {"kind": "rademacher"}}),
        ("walk-decay", {"distribution": {"kind": "uniform", "a": -1e308, "b": 1e308}}),
        ("chernoff", {"distribution": {"kind": "uniform", "a": -1e200, "b": 1e200}}),
        # an empty sweep has no rows
        ("chernoff", {"n_list": []}),
        ("cesaro", {"X_list": []}),
        ("walk-decay", {"N_list": []}),
        ("semigroup", {"s_list": []}),
        ("dephase", {"t_list": []}),
    ], ids=["mixture-as-lists", "distribution-list", "n_list-string", "X-zero", "N-zero",
            "u-frequency-string", "uncentered-law", "t-negative", "t-sum-overflows",
            "phase-overflows", "unknown-tolerance", "negative-tolerance",
            "probe-phase-overflows", "probe-phase-overflows-cauchy", "N-too-large",
            "N-too-large-rademacher", "uniform-range-overflows", "uniform-variance-overflows",
            "n_list-empty", "X_list-empty", "N_list-empty", "s_list-empty", "t_list-empty"])
    def test_bad_config_is_one_error_line(self, tmp_path, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_cli([command, "--config", str(cfg_path)])
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        if cfg.get("distribution") == {"kind": "rademacher"}:
            # walk-decay warns about a law with atoms before it draws
            assert lines.pop(0).startswith("warning: the zero-mean-shift hypothesis"), res.stderr
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        if cfg == {"t_list": [1e308]}:
            assert lines[0] == "error: family parameter must be non-negative and finite: inf"
        if cfg == {"delta_p": 1e308}:
            assert lines[0] == ("error: the phase gap * window is not finite for window 100.0 "
                                "and gap 1e+308")
        if cfg == {"tolerances": {"weyl": -1}}:
            assert lines[0] == "error: tolerance 'weyl' must be a non-negative float, got -1"
        if cfg.get("distribution") == {"kind": "uniform", "a": -1e308, "b": 1e308}:
            assert lines[0] == ("error: cannot draw from Uniform(a=-1e+308, b=1e+308): "
                                "its range b - a overflows")
        if cfg.get("distribution") == {"kind": "uniform", "a": -1e200, "b": 1e200}:
            assert lines[0] == ("error: law must have positive finite variance, got inf for "
                                "Uniform(a=-1e+200, b=1e+200)")
        if [] in cfg.values():
            [(key, _)] = cfg.items()
            assert lines[0] == f"error: {key} must be a non-empty list of numbers, got []"
        if cfg.get("probe_p") == 1e308:
            law = "Cauchy(gamma=1.0)" if "distribution" in cfg else "Gaussian(D=1.0)"
            assert lines[0] == (f"error: the mean of e^(i probe_p xi) under {law} is not finite "
                                "for probe_p = 1e+308: a phase probe_p xi overflows")

    def test_draws_past_the_float_range_are_one_error_line(self, tmp_path):
        # Cauchy(1e308) draws overflow to +-inf; numpy's warning used to come first
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"distribution": {"kind": "cauchy", "gamma": 1e308},
                                        "N_list": [100]}))
        res = run_cli(["walk-decay", "--config", str(cfg_path)])
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "error: the mean of e^(i probe_p xi) under Cauchy(gamma=1e+308) is not finite "
            "for probe_p = 1.0: a phase probe_p xi overflows"]

    @pytest.mark.parametrize("command,cfg", [
        ("chernoff", {"t": "abc"}),
        ("chernoff", {"n_list": [10 ** 400]}),
        ("verify", {"tolerances": {"weyl": "x"}}),
        ("verify", {"tolerances": [1e-12]}),
        ("cesaro", {"gap_s": None}),
        ("walk-decay", {"probe_p": "1.0"}),
        ("dephase", {"delta_p": [1]}),
        ("dephase", {"delta_p": 0}),
    ], ids=["t-string", "n-beyond-float", "tolerance-string", "tolerances-list",
            "gap_s-null", "probe_p-string", "delta_p-list", "delta_p-zero"])
    def test_bad_scalar_is_one_error_line(self, tmp_path, capsys, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_missing_law_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "no-law.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distribution": str(missing)}))
        assert main(["chernoff", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == ("error: bad distribution document: [Errno 2] "
                                           f"No such file or directory: {str(missing)!r}\n")

    def test_config_array_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["chernoff", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_bad_env_seed_is_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setenv("ATOMDYN_SEED", "abc")
        assert main(["chernoff", "--format", "json"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "ATOMDYN_SEED" in lines[0] and captured.out == ""
        # an explicit --seed does not read the variable
        assert main(["dephase", "--seed", "3", "--format", "json"]) == 0

    def test_out_in_missing_directory_fails_first(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["cesaro", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: cannot write report: "), lines
        assert not out.parent.exists()

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        # the path is a directory, so opening it for writing fails
        assert main(["dephase", "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: cannot write report: "), lines

    def test_env_seed_used(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        res1 = run_cli(["verify", "--out", str(out1)],
                       env_extra={"ATOMDYN_SEED": "99"})
        res2 = run_cli(["verify", "--seed", "99", "--out", str(out2)])
        assert res1.returncode == res2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestReproducibility:
    @pytest.mark.parametrize("command,cfg", [
        ("verify", {}),
        ("chernoff", {"n_list": [10, 20]}),
        ("dephase", {}),
    ])
    def test_byte_identical_across_workers(self, tmp_path, command, cfg):
        outs = []
        for i, workers in enumerate((1, 4, 1)):
            out = tmp_path / f"r{i}.csv"
            c = dict(cfg, workers=workers)
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(c))
            rc = main([command, "--seed", "17", "--config", str(cfg_path),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_runtime_lives_in_sidecar(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["cesaro", "--seed", "5", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "v.csv.meta.json").read_text())
        assert meta["runtime_s"] >= 0.0
        assert "runtime" not in out.read_text()


class TestSemigroupDephase:
    def test_semigroup_residuals_within_tolerance(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["semigroup", "--seed", "4", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        for row in json.loads(out.read_text())["rows"]:
            assert row["residual_T"] <= 1e-10
            assert row["residual_Phi"] <= 1e-12

    def test_dephase_matches_kernel(self, tmp_path):
        out = tmp_path / "d.json"
        rc = main(["dephase", "--seed", "4", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        for row in json.loads(out.read_text())["rows"]:
            assert row["abs_error"] <= 1e-12


class TestEntryPoint:
    """`run` freezes the import-time heap for the process; `main` does not."""

    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["dephase", "--seed", "1", "--out", str(tmp_path / "d.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_run_freezes_before_main(self):
        # importing the CLI freezes nothing; run() has frozen the imports'
        # objects by the time main starts
        code = (
            "import gc, sys, atomdyn.cli as cli\n"
            "print(gc.get_freeze_count())\n"
            "cli.main = lambda argv=None: print(gc.get_freeze_count()) or 0\n"
            "sys.exit(cli.run())\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        before, frozen = map(int, res.stdout.split())
        assert before == 0 and frozen > 1000

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_module_run_matches_main(self, tmp_path, command):
        for fmt in ("csv", "json"):
            sub = tmp_path / f"sub.{fmt}"
            res = run_cli([command, "--seed", "7", "--format", fmt, "--out", str(sub)])
            assert res.returncode == 0, res.stderr
            inproc = tmp_path / f"in.{fmt}"
            assert main([command, "--seed", "7", "--format", fmt, "--out", str(inproc)]) == 0
            assert sub.read_bytes() == inproc.read_bytes()

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # 3.11 and later
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text())
        assert doc["project"]["scripts"]["atomdyn"] == "atomdyn.cli:run"

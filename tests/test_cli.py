"""Tests for the command-line interface: exit codes and CSV output."""

import os
from dataclasses import replace

import pytest

from dgfilter import cli, experiments, kernels, operators
from dgfilter.cli import _parse_n_list, main
from dgfilter.experiments import CSV_HEADER
from dgfilter.filters import FilterSpec
from dgfilter.fv import FvConfig
from dgfilter.timestepping import MAX_STEPS


class TestNListParsing:
    def test_range_form(self):
        assert _parse_n_list("7:64:2") == list(range(7, 64, 2))

    def test_comma_form(self):
        assert _parse_n_list("7,15,23") == [7, 15, 23]

    def test_two_part_range(self):
        assert _parse_n_list("3:6") == [3, 4, 5]

    @pytest.mark.parametrize("text", ["7:9:0", "9,,11", "1:2:3:4", "7:x"])
    def test_malformed_list_names_the_accepted_forms(self, text, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--n-list", text, "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "_parse_n_list" not in err
        assert "start:stop[:step] with a nonzero step, or a,b,c" in err


class Called(Exception):
    """Raised by a stubbed driver once it has recorded its arguments."""


class TestDefaultsBelongToTheDrivers:
    """The CLI passes on only the options given, so every default that applies
    is the driver's, FvConfig's or FilterSpec's."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def stub(name):
            def record(*args, **kwargs):
                calls.append((name, args, kwargs))
                raise Called
            return record

        for name in ("run_convergence", "run_varspeed", "run_burgers", "run_fv_reference"):
            monkeypatch.setattr(experiments, name, stub(name))
        monkeypatch.setattr(cli, "verify_filter", stub("verify_filter"))
        return calls

    def run(self, argv, calls):
        with pytest.raises(Called):
            main(argv)
        return calls.pop()

    @pytest.mark.parametrize("argv, driver, kwargs", [
        (["varspeed"], "run_varspeed", {}),
        (["convergence"], "run_convergence", {}),
        (["burgers", "--variant", "skew_filtered"], "run_burgers",
         {"variant": "skew_filtered"}),
        (["varspeed", "--no-filter"], "run_varspeed", {"filtered": False}),
        (["varspeed", "--n", "16", "--dt", "0.01"], "run_varspeed", {"n": 16, "dt": 0.01}),
        (["convergence", "--n-list", "7,9", "--dt", "0.002"], "run_convergence",
         {"n_list": [7, 9], "dt": 0.002}),
        (["burgers", "--variant", "cons_filtered", "--n", "24", "--filter-count", "3",
          "--cfl", "0.2"], "run_burgers",
         {"variant": "cons_filtered", "n": 24, "filter_count": 3, "cfl": 0.2}),
    ])
    def test_study_gets_only_the_given_options(self, argv, driver, kwargs, tmp_path, calls):
        out = str(tmp_path / "s.csv")
        assert self.run(argv + ["--out", out], calls) == (driver, (), kwargs)

    @pytest.mark.parametrize("argv, config", [
        ([], FvConfig()),
        (["--cells", "200", "--cfl", "0.5"], FvConfig(cells=200, cfl=0.5)),
    ])
    def test_fv_reference_gets_the_config_default(self, argv, config, tmp_path, calls):
        out = str(tmp_path / "f.csv")
        assert self.run(["fv-reference", *argv, "--out", out], calls) == (
            "run_fv_reference", (config,), {})

    @pytest.mark.parametrize("argv, spec", [
        ([], FilterSpec()),
        (["--no-clip"], FilterSpec(clip_highest=False)),
        (["--alpha", "20", "--s", "8", "--nc", "2"], FilterSpec(alpha=20.0, s=8, nc=2)),
    ])
    def test_filter_verify_gets_the_spec_default(self, argv, spec, calls):
        name, (ops, got), kwargs = self.run(["filter", "verify", "--n", "12", *argv], calls)
        assert (name, ops.N, got, kwargs) == ("verify_filter", 12, spec, {})

    def test_cached_parser_carries_nothing_over(self, tmp_path, calls):
        out = str(tmp_path / "v.csv")
        assert cli.build_parser() is cli.build_parser()
        assert self.run(["varspeed", "--no-filter", "--out", out], calls)[2] == {"filtered": False}
        assert self.run(["varspeed", "--out", out], calls)[2] == {}


class TestExitCodes:
    def test_ops_check_passes(self, capsys):
        assert main(["ops", "check", "--n", "16"]) == 0
        assert "SBP residual" in capsys.readouterr().out

    def test_filter_verify_passes(self, capsys):
        assert main(["filter", "verify", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "gram last diagonal" in out and "ok" in out

    def test_filter_verify_no_clip_passes(self):
        # without clipping the last coefficient is exp(-36), far below the
        # spectral gap, so the check still comes out clean
        assert main(["filter", "verify", "--n", "12", "--no-clip"]) == 0

    @pytest.mark.parametrize("nc", ["10", "100000000000000000000"])
    def test_filter_verify_accepts_any_unaffected_count_beyond_the_modes(self, nc, capsys):
        # every nc >= N + 1 leaves every mode but the clipped one untouched
        assert main(["filter", "verify", "--n", "8", "--nc", "9"]) == 0
        at_n_plus_one = capsys.readouterr().out
        assert main(["filter", "verify", "--n", "8", "--nc", nc]) == 0
        assert capsys.readouterr().out == at_n_plus_one
        assert at_n_plus_one.endswith("result                 : ok\n")

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["burgers", "--variant", "nonsense", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["ops", "check", "--n", "0"], id="ops-n0"),
        pytest.param(["ops", "check", "--n", "600"], id="ops-n600"),
        # an out-of-range degree is rejected before its (N + 1)^2 table is allocated
        pytest.param(["ops", "check", "--n", "100000"], id="ops-n100000"),
        pytest.param(["ops", "check", "--n", "-5"], id="ops-negative-n"),
        pytest.param(["filter", "verify", "--n", "100000"], id="filter-n100000"),
        pytest.param(["varspeed", "--n", "100000", "--out", "{tmp}/v.csv"],
                     id="varspeed-n100000"),
        pytest.param(["burgers", "--variant", "cons_filtered", "--n", "100000",
                      "--out", "{tmp}/b.csv"], id="burgers-n100000"),
        pytest.param(["filter", "verify", "--n", "8", "--s", "3"], id="filter-odd-s"),
        pytest.param(["burgers", "--variant", "cons_filtered", "--filter-count", "0",
                      "--out", "{tmp}/b.csv"], id="burgers-filter-count0"),
        pytest.param(["burgers", "--variant", "skew_unfiltered", "--filter-count", "-1",
                      "--out", "{tmp}/b.csv"], id="burgers-filter-count-negative"),
        # beyond MAX_STEPS: the array of filter times would not be bounded
        pytest.param(["burgers", "--variant", "cons_unfiltered",
                      "--filter-count", str(MAX_STEPS + 1), "--out", "{tmp}/b.csv"],
                     id="burgers-filter-count-above-cap"),
        pytest.param(["burgers", "--variant", "skew_unfiltered", "--cfl", "-1",
                      "--out", "{tmp}/b.csv"], id="burgers-negative-cfl"),
        pytest.param(["varspeed", "--dt", "0", "--out", "{tmp}/v.csv"], id="varspeed-dt0"),
        pytest.param(["fv-reference", "--cells", "5", "--out", "{tmp}/f.csv"], id="fv-cells5"),
        # beyond MAX_CELLS, far beyond what numpy could allocate
        pytest.param(["fv-reference", "--cells", "10000000000000", "--out", "{tmp}/f.csv"],
                     id="fv-cells-above-cap"),
        # a first step of about 1e-12: far more than MAX_STEPS steps to t = 2.25
        pytest.param(["burgers", "--variant", "skew_unfiltered", "--n", "8", "--cfl", "1e-9",
                      "--out", "{tmp}/b.csv"], id="burgers-tiny-cfl"),
        pytest.param(["convergence", "--n-list", "3:5", "--out", "{tmp}/c.csv"],
                     id="convergence-low-degrees"),
        pytest.param(["fv-reference", "--cells", "100", "--out", "{tmp}/missing/f.csv"],
                     id="unwritable-out"),
        pytest.param(["fv-reference", "--cells", "2000", "--out", "{tmp}"],
                     id="out-is-directory"),
        pytest.param(["burgers", "--variant", "skew_filtered", "--out", ""], id="out-empty"),
        # a file name longer than the directory allows (255 bytes on most file systems)
        pytest.param(["fv-reference", "--cells", "100", "--out", "{tmp}/" + "a" * 300 + ".csv"],
                     id="out-name-too-long"),
        pytest.param(["burgers", "--variant", "skew_filtered", "--out", "{tmp}/missing_dir/"],
                     id="out-missing-dir-trailing-separator"),
        pytest.param(["burgers", "--variant", "skew_filtered", "--out", "{tmp}/existing_file/"],
                     id="out-file-trailing-separator"),
        pytest.param(["burgers", "--variant", "skew_unfiltered", "--cfl", "nan",
                      "--out", "{tmp}/b.csv"], id="burgers-nan-cfl"),
        pytest.param(["convergence", "--n-list", "7,9", "--dt", "nan", "--out", "{tmp}/c.csv"],
                     id="convergence-nan-dt"),
        pytest.param(["varspeed", "--n", "16", "--dt", "inf", "--out", "{tmp}/v.csv"],
                     id="varspeed-inf-dt"),
        # 4e9 fixed steps: the step schedule alone would exhaust memory
        pytest.param(["varspeed", "--n", "16", "--dt", "1e-9", "--out", "{tmp}/v.csv"],
                     id="varspeed-tiny-dt"),
        pytest.param(["filter", "verify", "--n", "8", "--alpha", "nan"], id="filter-nan-alpha"),
    ])
    def test_rejected_input_is_exit_two_with_one_line(self, argv, tmp_path, capsys,
                                                      monkeypatch):
        # no rejected input reaches the FV reference solve or the Burgers time
        # stepping, the runs among these that are long enough to matter
        def never_called(*args, **kwargs):
            raise AssertionError("a study ran on rejected input")

        monkeypatch.setattr(experiments, "run_fv_reference", never_called)
        monkeypatch.setattr(experiments, "integrate", never_called)
        (tmp_path / "existing_file").touch()
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgfilter: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_fv_first_step_beyond_the_step_cap_is_exit_two(self, tmp_path, capsys,
                                                           monkeypatch):
        # the one rejection made inside the FV driver, so the kernel stands in
        # as the part that must not run
        def never_called(*args, **kwargs):
            raise AssertionError("the FV kernel ran on rejected input")

        monkeypatch.setattr(kernels, "fv_burgers", never_called)
        code = main(["fv-reference", "--cfl", "1e-9", "--out", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgfilter: error: ") and err.count("\n") == 1
        assert not (tmp_path / "f.csv").exists()

    def test_fv_work_beyond_the_cell_update_cap_is_exit_two(self, tmp_path, capsys,
                                                            monkeypatch):
        # 2e5 cells (the grid cap) and a first-step bound of 1e5 steps: 2e10 cell updates
        def never_called(*args, **kwargs):
            raise AssertionError("the FV kernel ran on rejected input")

        monkeypatch.setattr(kernels, "fv_burgers", never_called)
        code = main(["fv-reference", "--cells", "200000", "--out", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgfilter: error: ") and "work cap" in err and err.count("\n") == 1
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("n", [397, 440, 498, 504, 507])
    def test_ops_check_passes_at_high_degree(self, n, capsys):
        # product-form barycentric weights once pushed the SBP residual past
        # the tolerance at these degrees
        assert main(["ops", "check", "--n", str(n)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("ok")

    def test_tolerance_failure_stays_exit_one(self, capsys, monkeypatch):
        derivative_matrix = operators.derivative_matrix

        def perturbed(nodes, weights):
            dmat = derivative_matrix(nodes, weights)
            dmat[0, 0] += 1e-9
            return dmat

        monkeypatch.setattr(operators, "derivative_matrix", perturbed)
        assert main(["ops", "check", "--n", "16"]) == 1
        assert capsys.readouterr().out.rstrip().endswith("FAIL")

    def test_ops_check_measures_the_gram_inverse(self, capsys, monkeypatch):
        # Vinv is built from the Gram identity of the weights, so a weight off
        # the LGL rule must show in the printed V Vinv - I, not pass silently
        lgl_nodes_weights = operators.lgl_nodes_weights

        def perturbed(n, table=None):
            nodes, weights = lgl_nodes_weights(n, table)
            weights[n // 2] *= 1.0 + 1e-9
            return nodes, weights

        monkeypatch.setattr(operators, "lgl_nodes_weights", perturbed)
        assert main(["ops", "check", "--n", "16"]) == 1
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("V Vinv - I max"))
        assert float(line.split(":")[1]) > 1e-11  # its tolerance at N <= 64

    @pytest.mark.parametrize("factor, code", [(1.0 + 1e-13, 1), (1.0 + 1e-14, 0)])
    def test_ops_check_bounds_the_weight_sum(self, factor, code, capsys, monkeypatch):
        # at N = 1 the weights are (1, 1): scaled by 1 + 1e-13, their sum is
        # off by 2e-13, above its tolerance 1e-13, while the SBP residual
        # (1e-13) and V Vinv - I stay within theirs
        build_operators = operators.build_operators

        def scaled(n, check=True):
            ops = build_operators(n, check)
            return replace(ops, weights=ops.weights * factor)

        monkeypatch.setattr(cli, "build_operators", scaled)
        assert main(["ops", "check", "--n", "1"]) == code
        lines = capsys.readouterr().out.splitlines()
        printed = {k.strip(): float(v) for k, v in (ln.split(":") for ln in lines[1:-1])}
        assert printed["SBP residual"] <= operators.sbp_tolerance(1)
        assert printed["V Vinv - I max"] <= 1e-11
        assert printed["weight-sum error"] == pytest.approx(2.0 * (factor - 1.0), rel=1e-2)


class TestCsvOutputs:
    def test_convergence_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--n-list", "7,9", "--dt", "0.005",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith(CSV_HEADER)
        assert text.count("\n") == 3
        assert "\r" not in text

    def test_varspeed_writes_csv(self, tmp_path):
        out = tmp_path / "var.csv"
        assert main(["varspeed", "--n", "16", "--dt", "0.005", "--out", str(out)]) == 0
        assert "total_variation" in out.read_text(encoding="utf-8")

    def test_burgers_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "burgers.csv"
        assert main(["burgers", "--variant", "skew_filtered", "--n", "24",
                     "--out", str(out)]) == 0
        assert "energy" in out.read_text(encoding="utf-8")

    def test_fv_reference_writes_csv(self, tmp_path):
        out = tmp_path / "fv.csv"
        assert main(["fv-reference", "--cells", "100", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 101

    def test_identical_invocations_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["convergence", "--n-list", "7,9", "--dt", "0.005", "--out", str(a)])
        main(["convergence", "--n-list", "7,9", "--dt", "0.005", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOutPermissions:
    """``--out`` is held to the permission its open for writing needs: an existing
    file's own, a new file's directory's. ``os.access`` is patched to deny writes,
    since a process running as root passes every access check."""

    @pytest.fixture
    def read_only(self, monkeypatch):
        paths = set()
        access = os.access

        def denied(path, mode, **kwargs):
            if mode == os.W_OK and os.path.abspath(path) in paths:
                return False
            return access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", denied)
        return paths

    @staticmethod
    def _no_study(monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("a study ran with an unwritable --out")

        monkeypatch.setattr(experiments, "run_fv_reference", never_called)

    def test_an_existing_file_in_a_read_only_directory_is_written(self, tmp_path, read_only):
        out = tmp_path / "fv.csv"
        out.write_text("old", encoding="utf-8")
        read_only.add(str(tmp_path))
        assert main(["fv-reference", "--cells", "100", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null_is_written_though_dev_is_read_only(self, read_only, capsys):
        read_only.add("/dev")
        assert main(["fv-reference", "--cells", "100", "--out", "/dev/null"]) == 0
        assert "wrote /dev/null" in capsys.readouterr().err

    def test_an_unwritable_existing_file_is_refused_before_the_study(self, tmp_path, read_only,
                                                                     capsys, monkeypatch):
        self._no_study(monkeypatch)
        out = tmp_path / "fv.csv"
        out.write_text("old", encoding="utf-8")
        read_only.add(str(out))
        assert main(["fv-reference", "--cells", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"dgfilter: error: cannot write {out}: it is not writable\n"
        assert out.read_text(encoding="utf-8") == "old"

    def test_a_new_file_in_a_read_only_directory_is_refused(self, tmp_path, read_only, capsys,
                                                            monkeypatch):
        self._no_study(monkeypatch)
        read_only.add(str(tmp_path))
        assert main(["fv-reference", "--cells", "100", "--out", str(tmp_path / "f.csv")]) == 2
        assert "is not a writable directory" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

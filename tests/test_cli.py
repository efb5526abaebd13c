"""CLI smoke tests (tiny problem sizes via monkeypatched quick presets)."""

import re

import pytest

from repro import cli

TINY = {
    "lu": dict(n=32, block=8),
    "fft": dict(n_points=256),
    "ocean": dict(n=16, n_vcycles=1),
    "barnes": dict(n_particles=64, n_steps=1),
    "fmm": dict(n_particles=64, levels=2, n_steps=1),
    "radix": dict(n_keys=512, radix=16, n_digits=1),
    "raytrace": dict(width=8, height=8, n_spheres=8),
    "volrend": dict(volume_side=8, width=8, height=8, block=2),
    "mp3d": dict(n_particles=64, n_steps=1),
}


@pytest.fixture(autouse=True)
def tiny_quick(monkeypatch):
    monkeypatch.setattr(cli, "QUICK_PROBLEM_SIZES", TINY)


def run_cli(*argv):
    return cli.main(list(argv))


BASE = ["--processors", "8", "--quick"]


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4") == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "miss rate" in out

    def test_run_infinite_cache(self, capsys):
        assert run_cli(*BASE, "run", "radix") == 0
        assert "execution time" in capsys.readouterr().out

    def test_run_timing_probe_prints_phases(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--probe", "timing",
                       "--no-cache") == 0
        out = capsys.readouterr().out
        assert "execution time" in out          # normal summary intact
        assert "probe: timing" in out
        for phase in ("resolve", "build", "execute", "total"):
            assert phase in out

    def test_run_probe_identical_result(self, capsys):
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--no-cache") == 0
        plain = capsys.readouterr().out
        assert run_cli(*BASE, "run", "ocean", "--clusters", "2",
                       "--cache", "4", "--probe", "timing",
                       "--no-cache") == 0
        probed = capsys.readouterr().out
        # the probe adds lines after the summary but never changes it
        # (first line carries wall-clock time, so compare from line 2)
        plain_summary = plain.split("\n", 1)[1]
        assert plain_summary in probed


class TestFigures:
    def test_fig2_subset(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "fig2", "--apps", "radix") == 0
        out = capsys.readouterr().out
        assert "Figure 2 (radix)" in out
        assert "100.0" in out

    def test_fig3(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "fig3") == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_fig4_capacity(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig4") == 0
        out = capsys.readouterr().out
        assert "raytrace" in out
        assert "inf" in out

    def test_ascii_rendering(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "--ascii",
                       "fig2", "--apps", "radix") == 0
        assert "#" in capsys.readouterr().out


class TestTables:
    def test_table1(self, capsys):
        assert run_cli("table1") == 0
        assert "150" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert run_cli("table4") == 0
        assert "0.125" in capsys.readouterr().out

    def test_table5_paper_only(self, capsys):
        assert run_cli("table5") == 0
        assert "1.055" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "table6") == 0
        out = capsys.readouterr().out
        assert "barnes" in out and "mp3d" in out

    def test_table7(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "table7") == 0
        out = capsys.readouterr().out
        assert "ocean" in out and "lu" in out


class TestAnalysis:
    def test_workingset(self, capsys):
        assert run_cli(*BASE, "--cache-sizes", "1,inf",
                       "workingset", "fmm") == 0
        out = capsys.readouterr().out
        assert "miss rate" in out and "knee" in out

    def test_merge_anatomy(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "merge", "radix") == 0
        assert "load+merge" in capsys.readouterr().out


class TestParser:
    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "notanapp")

    def test_command_required(self):
        with pytest.raises(SystemExit):
            run_cli()

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "run", "ocean"],
        ["--jobs", "-2", "run", "ocean"],
        ["--timeout", "0", "run", "ocean"],
        ["--timeout", "-1.5", "run", "ocean"],
        ["--processors", "0", "run", "ocean"],
        ["--cluster-sizes", "0,2", "fig2"],
        ["--cluster-sizes", "-1", "fig2"],
        ["--cluster-sizes", "", "fig2"],
        ["--cache-sizes", "0,inf", "fig4"],
        ["--cache-sizes", "-4", "fig4"],
        ["run", "ocean", "--clusters", "0"],
        ["run", "ocean", "--cache", "0"],
        ["run", "ocean", "--cache", "-16"],
        ["run", "ocean", "--cache", "huge"],
    ], ids=["jobs-zero", "jobs-negative", "timeout-zero",
            "timeout-negative", "processors-zero", "cluster-sizes-zero",
            "cluster-sizes-negative", "cluster-sizes-empty",
            "cache-sizes-zero", "cache-sizes-negative", "clusters-zero",
            "cache-zero", "cache-negative", "cache-garbage"])
    def test_nonpositive_resources_rejected(self, argv, capsys):
        """Bad sweep sizes and resources die with a one-line parser error
        (exit code 2), not a traceback from deep inside the executor."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_unknown_app_exit_code_is_2(self, capsys):
        for argv in (["run", "notanapp"],
                     ["fig2", "--apps", "notanapp"],
                     ["workingset", "notanapp"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_network_load_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "network", "ocean", "--loads", "0,1.5")
        assert exc.value.code == 2


class TestNetwork:
    def test_network_smoke(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "network", "ocean", "--loads", "0,0.6") == 0
        out = capsys.readouterr().out
        assert "calibration check" in out
        assert "load 0.6" in out
        assert "peak util" in out

    def test_network_defaults_to_ocean(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "network", "--loads", "0,0.3") == 0
        assert "ocean" in capsys.readouterr().out


class TestCompareAndTrace:
    def test_compare_organizations(self, capsys):
        assert run_cli(*BASE, "compare", "ocean", "--clusters", "2",
                       "--cache", "4") == 0
        out = capsys.readouterr().out
        assert "shared-cache cluster" in out
        assert "snoopy" in out
        assert "cache-to-cache transfers" in out

    def test_trace_stats(self, capsys):
        assert run_cli(*BASE, "trace", "radix") == 0
        out = capsys.readouterr().out
        assert "references" in out and "footprint" in out

    def test_trace_save(self, capsys, tmp_path):
        out_file = tmp_path / "t.npz"
        assert run_cli(*BASE, "trace", "radix", "--output",
                       str(out_file)) == 0
        assert out_file.exists()
        from repro.sim.trace import ReferenceTrace
        assert len(ReferenceTrace.load(out_file)) > 0


class TestCapacityFigureCommands:
    def test_fig5_mp3d(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig5") == 0
        assert "mp3d" in capsys.readouterr().out

    def test_fig8_volrend(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2",
                       "--cache-sizes", "1,inf", "fig8") == 0
        assert "volrend" in capsys.readouterr().out


class TestForkServer:
    def test_fork_server_sweep_runs(self, capsys):
        from repro.core.executor import fork_available

        if not fork_available():
            pytest.skip("no fork start method")
        assert run_cli(*BASE, "--jobs", "2", "--fork-server", "--no-cache",
                       "--cluster-sizes", "1,2", "fig2",
                       "--apps", "radix") == 0
        assert "Figure 2 (radix)" in capsys.readouterr().out

    def test_fork_server_rejected_without_fork(self, monkeypatch, capsys):
        import repro.cli as climod

        monkeypatch.setattr(climod, "fork_available", lambda: False)
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "--jobs", "2", "--fork-server", "--no-cache",
                    "--cluster-sizes", "1,2", "fig2", "--apps", "radix")
        assert exc.value.code == 2
        assert "fork" in capsys.readouterr().err


class TestProtocolFlag:
    def test_run_with_each_protocol(self, capsys):
        times = {}
        for proto in ("directory", "snoopy", "dls"):
            assert run_cli(*BASE, "--protocol", proto, "run", "fft",
                           "--clusters", "2") == 0
            out = capsys.readouterr().out
            times[proto] = out
        # dls pays mandatory remote traffic, so its summary must differ
        assert times["dls"] != times["directory"]

    def test_default_protocol_output_is_unchanged(self, capsys):
        # spelling out the default must be byte-identical to omitting it
        assert run_cli(*BASE, "run", "fft", "--clusters", "2") == 0
        implicit = capsys.readouterr().out
        assert run_cli(*BASE, "--protocol", "directory", "run", "fft",
                       "--clusters", "2") == 0
        assert capsys.readouterr().out == implicit

    def test_unknown_protocol_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "--protocol", "mesiv2", "run", "fft")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["dls", "snoopy"])
    def test_forced_native_matches_python(self, capsys, protocol, tmp_path,
                                          monkeypatch):
        """Every protocol runs on the C kernel: forcing it serves every
        point there, with the python engine's output byte for byte."""
        import repro.native as native
        import repro.sim.nativereplay as nativereplay

        # the flags set REPRO_NATIVE; setting it here first makes
        # monkeypatch restore the caller's value afterwards
        monkeypatch.setenv("REPRO_NATIVE", "auto")
        if native.kernel() is None:
            pytest.skip("native kernel unavailable (no C compiler)")
        served = []
        inner = nativereplay.try_replay_native

        def counting(*args, **kwargs):
            result = inner(*args, **kwargs)
            served.append(result is not None)
            return result

        monkeypatch.setattr(nativereplay, "try_replay_native", counting)
        outputs = []
        for flag in ("--native", "--no-native"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / flag))
            assert run_cli(*BASE, flag, "--protocol", protocol,
                           "--cluster-sizes", "1,2", "fig2",
                           "--apps", "fft") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # fig2 also runs the directory baseline; forced python declines
        assert served and served[:len(served) // 2] == [True] * (
            len(served) // 2)
        assert not any(served[len(served) // 2:])


class TestStudyCommand:
    def test_study_prints_figure_and_table(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft") == 0
        out = capsys.readouterr().out
        assert "Cross-protocol comparison: fft" in out
        for proto in ("directory", "snoopy", "dls"):
            assert proto in out
        assert "vs directory" in out

    def test_study_subset_always_keeps_directory_baseline(self, capsys):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "dls") == 0
        out = capsys.readouterr().out
        assert "dls" in out and "directory" in out
        assert "snoopy" not in out

    def test_study_honours_global_protocol_focus(self, capsys):
        assert run_cli(*BASE, "--protocol", "dls", "--cluster-sizes", "1,2",
                       "study", "fft", "--protocols", "snoopy") == 0
        out = capsys.readouterr().out
        assert "dls" in out and "snoopy" in out and "directory" in out

    def test_study_rejects_unknown_protocol_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*BASE, "study", "fft", "--protocols", "mesiv2")
        assert exc.value.code == 2
        assert "mesiv2" in capsys.readouterr().err

    def test_study_served_matches_local(self, capsys, serve_daemon):
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "directory,dls") == 0
        local = capsys.readouterr().out
        assert run_cli(*BASE, "--cluster-sizes", "1,2", "study", "fft",
                       "--protocols", "directory,dls", "--server",
                       f"127.0.0.1:{serve_daemon.port}") == 0
        served = capsys.readouterr().out
        # both end with the wall-clock line, which may round differently
        local_body, local_clock = local.rstrip("\n").rsplit("\n", 1)
        served_body, served_clock = served.rstrip("\n").rsplit("\n", 1)
        assert re.fullmatch(r"\[\d+\.\ds\]", local_clock), local_clock
        assert re.fullmatch(r"\[\d+\.\ds\]", served_clock), served_clock
        assert served_body == local_body

    def test_study_bad_server_spec_exits_2(self, capsys):
        assert run_cli(*BASE, "study", "fft", "--server", "nowhere") == 2
        assert "--server" in capsys.readouterr().err

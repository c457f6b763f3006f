"""CLI integration tests for microcreator / microlauncher."""

import pytest

from repro.cli.creator_cli import main as creator_main
from repro.cli.launcher_cli import main as launcher_main
from repro.kernels import spec_path


@pytest.fixture()
def spec_file():
    return str(spec_path("load_movaps"))


def _line(out: str, prefix: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(prefix))


class TestCreatorCli:
    def test_list(self, spec_file, capsys):
        assert creator_main([spec_file, "--list"]) == 0
        out = capsys.readouterr().out
        assert "generated 8 variants" in out
        assert "unroll=8" in out

    def test_write_asm(self, spec_file, tmp_path, capsys):
        assert creator_main([spec_file, "-o", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.s"))
        assert len(files) == 8
        assert ".globl" in files[0].read_text()

    def test_write_c(self, spec_file, tmp_path):
        assert creator_main([spec_file, "-o", str(tmp_path), "--language", "c"]) == 0
        files = sorted(tmp_path.glob("*.c"))
        assert len(files) == 8

    def test_show_by_index(self, spec_file, capsys):
        assert creator_main([spec_file, "--show", "2"]) == 0
        assert "jge .L6" in capsys.readouterr().out

    def test_show_unknown_variant(self, spec_file, capsys):
        assert creator_main([spec_file, "--show", "nope"]) == 2

    def test_limit(self, spec_file, capsys):
        assert creator_main([spec_file, "--limit", "3", "--list"]) == 0
        assert "generated 3 variants" in capsys.readouterr().out

    def test_missing_input(self, capsys):
        assert creator_main(["/nonexistent.xml", "--list"]) == 2

    def test_no_output_mode_errors(self, spec_file, capsys):
        assert creator_main([spec_file]) == 2

    def test_plugin_file(self, spec_file, tmp_path, capsys):
        plugin = tmp_path / "drop_peephole.py"
        plugin.write_text(
            "def pluginInit(pm):\n    pm.remove_pass('peephole')\n"
        )
        assert creator_main([spec_file, "--plugin", str(plugin), "--list"]) == 0


class TestLauncherCli:
    @pytest.fixture()
    def kernel_file(self, spec_file, tmp_path):
        creator_main([spec_file, "-o", str(tmp_path)])
        return str(sorted(tmp_path.glob("*.s"))[7])  # unroll 8

    def test_sequential_run(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--array-bytes", "65536"]) == 0
        out = capsys.readouterr().out
        assert "cycles/iteration:" in out
        assert "bottleneck:" in out

    def test_machine_choice(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--machine", "sandy-bridge"]) == 0
        assert "sandy-bridge" in capsys.readouterr().out

    def test_fork_mode(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--fork", "4"]) == 0
        assert "forked 4 processes" in capsys.readouterr().out

    def test_openmp_mode(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--openmp", "4"]) == 0
        assert "openmp threads: 4" in capsys.readouterr().out

    def test_alignment_sweep(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--alignment-sweep"]) == 0
        out = capsys.readouterr().out
        assert "best :" in out and "worst:" in out

    def test_csv_output(self, kernel_file, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert launcher_main([kernel_file, "--csv", str(csv)]) == 0
        assert csv.exists()

    def test_engine_flags_keep_the_numbers(self, kernel_file, tmp_path, capsys):
        assert launcher_main([kernel_file]) == 0
        plain = _line(capsys.readouterr().out, "cycles/iteration:")
        assert launcher_main([kernel_file, "--cache-dir", str(tmp_path / "c")]) == 0
        assert _line(capsys.readouterr().out, "cycles/iteration:") == plain

    def test_openmp_report_with_cache_dir(self, kernel_file, tmp_path, capsys):
        args = [kernel_file, "--openmp", "4", "--cache-dir", str(tmp_path / "c")]
        assert launcher_main(args) == 0
        assert "openmp threads: 4" in capsys.readouterr().out

    def test_csv_appends_every_run(self, kernel_file, tmp_path):
        csv = tmp_path / "r.csv"
        args = [kernel_file, "--csv", str(csv), "--cache-dir", str(tmp_path / "c"),
                "--no-resume"]
        assert launcher_main(args) == 0
        assert launcher_main(args) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("kernel,")
        assert lines[1] == lines[2]

    def test_rciw_reported_with_cache_dir(self, kernel_file, tmp_path, capsys):
        args = [kernel_file, "--rciw-target", "0.05",
                "--cache-dir", str(tmp_path / "c")]
        assert launcher_main(args) == 0
        assert "rciw:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "modes",
        (
            ["--alignment-sweep", "--fork", "8"],
            ["--fork", "2", "--openmp", "2"],
            ["--openmp", "2", "--alignment-sweep"],
        ),
        ids=("sweep-fork", "fork-openmp", "openmp-sweep"),
    )
    def test_mode_flags_are_mutually_exclusive(
        self, kernel_file, tmp_path, monkeypatch, capsys, modes
    ):
        """Two measurement modes exit 2 before any campaign runs, instead
        of one silently dropping the other."""
        import repro.cli.launcher_cli as launcher_cli

        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(launcher_cli, "run_campaign", no_campaign)
        csv = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exit_info:
            launcher_main([kernel_file, *modes, "--csv", str(csv)])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not csv.exists()

    def test_failing_job_exits_3(self, kernel_file, capsys):
        assert launcher_main([kernel_file, "--openmp", "100"]) == 3
        assert "1 of 1 jobs quarantined" in capsys.readouterr().err

    def test_exhibit_mode(self, capsys):
        assert launcher_main(["--exhibit", "generation_scale"]) == 0
        out = capsys.readouterr().out
        assert "2040" in out

    def test_list_exhibits(self, capsys):
        assert launcher_main(["--list-exhibits"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table2" in out

    def test_unknown_exhibit(self, capsys):
        assert launcher_main(["--exhibit", "fig99"]) == 2

    def test_exhibit_rejects_setting_it_cannot_apply(self, tmp_path, capsys):
        """fig15 runs no campaign and has no adaptive stopping: engine and
        stopping flags are refused in one line, not silently dropped."""
        args = [
            "--exhibit", "fig15", "--jobs", "4",
            "--cache-dir", str(tmp_path / "d"), "--rciw-target", "0.02",
        ]
        assert launcher_main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "fig15 cannot apply" in err
        assert "jobs=4" in err and "rciw_target=0.02" in err
        assert not (tmp_path / "d").exists()

    def test_missing_kernel(self, capsys):
        assert launcher_main([]) == 2

    def test_nonexistent_kernel_file(self, capsys):
        assert launcher_main(["/no/such/kernel.s"]) == 2


class TestTimedRunWithoutWorkers:
    def test_job_timeout_exits_2_when_workers_cannot_fork(
        self, spec_file, tmp_path, capsys, monkeypatch
    ):
        """A timed run cannot fall back inline: both CLIs say why, once."""
        from repro.characterize.cli import main as characterize_main
        from repro.engine.pool import WorkerPool, shutdown_worker_pool

        creator_main([spec_file, "-o", str(tmp_path)])
        kernel = str(sorted(tmp_path.glob("*.s"))[0])

        def no_forks(self, worker_id):
            raise OSError("no forks here")

        shutdown_worker_pool()  # a live pool would be reused
        monkeypatch.setattr(WorkerPool, "_spawn_member", no_forks)
        capsys.readouterr()
        runs = (
            ("microlauncher", launcher_main, [kernel]),
            (
                "repro.characterize",
                characterize_main,
                ["run", "--opcodes", "add", "--table", str(tmp_path / "t.json")],
            ),
        )
        for prog, main, argv in runs:
            assert main([*argv, "--job-timeout", "5"]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"{prog}: job_timeout needs worker processes")


class TestEnergyFlag:
    @pytest.fixture()
    def kernel_file(self, spec_file, tmp_path):
        creator_main([spec_file, "-o", str(tmp_path)])
        return str(sorted(tmp_path.glob("*.s"))[7])

    def test_energy_report(self, kernel_file, capsys):
        assert launcher_main(
            [kernel_file, "--energy", "--array-bytes", str(64 << 20)]
        ) == 0
        out = capsys.readouterr().out
        assert "energy/iteration:" in out
        assert "avg power" in out

    def test_energy_with_dvfs(self, kernel_file, capsys):
        assert launcher_main(
            [kernel_file, "--energy", "--frequency", "1.6"]
        ) == 0
        assert "nJ" in capsys.readouterr().out


class TestCreatorCliExtras:
    def test_random_selection(self, spec_file, capsys):
        # --random runs pre-expansion; with one opcode choice the family
        # is unchanged, but the flag must parse and run.
        assert creator_main([spec_file, "--random", "3", "--seed", "9", "--list"]) == 0

    def test_schedule_flag(self, spec_file, capsys):
        assert creator_main([spec_file, "--schedule", "--show", "5"]) == 0
        out = capsys.readouterr().out
        assert "jge .L6" in out

    def test_show_c_language(self, spec_file, capsys):
        assert creator_main([spec_file, "--show", "0", "--language", "c"]) == 0
        assert "#include <string.h>" in capsys.readouterr().out

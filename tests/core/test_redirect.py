"""E8: multi-channel output redirection (§5.4)."""

import os
import sys
import threading

import pytest

from repro import components_setup, mph_run
from repro.core import redirect
from repro.core.redirect import MultiChannelOutput

REG = "BEGIN\natm\nocn\nEND"


def logging_job(tmp_path, env_vars=None, n_atm=2, n_ocn=2):
    def make(name):
        def program(world, env):
            mph = components_setup(world, name, env=env)
            path = mph.redirect_output()
            print(f"{name} rank {mph.local_proc_id()} line one")
            print(f"{name} rank {mph.local_proc_id()} line two")
            return None if path is None else path.name

        program.__name__ = name
        return program

    return mph_run(
        [(make("atm"), n_atm), (make("ocn"), n_ocn)],
        registry=REG,
        workdir=tmp_path,
        env_vars=env_vars or {},
    )


class TestRedirection:
    def test_rank0_writes_to_component_log(self, tmp_path):
        logging_job(tmp_path)
        atm_log = (tmp_path / "atm.log").read_text()
        assert "atm rank 0 line one" in atm_log
        assert "ocn" not in atm_log
        assert "rank 1" not in atm_log

    def test_other_ranks_share_combined_log(self, tmp_path):
        logging_job(tmp_path)
        combined = (tmp_path / "mph_combined.log").read_text()
        assert "atm rank 1 line one" in combined
        assert "ocn rank 1 line two" in combined
        assert "rank 0" not in combined

    def test_env_var_overrides_log_name(self, tmp_path):
        custom = tmp_path / "my_ocean_run.txt"
        logging_job(tmp_path, env_vars={"MPH_LOG_OCN": str(custom)})
        assert "ocn rank 0 line one" in custom.read_text()
        assert not (tmp_path / "ocn.log").exists()

    def test_combined_log_env_override(self, tmp_path):
        custom = tmp_path / "rest.txt"
        logging_job(tmp_path, env_vars={"MPH_COMBINED_LOG": str(custom)})
        assert "atm rank 1 line one" in custom.read_text()

    def test_returned_paths(self, tmp_path):
        result = logging_job(tmp_path)
        assert result.by_executable(0) == ["atm.log", "mph_combined.log"]

    def test_stdout_restored_after_job(self, tmp_path):
        before = sys.stdout
        logging_job(tmp_path)
        assert sys.stdout is before

    def test_ordinary_prints_unaffected_outside_components(self, tmp_path, capsys):
        logging_job(tmp_path)
        print("back to normal")
        assert "back to normal" in capsys.readouterr().out


class TestManagerMechanics:
    def test_noop_when_not_installed(self):
        manager = MultiChannelOutput()
        assert manager.redirect("x", is_channel_owner=True) is None
        manager.restore()  # must not raise

    def test_reentrant_install(self, capsys):
        manager = MultiChannelOutput()
        with manager:
            with manager:
                assert manager.installed
            assert manager.installed  # inner exit must not tear down
        assert not manager.installed

    def test_unregistered_thread_passes_through(self, capsys, tmp_path):
        manager = MultiChannelOutput()
        with manager:
            print("passthrough")
        assert "passthrough" in capsys.readouterr().out

    def test_channels_closed_on_uninstall(self, tmp_path):
        manager = MultiChannelOutput()
        manager.install()
        manager.redirect("comp", is_channel_owner=True, workdir=tmp_path)
        print("to file")
        manager.uninstall()
        assert "to file" in (tmp_path / "comp.log").read_text()

    def test_append_mode_across_installs(self, tmp_path):
        for word in ("first", "second"):
            manager = MultiChannelOutput()
            with manager:
                manager.redirect("c", is_channel_owner=True, workdir=tmp_path)
                print(word)
                manager.restore()
        text = (tmp_path / "c.log").read_text()
        assert "first" in text and "second" in text


class TestConcurrentJobs:
    """Two jobs' managers whose installs and uninstalls interleave — A in,
    B in, A out, B out — as two thread jobs of one service do."""

    def test_stdout_is_the_original_object_afterwards(self):
        before = sys.stdout
        a, b = MultiChannelOutput(), MultiChannelOutput()
        a.install()
        b.install()
        a.uninstall()
        b.uninstall()
        assert sys.stdout is before

    def test_a_thread_registered_under_b_writes_to_b_after_a_leaves(self, tmp_path):
        a, b = MultiChannelOutput(), MultiChannelOutput()
        registered, a_left = threading.Event(), threading.Event()

        def b_rank():
            b.redirect("b", is_channel_owner=True, workdir=tmp_path)
            registered.set()
            a_left.wait(10.0)
            print("after A left")
            b.restore()

        a.install()
        b.install()
        rank = threading.Thread(target=b_rank)
        rank.start()
        registered.wait(10.0)
        a.uninstall()
        a_left.set()
        rank.join(10.0)
        b.uninstall()
        assert not rank.is_alive()
        assert "after A left" in (tmp_path / "b.log").read_text()

    def test_two_thread_jobs_at_once(self, tmp_path):
        before = sys.stdout
        errors = []

        def jobs(name):
            try:
                for run in range(4):
                    workdir = tmp_path / f"{name}{run}"
                    logging_job(workdir)
                    assert "atm rank 0 line two" in (workdir / "atm.log").read_text()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=jobs, args=(name,)) for name in "xy"]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and sys.stdout is before

    def test_a_child_forked_while_another_thread_holds_the_proxy_can_install(self):
        held, release = threading.Event(), threading.Event()

        def holder():
            with redirect._PROXY._lock:
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=holder)
        thread.start()
        held.wait(10.0)
        try:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    def install_once():
                        with MultiChannelOutput():
                            pass

                    installer = threading.Thread(target=install_once, daemon=True)
                    installer.start()
                    installer.join(10.0)
                    status = int(installer.is_alive())
                finally:
                    os._exit(status)
        finally:
            release.set()
            thread.join(10.0)
        assert os.waitpid(pid, 0)[1] == 0

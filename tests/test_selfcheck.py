"""Tests for the installation self-check."""

from repro.selfcheck import main, run_selfcheck


class TestSelfcheck:
    def test_passes_quietly(self):
        assert run_selfcheck(verbose=False) is True

    def test_main_exit_code(self, capsys):
        assert main() == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out
        # 6 stages: the repro-lint gate plus the five pipeline stages
        assert out.count("[    ok]") == 6

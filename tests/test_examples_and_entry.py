"""Release hygiene: examples stay runnable, the module entry point works."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


class TestExamples:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert {"quickstart", "generator_selection", "serious_fault_demo",
                "tap_attenuation_analysis", "custom_filter_bist",
                "export_and_verify", "service_client"} <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_examples_compile(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_examples_have_docstring_and_main(self, path):
        src = path.read_text()
        assert src.lstrip().startswith('"""')
        assert 'if __name__ == "__main__":' in src

    def test_quickstart_runs_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True, text=True, timeout=300,
            cwd=pathlib.Path(__file__).parent.parent,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "coverage" in proc.stdout

    def test_export_example_runs_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "examples/export_and_verify.py"],
            capture_output=True, text=True, timeout=300,
            cwd=pathlib.Path(__file__).parent.parent,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "round-trip verified" in proc.stdout

    def test_service_example_runs_end_to_end(self):
        import os

        env = dict(os.environ, REPRO_FAST="1")  # small fault universes
        proc = subprocess.run(
            [sys.executable, "examples/service_client.py"],
            capture_output=True, text=True, timeout=300,
            cwd=pathlib.Path(__file__).parent.parent, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "proposed scheme" in proc.stdout
        assert "same result True" in proc.stdout
        assert "0 failed" in proc.stdout


class TestModuleEntry:
    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table", "2"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "T1a" in proc.stdout

    def test_help_lists_commands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for cmd in ("stats", "grade", "rank", "spectrum", "table", "figure",
                    "report", "export"):
            assert cmd in proc.stdout

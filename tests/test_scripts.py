import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["run_synth_experiment.py", "run_variant_sweep.py"])
def test_script_imports_and_parses_help(script):
    # --help imports every public name the script uses, then exits 0
    result = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_every_exported_name_resolves():
    import hsttn
    missing = [name for name in hsttn.__all__ if not hasattr(hsttn, name)]
    assert not missing
    assert len(set(hsttn.__all__)) == len(hsttn.__all__)

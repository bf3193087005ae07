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
    # the benchmark's tracer wraps every name in `hsttn.autodiff.__all__`
    import hsttn
    from hsttn import autodiff
    for module in (hsttn, autodiff):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__)

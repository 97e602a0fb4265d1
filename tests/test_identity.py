"""The identity harness, tools/identity.py: silent on the tree against
itself, and it names the cases that a planted change alters."""

import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(REPO, "tools", "identity.py")


def test_identity_harness_reports_only_the_cases_a_change_alters(tmp_path):
    # the mutant sends the 5-wide laplacian stencil through the FFT by default,
    # which keeps it within PATH_TOL but changes its bits
    mutant = tmp_path / "mutant"
    shutil.copytree(os.path.join(REPO, "src"), mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    convolve = mutant / "src" / "eqfield" / "convolve.py"
    text = convolve.read_text()
    assert "DIRECT_MAX_EXTENT = 5 " in text
    convolve.write_text(text.replace("DIRECT_MAX_EXTENT = 5 ", "DIRECT_MAX_EXTENT = 3 "))
    runs = [subprocess.Popen([sys.executable, HARNESS, "--against", str(against)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for against in (REPO, mutant)]
    try:
        (same, same_err), (changed, changed_err) = (run.communicate(timeout=60) for run in runs)
    finally:
        for run in runs:
            run.kill()
    assert runs[0].returncode == 0, same_err
    assert "no case differs" in same and same.rstrip().endswith(" 0 differ")
    assert runs[1].returncode == 1, changed_err
    differ = [line for line in changed.splitlines() if line.startswith("DIFFER ")]
    assert any(line.startswith("DIFFER op laplacian 3d zero: default") for line in differ)
    assert not any(line.startswith("DIFFER op grad ") for line in differ)

"""Kept mutation checks: every mutant listed here must fail the tests named for it.

Each entry names a file of the repository, a literal text that occurs in it
exactly once, the text that replaces it, and the tests expected to fail on
the result.  The script first runs all the named tests on an unmutated copy
of the repository, where they must pass; then it applies each mutant alone
to a fresh copy and runs its tests there.  A mutant whose tests still pass
has survived, and the script exits 1.

Run from anywhere, with numpy, pytest and hypothesis installed::

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("drive records cached again", "src/dickesim/drive.py",
           "def drive_terms(",
           '@__import__("functools").lru_cache(maxsize=4)\ndef drive_terms(',
           ("tests/test_experiment.py::TestNoRetainedDrives",)),
    Mutant("norm drift read at the chunk's last step", "src/dickesim/propagator.py",
           "worst = int(np.argmax(drift))", "worst = len(drift) - 1",
           ("tests/test_propagator.py::TestUnitarityAndConvergence"
            "::test_norm_guard_reads_every_step",)),
    Mutant("leak peak read at the chunk's last step", "src/dickesim/propagator.py",
           "peak = int(np.argmax(leaks))", "peak = len(leaks) - 1",
           ("tests/test_propagator.py::TestDiagnostics::test_peak_leak_and_its_time",)),
    Mutant("component search without the transposed sideband pair", "src/dickesim/drive.py",
           "(sideband.T, ladder.T)", "(sideband, ladder)",
           ("tests/test_propagator.py::TestBlockSearch",)),
    Mutant("coupling closure stopped after one hop", "src/dickesim/drive.py",
           "for i in members:", "for i in list(members):",
           ("tests/test_propagator.py::TestBlockSearch",)),
    Mutant("block seeds without the weight floor", "src/dickesim/propagator.py",
           "> BLOCK_WEIGHT_FLOOR", "> 0",
           ("tests/test_propagator.py::TestBlockSearch"
            "::test_a_state_under_the_floor_stays_out",)),
    Mutant("reduced model ignores around", "src/dickesim/spectral.py",
           "    if around:", "    if False:",
           ("tests/test_spectral.py::TestFiveStateModel"
            "::test_components_follow_the_coupling_pattern",)),
    Mutant("sideband coupling a quarter of its size", "src/dickesim/drive.py",
           "w * cfg.eta / 2.0", "w * cfg.eta / 8.0",
           ("tests/test_drive.py::TestFactoredTerms"
            "::test_assembled_record_is_the_dense_hamiltonian",)),
    Mutant("spectrum overlaps without the transpose", "src/dickesim/spectral.py",
           "v[:-1].swapaxes(1, 2) @ v[1:]", "v[:-1] @ v[1:]",
           ("tests/test_spectral.py::TestSequentialEquivalence"
            "::test_matches_sequential_reference",)),
    Mutant("gap-sign refusal dropped", "src/dickesim/spectral.py",
           "if np.any(np.signbit(omega) != np.signbit(omega[0])):", "if False:",
           ("tests/test_spectral.py::TestDiabaticBound::test_gap_sign_change_rejected",)),
    Mutant("thermal tail 100x wider", "src/dickesim/experiment.py",
           "THERMAL_TAIL = 1e-4", "THERMAL_TAIL = 1e-2",
           ("tests/test_experiment.py::TestRunRap::test_thermal_average_is_linear",)),
)


def copy_repo(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def run_tests(repo: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def apply(mutant: Mutant, repo: Path) -> None:
    target = repo / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {count} times in "
                         f"{mutant.path}, expected once")
    target.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = copy_repo(Path(tmp) / "clean")
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = run_tests(clean, named)
        if code != 0:
            print(f"the named tests fail on the unmutated tree (pytest exit {code})")
            return 1
        survivors = errors = 0
        for k, mutant in enumerate(MUTANTS):
            repo = copy_repo(Path(tmp) / f"mutant{k}")
            apply(mutant, repo)
            code = run_tests(repo, mutant.tests)
            # pytest exits 1 when tests failed; other codes mean they did not run
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survivors += code == 0
            errors += code not in (0, 1)
            print(f"{verdict}: {mutant.name} ({mutant.path}) by {', '.join(mutant.tests)}")
        print(f"{len(MUTANTS) - survivors - errors} of {len(MUTANTS)} mutants killed")
        return 0 if survivors == errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

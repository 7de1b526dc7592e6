"""The public surface.

Everything in ``ottospin.__all__`` is stable API, so the list is pinned here:
adding, removing or renaming a public name means editing ``PUBLIC_API`` on
purpose (and recording the change in CHANGES.md).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ottospin as o

PUBLIC_API = [
    "BASIS",
    "CONVERGENCE_TOLERANCE",
    "DEFAULT_N_STEPS",
    "DEFAULT_TAU_GRID_US",
    "HOT_PRESETS_PEV",
    "IDENTITY",
    "KHZ_US",
    "MERGE_TOLERANCE_PEV",
    "MONTE_CARLO_FIELDS",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PLANCK_PEV_PER_KHZ",
    "CharacteristicSamples",
    "ConfigError",
    "ConvergenceError",
    "CycleConfig",
    "CycleReport",
    "DriveProtocol",
    "EnergyDistribution",
    "ProcessMatrix",
    "RunConfig",
    "ThermalParams",
    "UncertaintyEstimate",
    "UnitaryMap",
    "apply_overrides",
    "apply_process",
    "characteristic_function",
    "choi_from_unitary",
    "conjugate_u_grid",
    "cycle_with_uncertainty",
    "depolarizing_process",
    "drive_hamiltonian",
    "efficiency_closed_form",
    "eigensystem",
    "endpoint_hamiltonians",
    "endpoint_spectra",
    "engine_heat_distribution",
    "engine_work_distribution",
    "entropy_production_drive",
    "evolve_unitary",
    "gap_frequency",
    "gibbs_state",
    "identity_process",
    "invert_characteristic",
    "lorentzian_broaden",
    "mean_heat_cold_closed_form",
    "mean_heat_hot_closed_form",
    "mean_work_closed_form",
    "mix_processes",
    "parse_config",
    "polarization",
    "process_trace_distance",
    "propagate_state",
    "run_cycle",
    "sweep_tau",
    "sweep_with_uncertainty",
    "thermal_populations",
    "to_cycle_config",
    "transition_probability",
    "unitality_defect",
]


def test_public_names_are_the_recorded_list():
    assert len(set(o.__all__)) == len(o.__all__), "duplicate names in __all__"
    assert sorted(o.__all__) == sorted(PUBLIC_API)


def test_every_public_name_resolves():
    namespace = {}
    exec("from ottospin import *", namespace)
    missing = [name for name in PUBLIC_API if name not in namespace]
    assert missing == []


def test_the_readme_library_example_runs_and_recovers_its_atoms(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    namespace = {}
    exec(readme.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    assert len(capsys.readouterr().out.splitlines()) == 4
    dist, recovered = namespace["dist"], namespace["recovered"]
    assert len(recovered.energies_pev) == len(dist.energies_pev) == 9
    for got, want in ((recovered.energies_pev, dist.energies_pev),
                      (recovered.probabilities, dist.probabilities)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


FFT_PROBE = """
import sys
lazy = ("numpy.fft", "numpy.random")
import ottospin
print(sorted(m for m in sys.modules if m.startswith(lazy)))
import ottospin.cli
print(sorted(m for m in sys.modules if m.startswith(lazy)))
samples = ottospin.characteristic_function(
    ottospin.EnergyDistribution((0.0,), (1.0,), "work"), ottospin.conjugate_u_grid(1.0, 4)
)
ottospin.invert_characteristic(samples)
print("numpy.fft" in sys.modules)
"""


def test_import_does_not_load_numpy_fft():
    # every CLI run pays for what `import ottospin` and `ottospin.cli` load;
    # the FFT is loaded on first use by the inversion, which the probe then
    # checks it sees, and numpy.random by the Monte Carlo run that draws
    src = str(Path(o.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", FFT_PROBE], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.split("\n")[:3] == ["[]", "[]", "True"]

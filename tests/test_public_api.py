"""The package root exports each module's ``__all__``, and nothing else."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import blochdyn
from blochdyn import bloch, brachistochrone, cavity, errors, speedlimits

MODULES = (bloch, brachistochrone, cavity, errors, speedlimits)

# the root's names before it re-exported the module lists, by defining module
ROOT_NAMES = {
    bloch: ["HamiltonianSpec", "SLDResult", "as_bloch", "bloch_to_density", "check_density",
            "density_to_bloch", "evolve_bloch", "evolve_density", "p_err", "p_err_bloch",
            "pure_state_bloch", "qfi", "sld", "unitary"],
    brachistochrone: ["BrachResult", "brach_hamiltonian", "brach_time", "pure_brach"],
    cavity: ["CavityConfig", "DistinguishabilitySeries", "FieldState", "KrausSet", "cat_field",
             "coherent_field", "coherent_tail", "custom_field", "e0_field", "fock_field",
             "jc_propagate", "kraus_support", "make_field", "mean_photon", "nonunitary_tau",
             "perr_series", "photon_number_expectation", "reduced_series"],
    errors: ["BlochDynError", "CollinearInput", "DegenerateOrbit", "GroundState",
             "LinearlyDependent", "NonphysicalOutput", "NormViolation", "NotReachable",
             "OverlapNotReal", "RadiusMismatch", "TruncationTooSmall"],
    speedlimits: ["ReachabilityReport", "RingScan", "classify", "faster_set_contains",
                  "perp_norm", "scan_ring", "tau_exact", "tau_ml", "tau_mt"],
}
# names the module lists declared public that the root now exports too
NEW_NAMES = {"NORM_EPS", "RATE_LIMIT", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULI", "ID2",
             "N_MAX_LIMIT", "TAIL_LIMIT", "GRID_LIMIT", "REACH_SLACK", "check_delta"}


def test_every_earlier_root_name_is_its_modules_object():
    assert sum(map(len, ROOT_NAMES.values())) == 56
    for module, names in ROOT_NAMES.items():
        for name in names:
            assert name in blochdyn.__all__
            assert getattr(blochdyn, name) is getattr(module, name), name


def test_root_all_is_the_union_of_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))  # no name is exported by two modules
    assert sorted(blochdyn.__all__) == sorted(listed)
    earlier = {name for names in ROOT_NAMES.values() for name in names}
    assert set(blochdyn.__all__) - earlier == NEW_NAMES
    for module in MODULES:
        for name in module.__all__:
            assert getattr(blochdyn, name) is getattr(module, name), name


def test_errors_all_lists_every_domain_error():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.BlochDynError)}
    assert len(defined) == 11
    assert set(errors.__all__) == defined


def test_importing_the_package_leaves_the_cli_out():
    env = dict(os.environ, PYTHONPATH=str(Path(blochdyn.__file__).parents[1]))
    code = "import sys, blochdyn; print('blochdyn.cli' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"

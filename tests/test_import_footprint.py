"""What a cold process imports, and the lazy package namespace's contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphoid
from graphoid import dist_oracle, model_core, xor_table

from dsep_reference import burglary_network

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "AxiomViolation", "CheckResult", "CiOracle", "Dag", "DependencyModel",
    "GaussianModel", "HypothesisCover", "JointTable", "LocalNetwork",
    "PartitionTriple", "PtBinBlocks", "RelationVerdict", "SeparationQuery",
    "SimilarityNetwork", "SuiteReport", "Trail", "TransitivityResult", "Triplet",
    "Universe", "build_local", "build_network", "build_similarity",
    "check_clean", "check_graphoid_axioms", "check_pt_bin",
    "ci_holds_discrete", "condition_on",
    "connected_components", "d_separated",
    "extract_model", "factorization_max_error", "gaussian_axioms_check",
    "graphoid_closure", "is_transitive", "marginalize", "mutually_irrelevant",
    "product_table", "random_gaussian", "random_spb", "restrict_to_hypotheses",
    "run_suite", "types_equivalent",
    "uncoupled", "unrelated", "xor_table",
]

LATE_MODULES = {"graphoid.bayesnet", "graphoid.relevance", "graphoid.simnet", "graphoid.suites"}


def fresh_process(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter; it leaves its result in ``out``."""
    script = f"import json, sys\n{code}\nprint(json.dumps(out))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_modules(*argv: str) -> set[str]:
    """The modules loaded by one ``graphoid.cli.main`` call in a fresh process."""
    out = fresh_process(
        "from graphoid.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "out = {'code': code, 'modules': sorted(sys.modules)}",
        *argv,
    )
    assert out["code"] in (0, 1), out["code"]
    return set(out["modules"])


def graphoid_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "graphoid" or m.startswith("graphoid.")}


class TestSubcommandFootprint:
    def test_dsep_needs_no_numpy(self, tmp_path):
        dag = tmp_path / "net.json"
        dag.write_text(json.dumps(burglary_network().to_json_dict()))
        loaded = cli_modules("dsep", str(dag), "sensorA", "sensorB", "--given", "burglary")
        assert "numpy" not in loaded
        assert graphoid_modules(loaded) == {
            "graphoid", "graphoid.cli", "graphoid.errors",
            "graphoid.model_core", "graphoid.bayesnet",
        }

    def test_randgen_loads_only_the_oracle(self, tmp_path):
        out = tmp_path / "spb.json"
        loaded = cli_modules("randgen", "spb", "3", "--seed", "1", "--out", str(out))
        assert out.exists()
        assert not loaded & LATE_MODULES
        assert "graphoid.dist_oracle" in loaded

    def test_ci_loads_only_the_oracle(self, tmp_path):
        table = tmp_path / "xor.json"
        table.write_text(json.dumps(xor_table().to_json_dict()))
        loaded = cli_modules("ci", str(table), "x", "y")
        assert not loaded & LATE_MODULES
        assert "graphoid.dist_oracle" in loaded

    def test_cli_import_loads_only_the_front_end(self):
        out = fresh_process("import graphoid.cli\nout = sorted(sys.modules)")
        assert graphoid_modules(set(out)) == {"graphoid", "graphoid.cli", "graphoid.errors"}

    def test_package_import_loads_no_submodule(self):
        out = fresh_process(
            "import graphoid\n"
            "out = {'modules': sorted(sys.modules), 'dir': dir(graphoid)}"
        )
        assert graphoid_modules(set(out["modules"])) == {"graphoid"}
        assert set(PUBLIC_NAMES) <= set(out["dir"])

    def test_first_access_binds_every_public_name(self):
        out = fresh_process(
            "import graphoid\n"
            "graphoid.Dag\n"
            "out = sorted(n for n in graphoid.__all__ if n not in vars(graphoid))"
        )
        assert out == []


class TestLazyNamespace:
    def test_public_names_unchanged(self):
        assert sorted(graphoid.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize(
        "module, name",
        [(module, name) for module, names in graphoid._EXPORTS.items() for name in names],
    )
    def test_name_is_the_defining_modules_object(self, module, name):
        assert getattr(graphoid, name) is vars(sys.modules[f"graphoid.{module}"])[name]

    def test_dir_lists_every_public_name(self):
        assert set(graphoid.__all__) <= set(dir(graphoid))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            graphoid.no_such_name

    def test_submodule_import_still_works(self):
        assert fresh_process("from graphoid import suites\nout = suites.__name__") == (
            "graphoid.suites"
        )

    def test_validate_sets_is_shared(self):
        assert dist_oracle._validate_sets is model_core._validate_sets

import json

import pytest

from graphoid import xor_table
from graphoid.cli import main


def write_xor(tmp_path):
    path = tmp_path / "xor.json"
    path.write_text(json.dumps(xor_table().to_json_dict()))
    return str(path)


class TestCi:
    def test_marginal_independence_holds(self, tmp_path, capsys):
        assert main(["ci", write_xor(tmp_path), "x", "y"]) == 0
        assert capsys.readouterr().out.startswith("holds")

    def test_given_pair_variable_holds(self, tmp_path, capsys):
        assert main(["ci", write_xor(tmp_path), "x", "y", "--given", "z"]) == 0
        assert capsys.readouterr().out.startswith("holds")

    def test_dependence_fails(self, tmp_path, capsys):
        assert main(["ci", write_xor(tmp_path), "x", "z"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fails")
        assert "discrepancy" in out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["ci", "no-such-file.json", "x", "y"]) == 2

    def test_bad_variable_is_usage_error(self, tmp_path, capsys):
        assert main(["ci", write_xor(tmp_path), "x", "nope"]) == 2

    def test_non_object_artifact_exits_2(self, tmp_path, capsys):
        for top_level in (5, "probs", ["probs"]):
            path = tmp_path / "artifact.json"
            path.write_text(json.dumps(top_level))
            assert main(["ci", str(path), "x", "y"]) == 2
            assert "JSON object" in capsys.readouterr().err

    def test_dependency_model_answer_needs_contraction(self, tmp_path, capsys):
        # (a, c | {}) follows only by contracting (a, b | {}) and (a, c | b)
        # to (a, bc | {}) and decomposing; (a, b | c) then by weak union.
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "variables": ["a", "b", "c"],
            "triplets": [{"x": ["a"], "y": ["b"], "z": []}, {"x": ["a"], "y": ["c"], "z": ["b"]}],
        }))
        assert main(["ci", str(path), "a", "c"]) == 0
        assert main(["ci", str(path), "c", "a"]) == 0
        assert main(["ci", str(path), "a", "b", "--given", "c"]) == 0
        assert main(["ci", str(path), "b", "c"]) == 1
        assert capsys.readouterr().out.split() == ["holds", "holds", "holds", "fails"]

    @pytest.mark.parametrize(
        "probs, kind",
        [([{"a": 1}, 0.5, 0.25, 0.25], "dict"), ([True, False, False, False], "bool"),
         ([[0.25, 0.25], [0.25, "0.25"]], "str"), ([0.25, 0.25, 0.25, None], "NoneType")],
        ids=["object", "bools", "string", "null"],
    )
    def test_non_number_probs_exit_2(self, tmp_path, capsys, probs, kind):
        artifact = dict(xor_table().to_json_dict(), probs=probs)
        artifact["variables"] = artifact["variables"][:2]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(artifact))
        assert main(["ci", str(path), "x", "y"]) == 2
        assert f"error: probs must hold only numbers, not {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("mean", [True, 0.0]), ("cov", [[True, 0.0], [0.0, 1.0]])]
    )
    def test_bool_in_gaussian_exits_2(self, tmp_path, capsys, field, value):
        artifact = {"variables": ["a", "b"], "mean": [0, 0.0], "cov": [[1, 0.0], [0.0, 1.0]]}
        path = tmp_path / "gaussian.json"
        path.write_text(json.dumps(artifact))
        assert main(["ci", str(path), "a", "b"]) == 0  # an integer is a number
        path.write_text(json.dumps(dict(artifact, **{field: value})))
        assert main(["ci", str(path), "a", "b"]) == 2
        assert f"error: {field} must hold only numbers, not bool" in capsys.readouterr().err


class TestBuildNet:
    def test_xor_natural_order(self, tmp_path, capsys):
        out_path = tmp_path / "dag.json"
        code = main(
            [
                "build-net",
                write_xor(tmp_path),
                "--order",
                "x,y,z",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        dag = json.loads(out_path.read_text())
        assert dag["parents"] == {"x": [], "y": [], "z": ["x", "y"]}
        assert "components" in capsys.readouterr().err

    def test_xor_pair_first_order(self, tmp_path, capsys):
        assert main(["build-net", write_xor(tmp_path), "--order", "z,x,y"]) == 0
        dag = json.loads(capsys.readouterr().out)
        assert dag["parents"] == {"z": [], "x": ["z"], "y": ["z"]}

    def test_default_order_is_listing_order(self, tmp_path, capsys):
        assert main(["build-net", write_xor(tmp_path)]) == 0
        dag = json.loads(capsys.readouterr().out)
        assert dag["order"] == ["x", "y", "z"]

    def test_invalid_order_exits_2(self, tmp_path, capsys):
        assert main(["build-net", write_xor(tmp_path), "--order", "x,y"]) == 2


class TestDsep:
    def test_query_against_dag_file(self, tmp_path, capsys):
        from dsep_reference import burglary_network

        dag_path = tmp_path / "net.json"
        dag_path.write_text(json.dumps(burglary_network().to_json_dict()))
        code = main(["dsep", str(dag_path), "sensorB", "sensorA", "--given", "burglary"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "d-separated"
        code = main(
            ["dsep", str(dag_path), "sensorB", "sensorA", "--given", "burglary,patrol"]
        )
        assert code == 1

    def test_unknown_parent_key_exits_2(self, tmp_path, capsys):
        dag_path = tmp_path / "net.json"
        dag_path.write_text(
            json.dumps({"order": ["a", "b"], "parents": {"b": ["a"], "zz": ["a"]}})
        )
        assert main(["dsep", str(dag_path), "a", "b"]) == 2
        assert "zz" in capsys.readouterr().err

    def test_non_object_artifact_exits_2(self, tmp_path, capsys):
        for top_level in (5, "order", ["order"]):
            dag_path = tmp_path / "net.json"
            dag_path.write_text(json.dumps(top_level))
            assert main(["dsep", str(dag_path), "a", "b"]) == 2
            assert "JSON object" in capsys.readouterr().err

    def test_non_object_parents_exit_2(self, tmp_path, capsys):
        dag_path = tmp_path / "net.json"
        dag_path.write_text(json.dumps({"order": ["a", "b"], "parents": [["a"]]}))
        assert main(["dsep", str(dag_path), "a", "b"]) == 2
        assert "parents" in capsys.readouterr().err

    def test_table_given_as_network_names_missing_field(self, tmp_path, capsys):
        # used to print a bare "error: 'order'"
        assert main(["dsep", write_xor(tmp_path), "x", "y"]) == 2
        assert "error: missing field 'order'" in capsys.readouterr().err


class TestNameListsInArtifacts:
    """A string where a list of names belongs is rejected, not split into letters."""

    def _run_ci(self, tmp_path, artifact, x="a", y="b"):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        return main(["ci", str(path), x, y])

    def test_dag_order_string_exits_2(self, tmp_path, capsys):
        dag_path = tmp_path / "net.json"
        dag_path.write_text(json.dumps({"order": "abc", "parents": {}}))
        assert main(["dsep", str(dag_path), "a", "c"]) == 2
        assert "order" in capsys.readouterr().err

    def test_gaussian_variables_string_exits_2(self, tmp_path, capsys):
        artifact = {"variables": "ab", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        assert self._run_ci(tmp_path, artifact) == 2
        assert "variables" in capsys.readouterr().err

    def test_dependency_model_variables_string_exits_2(self, tmp_path, capsys):
        artifact = {"variables": "ab", "triplets": [{"x": ["a"], "y": ["b"], "z": []}]}
        assert self._run_ci(tmp_path, artifact) == 2
        assert "variables" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "triplets",
        [
            5,
            [5],
            [{"x": 5, "y": ["b"], "z": []}],
            [{"x": [["a"]], "y": ["b"], "z": []}],
            [{"x": "a", "y": "b"}],
        ],
        ids=["int", "list_of_int", "int_set", "nested_set", "string_sets"],
    )
    def test_dependency_model_malformed_triplets_exit_2(self, tmp_path, capsys, triplets):
        artifact = {"variables": ["a", "b"], "triplets": triplets}
        assert self._run_ci(tmp_path, artifact) == 2
        assert "must" in capsys.readouterr().err

    def test_dependency_model_z_defaults_to_empty(self, tmp_path, capsys):
        artifact = {"variables": ["a", "b"], "triplets": [{"x": ["a"], "y": ["b"]}]}
        assert self._run_ci(tmp_path, artifact) == 0

    def test_table_without_variables_names_missing_field(self, tmp_path, capsys):
        artifact = {"probs": [0.25, 0.25, 0.25, 0.25]}
        assert self._run_ci(tmp_path, artifact) == 2
        assert "error: missing field 'variables'" in capsys.readouterr().err

    def test_joint_table_names_and_values_exit_2(self, tmp_path, capsys):
        good = xor_table().to_json_dict()
        assert self._run_ci(tmp_path, good, "x", "y") == 0
        bad_tables = [
            dict(good, variables="ab"),
            dict(good, variables=[dict(v, values="01") for v in good["variables"]]),
            dict(good, variables=[dict(v, name="x") for v in good["variables"]]),
            dict(good, variables=[dict(v, values=[]) for v in good["variables"]]),
        ]
        for artifact in bad_tables:
            assert self._run_ci(tmp_path, artifact, "x", "y") == 2
            assert "must" in capsys.readouterr().err


class TestRelationsAndTransitive:
    def test_relations_json(self, tmp_path, capsys):
        assert main(["relations", write_xor(tmp_path), "x", "y"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mutually_irrelevant"]["holds"] is True
        assert data["uncoupled"]["holds"] is False
        assert data["unrelated"]["holds"] is False

    def test_transitive_exit_code(self, tmp_path, capsys):
        assert main(["transitive", write_xor(tmp_path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data == {"holds": False, "witness": ["x", "z", "y"]}

    def test_relations_names_an_unknown_variable(self, tmp_path, capsys):
        assert main(["relations", write_xor(tmp_path), "x", "u9"]) == 2
        assert capsys.readouterr().err == "error: unknown variable: u9\n"

    def test_zero_variable_artifacts_are_transitive(self, tmp_path, capsys):
        for artifact in (
            {"variables": [], "probs": [1.0]},
            {"variables": [], "mean": [], "cov": []},
        ):
            path = tmp_path / "empty.json"
            path.write_text(json.dumps(artifact))
            assert main(["transitive", str(path)]) == 0
            assert json.loads(capsys.readouterr().out) == {"holds": True, "witness": None}


class TestRandgenAndCleanCheck:
    def test_randgen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["randgen", "spb", "3", "--seed", "5", "--out", str(a)]) == 0
        assert main(["randgen", "spb", "3", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_randgen_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("GRAPHOID_SEED", "9")
        assert main(["randgen", "gaussian", "3", "--out", str(a)]) == 0
        assert main(["randgen", "gaussian", "3", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAPHOID_SEED", "x")
        assert main(["randgen", "spb", "3", "--out", str(tmp_path / "a.json")]) == 2
        assert "GRAPHOID_SEED must be an integer, got 'x'" in capsys.readouterr().err
        monkeypatch.setenv("GRAPHOID_SEED", "-4")
        assert main(["randgen", "spb", "3", "--out", str(tmp_path / "b.json")]) == 2
        assert "GRAPHOID_SEED must be a non-negative integer, got -4" in capsys.readouterr().err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        assert main(["randgen", "spb", "3", "--seed", "-2", "--out", str(path)]) == 2
        assert "--seed must be a non-negative integer, got -2" in capsys.readouterr().err
        assert not path.exists()

    def test_clean_check(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        assert main(["randgen", "spb", "4", "--seed", "3", "--out", str(dist)]) == 0
        code = main(
            [
                "clean-check",
                str(dist),
                "--e",
                "u4",
                "--x1",
                "u1",
                "--y1",
                "u1,u2",
                "--z1",
                "u1",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] in (
            "antecedent_fails",
            "consequent_holds",
        )

    def test_clean_check_needs_exactly_two_pivot_values(self, tmp_path, capsys):
        # one value used to end in an IndexError traceback, three were accepted
        dist = tmp_path / "spb.json"
        assert main(["randgen", "spb", "4", "--seed", "3", "--out", str(dist)]) == 0
        args = ["clean-check", str(dist), "--e", "u4", "--x1", "u1", "--y1", "u1,u2", "--z1", "u1"]
        capsys.readouterr()
        assert main(args + ["--e-values", "0"]) == 2
        assert "two pivot values" in capsys.readouterr().err
        assert main(args + ["--e-values", "0,1,1"]) == 2
        assert "two pivot values" in capsys.readouterr().err

    def test_clean_check_names_an_unknown_side_variable(self, tmp_path, capsys):
        # an unknown side name is named, not reported as a cover mismatch
        dist = tmp_path / "spb.json"
        assert main(["randgen", "spb", "4", "--seed", "3", "--out", str(dist)]) == 0
        capsys.readouterr()
        args = ["clean-check", str(dist), "--e", "u4", "--x1", "u9", "--y1", "u1", "--z1", "u1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: unknown variable: u9\n"

    def test_non_integer_pivot_value_names_flag(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        assert main(["randgen", "spb", "4", "--seed", "3", "--out", str(dist)]) == 0
        capsys.readouterr()
        args = ["clean-check", str(dist), "--e", "u4", "--x1", "u1", "--y1", "u1,u2", "--z1", "u1"]
        assert main(args + ["--e-values", "0,x"]) == 2
        assert "--e-values takes integer value indices, got 'x'" in capsys.readouterr().err


class TestSimnet:
    def test_compare_types_on_fixture(self, tmp_path, capsys):
        from graphoid.suites import xor_hypothesis_table

        path = tmp_path / "hyp.json"
        path.write_text(json.dumps(xor_hypothesis_table().to_json_dict()))
        code = main(
            ["simnet", str(path), "--hypothesis", "h", "--cover", "0,1", "--compare-types"]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is False
        assert data["divergences"][0]["only_related"] == ["y"]

    def test_build_network_output(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        main(["randgen", "spb", "3", "--seed", "2", "--out", str(dist)])
        code = main(
            ["simnet", str(dist), "--hypothesis", "u1", "--cover", "0,1", "--type", "2"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["type"] == 2
        assert len(data["locals"]) == 1

    def test_out_of_range_cover_value_exits_2(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        main(["randgen", "spb", "3", "--seed", "2", "--out", str(dist)])
        capsys.readouterr()
        for mode in (["--type", "1"], ["--compare-types"]):
            args = ["simnet", str(dist), "--hypothesis", "u1", "--cover", "0,1;1,2"]
            assert main(args + mode) == 2
            assert "value index 2 out of range for u1" in capsys.readouterr().err

    def test_non_integer_cover_value_names_flag(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        main(["randgen", "spb", "3", "--seed", "2", "--out", str(dist)])
        capsys.readouterr()
        args = ["simnet", str(dist), "--hypothesis", "u1", "--cover", "0,x"]
        assert main(args) == 2
        assert "--cover takes integer value indices, got 'x'" in capsys.readouterr().err

    def test_unknown_hypothesis_variable_is_named(self, tmp_path, capsys):
        dist = tmp_path / "spb.json"
        main(["randgen", "spb", "3", "--seed", "2", "--out", str(dist)])
        capsys.readouterr()
        assert main(["simnet", str(dist), "--hypothesis", "u9", "--cover", "0,1"]) == 2
        assert capsys.readouterr().err == "error: unknown variable: u9\n"


class TestSuite:
    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        assert main(["suite", "nope", "--report", str(tmp_path / "r.json")]) == 2

    def test_report_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["suite", "transitivity", "--seed", "4", "--samples", "5"]
        assert main(args + ["--report", str(a)]) == 0
        assert main(args + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "suite transitivity" in capsys.readouterr().out

    def test_report_records_seed_and_counts(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(
            ["suite", "axioms", "--seed", "3", "--samples", "4", "--report", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["seed"] == 3
        assert data["cases"] == 4
        assert data["failures"] == []

    def test_clean_reports_outcome_counts(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        args = ["suite", "clean", "--n-vars", "3", "--samples", "2", "--report", str(path)]
        assert main(args) == 0
        data = json.loads(path.read_text())
        assert sum(data["outcomes"].values()) == data["cases"] == 24
        assert "outcomes i1 24" in capsys.readouterr().out

    def test_non_positive_samples_exit_2(self, tmp_path, capsys):
        for samples in ("0", "-3"):
            path = tmp_path / f"r{samples}.json"
            args = ["suite", "clean", "--samples", samples, "--report", str(path)]
            assert main(args) == 2
            assert not path.exists()
        assert "samples" in capsys.readouterr().err

    def test_n_vars_outside_suite_range_exit_2(self, tmp_path, capsys):
        # axioms runs at 2..4 variables: 0 used to divide by zero, and 9 ran
        # at n <= 4 while the report claimed 9.
        for n_vars in ("0", "9"):
            path = tmp_path / f"r{n_vars}.json"
            args = ["suite", "axioms", "--n-vars", n_vars, "--report", str(path)]
            assert main(args) == 2
            assert not path.exists()
        assert "n_vars" in capsys.readouterr().err

    def test_n_vars_at_suite_bound_recorded(self, tmp_path):
        path = tmp_path / "r.json"
        args = ["suite", "axioms", "--n-vars", "4", "--samples", "3", "--report", str(path)]
        assert main(args) == 0
        assert json.loads(path.read_text())["params"]["n_vars"] == 4

    def test_negative_suite_seed_is_named(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["suite", "axioms", "--seed", "-1", "--report", str(path)]) == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not path.exists()

    def test_simnet_equiv_failure_exits_1_with_a_report(self, tmp_path, monkeypatch, capsys):
        from graphoid import suites

        monkeypatch.setattr(suites, "random_spb", lambda n, seed: suites.xor_hypothesis_table())
        path = tmp_path / "r.json"
        args = ["suite", "simnet-equiv", "--samples", "4", "--report", str(path)]
        assert main(args) == 1
        data = json.loads(path.read_text())
        assert {f["kind"] for f in data["failures"]} >= {"divergence"}
        assert "failure(s)" in capsys.readouterr().out

    def test_usage_error_without_args(self, capsys):
        assert main([]) == 2


@pytest.fixture(scope="module")
def error_table_artifacts(tmp_path_factory):
    """A four-variable table, the network built from it, and three artifacts
    that name an unknown variable, as CLI arguments."""
    root = tmp_path_factory.mktemp("error_table")
    spb, net = str(root / "spb.json"), str(root / "net.json")
    assert main(["randgen", "spb", "4", "--seed", "3", "--out", spb]) == 0
    assert main(["build-net", spb, "--out", net]) == 0
    paths = {"spb.json": spb, "net.json": net}
    unknown_names = {
        "key.json": {"order": ["a", "b"], "parents": {"b": ["a"], "zz": ["a"]}},
        "parent.json": {"order": ["a", "b"], "parents": {"b": ["zzz"]}},
        "model.json": {"variables": ["a", "b"], "triplets": [{"x": ["a"], "y": ["zz"]}]},
    }
    for name, data in unknown_names.items():
        paths[name] = str(root / name)
        (root / name).write_text(json.dumps(data))
    return paths


UNKNOWN_PAIR = "unknown variable: u8, u9"
OVERLAP_XY = "overlapping sets in (('u1',), ('u1',), ())"
OVERLAP_XZ = "overlapping sets in (('u1',), ('u2',), ('u1',))"
BAD_ORDER = "order must be a permutation of the universe"

# One row per bad invocation; rows with the same fault share one message.
ERROR_TABLE = [
    ("ci spb.json u8 u9", UNKNOWN_PAIR),
    ("dsep net.json u8 u9", UNKNOWN_PAIR),
    ("relations spb.json u8 u9", UNKNOWN_PAIR),
    ("ci spb.json u1 u2 --given u9", "unknown variable: u9"),
    # an unknown name is reported before an overlap
    ("ci spb.json u8 u8", "unknown variable: u8"),
    ("dsep net.json u8 u8", "unknown variable: u8"),
    ("ci spb.json u1 u9 --given u9", "unknown variable: u9"),
    ("dsep net.json u1 u9 --given u9", "unknown variable: u9"),
    ("ci spb.json u1 u1", OVERLAP_XY),
    ("dsep net.json u1 u1", OVERLAP_XY),
    ("ci spb.json u1 u2 --given u1", OVERLAP_XZ),
    ("dsep net.json u1 u2 --given u1", OVERLAP_XZ),
    ("relations spb.json u1 u1", "x and y must differ"),
    ("build-net spb.json --order u2,u1", BAD_ORDER),
    ("build-net spb.json --order u1,u1,u2,u3", BAD_ORDER),
    # an order, a parent key, a parent name and a triplet name are checked
    # against the universe like a query set
    ("build-net spb.json --order u1,u2,u9", "unknown variable: u9"),
    ("dsep key.json a b", "unknown variable: zz"),
    ("dsep parent.json a b", "unknown variable: zzz"),
    ("ci model.json a b", "unknown variable: zz"),
    ("clean-check spb.json --e u9 --x1 u1 --y1 u1,u2 --z1 u1", "unknown variable: u9"),
    ("clean-check spb.json --e u4 --x1 u9 --y1 u1 --z1 u1", "unknown variable: u9"),
    (
        "clean-check spb.json --e u4 --x1 u4 --y1 u1 --z1 u1",
        "the pivot variable cannot be partitioned",
    ),
    (
        "clean-check spb.json --e u4 --x1 u1 --y1 u1,u2 --z1 u1 --e-values 0,5",
        "value index 5 out of range for u4",
    ),
    ("simnet spb.json --hypothesis u9 --cover 0,1", "unknown variable: u9"),
    ("simnet spb.json --hypothesis u1 --cover 0,1;1,2", "value index 2 out of range for u1"),
]


@pytest.mark.parametrize("command, message", ERROR_TABLE, ids=[row[0] for row in ERROR_TABLE])
def test_bad_invocations_print_one_error_line(error_table_artifacts, capsys, command, message):
    capsys.readouterr()
    argv = [error_table_artifacts.get(token, token) for token in command.split()]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""

"""Command-line front end: load JSON artifacts, run queries and suites.

Exit codes: 0 for success or a holding property, 1 for a failing property,
2 for usage or input errors.  JSON is the only machine-readable surface;
anything human-oriented goes to stderr or is clearly prose.  Each subcommand
imports what it runs inside its function, so a call loads only those modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import GraphoidError

DEFAULT_SEED = 0


def _seed(args: argparse.Namespace) -> int:
    """The run seed: ``--seed``, else ``GRAPHOID_SEED``, else ``DEFAULT_SEED``.

    A non-integer ``GRAPHOID_SEED`` or a negative seed raises ValueError
    naming where the seed came from.
    """
    source, seed = "--seed", args.seed
    if seed is None:
        env = os.environ.get("GRAPHOID_SEED")
        if not env:
            return DEFAULT_SEED
        source = "GRAPHOID_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _parse_names(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_indices(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated value indices; a non-integer token names ``flag``."""
    values = []
    for token in _parse_names(text):
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{flag} takes integer value indices, got {token!r}") from None
    return tuple(values)


def _load_json_object(path: str) -> dict:
    """Read a JSON artifact whose top level must be an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: artifact must be a JSON object, got {type(data).__name__}")
    return data


def load_distribution(path: str):
    """Read a JSON artifact: joint table, Gaussian model, or dependency model."""
    from .dist_oracle import GaussianModel, JointTable
    from .model_core import DependencyModel

    data = _load_json_object(path)
    if "probs" in data:
        return JointTable.from_json_dict(data)
    if "cov" in data:
        return GaussianModel.from_json_dict(data)
    if "triplets" in data:
        return DependencyModel.from_json_dict(data)
    raise ValueError(f"{path}: unrecognized artifact (need probs, cov, or triplets)")


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_ci(args: argparse.Namespace) -> int:
    from .dist_oracle import CiOracle
    from .model_core import DependencyModel

    dist = load_distribution(args.dist_file)
    oracle = CiOracle(dist)
    x, y, z = [args.x], [args.y], _parse_names(args.given)
    holds = oracle.ci(x, y, z)
    word = "holds" if holds else "fails"
    if isinstance(dist, DependencyModel):
        print(word)
    else:
        print(f"{word} (max discrepancy = {oracle.discrepancy(x, y, z):.6g})")
    return 0 if holds else 1


def cmd_build_net(args: argparse.Namespace) -> int:
    from .bayesnet import build_network, connected_components
    from .dist_oracle import CiOracle

    dist = load_distribution(args.dist_file)
    order = _parse_names(args.order) or None
    dag = build_network(CiOracle(dist), order)
    _emit(dag.to_json_dict(), args.out)
    components = " ".join("{" + ",".join(c) + "}" for c in connected_components(dag))
    print(f"components: {components}", file=sys.stderr)
    return 0


def cmd_dsep(args: argparse.Namespace) -> int:
    from .bayesnet import Dag, d_separated
    from .model_core import Triplet, _validate_sets

    dag = Dag.from_json_dict(_load_json_object(args.dag_file))
    sets = (_parse_names(args.x), _parse_names(args.y), _parse_names(args.given))
    separated = d_separated(dag, Triplet.make(*_validate_sets(dag.universe, *sets)))
    print("d-separated" if separated else "connected")
    return 0 if separated else 1


def cmd_relations(args: argparse.Namespace) -> int:
    from .dist_oracle import CiOracle
    from .relevance import mutually_irrelevant, uncoupled, unrelated

    oracle = CiOracle(load_distribution(args.dist_file))
    verdicts = {
        "mutually_irrelevant": mutually_irrelevant(oracle, args.x, args.y).to_json_dict(),
        "uncoupled": uncoupled(oracle, args.x, args.y).to_json_dict(),
        "unrelated": unrelated(oracle, args.x, args.y).to_json_dict(),
    }
    _emit(verdicts, args.out)
    return 0


def cmd_transitive(args: argparse.Namespace) -> int:
    from .dist_oracle import CiOracle
    from .relevance import is_transitive

    result = is_transitive(CiOracle(load_distribution(args.dist_file)))
    _emit(result.to_json_dict(), args.out)
    return 0 if result.holds else 1


def cmd_clean_check(args: argparse.Namespace) -> int:
    from .model_core import DependencyModel
    from .relevance import VIOLATION, PartitionTriple, check_clean

    dist = load_distribution(args.dist_file)
    if isinstance(dist, DependencyModel):
        raise ValueError("clean-check needs a table or Gaussian artifact")
    ground = dist.universe.names - {args.e}
    x1, y1, z1 = (frozenset(_parse_names(side)) for side in (args.x1, args.y1, args.z1))
    dist.universe.require(x1 | y1 | z1)
    values = _parse_indices(args.e_values, "--e-values") or (0, 1)
    pt = PartitionTriple(
        x1, ground - x1, y1, ground - y1, z1, ground - z1, args.e, values
    )
    result = check_clean(dist, pt)
    _emit(result.to_json_dict(), args.out)
    return 1 if result.status == VIOLATION else 0


def _parse_cover(text: str) -> tuple[tuple[int, ...], ...]:
    subsets = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            subsets.append(_parse_indices(chunk, "--cover"))
    return tuple(subsets)


def cmd_simnet(args: argparse.Namespace) -> int:
    from .dist_oracle import JointTable
    from .simnet import HypothesisCover, build_similarity, types_equivalent

    dist = load_distribution(args.dist_file)
    if not isinstance(dist, JointTable):
        raise ValueError("simnet needs a joint-table artifact")
    cover = HypothesisCover(args.hypothesis, _parse_cover(args.cover))
    if args.compare_types:
        outcome = types_equivalent(dist, cover)
        _emit(outcome.to_json_dict(), args.out)
        return 0 if outcome.equivalent else 1
    net = build_similarity(dist, cover, args.type)
    _emit(net.to_json_dict(), args.out)
    return 0


def cmd_randgen(args: argparse.Namespace) -> int:
    from .dist_oracle import random_gaussian, random_spb

    generate = random_spb if args.kind == "spb" else random_gaussian
    artifact = generate(args.n, _seed(args))
    _emit(artifact.to_json_dict(), args.out)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .suites import SUITES, run_suite

    if args.name not in SUITES:
        raise ValueError(f"unknown suite {args.name!r}; choose from {sorted(SUITES)}")
    report = run_suite(args.name, seed=_seed(args), n_vars=args.n_vars, samples=args.samples)
    path = args.report or f"suite_{args.name}.json"
    with open(path, "w") as fh:
        fh.write(report.to_json())
    print(report.summary())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphoid",
        description="Queries and verification suites over independence artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ci", help="test one conditional-independence statement")
    p.add_argument("dist_file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given", default="", help="comma-separated conditioning variables")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("build-net", help="build a minimal network from a distribution")
    p.add_argument("dist_file")
    p.add_argument("--order", default="", help="comma-separated construction order")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_net)

    p = sub.add_parser("dsep", help="run a d-separation query against a network file")
    p.add_argument("dag_file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given", default="")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("relations", help="report the three relevance relations for a pair")
    p.add_argument("dist_file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("transitive", help="check transitivity of pairwise relevance")
    p.add_argument("dist_file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transitive)

    p = sub.add_parser("clean-check", help="evaluate the partition-triple implication")
    p.add_argument("dist_file")
    p.add_argument("--e", required=True, help="pivot variable")
    p.add_argument("--x1", required=True, help="first side of the first partition")
    p.add_argument("--y1", required=True)
    p.add_argument("--z1", required=True)
    p.add_argument("--e-values", default="", help="two pivot value indices, default 0,1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_clean_check)

    p = sub.add_parser("simnet", help="build or compare similarity networks")
    p.add_argument("dist_file")
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--cover", required=True, help="value subsets like '0,1;1,2'")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--compare-types", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simnet)

    p = sub.add_parser("randgen", help="generate a seeded random distribution")
    p.add_argument("kind", choices=("spb", "gaussian"))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_randgen)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-vars", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--report", default=None, help="report path, default suite_<name>.json")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except KeyError as exc:  # only an artifact's field lookups raise it here
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except (GraphoidError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

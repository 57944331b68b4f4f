"""Pinned sha256 of every suite report at a small scale, and of every
suite's seed-0 report at its own scale.

A change that only makes the code faster must leave every report byte for
byte as it was.  A deliberate verdict or report change updates this table
and says so in CHANGES.md.
"""

import hashlib

import pytest

from graphoid.suites import SUITES, run_suite

SAMPLES = 6

EXPECTED = {
    ("axioms", 0): "6f48b3683215546d9fd33214534b090bd0385607503f124cafdfc42ccaaa473e",
    ("axioms", 1009): "2a8b7fd25c844eca112d2d5d9ffe105b8d2efd6a595ac63b0a6e44a1533e3cfe",
    ("dsep-soundness", 0): "4686799d0254f7e788401f5ec88142b82cb41076b92d367d671d4b4b236f6b4e",
    ("dsep-soundness", 1009): "503b3f66db242435dc80462cf584eb2087deac9716cbddcd1b03affbccadeee0",
    ("components", 0): "6129c21db0e6bff51ecc02fd1c25e26f5ee31636ef3eb86e9480622f86403f3c",
    ("components", 1009): "a2ee03494eba7af4ef986b6605ac2756d2ef4645a9d7787c5d36813c95341d6e",
    ("relations", 0): "5c7706c8be5136c7b53f1754384608e13fc1f07b9c8ddc6e40ed7c8263ee0ee0",
    ("relations", 1009): "4c15a17cfdaaa214681a59bee97c40ee2fc4a22e7ccaf0572048714f60319bf0",
    ("clean", 0): "14d080c3388b883078a630f84f9dc703fd158c5b2dbebc23bf7d806bb384c809",
    ("clean", 1009): "3ce31b515c5aca3e6b8b2a5d382919e42473ad076556fe34e69af35be54939c7",
    ("pt-bin", 0): "87c16d850e7a43c7e9a4b7416ff05ab88550ca210980b8f6580e9bfac465cfa4",
    ("pt-bin", 1009): "050e9e701064847b072ce48b3bdd53f4656cc13f65a39b314961629828e93720",
    ("gaussian-props", 0): "75059c9ce1faaf33be2570f7ce7fd354d21ab490f3000d10690720a4185bcd34",
    ("gaussian-props", 1009): "b05f6876a91509b3296980f215f44b1a1cc60d2754e967ad1142affc23c71e4d",
    ("transitivity", 0): "f1ebf0177f52d004af748506160643a5cf14819833bd09f3743983817cd05f95",
    ("transitivity", 1009): "9aa8b8fff62b5b649fd124aa86fc44bf197c972ef5a614e7e48a7f3814359473",
    ("simnet-equiv", 0): "2c4d9f76391f365093f30fe3709f9572f78564f0db77cd88ee168c43b504f707",
    ("simnet-equiv", 1009): "0d6b8e4ebfa83bac4259471b6ffab2aceb05717b670b329d0c9aa0b09949511b",
}

# Seed 0 at each suite's own scale, the scale the benchmark runs every
# suite at, so a verdict that drifts only there shows too.
DEFAULT_SCALE = {
    "axioms": "ac8d9928c0a02462857f36c490af940e774cfa0a33b361ce7e0bb3ffc28dea12",
    "clean": "303012cf998015fe94ed1a9a8870e8e2d1ad168bd0b3d9c7bf55cb19cfbe901d",
    "pt-bin": "aadca66edc7c826c63613b0f4af0d94f98e43bdc6a45656e58c4e81672fde5ee",
    "gaussian-props": "f5ef3fd20f8a0a74f85eb58a41bd7e0c871c054e436bef45f4d210b138ea8286",
    "dsep-soundness": "4c4cc3bd1a6ab2fb5c1910a4f2878593242f9a5ae52701cc1598a94a291e0be9",
    "components": "75c5765e7817ad21bef7b4425221dee9c4a2710b8868e0aa5de4b05a24f5bda2",
    "relations": "dfe273397bb70cebf77768777b63d016f30f8f1fc0aba1d4160c27a44cbdcde6",
    "transitivity": "333ba060cba8a568f188808f4c4d2940a67ac70c64798cb291733443ed490cf0",
    "simnet-equiv": "c742dd21f98af38f6ae524b4768b6f139b51fe7b65fc6cd1dec84dd1f26a1ad7",
}


def test_every_suite_is_pinned():
    assert {name for name, _ in EXPECTED} == set(SUITES)


@pytest.mark.parametrize("name, seed", sorted(EXPECTED))
def test_report_bytes_unchanged(name, seed):
    report = run_suite(name, seed=seed, samples=SAMPLES)
    if report.outcomes:
        assert sum(report.outcomes.values()) == report.cases
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == EXPECTED[(name, seed)]


@pytest.mark.parametrize("name", sorted(DEFAULT_SCALE))
def test_default_scale_report_bytes_unchanged(name):
    report = run_suite(name, seed=0)
    assert report.params["samples"] == SUITES[name].samples
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == DEFAULT_SCALE[name]

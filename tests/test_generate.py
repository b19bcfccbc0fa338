import hashlib

import pytest

from liaison.checks import HOLDS, INAPPLICABLE, run_suite
from liaison.cli import main
from liaison.generate import PROFILES, generate_instances
from liaison.instancefile import parse_instance

# sha256 of `liaison gen --seed 1 --profile P --vars N` (default count 5); the
# benchmark's gen-wide and nonmonomial workloads are built from these files.
GEN_SEED_1 = {
    ("self-links", 4): "9eae45c65fa07f485211abd4adafa06fc256a80a52abbc7d20a3c09080b658db",
    ("self-links", 6): "811a7a9a7e7b0665b546f31f7cee8c68e5117d416ca30ff714c1b979885cd918",
    ("self-links", 8): "366c43388bf67712fd2aeead5d3d8c480f97e331eef8bda73ad0fa99a3f348c4",
    ("geometric-links", 4): "155dd34397e2db61c3711ccd6fd1b944a30ed4113cbcf93184f144bea734cf34",
    ("geometric-links", 6): "3b86d42deaffcedd56653ca6ad127b3b900e2cdb811ad67ebb12737cf1db26fa",
    ("geometric-links", 8): "e005077090ca7a5b037b819d07ab43e2f1081f7d9cdc62bbdf1b903b5dded358",
    ("monomial-ci", 4): "55db7492371aa0d5b375b24f031aa48937fca5331ef2e5e17b683cf3b13e1763",
    ("monomial-ci", 6): "13cad73170c1d01ac031f103b72b5cf42d1d0d1de82545f3e6a506109067802f",
    ("monomial-ci", 8): "50d433c97b2d08f8576921313e65b182e6384fa04c3169d56819eee962130a73",
}


@pytest.mark.parametrize("profile,nvars", sorted(GEN_SEED_1))
def test_gen_output_is_pinned(profile, nvars, capsys):
    assert main(["gen", "--seed", "1", "--profile", profile, "--vars", str(nvars)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SEED_1[profile, nvars]


def test_pins_cover_every_profile():
    assert set(PROFILES) == {profile for profile, _ in GEN_SEED_1}


def test_identical_seeds_are_byte_identical():
    for profile in PROFILES:
        a = generate_instances(17, profile, 3, 4)
        b = generate_instances(17, profile, 3, 4)
        assert a == b


def test_different_seeds_differ():
    a = generate_instances(1, "self-links", 4, 4)
    b = generate_instances(2, "self-links", 4, 4)
    assert a != b


def test_generated_files_reparse_and_reverify():
    for profile in PROFILES:
        text = generate_instances(5, profile, 2, 5)
        parsed = parse_instance(text)
        verdicts = run_suite(parsed)
        assert verdicts, profile
        for v in verdicts:
            assert v.status in (HOLDS, INAPPLICABLE), (profile, v.check, v.details)
        assert any(v.status == HOLDS for v in verdicts)


def test_geometric_profile_status_all_holds():
    text = generate_instances(11, "geometric-links", 3, 5)
    parsed = parse_instance(text)
    for v in run_suite(parsed):
        assert v.status == HOLDS, (v.check, v.details)


def test_monomial_ci_profile_shape():
    text = generate_instances(1, "monomial-ci", 4, 4)
    parsed = parse_instance(text)
    # the linking ideal is a complete intersection: coprime monomial gens
    for name, I in parsed.ideals.items():
        if not name.startswith("I"):
            continue
        supports = []
        for g in I.gens:
            supports.append({i for i, e in enumerate(g.terms[0][0]) if e})
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not supports[i] & supports[j]


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        generate_instances(1, "geometric-links", 1, 1)
    with pytest.raises(ValueError):
        generate_instances(1, "self-links", 0, 4)
    with pytest.raises(ValueError):
        generate_instances(1, "self-links", 1, 9)
    with pytest.raises(ValueError):
        generate_instances(1, "nope", 1, 4)

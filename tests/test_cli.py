import hashlib
import json

import pytest

from qtop.cli import main
from qtop.manifolds import desc_from_json, parse_desc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_lens(capsys):
    code, out, _ = run(capsys, "--format", "text", "homology", "--desc", "lens:5")
    assert code == 0 and out.strip() == "Z/5"


def test_homology_presentation_input(capsys):
    code, out, _ = run(
        capsys, "--format", "text", "homology", "--pres", "gens: a; rel: a a a"
    )
    assert code == 0 and out.strip() == "Z/3"


def test_homology_needs_exactly_one_input(capsys):
    for argv in (
        ("homology", "--desc", "lens:3", "--pres", "gens: a; rel: a a a a a"),
        ("homology",),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "text", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "--desc" in out.err and "--pres" in out.err


def test_walk_lab_refuses_negative_sizes(capsys):
    for argv in (
        ("walk", "mix", "--group", "psl2:5", "--steps", "-3"),
        ("walk", "montecarlo", "--desc", "bounded:2:0:1", "--p", "5", "--q", "41", "--d", "-1"),
        ("walk", "montecarlo", "--desc", "bounded:2:0:1", "--p", "5", "--q", "41", "--trials", "-3"),
    ):
        code, out, err = run(capsys, "--format", "text", *argv)
        assert code == 2 and out == "" and err.startswith("error[WalkUsageError]"), argv


def test_walk_prob_enumerate(capsys):
    code, out, _ = run(
        capsys, "--format", "text", "walk", "prob", "--q", "3", "--n", "2", "--m", "1",
        "--mode", "enumerate",
    )
    assert code == 0 and out.strip() == "1/4"


def test_invariant_dw_lens_s3(capsys):
    code, out, _ = run(
        capsys, "--format", "text", "invariant", "dw", "--desc", "lens:3", "--group", "S3"
    )
    assert code == 0 and out.strip() == "1/2"


def test_invariant_dw_tqft_cross_check(capsys, monkeypatch):
    code, out, _ = run(capsys, "invariant", "dw", "--desc", "lens:3", "--group", "S3")
    doc = json.loads(out)
    assert code == 0 and doc["tqftValue"] == doc["value"]
    # the TQFT route covers genus 1 only: a genus-2 description has no tqftValue
    code, out, _ = run(
        capsys, "invariant", "dw", "--desc", "mtorus:2:c2^-1*c3*c4", "--group", "S3"
    )
    assert code == 0 and "tqftValue" not in json.loads(out)

    def broken(desc, G):
        raise RuntimeError("broken TQFT route")

    # any other failure of the cross-check is an error, not a missing field
    monkeypatch.setattr("qtop.cli.dw_invariant_tqft", broken)
    code, out, err = run(capsys, "invariant", "dw", "--desc", "lens:3", "--group", "S3")
    assert code == 2 and out == "" and "error[RuntimeError]" in err


def test_walk_mix_refuses_non_prime_q(capsys):
    for q in ("6", "-5", "4"):
        code, _, err = run(
            capsys, "--format", "text", "walk", "mix", "--group", f"psl2:{q}", "--steps", "5"
        )
        assert code == 2 and "error[WalkUsageError]" in err


def test_invariant_rt_json_roundtrip(capsys):
    code, out, _ = run(capsys, "invariant", "rt", "--desc", "s3", "--p", "5", "--q", "41")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["isZero"] is False
    assert doc["qResidue"]["value"] != 0


def test_obstruct_exit_codes(capsys):
    code, out, _ = run(
        capsys, "obstruct", "--candidate", "bounded:2:1:1", "--target", "s3",
        "--p", "5", "--q", "41",
    )
    assert code == 1  # no obstruction: the solid torus embeds
    doc = json.loads(out)
    assert doc["verdict"] == "NO_OBSTRUCTION_FOUND"
    assert desc_from_json(doc["target"]) == parse_desc("s3")

    code, out, _ = run(
        capsys, "obstruct", "--candidate", "bounded:2:0:1", "--target", "s3",
        "--p", "5", "--q", "41", "--search", "--seed", "1", "--budget", "3000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "OBSTRUCTED" and doc["q"] == 41


def test_error_exit_code_and_stderr(capsys):
    code, _, err = run(capsys, "homology", "--desc", "banana:1")
    assert code == 2
    assert err.startswith("error[")


def test_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    code, _, err = run(capsys, "homology", "--desc", f"@{bad}")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_desc_file_input(tmp_path, capsys):
    doc = {"kind": "lens", "b": 7}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--format", "text", "homology", "--desc", f"@{path}")
    assert code == 0 and out.strip() == "Z/7"


def test_group_csv_input(tmp_path, capsys):
    from qtop.groups import builtin_group

    path = tmp_path / "z4.csv"
    path.write_text(builtin_group("Z4").to_csv())
    code, out, _ = run(
        capsys, "--format", "text", "invariant", "dw", "--desc", "lens:2",
        "--group", f"@{path}",
    )
    assert code == 0 and out.strip() == "1/2"  # Hom(Z/2, Z/4) has 2 elements


def test_fkb_s3_full(capsys):
    code, out, _ = run(capsys, "fkb", "--desc", "s3", "--p", "5")
    doc = json.loads(out)
    assert code == 0 and doc["isFull"] is True


def test_fkb_inner_solid_torus(capsys):
    code, out, _ = run(capsys, "fkb", "--desc", "bounded:2:1:1", "--p", "5", "--budget", "2")
    doc = json.loads(out)
    assert code == 0 and doc["kind"] == "inner-approximation" and doc["isFull"]


def test_walk_mix_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "walk", "mix", "--group", "psl2:5", "--steps", "10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,tv" and len(lines) == 12


def test_walk_montecarlo_smoke(capsys):
    code, out, _ = run(
        capsys, "walk", "montecarlo", "--desc", "bounded:2:0:1", "--p", "5",
        "--q", "41", "--d", "40", "--trials", "100", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kernelDim"] == 4 and doc["trials"] == 100


def test_rep_check(capsys):
    code, out, _ = run(capsys, "rep", "check", "--genus", "1", "--p", "5", "--words", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["braidRelations"] and doc["twistOrderP"] and doc["hermitian"]


def test_fixed_seed_runs_are_byte_identical(capsys):
    args = (
        "walk", "montecarlo", "--desc", "bounded:2:0:1", "--p", "5", "--q", "41",
        "--d", "30", "--trials", "50", "--seed", "4",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--output", str(target), "homology", "--desc", "lens:5"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["text"] == "Z/5"


# Exit code and sha256 of stdout for the README examples, five p = 7
# commands over letters, RT, the walk, the search and the sampled
# projective orders, the sampled hyperplane walk, a certificate whose
# two-entry nVector comes from boundary_vector_mod, and two genus-2
# fundamental groups whose words hold inverse twist letters (a mapping
# torus's DW count and a double's homology), three homology groups whose
# invariant factors need the Smith form's gcd/lcm order (a mapping torus
# with Z^3 + Z/10, a double with Z/6 + Z/6, a connected sum with
# Z + Z/12), the JSON DW report of lens:3 that carries tqftValue, and
# the JSON reports of homology (lens:5), the closed FKB ideal (s3), walk
# prob in enumerate and sample mode and walk mix, whose schemaVersion
# and command fields are stamped by one report envelope.
# A change that keeps results must keep these bytes; one that means to
# change them updates the digests and says which output moved and why.
CLI_DIGESTS = {
    "--format text homology --desc lens:5":
        (0, "076304e1afb07bf5ebb64dc1c97fc7909792e2a387a855bf3baa0f8613f966c7"),
    "--format text invariant dw --desc lens:3 --group S3":
        (0, "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d"),
    "invariant rt --desc s3 --p 5 --q 41":
        (0, "84fdea04ce09a8cb37593bc3593cd596cc14aec26054c4b36e80f4935e9a90ba"),
    "fkb --desc bounded:2:1:1 --p 5 --budget 3":
        (0, "5fcbb6e7551fe07d6eb56ea3381c5bc1eee7311c68ed6d229b97d6f58326c953"),
    "--format text walk prob --q 3 --n 2 --m 1 --mode enumerate":
        (0, "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2"),
    "--format csv walk mix --group psl2:5 --steps 200":
        (0, "ebb154c0f88f50708d2fe8293eb952367259db3da9d0e8d7262ad12e30779ffe"),
    "walk montecarlo --desc bounded:2:0:1 --p 5 --q 41 --d 200 --trials 2000 --seed 42":
        (0, "d0c0d3a4a92ce5a26eef476ae65b066b0cff9e2f2aa7e40d7bc67194543d7e38"),
    "rep check --genus 2 --p 5 --q 41":
        (0, "a9b61a200a9cf33f1747222adbb2747151496fde985758273ea0df3f06672942"),
    "obstruct --candidate bounded:2:0:1 --target s3 --p 5 --q 41 --search --seed 1":
        (0, "ee5703a07cf874fc4af1f29484c0bc5dc612266d2bbb79048b6beaa60c5631be"),
    "rep check --genus 1 --p 7 --q 29":
        (0, "aab24fb16a72c724831b772f54fab890bb5ce191dceac321019fa7381625213a"),
    "invariant rt --desc heegaard:2:c1*c3 --p 7 --q 113":
        (0, "0203e26cbbbc9c8394e90bf07a0d559688a62f4286c6471481ef3b5e8115542c"),
    "walk montecarlo --desc bounded:2:1:c1*c3 --p 7 --q 29":
        (0, "4eb31155f3f0b02d79941921b6525eaa147d1f2f810db886ea30082ee5969dfa"),
    "obstruct --candidate bounded:2:0:1 --target lens:3 --p 7 --q 29 --search --seed 2":
        (0, "c81e2d14062c564ccf99a337295f21061122e20741e0bf2cf588463968cbb84f"),
    "rep check --genus 2 --p 7 --q 29":
        (0, "6d61227e24de0c886f2c5e4b63226fe44860e569a84a73f78f7300de75d70232"),
    "--format text walk prob --q 3 --n 3 --m 1 --mode sample --trials 500 --seed 3":
        (0, "a9d55eb6d563ba5f5e6544efd08b00ea00ea33bacab8e5749dc55d78a33495d1"),
    "obstruct --candidate bounded:2:1:c1*c3 --target s3 --p 5 --q 41":
        (1, "c9b3695755c9c9d6266d659529ccfb8e1580f8cfabb9defcd11732d990de6b89"),
    "--format text invariant dw --desc mtorus:2:c2^-1*c3*c4 --group S3":
        (0, "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    "--format text homology --desc double:(bounded:2:1:c3^-1*c1)":
        (0, "ec39b67830c0c34d71b0b6bf1d1c424eb7caab9222eb401fdaef044cf2145e9b"),
    "--format text homology --desc mtorus:2:c1^2*c3*c5^-4":
        (0, "6ef075141e7b360e2a8202f52cf40017861f153dbf073eda8638a9faae091a79"),
    "--format text homology --desc double:(bounded:2:0:c1^3*c3^2)":
        (0, "5135d39cb6df4b79bd7b16fb4550d8c4d9219af94e13843169909c1ddabce9fe"),
    "--format text homology --desc sum:(lens:4),(heegaard:2:c2^2*c3^3*c4^5)":
        (0, "ec534fecf20062f5a6df483fd7696410a135c2800c997d066f990c7f4a991b21"),
    "invariant dw --desc lens:3 --group S3":
        (0, "6ed102043a1fba3634aa0c96e6a933fc8a1cd3909f25c3e0e9ac9f417a235b01"),
    "homology --desc lens:5":
        (0, "265136b0797e264677c7cb91227ae6bf9f0275e3f933d3e68de17f209f4859a4"),
    "fkb --desc s3 --p 5":
        (0, "dadd43a8646081c3c675a36a9c4a6620332ffbc6ff8884a8f1087a1929cdd79c"),
    "walk prob --q 3 --n 2 --m 1 --mode enumerate":
        (0, "b22d8c85b1b4c5284525108c9d4ee53530c453cd9d620b0386c344129c587e31"),
    "walk prob --q 3 --n 3 --m 1 --mode sample --trials 500 --seed 3":
        (0, "52e19db5a29d446262125483c8267ee588468b390a53c4f8d89c39f90891f6f1"),
    "walk mix --group psl2:5 --steps 20":
        (0, "11572a3820b2d97c27b8f12b758ba55a8a05ac6ace6a2e05664497b14d343411"),
}


@pytest.mark.parametrize("command", CLI_DIGESTS)
def test_cli_output_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_DIGESTS[command]

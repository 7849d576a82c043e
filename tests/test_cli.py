"""CLI tests: dispatch, exit codes, reproducible output."""

import hashlib
import json
import time

import pytest

from liaison.cli import EXIT_OK, EXIT_PARSE, EXIT_VERIFY, _json_text, main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def ideal_obj(variables, generators, prime=32003):
    return {"ring": {"vars": list(variables), "prime": prime},
            "generators": generators}


@pytest.fixture
def ci_file(tmp_path):
    return write(tmp_path, "ci.json",
                 ideal_obj("xyzw", ["x^2 + y*z", "x*y*z + w^3"]))


def test_hvector_ci(ci_file, capsys):
    assert main(["hvector", ci_file]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["h_vector"] == [1, 2, 2, 1]
    assert out["degree"] == 6
    assert out["cohen_macaulay"] is True
    assert out["prime"] == 32003 and out["seed"] == 0


def test_hvector_negative_cm_test_is_inconclusive(tmp_path, capsys):
    # a plane union a line is mixed, so not CM, but a negative randomized
    # test proves nothing
    path = write(tmp_path, "mixed.json", ideal_obj("xyzw", ["x*y", "y*w"]))
    assert main(["hvector", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["cohen_macaulay"] == "inconclusive"
    assert main(["hvector", path, "--format", "text"]) == EXIT_OK
    assert "cohen_macaulay: inconclusive" in capsys.readouterr().out


def test_unit_ideal_rejected(tmp_path, capsys):
    path = write(tmp_path, "unit.json", ideal_obj("xy", ["x", "y", "x"]))
    # saturating the irrelevant maximal ideal is the caller's business; a
    # literal unit ideal comes from a constant generator string
    path = write(tmp_path, "unit.json", ideal_obj("xy", ["1"]))
    assert main(["hvector", path]) == EXIT_PARSE


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hvector", str(bad)]) == EXIT_PARSE
    assert main(["nosuchcommand", str(bad)]) == EXIT_PARSE


GOOD = ideal_obj("xyzw", ["x^2 + y*z", "x*y*z + w^3"])
POINT = {"points": [{"coords": [1, 0, 0, 0], "mult": 2}]}
CONFIG_ERRORS = {
    "hvector_prime_4": (["hvector", "--prime", "4"], GOOD),
    # past the range where the primality test is exact
    "hvector_prime_huge_composite": (
        ["hvector", "--prime", str((2 ** 31 - 1) * (2 ** 61 - 1))], GOOD),
    "ring_without_vars": (["hvector"], {"ring": {"prime": 32003},
                                        "generators": ["x"]}),
    "duplicate_vars": (["hvector"], ideal_obj("xyx", ["x*y"])),
    "ring_not_an_object": (["hvector"], {"ring": 5, "generators": ["x"]}),
    "input_not_an_object": (["hvector"], [1, 2]),
    "negative_exponent": (["hvector"], {"ring": {"vars": ["x", "y"]},
                                        "monomials": [[-1, 2]]}),
    "fatpoints_prime_4": (["fatpoints", "--prime", "4"], POINT),
    "embed_var_taken": (["embed", "--var", "w"], GOOD),
    # lift compares whole Hilbert numerators: --bound is no flag of any
    # subcommand, so each of these is an unknown argument
    "lift_bound": (["lift", "--bound", "3"],
                   {"ring": {"vars": ["x", "y"]},
                    "monomials": [[2, 0], [0, 2]]}),
    "lift_negative_bound": (["lift", "--bound", "-3"],
                            {"ring": {"vars": ["x", "y"]},
                             "monomials": [[2, 0], [0, 2]]}),
    "hvector_bound": (["hvector", "--bound", "3"], GOOD),
    "generator_not_a_string": (["hvector"], {"ring": {"vars": ["x", "y"]},
                                             "generators": [5]}),
    "link_input_not_an_object": (["link"], 5),
    "scheme_not_an_object": (["fatpoints"], [1, 2]),
    "points_not_a_list": (["fatpoints"], {"points": 5}),
    "point_not_an_object": (["fatpoints"], {"points": [[1, 0, 0, 0]]}),
    "coords_not_a_list": (["fatpoints"], {"points": [{"coords": "abcd"}]}),
    "mult_not_a_number": (["fatpoints"], {"points": [
        {"coords": [1, 0, 0, 0], "mult": "two"}]}),
    "mult_not_an_integer": (["fatpoints"], {"points": [
        {"coords": [1, 0, 0, 0], "mult": 2.9}]}),
    "mult_true": (["fatpoints"], {"points": [
        {"coords": [1, 0, 0, 0], "mult": True}]}),
    "coords_true": (["fatpoints"], {"points": [
        {"coords": [True, 0, 0, 0], "mult": 2}]}),
    "fatpoints_prime_0": (["fatpoints", "--prime", "0"], POINT),
    "witness_over_another_prime": (["embed"], {
        "ideal": GOOD,
        "witness": ideal_obj("xyzwt", ["x^2 + y*z", "x*y*z + w^3"], 101)}),
    "hvector_prime_not_an_int": (["hvector"],
                                 ideal_obj("xy", ["x^2", "y"], 7.0)),
    "double_step_prime_not_an_int": (["fatpoints", "--double-step"], {
        "prime": 7.0, "points": [{"coords": [1, 0, 0, 0], "mult": 2},
                                 {"coords": [0, 1, 0, 0], "mult": 1}]}),
    # nothing to step: no point, or a reduced first point
    "double_step_no_points": (["fatpoints", "--double-step"], {"points": []}),
    "double_step_reduced_first_point": (["fatpoints", "--double-step"], {
        "points": [{"coords": [1, 0, 0, 0], "mult": 1},
                   {"coords": [0, 1, 0, 0], "mult": 2}]}),
    "link_other_over_other_variables": (["link"], {
        "ideal": GOOD, "f": "w", "other": ideal_obj("xyz", ["x", "y"])}),
    "link_linking_over_another_ring": (["link"], {
        "ideal": GOOD, "linking": ideal_obj("xyzw", ["x^2 + y*z"], 101)}),
    "link_inhomogeneous_multiplier": (["link"], {
        "ideal": GOOD, "f": "z + 1", "other": GOOD}),
    "link_constant_multiplier": (["link"], {
        "ideal": GOOD, "f": "3", "other": GOOD}),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_configuration_error_exit_code(tmp_path, capsys, name):
    (command, *flags), obj = CONFIG_ERRORS[name]
    argv = [command, write(tmp_path, "input.json", obj)] + flags
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize("name", ["double_step_no_points",
                                  "double_step_reduced_first_point"])
def test_scheme_refused_by_the_double_step_reduces_without_it(tmp_path,
                                                               name):
    _, obj = CONFIG_ERRORS[name]
    assert main(["fatpoints", write(tmp_path, "input.json", obj)]) == EXIT_OK


def test_hvector_over_a_large_prime(ci_file, capsys):
    # trial division would take about 10^9 steps to prove 2^61 - 1 prime
    prime = 2 ** 61 - 1
    start = time.perf_counter()
    assert main(["hvector", ci_file, "--prime", str(prime)]) == EXIT_OK
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert out["prime"] == prime and out["h_vector"] == [1, 2, 2, 1]


def test_lemma_identity_link(tmp_path, capsys):
    path = write(tmp_path, "lemma.json", {
        "ideal": ideal_obj("xyz", ["x*y"]),
        "f": "z",
        "other": ideal_obj("xyz", ["x", "y"]),
    })
    assert main(["link", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "identity holds"


def test_ci_link_report(tmp_path, capsys):
    path = write(tmp_path, "link.json", {
        "ideal": ideal_obj("xyzw",
                           ["x*z - y^2", "x*w - y*z", "y*w - z^2"]),
        "linking": ideal_obj("xyzw", ["x*z - y^2", "x*w - y*z"]),
    })
    assert main(["link", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["involution"] is True
    assert out["geometric"] is True
    assert out["degrees"] == {"ideal": 3, "residual": 1, "linking": 4}


def test_fatpoints_reduction(tmp_path, capsys):
    path = write(tmp_path, "scheme.json",
                 {"points": [{"coords": [1, 0, 0, 0], "mult": 2}]})
    assert main(["fatpoints", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["final_reduced"] is True
    assert out["verdict"] == "ok"


def test_lift_roundtrip_and_failure_code(tmp_path, capsys):
    good = write(tmp_path, "m.json",
                 {"ring": {"vars": ["x", "y"], "prime": 32003},
                  "monomials": [[2, 0], [1, 1], [0, 2]]})
    assert main(["lift", good]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["point_count"] == 3

    small = write(tmp_path, "small.json",
                  {"ring": {"vars": ["x", "y"], "prime": 2},
                   "monomials": [[3, 0]]})
    assert main(["lift", small]) == EXIT_PARSE


def test_embed_ci(tmp_path, capsys):
    path = write(tmp_path, "embed.json",
                 ideal_obj("xyzw", ["x^2 + y*z", "w^3"]))
    assert main(["embed", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["step"]["checks"]["hilbert_preserved"] is True


def test_embed_without_witness_fails_verification(tmp_path, capsys):
    path = write(tmp_path, "embed2.json",
                 ideal_obj("xyzw", ["x*z - y^2", "x*w - y*z", "y*w - z^2"]))
    assert main(["embed", path]) == EXIT_VERIFY


def test_byte_identical_output(tmp_path, ci_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["hvector", ci_file, "--out", str(out1)]) == EXIT_OK
    assert main(["hvector", ci_file, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_double_step_output_is_byte_identical(tmp_path):
    path = write(tmp_path, "scheme.json",
                 {"points": [{"coords": [1, 0, 0, 0], "mult": 2},
                             {"coords": [0, 1, 0, 0], "mult": 1}]})
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["fatpoints", path, "--double-step", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_json_text_matches_json_dumps():
    # enough chunks for several joined slices
    report = {"seed": 0, "steps": [{"kind": "k%d" % i, "ok": i % 2 == 0,
                                    "data": [i, None, "x", {"b": 1, "a": []}]}
                                   for i in range(2000)]}
    assert _json_text(report) == json.dumps(report, indent=2,
                                            sort_keys=True) + "\n"


def test_seed_changes_are_echoed(ci_file, capsys):
    assert main(["hvector", ci_file, "--seed", "7"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 7


def test_text_format(ci_file, capsys):
    assert main(["hvector", ci_file, "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "h_vector" in text and "{" not in text


# Seed-0 outputs of fixed inputs, pinned by the sha256 of the bytes written:
# a change that keeps reduced Groebner bases, verdicts and exit codes keeps
# every one of them.
COLON_I = ideal_obj("xyzw", ["x^2 + y*z", "x*y*z + w^3"])
COLON_J = ideal_obj("xyzw", ["x^2 + y*z", "x*y*z + w^3", "y^2 - z*w"])
CUBIC = ["x*z - y^2", "x*w - y*z", "y*w - z^2"]
DIGEST_CASES = {
    "link_colon_w": (
        ["link"], {"ideal": COLON_I, "f": "w", "other": COLON_J},
        EXIT_OK,
        "ce25be8c504b8a7225e5ecc8e1f602bcdd13e15ca7ec78ec8aec6993fc41e766"),
    "link_colon_general": (
        ["link"], {"ideal": COLON_I, "f": "3*x + 5*y - 7*z + 11*w",
                   "other": COLON_J},
        EXIT_OK,
        "365127c1b0786f6496023db4a2dc93cbbdcdef85f0f8c802f98e14107b1897c5"),
    "link_cubic": (
        ["link"], {"ideal": ideal_obj("xyzw", CUBIC),
                   "linking": ideal_obj("xyzw", CUBIC[:2])},
        EXIT_OK,
        "eb02744f85f51bc7f54a92be6c995066d727d547ae43771ba1feb25d2b6e50c3"),
    "lift": (
        ["lift"], {"ring": {"vars": ["x", "y", "z"], "prime": 32003},
                   "monomials": [[2, 0, 0], [0, 3, 0], [0, 0, 2],
                                 [1, 1, 1]]},
        EXIT_OK,
        "a8369177406015936ab374fa5aa8b781e3165a5a01ba2c97ecdfced76e741393"),
    "hvector": (
        ["hvector"], ideal_obj("xyzw", ["x^2 + y*z", "x*y*z + w^3"]),
        EXIT_OK,
        "7141d4fb8b89237f046dc83b9cfdc492ea6d18f47c68dcb8c06c89fa8eb5d03d"),
    "embed": (
        ["embed"], ideal_obj("xyzw", ["x^2 + y*z", "w^3"]), EXIT_OK,
        "09f9dfde0b6ff3a5cb0af05ca503506ddac499fbecfd08cb0349105ebbbffa56"),
    "fatpoints_2": (
        ["fatpoints"], {"points": [{"coords": [1, 0, 0, 0], "mult": 2}]},
        EXIT_OK,
        "2e39d0b68a3f01f5eeaac88a745bd7290d4fae810c4a044fdd6cd5fc8a5a77ab"),
    "fatpoints_double_2_1": (
        ["fatpoints", "--double-step"],
        {"points": [{"coords": [1, 0, 0, 0], "mult": 2},
                    {"coords": [0, 1, 0, 0], "mult": 1}]},
        EXIT_OK,
        "6e6f0e44b5441e5f81224ea5234c9d9c59a723bff291cc0690687806eddda7e4"),
    "fatpoints_double_3_1": (
        ["fatpoints", "--double-step"],
        {"points": [{"coords": [1, 0, 0, 0], "mult": 3},
                    {"coords": [0, 1, 0, 0], "mult": 1}]},
        EXIT_OK,
        "9335a81629e2fa9e9495e3232154965666719c7fb8e8a50d0cae52d35ecae251"),
    # three redraw rounds in the second link: pins the redraw order
    "fatpoints_double_2_2": (
        ["fatpoints", "--double-step"],
        {"points": [{"coords": [1, 0, 0, 0], "mult": 2},
                    {"coords": [0, 1, 0, 0], "mult": 2}]},
        EXIT_OK,
        "c8a3b336659325c4c83ae1ea543060cfeda8429da21fda4c43ef709c9d562e48"),
}


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_output_digest(tmp_path, name):
    (command, *flags), obj, code, digest = DIGEST_CASES[name]
    out = tmp_path / "out.json"
    argv = [command, write(tmp_path, "input.json", obj)] + flags
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

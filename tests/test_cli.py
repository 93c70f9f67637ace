import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog import boolean_algebra, right_three
from skewstone import SizeCapError, StructuralError, jsonio, make_space
from skewstone.morphisms_duality import dual_of_hom, identity_hom, validate_space_morphism
from skewstone.spaces_sections import dual_algebra, random_space
from skewstone.cli import COMMANDS, OPTIONS, build_parser, main
from skewstone.lattice_sections import is_lattice_section


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(jsonio.dumps(jsonio.algebra_to_dict(right_three())))
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(jsonio.dumps(jsonio.space_to_dict(make_space(2, 1, [0, 0]))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def bad_three():
    """right_three with meet(1, 2) moved to 1: the certificate refuses it
    at its digits, and the exhaustive report names a failed law."""
    obj = jsonio.algebra_to_dict(right_three())
    obj["meet"] = obj["meet"].tolist()
    obj["meet"][1][2] = 1
    return obj


def bad_left_nine():
    """A left-banded section algebra on 9 elements with one meet entry
    moved, and the algebra it was moved from."""
    good = dual_algebra(random_space(2, 2, 5, "left"))[0]
    assert good.n == 9
    bad = jsonio.algebra_to_dict(good)
    bad["meet"] = bad["meet"].tolist()
    bad["meet"][1][2] = (bad["meet"][1][2] + 1) % 9
    return bad, good


class TestExitCodes:
    def test_valid_algebra_exits_zero(self, capsys, three_file):
        code, out = run(capsys, "validate", three_file)
        assert code == 0
        assert out.strip() == "ok"

    def test_mutated_algebra_exits_one_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dumps(bad_three()))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "validate", str(path))[0] == 2

    def test_missing_file_exits_two(self, capsys):
        assert run(capsys, "validate", "/nonexistent/nowhere.json")[0] == 2

    @pytest.mark.parametrize("command, message", [
        pytest.param("validate", "argument --format: invalid choice: 'dot'", id="validate"),
        pytest.param("roundtrip", "argument --format: invalid choice: 'dot'", id="roundtrip"),
        # export-dot writes DOT and takes no --format at all
        pytest.param("export-dot", "unrecognized arguments: --format dot", id="export-dot"),
    ])
    def test_dot_format_is_a_usage_error(self, capsys, three_file, command, message):
        # --format dot printed the text bytes
        with pytest.raises(SystemExit) as exc:
            main([command, three_file, "--format", "dot"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err

    def test_wrong_table_shape_exits_one(self, capsys, tmp_path):
        obj = jsonio.algebra_to_dict(right_three())
        obj["meet"] = obj["meet"].tolist()[:2]
        path = tmp_path / "shape.json"
        path.write_text(jsonio.dumps(obj))
        assert run(capsys, "validate", str(path))[0] == 1

    def test_non_integer_entry_exits_one(self, capsys, tmp_path):
        # 1.9 used to be truncated to 1, which left a valid table
        algebra = jsonio.algebra_to_dict(right_three())
        algebra["meet"] = algebra["meet"].tolist()
        algebra["meet"][1][1] = 1.9
        space = {"E": 2.5, "B": 1, "p": [0, 0]}
        for name, obj in (("algebra", algebra), ("space", space)):
            path = tmp_path / f"{name}.json"
            path.write_text(jsonio.dumps(obj))
            assert run(capsys, "validate", str(path)) == (1, "")

    @pytest.mark.parametrize("obj, command", [
        ({"n": 1, "zero": False, "meet": [[False]], "join": [[0]], "diff": [[0]], "cap": [[0]]},
         "validate"),
        ({"n": True, "zero": 0, "meet": [[0]], "join": [[0]], "diff": [[0]], "cap": [[0]]},
         "validate"),
        ({"E": 1, "B": True, "p": [0]}, "dualize"),
        ({"E": 2, "B": 1, "p": [0, False]}, "validate"),
        ({"E": 2, "B": 1, "p": [0, 0], "band": [[0, True], [0, 1]]}, "validate"),
        ({"g": {"domain": [0], "values": [False]}, "h": {"domain": [0], "values": [0]},
          "source": {"E": 1, "B": 1, "p": [0]}, "target": {"E": 1, "B": 1, "p": [0]}},
         "validate"),
        ({"map": [0, True, 2], "source": "three.json", "target": "three.json"}, "validate"),
    ], ids=["algebra_zero_and_table", "algebra_n", "space_B", "space_p", "space_band",
            "partial_map", "hom_map"])
    def test_bools_are_not_integers(self, capsys, three_file, tmp_path, obj, command):
        # true and false once read as 1 and 0: each of these used to pass
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(obj))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.endswith("'bool' object cannot be interpreted as an integer\n")

    def test_negative_base_size_exits_one(self, capsys, tmp_path):
        # it used to validate ok, and roundtrip printed "B": -1
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"E": 0, "B": -1, "p": []}))
        for argv in (["validate"], ["roundtrip", "--format", "json"]):
            code = main(argv + [str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", "error: B = -1 is negative\n")

    @pytest.mark.parametrize("obj, message", [
        ({"n": 1, "zero": 1, "meet": [[0]], "join": [[0]], "diff": [[0]], "cap": [[0]]},
         "zero index 1 out of range"),
        ({"n": 0, "zero": 0, "meet": [], "join": [], "diff": [], "cap": []},
         "carrier must be non-empty"),
    ], ids=["zero_is_n", "n_is_0"])
    def test_algebra_at_the_carrier_boundary_exits_one(self, capsys, tmp_path, obj, message):
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(obj))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("side, part", [
        ("g", {"domain": [0, 2], "values": [0, 1]}), ("g", {"domain": [0, 1], "values": [0, 2]}),
        ("h", {"domain": [0, 1], "values": [0, 0]}), ("h", {"domain": [0], "values": [1]}),
    ], ids=["g_domain", "g_values", "h_domain", "h_values"])
    def test_morphism_value_equal_to_the_size_exits_one(self, capsys, tmp_path, side, part):
        # two points over one base point on each side: 2 and 1 are the sizes
        space = {"E": 2, "B": 1, "p": [0, 0]}
        obj = {"g": {"domain": [0, 1], "values": [0, 1]}, "h": {"domain": [0], "values": [0]},
               "source": space, "target": space}
        obj[side] = part
        message = "morphism maps reference out-of-range points"
        with pytest.raises(StructuralError) as err:
            validate_space_morphism(jsonio.morphism_from_dict(obj))
        assert str(err.value) == message
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps(obj))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")

    def test_identity_hom_validates(self, capsys, three_file, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(jsonio.dumps({"map": [0, 1, 2], "source": "three.json",
                                      "target": jsonio.algebra_to_dict(right_three())}))
        assert run(capsys, "validate", str(path)) == (0, "ok\n")

    def test_broken_hom_exits_one_with_witness(self, capsys, three_file, tmp_path):
        path = tmp_path / "collapse.json"
        path.write_text(jsonio.dumps({"map": [0, 1, 1], "source": "three.json",
                                      "target": "three.json"}))
        assert run(capsys, "validate", str(path)) == (1, "FAIL preserves_cap witness=(1, 2)\n")
        # the two algebras are certified valid, so a cap below their n changes nothing
        assert run(capsys, "validate", "--max-size", "2", str(path)) == (
            1, "FAIL preserves_cap witness=(1, 2)\n")

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"E": 1, "B": 1, "p": [0], "name": "caf\xe9"}')
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")

    def test_json_nested_too_deep_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: nested too deep")

    def test_over_max_size_exits_three(self, capsys, three_file, tmp_path):
        # --max-size caps only the exhaustive report of an algebra that the
        # certificate refuses: a valid algebra above it still validates
        assert run(capsys, "validate", "--max-size", "2", three_file) == (0, "ok\n")
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dumps(bad_three()))
        code = main(["validate", "--max-size", "2", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("error: limit: n=3 fails certificate check digits;"
                                " the exhaustive report is capped at n=2\n")

    def test_section_algebra_past_the_default_cap(self, capsys, tmp_path):
        # fibers (2, 3, 4, 4): n = 300, above the default --max-size of 256
        p = [b for b, size in enumerate((2, 3, 4, 4)) for _ in range(size)]
        obj = jsonio.algebra_to_dict(dual_algebra(make_space(len(p), 4, p))[0])
        path = tmp_path / "n300.json"
        path.write_text(jsonio.dumps(obj))
        assert run(capsys, "validate", str(path)) == (0, "ok\n")
        obj["cap"] = obj["cap"].tolist()
        obj["cap"][5][10] = 0                # one entry: cap is no longer commutative
        path.write_text(jsonio.dumps(obj))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("error: limit: n=300 fails certificate check cap;"
                                " the exhaustive report is capped at n=256\n")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "bad"), ("section", "bad"), ("roundtrip", "bad"), ("export-dot", "bad"),
        ("homs", "bad", "good"), ("homs", "good", "bad"),
        ("validate", "bad_to_good"), ("validate", "good_to_bad"),
    ], ids=["spectrum", "section", "roundtrip", "export_dot", "homs_from_bad", "homs_to_bad",
            "hom_from_bad", "hom_to_bad"])
    def test_invalid_algebra_is_refused_before_anything_is_derived(self, capsys, tmp_path,
                                                                   argv):
        # a left-banded algebra on 9 elements with one meet entry moved: every
        # command names the exhaustive report's first failure, and prints nothing
        bad, good = bad_left_nine()
        files = {"good": jsonio.algebra_to_dict(good), "bad": bad,
                 "bad_to_good": {"map": list(range(9)), "source": "bad.json",
                                 "target": "good.json"},
                 "good_to_bad": {"map": list(range(9)), "source": "good.json",
                                 "target": "bad.json"}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(jsonio.dumps(obj))
        code = main([argv[0]] + [str(tmp_path / f"{name}.json") for name in argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == ("error: input algebra is invalid: "
                                "('meet_associative', (1, 2, 7))\n")

    @pytest.mark.parametrize("command", ["validate", "decompose"])
    @pytest.mark.parametrize("source, target, g, failure", [
        # source, then target, not surjective: base point 1 has no fiber
        ({"E": 1, "B": 2, "p": [0]}, {"E": 1, "B": 1, "p": [0]}, [0],
         "('p_surjective', (1,))"),
        ({"E": 1, "B": 1, "p": [0]}, {"E": 1, "B": 2, "p": [0]}, [0],
         "('p_surjective', (1,))"),
        # a two-point semilattice band on both sides, which is not rectangular
        ({"E": 2, "B": 1, "p": [0, 0], "band": [[0, 0], [0, 1]]},
         {"E": 2, "B": 1, "p": [0, 0], "band": [[0, 0], [0, 1]]}, [0, 1],
         "('band_rectangular', (1, 0, 1))"),
    ], ids=["source_not_surjective", "target_not_surjective", "band_not_rectangular"])
    def test_morphism_between_invalid_spaces_exits_one(self, capsys, tmp_path, command,
                                                       source, target, g, failure):
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps({"g": {"domain": g, "values": g},
                                    "h": {"domain": [0], "values": [0]},
                                    "source": source, "target": target}))
        out_dir = tmp_path / "parts"
        code = main([command, str(path)] + (["--out", str(out_dir)] if command == "decompose"
                                            else []))
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: input space is invalid: {failure}\n"
        assert not out_dir.exists()


    @pytest.mark.parametrize("band, witnesses", [
        ([[0, 1], [0, 1]], []),
        ([[0, 0], [1, 1]], [(0, 1), (1, 0)]),
        # the grid moves the row with the left operand: the pairs from two rows fail
        ([[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]],
         [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]),
    ], ids=["right", "left", "grid"])
    @pytest.mark.parametrize("plain_is_source", [True, False], ids=["from_plain", "to_plain"])
    def test_plain_space_is_read_as_the_right_band(self, capsys, tmp_path, band, witnesses,
                                                   plain_is_source):
        # one fiber, g the identity on it: it preserves the band only when
        # the band is the right band x y = y, the one the plain space carries
        e = len(band)
        plain = {"E": e, "B": 1, "p": [0] * e}
        banded = dict(plain, band=band)
        path = tmp_path / "morphism.json"
        path.write_text(json.dumps({
            "g": {"domain": list(range(e)), "values": list(range(e))},
            "h": {"domain": [0], "values": [0]},
            "source": plain if plain_is_source else banded,
            "target": banded if plain_is_source else plain}))
        out = "".join(f"FAIL band_preserved witness={w}\n" for w in witnesses) or "ok\n"
        assert run(capsys, "validate", str(path)) == (1 if witnesses else 0, out)
        code = main(["decompose", str(path), "--out", str(tmp_path / "parts")])
        captured = capsys.readouterr()
        assert code == (1 if witnesses else 0)
        if witnesses:
            assert captured.err == ("error: input morphism is invalid: "
                                    f"('band_preserved', {witnesses[0]})\n")
            assert not (tmp_path / "parts").exists()


def full_argv(name, tmp_path, algebra, space, morphism):
    """An invocation of the command that exits 0 and passes every option the
    command reads."""
    return {
        "validate": ["validate", algebra, "--max-size", "9", "--format", "json"],
        "spectrum": ["spectrum", algebra, "--max-size", "9"],
        "dualize": ["dualize", space, "--sections"],
        "roundtrip": ["roundtrip", algebra, "--max-size", "9", "--format", "json"],
        "homs": ["homs", algebra, algebra, "--max-size", "9", "--format", "json"],
        "decompose": ["decompose", morphism, "--out", str(tmp_path / "parts")],
        "section": ["section", algebra, "--max-size", "9"],
        "generate": ["generate", "--seed", "1", "--out", str(tmp_path / "gen"), "--size-b", "1",
                     "--max-fiber", "2", "--band", "product", "--k-left", "1", "--k-right", "2",
                     "--count", "1"],
        "export-dot": ["export-dot", algebra, "--max-size", "9"],
    }[name]


class RecordingNamespace(argparse.Namespace):
    """An argparse namespace that records the name of every attribute read
    from it, in its own attribute _read."""

    def __getattribute__(self, name):
        object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


def option_dests(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {option: action.dest for action in sub.choices[name]._actions
            for option in action.option_strings if option not in ("-h", "--help")}


class TestOneTable:
    """cli.COMMANDS is the CLI: each command takes the files and options
    its row lists, every file through one reader that refuses a kind the
    command does not take before it builds anything."""

    @pytest.fixture
    def argv_of(self, tmp_path, three_file, space_file):
        path = tmp_path / "morphism.json"
        path.write_text(jsonio.dumps(jsonio.morphism_to_dict(dual_of_hom(identity_hom(
            right_three())))))
        return lambda name: full_argv(name, tmp_path, three_file, space_file, str(path))

    @pytest.fixture
    def kind_files(self, tmp_path, three_file, space_file):
        """One file of each kind and one of no kind.  The parts of the hom
        and of the morphism are files that do not exist, so reading either
        exits 2 unless it is refused first."""
        morphism = jsonio.morphism_to_dict(dual_of_hom(identity_hom(right_three())))
        morphism.update(source="missing.json", target="missing.json")
        files = {"algebra": three_file, "space": space_file}
        for kind, obj in (("morphism", morphism), ("shapeless", {"x": 1}),
                          ("hom", {"map": [0, 1, 2], "source": "missing.json",
                                   "target": "missing.json"})):
            (tmp_path / f"{kind}.json").write_text(jsonio.dumps(obj))
            files[kind] = str(tmp_path / f"{kind}.json")
        return files

    def test_the_parser_offers_the_options_of_the_table(self):
        slots = {(name, option) for name in COMMANDS for option in option_dests(name)}
        assert slots == {(name, option) for name, command in COMMANDS.items()
                         for option in command.options}
        assert len(slots) == 19

    @pytest.mark.parametrize("name", COMMANDS)
    def test_the_handler_reads_each_of_its_options(self, capsys, argv_of, name):
        command = COMMANDS[name]
        cfg = build_parser().parse_args(argv_of(name), namespace=RecordingNamespace())
        cfg.paths = tuple(getattr(cfg, file) for file in command.files)
        cfg._read.clear()
        assert command.handler(cfg) == 0
        capsys.readouterr()
        assert set(option_dests(name).values()) <= cfg._read

    @pytest.mark.parametrize("name", COMMANDS)
    def test_an_option_the_command_does_not_read_is_refused(self, capsys, argv_of, name):
        assert run(capsys, *argv_of(name))[0] == 0
        others = [option for option in OPTIONS if option not in COMMANDS[name].options]
        assert len(others) == len(OPTIONS) - len(COMMANDS[name].options)
        for option in others:
            extra = [option] if OPTIONS[option].get("action") == "store_true" else [option, "1"]
            with pytest.raises(SystemExit) as exc:
                main(argv_of(name) + extra)
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert captured.err.endswith(f": error: unrecognized arguments: {' '.join(extra)}\n")

    @pytest.mark.parametrize("argv, stray", [
        (["--seed", "3", "--out", "x", "--format", "json"], "--seed 3"),
        (["--sections", "--seed", "3"], "--sections"),
        (["--bogus", "3"], "--bogus"),
    ])
    def test_a_stray_option_is_named_under_the_command(self, capsys, three_file, argv, stray):
        # argparse reads a stray option's value as the command's file; the
        # command's parser names the option, not the real file
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", *argv, three_file])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: skewstone spectrum [-h]")
        assert captured.err.endswith(
            f"\nskewstone spectrum: error: unrecognized arguments: {stray}\n")

    @pytest.mark.parametrize("name", ["decompose", "generate"])
    def test_out_is_required(self, capsys, argv_of, name):
        argv = argv_of(name)
        at = argv.index("--out")
        with pytest.raises(SystemExit) as exc:
            main(argv[:at] + argv[at + 2:])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith("error: the following arguments are required: --out\n")

    @pytest.mark.parametrize("name", [name for name, c in COMMANDS.items() if c.files])
    def test_a_kind_the_command_does_not_take_is_refused(self, capsys, tmp_path, kind_files,
                                                        name):
        command = COMMANDS[name]
        out = ["--out", str(tmp_path / "parts")] if "--out" in command.options else []
        refused = 0
        for at in range(len(command.files)):
            for kind in ("algebra", "space", "morphism", "hom", "shapeless"):
                if kind in command.kinds:
                    continue
                paths = [kind_files["algebra"]] * len(command.files)
                paths[at] = kind_files[kind]
                code = main([name, *paths, *out])
                captured = capsys.readouterr()
                message = ("object matches no known artifact shape" if kind == "shapeless" else
                           f"{name} reads {' or '.join(command.kinds)} files, not {kind} files")
                assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
                refused += 1
        assert refused == len(command.files) * (5 - len(command.kinds))
        assert not (tmp_path / "parts").exists()


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestBaseCap:
    """A base past both E and MAX_CARRIER cannot be covered by p, and is
    refused before any per-base-point work."""

    def test_make_space_refuses_a_base_past_the_cap(self):
        with pytest.raises(SizeCapError, match="MAX_CARRIER = 4096"):
            make_space(2, 10 ** 9, [0, 1])
        with pytest.raises(SizeCapError, match="MAX_CARRIER = 4096"):
            make_space(1, 4097, [0])
        for e, b in ((1, 4096), (1, 2), (0, 1), (4097, 4097)):
            assert make_space(e, b, [0] * e).size_b == b

    def test_every_command_that_reads_a_space_exits_three(self, tmp_path):
        # each child limits its own address space to 2 GiB; the space used
        # to end validate, dualize and roundtrip in a MemoryError traceback
        big, small, empty = ({"E": 2, "B": 10 ** 9, "p": [0, 1]}, {"E": 1, "B": 1, "p": [0]},
                             {"domain": [], "values": []})
        files = {"space": big,
                 "from_big": {"g": empty, "h": empty, "source": big, "target": small},
                 "to_big": {"g": empty, "h": empty, "source": small, "target": big}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        space, morphisms = str(tmp_path / "space.json"), [str(tmp_path / f"{name}.json")
                                                          for name in ("from_big", "to_big")]
        calls = ([[c, space] for c in ("validate", "dualize", "roundtrip", "section", "export-dot")]
                 + [["validate", m] for m in morphisms]
                 + [["decompose", m, "--out", str(tmp_path / "parts")] for m in morphisms])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "skewstone", *argv], env=env,
                                  preexec_fn=limit_address_space, capture_output=True,
                                  text=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                3, "", "error: limit: B = 1000000000 is past both E = 2 and MAX_CARRIER = 4096,"
                " so p cannot be onto\n"), argv
        assert not (tmp_path / "parts").exists()

    def test_a_base_just_under_the_cap_is_reported(self, capsys, tmp_path):
        path = tmp_path / "under.json"
        path.write_text(json.dumps({"E": 1, "B": 4096, "p": [0]}))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert out.splitlines() == [f"FAIL p_surjective witness=({b},)" for b in range(1, 4096)]


class TestTableCap:
    """An algebra of more than 2**15 elements, past int16's range of
    element indices, is refused before its tables are read."""

    def test_validate_exits_three_past_the_cap(self, tmp_path):
        one = [[0]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 32769, "zero": 0, "meet": one, "join": one,
                                    "diff": one, "cap": one}))
        proc = subprocess.run([sys.executable, "-m", "skewstone", "validate", str(path)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "error: limit: n = 32769 is past TABLE_N = 32768: operation tables hold"
            " element indices as int16\n")

    def test_the_cap_itself_reaches_the_table_check(self, capsys, tmp_path):
        one = [[0]]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"n": 32768, "zero": 0, "meet": one, "join": one,
                                    "diff": one, "cap": one}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: meet table has 1 rows, expected 32768\n"


class TestCommands:
    def test_spectrum_values(self, capsys, three_file):
        code, out = run(capsys, "spectrum", three_file)
        assert code == 0
        data = json.loads(out)
        assert (data["E"], data["B"]) == (2, 1)
        assert data["points"] == [{"prime": 0, "rep": 1}, {"prime": 0, "rep": 2}]

    def test_spectrum_of_bool4(self, capsys, tmp_path):
        path = tmp_path / "b4.json"
        path.write_text(jsonio.dumps(jsonio.algebra_to_dict(boolean_algebra(2))))
        data = json.loads(run(capsys, "spectrum", str(path))[1])
        assert (data["E"], data["B"]) == (2, 2)

    def test_dualize_round_trips_through_validate(self, capsys, space_file, tmp_path):
        code, out = run(capsys, "dualize", space_file)
        assert code == 0
        dual_path = tmp_path / "dual.json"
        dual_path.write_text(out)
        assert run(capsys, "validate", str(dual_path))[0] == 0

    def test_roundtrip_text(self, capsys, three_file, space_file):
        assert run(capsys, "roundtrip", three_file)[1].strip() == "isomorphic, |A|=3"
        assert run(capsys, "roundtrip", space_file)[1].strip() == "isomorphic, |E|=2, |B|=1"

    def test_homs_counts_rows(self, capsys, three_file):
        code, out = run(capsys, "homs", three_file, three_file)
        assert code == 0
        assert out.splitlines()[0] == "3 homomorphisms"
        code, out = run(capsys, "homs", three_file, three_file, "--format", "json")
        assert len(json.loads(out)["homs"]) == 3

    def test_section_lattice_and_global(self, capsys, three_file, space_file):
        assert json.loads(run(capsys, "section", three_file)[1]) == {"choice": [0, 1]}
        assert json.loads(run(capsys, "section", space_file)[1]) == {"section": [0]}

    def test_section_of_the_boolean_algebra_on_1024_elements(self, capsys, tmp_path):
        # one D-class per element: the search fills 1024 classes in a row,
        # which used to exceed Python's recursion limit and exit 1
        A, _ = dual_algebra(make_space(10, 10, list(range(10))))
        path = tmp_path / "bool1024.json"
        path.write_text(jsonio.dumps(jsonio.algebra_to_dict(A)))
        code = main(["section", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        choice = json.loads(captured.out)["choice"]
        assert choice == list(range(1024)) and is_lattice_section(A, choice)

    def test_export_dot_hasse(self, capsys, three_file):
        code, out = run(capsys, "export-dot", three_file)
        assert code == 0
        assert out.count("->") == 2
        assert "n0 -> n1;" in out and "n0 -> n2;" in out

    def test_export_dot_space(self, capsys, space_file):
        out = run(capsys, "export-dot", space_file)[1]
        assert out.count("--") == 2

    def test_decompose_writes_two_files(self, capsys, tmp_path):
        from skewstone import Homomorphism

        three = right_three()
        m = dual_of_hom(Homomorphism(boolean_algebra(1), three, (0, 1)))
        path = tmp_path / "morphism.json"
        path.write_text(jsonio.dumps(jsonio.morphism_to_dict(m)))
        out_dir = tmp_path / "parts"
        code, out = run(capsys, "decompose", str(path), "--out", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["partial_identity.json", "pullback_part.json"]
        for name in files:
            reloaded = jsonio.morphism_from_dict(
                json.loads((out_dir / name).read_text()))
            from skewstone import validate_space_morphism

            assert validate_space_morphism(reloaded).ok


def one_fiber_files(directory, k_left, k_right):
    """One fiber of k_left * k_right points with the product band
    (k_left = 1: the right band; plain: no band at all), written with the
    standard library from E x E rows made here, and its section algebra
    (n = 1 + E).  Returns the two paths and the algebra."""
    size_e = k_left * k_right
    if k_left == 0:
        size_e, obj = k_right, {"E": k_right, "B": 1, "p": [0] * k_right}
    else:
        # point r * k_left + l of the grid: x y keeps x's r and y's l
        obj = {"E": size_e, "B": 1, "p": [0] * size_e, "band": [
            [x // k_left * k_left + y % k_left for y in range(size_e)] for x in range(size_e)]}
    sp = make_space(obj["E"], obj["B"], obj["p"], obj.get("band"))
    A, labels = dual_algebra(sp)
    paths = directory / "space.json", directory / "algebra.json"
    paths[0].write_text(json.dumps(obj))
    paths[1].write_text(json.dumps({"n": A.n, "zero": A.zero, **{
        name: getattr(A, name + "_table").tolist() for name in ("meet", "join", "diff", "cap")}}))
    return sp, A, labels, [str(path) for path in paths]


class TestOneFiberInstances:
    """Every command that reads or writes a space, on one fiber of 1023
    points, plain or a 31 x 33 band (n = 1024), prints what the standard
    library prints for the E x E form and the values made here: the band
    rows are streamed from the fiber table, not from an E x E band."""

    @pytest.mark.parametrize("k_left, k_right", [(0, 1023), (31, 33)], ids=["plain", "band"])
    def test_output_is_the_standard_librarys(self, capsys, tmp_path, k_left, k_right):
        sp, A, labels, (space_path, algebra_path) = one_fiber_files(tmp_path, k_left, k_right)
        stdlib = lambda obj: json.dumps(obj, indent=2, sort_keys=True) + "\n"
        # the spectrum: the nonzero elements, each its own class, with A's meet
        points = list(range(1, A.n))
        band = [[A.meet(x, y) - 1 for y in points] for x in points]
        expected = {
            ("spectrum", algebra_path): stdlib({
                "E": A.n - 1, "B": 1, "p": [0] * (A.n - 1), "band": band,
                "points": [{"prime": 0, "rep": x} for x in points]}),
            ("dualize", "--sections", space_path): stdlib({
                "n": A.n, "zero": A.zero, "sections": [list(s) for s in labels],
                **{name: getattr(A, name + "_table").tolist()
                   for name in ("meet", "join", "diff", "cap")}}),
            ("roundtrip", "--format", "json", algebra_path): stdlib({
                "isomorphic": True, "size": A.n, "map": list(range(A.n))}),
            ("roundtrip", "--format", "json", space_path): stdlib({
                "isomorphic": True, "E": sp.size_e, "B": 1,
                "g": list(range(sp.size_e)), "h": [0]}),
            ("section", space_path): stdlib({"section": [0]}),
            # a two-sided algebra has no lattice section: exit 1, nothing printed
            ("section", algebra_path): stdlib({"choice": [0, 1]}) if k_left == 0 else "",
            ("export-dot", algebra_path): "\n".join(
                ["digraph hasse {", "  rankdir=BT;", '  n0 [label="0" shape=doublecircle];']
                + [f'  n{x} [label="{x}"];' for x in points]
                + [f"  n0 -> n{x};" for x in points] + ["}"]) + "\n",
            ("export-dot", space_path): "\n".join(
                ["graph fibration {", '  b0 [label="b0" shape=box];']
                + [f'  e{e} [label="e{e}"];' for e in range(sp.size_e)]
                + [f"  e{e} -- b0;" for e in range(sp.size_e)] + ["}"]) + "\n",
        }
        for argv, want in expected.items():
            assert run(capsys, *argv) == (0 if want else 1, want), argv


class TestDeterminism:
    def test_generate_is_reproducible_and_revalidates(self, capsys, tmp_path):
        args = ["generate", "--seed", "7", "--size-b", "2", "--max-fiber", "2",
                "--band", "right", "--count", "3"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", str(dir_a))[0] == 0
        assert run(capsys, *args, "--out", str(dir_b))[0] == 0
        for name in ("space_000.json", "space_001.json", "space_002.json"):
            bytes_a = (dir_a / name).read_bytes()
            assert bytes_a == (dir_b / name).read_bytes()
            assert run(capsys, "validate", str(dir_a / name))[0] == 0

    @pytest.mark.parametrize("flags, message", [
        (["--max-fiber", "0"], "max_fiber must be at least 1, got 0"),
        (["--band", "product", "--k-left", "0"], "k_left must be at least 1, got 0"),
        (["--band", "product", "--k-right", "-2"], "k_right must be at least 1, got -2"),
    ], ids=["max_fiber", "k_left", "k_right"])
    def test_generate_refuses_sizes_below_one(self, capsys, tmp_path, flags, message):
        # --max-fiber 0 used to end in randrange's error, --k-left 0 to write
        # a space that validate refuses
        out = tmp_path / "gen"
        code = main(["generate", "--out", str(out)] + flags)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
        assert not list(out.glob("*.json"))

    def test_command_output_stable(self, capsys, three_file):
        first = run(capsys, "spectrum", three_file)[1]
        second = run(capsys, "spectrum", three_file)[1]
        assert first == second

    def test_console_entry_point(self, three_file):
        proc = subprocess.run([sys.executable, "-m", "skewstone", "roundtrip", three_file],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "isomorphic, |A|=3"


class TestEntryPoints:
    """Every process starts in cli.run, which freezes the import-time heap
    and exits with main's code; main(argv) in process freezes nothing."""

    @pytest.fixture
    def cases(self, tmp_path, three_file):
        files = {"bad9.json": bad_left_nine()[0], "bad3.json": bad_three()}
        for name, obj in files.items():
            (tmp_path / name).write_text(jsonio.dumps(obj))
        (tmp_path / "broken.json").write_text("{not json")
        return {0: ["spectrum", three_file],
                1: ["spectrum", str(tmp_path / "bad9.json")],
                2: ["validate", str(tmp_path / "broken.json")],
                3: ["validate", "--max-size", "2", str(tmp_path / "bad3.json")]}

    @pytest.mark.parametrize("module", ["skewstone", "skewstone.cli"])
    def test_process_prints_what_main_prints(self, capsys, cases, module):
        for code, argv in cases.items():
            assert main(argv) == code
            captured = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", module, *argv],
                                  capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, captured.out, captured.err)

    def test_run_freezes_the_import_time_heap(self, three_file):
        script = ("import gc, sys\n"
                  "from skewstone.cli import run\n"
                  "before = gc.get_freeze_count()\n"
                  "sys.argv[1:] = ['validate', sys.argv[1]]\n"
                  "try:\n"
                  "    run()\n"
                  "except SystemExit as exc:\n"
                  "    print(exc.code, before, gc.get_freeze_count() > 0)\n")
        proc = subprocess.run([sys.executable, "-c", script, three_file],
                              capture_output=True, text=True, timeout=60)
        assert (proc.stdout, proc.stderr) == ("ok\n0 0 True\n", "")

    def test_main_freezes_nothing(self, capsys, three_file):
        before = gc.get_freeze_count()
        assert run(capsys, "validate", three_file) == (0, "ok\n")
        assert gc.get_freeze_count() == before


class TestInterchangeFormats:
    def test_morphism_source_by_file_path(self, tmp_path, capsys):
        three = right_three()
        m = dual_of_hom(identity_hom(three))
        src_path = tmp_path / "src_space.json"
        tgt_path = tmp_path / "tgt_space.json"
        src_path.write_text(jsonio.dumps(jsonio.space_to_dict(m.source)))
        tgt_path.write_text(jsonio.dumps(jsonio.space_to_dict(m.target)))
        obj = {"g": jsonio.partial_map_to_dict(m.g),
               "h": jsonio.partial_map_to_dict(m.h),
               "source": "src_space.json", "target": "tgt_space.json"}
        path = tmp_path / "morphism.json"
        path.write_text(jsonio.dumps(obj))
        reloaded = jsonio.morphism_from_dict(json.loads(path.read_text()), str(tmp_path))
        assert reloaded == m
        assert run(capsys, "validate", str(path))[0] == 0

    def test_hom_inline_and_by_path(self, tmp_path):
        three = right_three()
        algebra_path = tmp_path / "three.json"
        algebra_path.write_text(jsonio.dumps(jsonio.algebra_to_dict(three)))
        obj = {"map": [0, 2, 1], "source": str(algebra_path),
               "target": jsonio.algebra_to_dict(three)}
        f = jsonio.hom_from_dict(obj, str(tmp_path))
        assert f.source == three and f.target == three

    def test_generate_pipes_into_roundtrip_over_100_seeds(self, tmp_path, capsys):
        failures = 0
        for seed in range(100):
            out_dir = tmp_path / f"s{seed}"
            if main(["generate", "--seed", str(seed), "--size-b", "2",
                     "--max-fiber", "2", "--band", "right", "--out", str(out_dir)]) != 0:
                failures += 1
            if main(["roundtrip", str(out_dir / "space_000.json")]) != 0:
                failures += 1
            capsys.readouterr()
        assert failures == 0


class TestMaxSizeOverride:
    def test_homs_same_with_and_without_flag(self, capsys, tmp_path):
        from skewstone import dual_algebra, random_space

        A, _ = dual_algebra(random_space(2, 2, seed=9, band="right"))
        path = tmp_path / "nine.json"
        path.write_text(jsonio.dumps(jsonio.algebra_to_dict(A)))
        code, out = run(capsys, "homs", str(path), str(path), "--format", "json")
        assert code == 0
        assert len(json.loads(out)["homs"]) == 25
        assert run(capsys, "homs", str(path), str(path),
                   "--format", "json", "--max-size", str(9 ** 9)) == (0, out)


def table_of(rows):
    return np.array([list(row) for row in rows], dtype=np.int16)


class TestJsonOutput:
    def test_dump_writes_the_bytes_of_dumps(self, capsys):
        # long enough to take more than one batch of encoder chunks
        obj = {"b": list(range(50000)), "a": [{"y": None, "x": [1.5, "s"]}]}
        expected = jsonio.dumps(obj) + "\n"
        fh = io.StringIO()
        jsonio.dump(obj, fh)
        assert fh.getvalue() == expected
        jsonio.dump(obj)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("obj", [
        [-1, -4096, 0, 4095, 4096, 10 ** 6, 2 ** 64, -(2 ** 64) - 1],
        [3, 2, -1],
        [1, True, 2, False],
        [True, False],
        [-0.0, math.nan, math.inf, -math.inf, 1.9, 1e300, 5e-324],
        ["caf\u00e9", "\u65e5\u672c", "\x00\x1f\n\t\"\\", "\u2028", "\U0001f600", ""],
        [], {}, [[]], [{}], {"a": [], "b": {}, "c": ()},
        {"band": [[0, None], [None, 0]], "p": [0, 1]},
        (1, 2, (3, (4,)), [5, [6]]),
        {"z": 1, "a": {"c": [1, 2], "b": None}, "\u00e9": "x", "A": [1.5, "s"]},
        "top", 5, None, 1.5, True,
    ])
    def test_writer_matches_the_stdlib_encoder(self, obj):
        assert_writes_like_stdlib(obj)

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                  st.lists(st.integers())),
        lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                               st.dictionaries(st.text(), kids)),
        max_leaves=40))
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_the_stdlib_encoder_on_random_documents(self, obj):
        assert_writes_like_stdlib(obj)

    @pytest.mark.parametrize("obj", [np.int32(3), [1, np.int32(3)], {"a": [np.int64(0)]},
                                     {1, 2}, [0, {1}]])
    def test_writer_refuses_what_the_encoder_refuses(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            jsonio.dumps(obj)
        with pytest.raises(TypeError):
            jsonio.dump(obj, io.StringIO())

    @pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 0}}, {"a": 0, "b": {2.5: 0}}])
    def test_writer_refuses_keys_that_are_not_str(self, obj):
        # narrower than the stdlib encoder, which prints such keys as text
        with pytest.raises(TypeError):
            jsonio.dumps(obj)

    @pytest.mark.parametrize("table", [
        table_of([[0]]),
        table_of([[6, 0, 3, 1, 6, 5, 2]]),
        table_of([[0]] * 5),
        table_of([range(10), range(9, -1, -1)]),
        table_of([range(100), range(99, -1, -1)]),
        table_of([range(1000), range(999, -1, -1)]),
        table_of([range(4096), range(4095, -1, -1), [4095, 0] * 2048]),
    ])
    def test_writer_writes_tables_as_their_rows(self, table):
        assert_writes_like_stdlib(table)
        assert_writes_like_stdlib({"meet": table, "n": len(table)})
        assert_writes_like_stdlib([table, [table, {"t": table}], 1])

    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(table_of))
    @settings(max_examples=100, deadline=None)
    def test_writer_writes_random_tables_as_their_rows(self, table):
        assert_writes_like_stdlib({"t": table})

    @pytest.mark.parametrize("array", [
        np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=np.int64),
        np.zeros((2, 2), dtype=np.int32), np.zeros((2, 2), dtype=np.uint16),
        np.zeros(2, dtype=np.int16), np.zeros((2, 2, 2), dtype=np.int16),
        np.zeros((2, 0), dtype=np.int16), table_of([[0, 2], [1, 0]]), table_of([[0, -1], [1, 0]]),
    ])
    def test_writer_refuses_arrays_that_are_not_tables(self, array):
        for obj in (array, {"t": array}):
            with pytest.raises(TypeError):
                jsonio.dumps(obj)
            with pytest.raises(TypeError):
                jsonio.dump(obj, io.StringIO())

    def test_large_document_is_streamed(self):
        # the n = 512 document of `dualize --sections` on fibers (3,3,3,3,1)
        p = [b for b, k in enumerate((3, 3, 3, 3, 1)) for _ in range(k)]
        algebra, sections = dual_algebra(make_space(len(p), 5, p))
        doc = jsonio.algebra_to_dict(algebra)
        doc.update(jsonio.sections_to_dict(sections))
        expected_chars = len(json.dumps(doc, indent=2, sort_keys=True,
                                        default=np.ndarray.tolist)) + 1
        sink = CountingSink()
        tracemalloc.start()
        try:
            jsonio.dump(doc, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == expected_chars
        assert peak < 4 * 2 ** 20


class CountingSink:
    chars = 0

    def write(self, text):
        self.chars += len(text)


def assert_writes_like_stdlib(obj):
    # a table is expected to read like the list of its rows
    expected = json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert jsonio.dumps(obj) == expected
    with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
        jsonio.dump(obj, fh)
        fh.seek(0)
        assert fh.read() == expected + "\n"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        jsonio.dump(obj)
    assert out.getvalue() == expected + "\n"


def assert_canonical(text):
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestCanonicalOutput:
    """Every JSON document the CLI writes is json.dumps(..., indent=2,
    sort_keys=True) of itself, plus a newline."""

    def test_stdout_documents(self, capsys, three_file, tmp_path):
        space = tmp_path / "band.json"
        space.write_text(jsonio.dumps(jsonio.space_to_dict(
            random_space(2, 2, seed=3, band="right"))))
        bad = jsonio.algebra_to_dict(right_three())
        bad["meet"] = bad["meet"].tolist()
        bad["meet"][1][2] = 1
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(jsonio.dumps(bad))
        commands = [
            ("dualize", "--sections", str(space)),
            ("spectrum", three_file),
            ("roundtrip", "--format", "json", three_file),
            ("roundtrip", "--format", "json", str(space)),
            ("homs", "--format", "json", three_file, three_file),
            ("section", three_file),
            ("section", str(space)),
            ("validate", "--format", "json", three_file),
            ("validate", "--format", "json", str(bad_path)),
        ]
        for argv in commands:
            code, out = run(capsys, *argv)
            assert code in (0, 1), argv
            assert_canonical(out)

    def test_written_files(self, capsys, tmp_path):
        from skewstone import Homomorphism

        assert run(capsys, "generate", "--band", "product", "--count", "2",
                   "--out", str(tmp_path / "gen"))[0] == 0
        m = dual_of_hom(Homomorphism(boolean_algebra(1), right_three(), (0, 1)))
        path = tmp_path / "morphism.json"
        path.write_text(jsonio.dumps(jsonio.morphism_to_dict(m)))
        assert run(capsys, "decompose", str(path), "--out", str(tmp_path / "parts"))[0] == 0
        written = sorted((tmp_path / "gen").iterdir()) + sorted((tmp_path / "parts").iterdir())
        assert len(written) == 4
        for file in written:
            assert_canonical(file.read_text(encoding="utf-8"))


def load_script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSurveyScript:
    def test_instance_over_the_size_cap_is_reported_not_raised(self, capsys):
        # the second of these 3 instances, a right band over 139 points in
        # 2 fibers, has 4880 sections, more than MAX_CARRIER = 4096
        survey = load_script("duality_survey")
        code = survey.main(["--count", "3", "--seed", "8", "--size-b", "2",
                            "--max-fiber", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith("3 instances, 0 failures, 1 over the size cap")
        limit_rows = [line.split() for line in out.splitlines() if " limit " in line]
        assert [row[0] for row in limit_rows] == ["9"]
        assert "4880" in limit_rows[0]

    def test_instance_above_the_validation_cap_is_checked(self, capsys):
        # the last of these 20 instances is a 2x2 band over 4 points, n = 625:
        # valid algebras are certified at any n, so it gets every verdict
        survey = load_script("duality_survey")
        code = survey.main(["--count", "20", "--size-b", "4", "--max-fiber", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith("20 instances, 0 failures, 0 over the size cap")
        last = out.splitlines()[-3].split()
        assert last[0] == "19" and last[-6:-1] == ["625", "neither", "yes", "yes", "-"]

    @pytest.mark.parametrize("script, argv", [
        ("duality_survey", ["--count", "2"]),
        ("make_corpus", ["--count", "2", "--out", "c"]),
    ], ids=["survey", "corpus"])
    def test_scripts_run_without_an_import_path(self, tmp_path, script, argv):
        # each script puts the checkout's src first on sys.path itself
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{script}.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, str(path)] + argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("script, flags", [
        ("duality_survey", ["--size-b", "0"]),
        ("duality_survey", ["--size-b", "-1"]),
        ("duality_survey", ["--max-fiber", "0"]),
        ("make_corpus", ["--max-fiber", "0"]),
        ("make_corpus", ["--size-b", "-1"]),
    ], ids=["survey_size_b_0", "survey_size_b_negative", "survey_max_fiber_0",
            "corpus_max_fiber_0", "corpus_size_b_negative"])
    def test_sizes_below_one_are_usage_errors(self, capsys, tmp_path, script, flags):
        # these ended in a traceback, except --size-b -1 in the survey, which
        # ran over one base point
        argv = flags + (["--out", str(tmp_path / "c")] if script == "make_corpus" else [])
        with pytest.raises(SystemExit) as exc:
            load_script(script).main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.endswith(f": error: argument {flags[0]}: "
                                     f"must be at least 1, got {flags[1]}\n")
        assert not (tmp_path / "c").exists()

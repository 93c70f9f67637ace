import contextlib
import importlib.util
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import jsonio, make_space
from skewstone.morphisms_duality import dual_of_hom, identity_hom

from skewstone.catalog import boolean_algebra, right_three
from skewstone.spaces_sections import dual_algebra, random_space
from skewstone.cli import main


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


class TestExitCodes:
    def test_valid_algebra_exits_zero(self, capsys, three_file):
        code, out = run(capsys, "validate", three_file)
        assert code == 0
        assert out.strip() == "ok"

    def test_mutated_algebra_exits_one_with_witness(self, capsys, tmp_path):
        obj = jsonio.algebra_to_dict(right_three())
        obj["meet"] = obj["meet"].tolist()
        obj["meet"][1][2] = 1
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dumps(obj))
        code, out = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "validate", str(path))[0] == 2

    def test_missing_file_exits_two(self, capsys):
        assert run(capsys, "validate", "/nonexistent/nowhere.json")[0] == 2

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
        # the two algebras are proved valid, so a cap below their n changes nothing
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
        # --max-size caps only the exhaustive report of an algebra that fails
        # the proof: a valid algebra above it still validates
        assert run(capsys, "validate", "--max-size", "2", three_file) == (0, "ok\n")
        obj = jsonio.algebra_to_dict(right_three())
        obj["meet"] = obj["meet"].tolist()
        obj["meet"][1][2] = 1
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dumps(obj))
        code = main(["validate", "--max-size", "2", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("error: limit: n=3 fails proof step absorb_meet_over_join_right;"
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
        assert captured.err == ("error: limit: n=300 fails proof step cap_commutative;"
                                " the exhaustive report is capped at n=256\n")

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
        code = main([command, str(path), "--out", str(out_dir)])
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

    def test_command_output_stable(self, capsys, three_file):
        first = run(capsys, "spectrum", three_file)[1]
        second = run(capsys, "spectrum", three_file)[1]
        assert first == second

    def test_console_entry_point(self, three_file):
        proc = subprocess.run([sys.executable, "-m", "skewstone", "roundtrip", three_file],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "isomorphic, |A|=3"


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
    return np.array([list(row) for row in rows], dtype=np.int32)


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
        np.zeros(2, dtype=np.int32), np.zeros((2, 2, 2), dtype=np.int32),
        np.zeros((2, 0), dtype=np.int32), table_of([[0, 2], [1, 0]]), table_of([[0, -1], [1, 0]]),
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
        # valid algebras are proved at any n, so it gets every verdict
        survey = load_script("duality_survey")
        code = survey.main(["--count", "20", "--size-b", "4", "--max-fiber", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith("20 instances, 0 failures, 0 over the size cap")
        last = out.splitlines()[-3].split()
        assert last[0] == "19" and last[-6:-1] == ["625", "neither", "yes", "yes", "-"]

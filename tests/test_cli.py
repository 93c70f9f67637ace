import importlib.util
import io
import json
import pathlib
import subprocess
import sys

import pytest

from skewstone import jsonio, make_space
from skewstone.morphisms_duality import dual_of_hom, identity_hom

from skewstone.catalog import boolean_algebra, right_three
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
        obj["meet"] = obj["meet"][:2]
        path = tmp_path / "shape.json"
        path.write_text(jsonio.dumps(obj))
        assert run(capsys, "validate", str(path))[0] == 1

    def test_non_integer_entry_exits_one(self, capsys, tmp_path):
        # 1.9 used to be truncated to 1, which left a valid table
        algebra = jsonio.algebra_to_dict(right_three())
        algebra["meet"][1][1] = 1.9
        space = {"E": 2.5, "B": 1, "p": [0, 0]}
        for name, obj in (("algebra", algebra), ("space", space)):
            path = tmp_path / f"{name}.json"
            path.write_text(jsonio.dumps(obj))
            assert run(capsys, "validate", str(path)) == (1, "")

    def test_over_max_size_exits_three(self, capsys, three_file):
        code = main(["validate", "--max-size", "2", three_file])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: limit: n=3 exceeds")


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


def load_script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSurveyScript:
    def test_instance_over_the_size_cap_is_reported_not_raised(self, capsys):
        # the last of these 20 instances is a 2x2 band over 4 points, n = 625,
        # above the survey's validation cap of 256
        survey = load_script("duality_survey")
        code = survey.main(["--count", "20", "--size-b", "4", "--max-fiber", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith("20 instances, 0 failures, 1 over the size cap")
        limit_rows = [line.split() for line in out.splitlines() if " limit " in line]
        assert [row[0] for row in limit_rows] == ["19"]
        assert "625" in limit_rows[0]

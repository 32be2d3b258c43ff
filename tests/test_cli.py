import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbora
from arbora.cli import main
from arbora.catalog import htree_eq, path_neg, tripod_neg
from arbora.geometry import realize_polytope
from arbora.spines import enumerate_maximal_spines, spine_to_json
from arbora.trees import build_tree, signature_classes, tree_to_json

from conftest import corpus, phantom_trees
from test_trees import unsigned_automorphisms


TRIPOD_NEG_DOC = {
    "vertices": [
        {"id": "1", "sign": "-"},
        {"id": "2", "sign": "-"},
        {"id": "3", "sign": "-"},
        {"id": "4", "sign": "-"},
    ],
    "edges": [["2", "1"], ["2", "3"], ["2", "4"]],
}

TRIPOD_POS_DOC = {
    "vertices": [
        {"id": "1", "sign": "-"},
        {"id": "2", "sign": "+"},
        {"id": "3", "sign": "-"},
        {"id": "4", "sign": "-"},
    ],
    "edges": [["2", "1"], ["2", "3"], ["2", "4"]],
}


@pytest.fixture
def tripod_file(tmp_path):
    path = tmp_path / "tripod_neg.json"
    path.write_text(json.dumps(TRIPOD_NEG_DOC))
    return str(path)


@pytest.fixture
def tripod_pos_file(tmp_path):
    path = tmp_path / "tripod_pos.json"
    path.write_text(json.dumps(TRIPOD_POS_DOC))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def dumps(document) -> str:
    """A document as the CLI writes it."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


class TestCommands:
    def test_blocks(self, tripod_file, capsys):
        code, out = run_cli(["blocks", tripod_file], capsys)
        assert code == 0
        assert json.loads(out)[0] == ["1"]
        assert len(json.loads(out)) == 10

    def test_complex(self, tripod_file, capsys):
        code, out = run_cli(["complex", tripod_file], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["f_vector"] == [1, 10, 24, 16]
        assert len(document["facets"]) == 16

    def test_complex_numbers_the_facets_once(self, tripod_file, capsys, monkeypatch):
        # the f-vector and the facet list share one numbering of the blocks
        from arbora import complexes

        calls, real = [], complexes.flip_graph
        monkeypatch.setattr(complexes, "flip_graph", lambda tree: calls.append(tree) or real(tree))
        code, out = run_cli(["complex", tripod_file], capsys)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("count", [0, 1, 4096, 9000])
    def test_rows_written_in_batches_match_one_document(self, count, capsys):
        from arbora.cli import _emit_rows

        rows = [[[i], [i, i + 1]] for i in range(count)]
        _emit_rows({"z": 1, "a": [2]}, "m", iter(rows))
        assert capsys.readouterr().out == dumps({"z": 1, "a": [2], "m": rows})

    def test_polytope_pass(self, tripod_file, capsys):
        code, out = run_cli(["polytope", tripod_file], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["certificate"] == "PASS"
        assert len(document["vertices"]) == 16
        assert len(document["facets"]) == 10

    def test_kappa(self, tripod_file, capsys):
        code, out = run_cli(["kappa", tripod_file, "--order", "1,3,4,2"], capsys)
        assert code == 0
        document = json.loads(out)
        labels = {tuple(n["label"]) for n in document["nodes"]}
        assert labels == {("1",), ("2",), ("3",), ("4",)}
        assert len(document["arcs"]) == 3

    def test_kappa_order_names_integer_ids(self, tripod_file, tmp_path, capsys):
        path = tmp_path / "tripod_int.json"
        path.write_text(json.dumps(tree_to_json(tripod_neg())))
        _, by_name = run_cli(["kappa", tripod_file, "--order", "1,3,4,2"], capsys)
        code, by_int = run_cli(["kappa", str(path), "--order", "1,3,4,2"], capsys)
        assert code == 0
        spine = json.loads(by_int)
        for node in spine["nodes"]:
            node["label"] = [str(v) for v in node["label"]]
        assert spine == json.loads(by_name)
        code, _ = run_cli(
            ["congruence-check", str(path), "--order", "1,2,3,4"], capsys
        )
        assert code == 0
        code, _ = run_cli(["kappa", str(path), "--order", "1,3,4,9"], capsys)
        assert code == 1

    def test_flipgraph_json_and_dot(self, tripod_file, capsys):
        code, out = run_cli(["flipgraph", tripod_file], capsys)
        assert code == 0
        document = json.loads(out)
        assert len(document["spines"]) == 16
        assert all(len(pair) == 2 for pair in document["flips"])
        code, out = run_cli(["flipgraph", tripod_file, "--dot"], capsys)
        assert code == 0
        assert out.startswith("graph flips {")

    def test_flipgraph_dot_escapes_labels(self, tmp_path, capsys):
        path = tmp_path / "quoted.json"
        document = {"vertices": [{"id": 'x"y'}, {"id": "b\\c"}], "edges": [['x"y', "b\\c"]]}
        path.write_text(json.dumps(document))
        code, out = run_cli(["flipgraph", str(path), "--dot"], capsys)
        assert code == 0
        assert out.splitlines()[1:3] == ['  s0 [label="b\\\\c"];', '  s1 [label="x\\"y"];']

    def test_minkowski_check(self, tripod_pos_file, capsys):
        code, out = run_cli(["minkowski", tripod_pos_file, "--check"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["check"] == "PASS"
        assert document["y"]["2"] == -2
        assert document["z"]["2"] == -2
        assert document["y"]["1,2"] == 3

    def test_singletons(self, tripod_file, capsys):
        code, out = run_cli(["singletons", tripod_file], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["count"] == 12
        assert document["recursive_count"] == 12

    def test_barycenter(self, tripod_pos_file, capsys):
        code, out = run_cli(["barycenter", tripod_pos_file], capsys)
        assert code == 0
        assert json.loads(out) == {
            "1": "39/16",
            "2": "43/16",
            "3": "39/16",
            "4": "39/16",
        }

    def test_isometric(self, tripod_file, tripod_pos_file, capsys):
        code, out = run_cli(["isometric", tripod_file, tripod_pos_file], capsys)
        assert code == 0
        assert json.loads(out) == {"isometric": True}

    def test_congruence_check(self, tripod_file, capsys):
        code, out = run_cli(
            ["congruence-check", tripod_file, "--order", "1,2,3,4"], capsys
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["order_congruence"] is False

    def test_signature_sweep(self, tmp_path, capsys):
        path = tmp_path / "htree.json"
        path.write_text(json.dumps(tree_to_json(htree_eq())))
        code, out = run_cli(["signature-sweep", str(path)], capsys)
        assert code == 0
        document = json.loads(out)
        assert len(document["classes"]) == 2
        assert document["all_f_equal"] is True
        assert document["all_profiles_equal"] is False
        for item in document["classes"]:
            assert item["f_vector"] == [1, 27, 182, 478, 535, 214]

    def test_signature_sweep_path_single_class(self, tmp_path, capsys):
        path = tmp_path / "path4.json"
        path.write_text(json.dumps(tree_to_json(path_neg(4))))
        code, out = run_cli(["signature-sweep", str(path)], capsys)
        assert code == 0
        assert len(json.loads(out)["classes"]) == 1

    def test_signature_sweep_single_vertex(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(tree_to_json(path_neg(1))))
        code, out = run_cli(["signature-sweep", str(path)], capsys)
        assert code == 0
        assert len(json.loads(out)["classes"]) == 1


PHANTOM_TREE = {
    "vertices": [
        {"id": 6, "sign": "-"},
        {"id": 7, "sign": "+"},
        {"id": 9, "phantom": True},
    ],
    "edges": [[6, 7], [7, 9]],
}


class TestExitCodes:
    def test_malformed_edges(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices":[{"id":"1","sign":"-"}],"edges":[["1","9"]]}')
        code, _ = run_cli(["blocks", str(path)], capsys)
        assert code == 1

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices":[{"id":"1","sign":"-"},{"id":"2","sign":"-"}],"edges":[]}'
        )
        code, _ = run_cli(["blocks", str(path)], capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _ = run_cli(["blocks", "/nonexistent/tree.json"], capsys)
        assert code == 1

    def test_oracle_mismatch_is_a_failed_verification(
        self, tripod_pos_file, capsys, monkeypatch
    ):
        from arbora import minkowski

        real = minkowski._moebius_table

        def off_by_one(z):
            y = real(z)
            y[1] += 1  # the first vertex alone
            return y

        monkeypatch.setattr(minkowski, "_moebius_table", off_by_one)
        code, out = run_cli(["minkowski", tripod_pos_file, "--check"], capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "document",
        [
            {"vertices": [{"id": 1}, {"id": "a"}], "edges": [[1, "a"]]},
            {"vertices": [{"id": [1]}, {"id": 2}], "edges": [[[1], 2]]},
            {"vertices": [{"id": 1}, {"id": 2}], "edges": [[1, 2, 3]]},
        ],
    )
    def test_malformed_ids_and_edges(self, document, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(["blocks", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "document",
        [
            {
                "vertices": [{"id": "1"}, {"id": "2", "phantom": "false"}],
                "edges": [["1", "2"]],
            },
            {"vertices": [{"id": "1"}, {"id": "2"}], "edges": ["12"]},
        ],
    )
    def test_phantom_flag_and_edge_types_are_strict(self, document, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code = main(["blocks", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_minkowski_refuses_phantom_tree(self, tmp_path, capsys):
        path = tmp_path / "phantom.json"
        path.write_text(json.dumps(PHANTOM_TREE))
        code = main(["minkowski", str(path), "--check"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_minkowski_refuses_ids_that_join_keys(self, tmp_path, capsys):
        # the keys join ids with ",": {a, b} and {"a,b"} would both be "a,b"
        path = tmp_path / "comma.json"
        ids = ["a", "b", "a,b"]  # the path a - b - "a,b"
        document = {"vertices": [{"id": v} for v in ids], "edges": [ids[:2], ids[1:]]}
        path.write_text(json.dumps(document))
        code = main(["minkowski", str(path), "--check"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_signature_sweep_refuses_phantom_tree(self, tmp_path, capsys):
        path = tmp_path / "phantom.json"
        path.write_text(json.dumps(PHANTOM_TREE))
        code = main(["signature-sweep", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["blocks", "minkowski"])
    def test_nan_id_refused(self, tmp_path, capsys, command):
        path = tmp_path / "nan.json"
        path.write_text('{"vertices":[{"id":NaN},{"id":2}],"edges":[[NaN,2]]}')
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_blocks_bound(self, tmp_path, capsys):
        path = tmp_path / "path21.json"
        path.write_text(json.dumps(tree_to_json(path_neg(21))))
        code = main(["blocks", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: nu = 21 exceeds the bound 20\n"

    def test_exhausted_memory_is_bad_input(self, tripod_file, monkeypatch, capsys):
        from arbora import blocks

        def exhausted(tree):
            raise MemoryError

        monkeypatch.setattr(blocks, "enumerate_blocks", exhausted)
        code = main(["blocks", tripod_file])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("n", [11, 21])
    def test_barycenter_bound(self, n, tmp_path, capsys):
        path = tmp_path / f"path{n}.json"
        path.write_text(json.dumps(tree_to_json(path_neg(n))))
        code = main(["barycenter", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: nu = {n} exceeds the bound 10\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["flipgraph", "complex", "singletons"])
    def test_spine_commands_bound(self, command, tmp_path, capsys):
        # each holds every maximal spine, so each defaults to nu <= 9
        path = tmp_path / "path11.json"
        path.write_text(json.dumps(tree_to_json(path_neg(11))))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: nu = 11 exceeds the bound 9\n"
        assert "Traceback" not in captured.err

    def test_kappa_bound(self, tmp_path, capsys):
        # the sweep's path masks grow with nu^3, so kappa refuses nu > 1000
        path = tmp_path / "path1001.json"
        path.write_text(json.dumps(tree_to_json(path_neg(1001))))
        code = main(["kappa", str(path), "--order", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: nu = 1001 exceeds the bound 1000\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["blocks"],
            ["blocks", "{tree}", "--bogus"],
            ["blocks", "{tree}", "--max-nu", "x"],
            ["bogus", "{tree}"],
        ],
        ids=["no-tree", "unknown-option", "bad-int", "unknown-command"],
    )
    def test_usage_error_is_bad_input(self, argv, tripod_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main([arg.format(tree=tripod_file) for arg in argv])
        captured = capsys.readouterr()
        assert exited.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage: arbora")
        assert "error: " in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["blocks", "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arbora blocks")

    def test_deeply_nested_document_is_bad_input(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        result = subprocess.run(
            [sys.executable, "-m", "arbora.cli", "blocks", str(path)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_all_orders_bound(self, tmp_path, capsys):
        path = tmp_path / "path7.json"
        path.write_text(json.dumps(tree_to_json(path_neg(7))))
        code = main(["congruence-check", str(path), "--all-orders"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: nu = 7 exceeds the bound 6\n"

    def test_all_orders_reports_every_base(self, tmp_path, capsys):
        path = tmp_path / "path4.json"
        path.write_text(json.dumps(tree_to_json(path_neg(4))))
        code, out = run_cli(["congruence-check", str(path), "--all-orders"], capsys)
        assert code == 0
        assert len(json.loads(out)["reports"]) == 24


def spider(legs: int, positive_depth: int):
    """All-negative spider with three vertices per leg, but one positive vertex."""
    specs, edges = [(0, "-")], []
    for leg in range(legs):
        for depth in (1, 2, 3):
            v = 3 * leg + depth
            sign = "+" if (leg, depth) == (0, positive_depth) else "-"
            specs.append((v, sign))
            edges.append((v - 1 if depth > 1 else 0, v))
    return build_tree(specs, edges)


@pytest.mark.parametrize(
    "tree_a, tree_b, expected",
    [
        (spider(12, 2), spider(12, 1), False),  # factorial for a backtracking search
        (path_neg(1500), path_neg(1500), True),  # deeper than the recursion limit
    ],
    ids=["spiders", "long-path"],
)
def test_isometric_is_polynomial(tree_a, tree_b, expected, tmp_path):
    paths = []
    for name, tree in (("a", tree_a), ("b", tree_b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(tree_to_json(tree)))
    result = subprocess.run(
        [sys.executable, "-m", "arbora.cli", "isometric", *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"isometric": expected}
    assert "Traceback" not in result.stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
VERTEX_IDS = st.integers(0, 6) | st.sampled_from(["1", "2", "a"]) | JSON_VALUES


@st.composite
def tree_documents(draw):
    """Tree files with at most six vertices, well-formed or not, and arbitrary JSON."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(JSON_VALUES)
    ids = draw(
        st.lists(st.integers(0, 9), max_size=6, unique=True)
        | st.lists(st.sampled_from("abcdef"), max_size=6, unique=True)
        | st.lists(VERTEX_IDS, max_size=6)
    )
    vertices = []
    for vid in ids:
        vertex = {"id": vid}
        if draw(st.booleans()):
            vertex["sign"] = draw(st.sampled_from(["-", "+"]) | JSON_VALUES)
        if draw(st.integers(0, 4)) == 0:
            vertex["phantom"] = draw(st.booleans() | JSON_VALUES)
        vertices.append(vertex)
    if kind < 5:  # attach each vertex to an earlier one
        edges = [
            [ids[draw(st.integers(0, i - 1))], ids[i]] for i in range(1, len(ids))
        ]
    else:
        endpoint = st.sampled_from(ids) | VERTEX_IDS if ids else VERTEX_IDS
        edges = draw(st.lists(st.lists(endpoint, min_size=1, max_size=3), max_size=6))
    return {"vertices": vertices, "edges": edges}


def fuzz_documents():
    """Half the time a valid tree with phantoms, else any `tree_documents` file."""
    return st.builds(tree_to_json, phantom_trees(max_vertices=6)) | tree_documents()


def document_ids(document, standard_only=False):
    """The ids of the file's vertices as written on a command line, if it has any."""
    try:
        return [
            str(vertex["id"])
            for vertex in document["vertices"]
            if not (standard_only and vertex.get("phantom") is True)
        ]
    except (AttributeError, KeyError, TypeError):
        return []


FUZZED_COMMANDS = (
    "blocks",
    "complex",
    "polytope",
    "flipgraph",
    "singletons",
    "barycenter",
    "signature-sweep",
    "minkowski",
    "kappa",
    "congruence-check",
    "isometric",
)


@st.composite
def fuzz_runs(draw):
    """A command, its tree files, and an `--order` drawn from the first file's ids.

    The order is mostly a permutation of the ids not marked phantom, else
    any list of ids; `isometric` compares the file with itself or another.
    """
    command = draw(st.sampled_from(FUZZED_COMMANDS))
    documents = [draw(fuzz_documents())]
    options = []
    if command == "isometric":
        documents.append(draw(st.just(documents[0]) | fuzz_documents()))
    if command in ("kappa", "congruence-check"):
        ids = document_ids(documents[0])
        orders = st.permutations(document_ids(documents[0], standard_only=True))
        if ids:
            orders |= st.lists(st.sampled_from(ids), max_size=7)
        options = ["--order=" + ",".join(draw(orders))]  # an id may start with "-"
    return command, documents, options


@given(fuzz_runs())
@settings(max_examples=150, deadline=None)
def test_any_tree_file_exits_cleanly(tmp_path_factory, run):
    command, documents, options = run
    paths = []
    for i, document in enumerate(documents):
        path = tmp_path_factory.getbasetemp() / f"fuzz_tree_{i}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *paths, *options])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


class TestDeterminism:
    def test_repeat_runs_identical(self, tripod_file):
        outputs = set()
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "arbora.cli", "polytope", tripod_file],
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


def test_cli_import_loads_only_the_tree_layer():
    probe = (
        "import sys, arbora.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('arbora.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == str(["arbora.cli", "arbora.errors", "arbora.trees"])


def test_polytope_cold_path_loads_no_dataclasses_inspect_or_fractions(tripod_file):
    # -S: the site hooks of an installation may import these modules themselves
    src = str(Path(arbora.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import arbora.cli, arbora.geometry, arbora.spines, arbora.blocks, arbora.fans; "
        f"code = arbora.cli.main(['polytope', {tripod_file!r}]); "
        "heavy = [m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules]; "
        "print(code, heavy, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stderr == "0 []\n"
    assert json.loads(result.stdout)["certificate"] == "PASS"


def test_polytope_and_flipgraph_write_the_spines_as_spine_to_json_does(tmp_path, capsys):
    """The index-arc writer against `spine_to_json` of the built spines."""
    for k, tree in enumerate(corpus(max_nu=5)):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(tree_to_json(tree)))
        description = realize_polytope(tree)
        expected = {
            "vertices": [
                {"spine": spine_to_json(spine), "coords": [point[v] for v in sorted(tree.standard)]}
                for spine, point in description.vertices
            ],
            "facets": [
                {"block": sorted(block), "rhs": half.rhs} for block, half in description.facets
            ],
            "certificate": "PASS",
        }
        assert run_cli(["polytope", str(path)], capsys) == (0, dumps(expected))
        code, out = run_cli(["flipgraph", str(path)], capsys)
        assert code == 0
        spines = [spine_to_json(spine) for spine in enumerate_maximal_spines(tree)]
        assert json.loads(out)["spines"] == spines


class TestSignatureMachinery:
    def test_tripod_automorphisms(self):
        autos = unsigned_automorphisms(tripod_neg())
        assert len(autos) == 6  # leaves permute freely

    def test_tripod_single_class(self):
        assert len(signature_classes(tripod_neg())) == 1

    def test_htree_two_classes(self):
        assert len(signature_classes(htree_eq())) == 2

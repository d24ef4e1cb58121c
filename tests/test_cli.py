import concurrent.futures
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chardeg import cli, lie, symalt
from chardeg.claims import (
    CLAIMS, COMPOSITION_E_MIN, COMPOSITION_TERMS, FAIL, PASS, WITNESS_QS, RunConfig,
    _check_part3, _witness_group, ingest_degree_records, run_claims)
from chardeg.exactmath import positive_from
from chardeg.psl2 import psl2_degrees

TORUS_TABLE = str(Path(__file__).parent.parent / "data" / "torus_orders.json")
PERFBENCH = Path(__file__).parent.parent / "perfbench"
SRC = Path(__file__).parent.parent / "src"


def test_ingest_valid_records(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"name": "C2", "order": 2, "degrees": [[1, 2]]}\n'
        '{"name": "PSL2_7", "order": 168, "degrees": '
        '[[1, 1], [3, 2], [6, 1], [7, 1], [8, 1]]}\n')
    records = ingest_degree_records(path)
    assert [r.name for r in records] == ["C2", "PSL2_7"]
    assert records[1].degrees.entries == psl2_degrees(7).entries


def test_ingest_rejects_order_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "X", "order": 11, "degrees": [[1, 2], [2, 2]]}\n')
    with pytest.raises(ValueError, match="X"):
        ingest_degree_records(path)


def test_ingest_rejects_duplicates_and_parse_errors(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text('{"name": "A", "order": 1, "degrees": [[1, 1]]}\n'
                    '{"name": "A", "order": 1, "degrees": [[1, 1]]}\n')
    with pytest.raises(ValueError, match="duplicate"):
        ingest_degree_records(path)
    path2 = tmp_path / "parse.jsonl"
    path2.write_text("not json\n")
    with pytest.raises(ValueError, match="parse.jsonl:1"):
        ingest_degree_records(path2)


@pytest.mark.parametrize("record", [
    '{"name": "PSL2_7", "order": 168.0, "degrees": [[1, 1], [3, 2], [6, 1], [7, 1], [8, 1]]}',
    '{"name": "C2", "order": 2, "degrees": [[1.9, 2]]}',
    '{"name": "C2", "order": 2, "degrees": [[1, true], [1, 1]]}',
    '{"name": ["C2"], "order": 2, "degrees": [[1, 2]]}',
])
def test_ingest_rejects_non_integer_fields(record, tmp_path, capsys):
    path = tmp_path / "typed.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(ValueError, match=r"typed\.jsonl:1: expected a string name"):
        ingest_degree_records(path)
    assert cli.main(["epsilon", "--degrees", str(path)]) == 1
    out = capsys.readouterr().out
    assert "typed.jsonl:1" in out and "error" not in out.lower()


@pytest.mark.parametrize("record", [
    # merged, the pairs would read as S3's degrees [[1, 2], [2, 1]]
    '{"name": "S3", "order": 6, "degrees": [[1, 2], [2, 2], [2, -1]]}',
    '{"name": "C5", "order": 5, "degrees": [[1, 5], [5, 0]]}',
    # the empty sum of squares would equal the order 0
    '{"name": "E", "order": 0, "degrees": []}',
])
def test_ingest_rejects_non_positive_degrees_and_multiplicities(record, tmp_path, capsys):
    path = tmp_path / "signs.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(ValueError, match=r"signs\.jsonl:1: degrees and multiplicities must be positive"):
        ingest_degree_records(path)
    assert cli.main(["epsilon", "--degrees", str(path)]) == 1
    assert "signs.jsonl:1: degrees and multiplicities must be positive" in capsys.readouterr().out


def test_ingest_accepts_the_benchmark_degree_records(tmp_path):
    # the verify-all workload writes these records; they must still pass
    spec = importlib.util.spec_from_file_location("perfbench_groups", PERFBENCH / "groups.py")
    groups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(groups)
    rows = groups.degree_records(23)
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert [r.name for r in ingest_degree_records(path)] == [r["name"] for r in rows]


def test_e_of_command(capsys):
    assert cli.main(["e-of", "54", "6"]) == 0
    out = capsys.readouterr().out
    assert "e = 3" in out and "slack 0" in out


def test_analyze_group_command(tmp_path, capsys):
    spec = tmp_path / "d8.json"
    spec.write_text(json.dumps({
        "name": "D8", "kind": "permutation", "degree": 4,
        "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}))
    assert cli.main(["analyze-group", "--group-spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out and "True (degree 2)" in out


def test_poly_subcommand_report(tmp_path, capsys):
    report = tmp_path / "poly.json"
    assert cli.main(["poly", "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert {entry["claim"] for entry in payload} == {
        "lem3.3/srim-table", "sec3/nd-counts"}
    assert all(entry["status"] == "pass" for entry in payload)


@pytest.mark.parametrize("argv, message", [
    (["e-of", "-5", "1"], "input error: order must be positive"),
    (["e-of", "0", "1"], "input error: order must be positive"),
])
def test_out_of_range_input_is_named_in_its_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", message + "\n")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TASKS = Path("/proc/self/task")


def _fresh(code: str, **env: str):
    """The JSON that `code` prints last in a fresh interpreter, whose
    environment has no BLAS thread variable but those in `env`, so that no
    other test's imports or settings count."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    done = subprocess.run([sys.executable, "-c", code],
                          env={**base, "PYTHONPATH": str(SRC), **env},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules_after(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh interpreter, listed
    before json is imported to print them."""
    return set(_fresh(code + "\nimport sys; modules = sorted(sys.modules)\n"
                      "import json; print(json.dumps(modules))"))


HEAVY_MODULES = ("numpy", "chardeg.groupengine", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("code", [
    "import chardeg.cli",
    "from chardeg import cli; cli.main(['e-of', '168', '6'])",
    "from chardeg import cli; cli.main(['epsilon'])",
])
def test_cli_loads_neither_numpy_nor_the_worker_pool_until_needed(code):
    loaded = _modules_after(code)
    assert [name for name in HEAVY_MODULES if name in loaded] == []


CLAIM_MODULES = ("bounds", "degrees", "exactmath", "gf2poly", "lie", "partitions",
                 "psl2", "symalt")


@pytest.mark.parametrize("code, loaded", [
    ("import chardeg.cli", []),
    ("from chardeg import cli; cli.main(['e-of', '168', '6'])",
     ["bounds", "degrees", "exactmath"]),
    ("from chardeg import cli; cli.main(['psl2'])",
     ["bounds", "degrees", "exactmath", "psl2"]),
])
def test_cli_loads_each_claim_module_when_a_claim_first_uses_it(code, loaded):
    modules = _modules_after(code)
    assert [name for name in CLAIM_MODULES if f"chardeg.{name}" in modules] == loaded


def test_importing_the_cli_loads_only_the_command_line():
    added = _modules_after("import chardeg.cli") - _modules_after("")
    assert added <= {"__future__", "chardeg", "chardeg.cli", "chardeg.errors"}


def test_a_command_that_runs_no_claim_loads_neither_the_claims_nor_json():
    loaded = _modules_after("from chardeg import cli; cli.main(['e-of', '168', '6'])")
    assert "chardeg.claims" not in loaded and "json" not in loaded


def test_gagola_loads_numpy_and_the_group_engine():
    loaded = _modules_after("from chardeg import cli; cli.main(['gagola'])")
    assert {"numpy", "chardeg.groupengine"} <= loaded


@pytest.mark.skipif(not TASKS.is_dir() or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task on 2 or more CPUs")
def test_group_engine_loads_numpy_with_one_blas_thread():
    # chardeg makes no BLAS call, so an OpenBLAS worker thread would only spin
    threads, value = _fresh(
        "import json, os\n"
        "from chardeg import groupengine\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert (threads, value) == (1, "1")


def test_a_callers_blas_thread_count_is_kept():
    assert _fresh("import json, os, chardeg\n"
                  "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
                  OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.skipif(not TASKS.is_dir(), reason="counts threads in /proc/self/task")
def test_worker_pool_forks_after_numpy_is_loaded():
    # with a claim that builds groups selected, the workers then share the
    # parent's numpy instead of each importing it, and fork a process that
    # runs one thread
    code = (
        "import concurrent.futures, os, sys\n"
        "from chardeg import claims\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append(('numpy' in sys.modules,"
        " len(os.listdir('/proc/self/task'))))\n"
        "    def __enter__(self): return self\n"
        "    def __exit__(self, *exc): return False\n"
        "    def map(self, fn, items): return map(fn, items)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "claims.run_claims(['lem3.2/euler-tail', 'lem7.1/gagola-arithmetic'],\n"
        "                  claims.RunConfig(jobs=2))\n"
        "assert seen == [(True, 1)], seen\n")
    assert "numpy" in _modules_after(code)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs each claim in a forked child")
def test_worker_pool_forks_after_the_claims_modules_are_loaded(tmp_path):
    # each claim runs in a child forked from a process that has loaded only
    # chardeg.claims, beside a claim that imports nothing; every chardeg module
    # it loads must already be loaded when the stand-in pool is created
    degrees = tmp_path / "records.jsonl"
    degrees.write_text('{"name": "C2", "order": 2, "degrees": [[1, 2]]}\n')
    code = (
        "import concurrent.futures, json, os, sys\n"
        "from chardeg import claims\n"
        "def chardeg_modules():\n"
        "    return {m for m in sys.modules if m.startswith('chardeg.')}\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers): seen.append(chardeg_modules())\n"
        "    def __enter__(self): return self\n"
        "    def __exit__(self, *exc): return False\n"
        "    def map(self, fn, items): return map(fn, items)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"cfg = claims.RunConfig(degrees_path={str(degrees)!r}, jobs=2)\n"
        "late = {}\n"
        "for claim in claims.CLAIMS:\n"
        "    read, write = os.pipe()\n"
        "    if os.fork() == 0:\n"
        "        try:\n"
        "            reports = claims.run_claims([claim, 'lem5.1/extendible-witness'], cfg)\n"
        "            result = [[r.status for r in reports],\n"
        "                      sorted(chardeg_modules() - seen[0])]\n"
        "        except Exception as exc:\n"
        "            result = repr(exc)\n"
        "        os.write(write, json.dumps(result).encode())\n"
        "        os._exit(0)\n"
        "    os.close(write)\n"
        "    with os.fdopen(read) as pipe:\n"
        "        late[claim] = json.loads(pipe.read())\n"
        "    os.wait()\n"
        "print(json.dumps(late))\n")
    assert _fresh(code) == {claim: [["pass", "pass"], []]
                            for claim in CLAIMS}


def test_worker_pool_leaves_numpy_unloaded_without_group_claims():
    # no psl2 claim builds a group, so the group engine is not loaded
    # before the fork
    loaded = _modules_after("from chardeg import cli; cli.main(['psl2', '--jobs', '2'])")
    assert "concurrent.futures" in loaded
    assert "numpy" not in loaded and "chardeg.groupengine" not in loaded


def test_seitz_passes_both_claims_without_flags(capsys):
    assert cli.main(["seitz"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "sec3/seitz-twisted" in out


def test_verify_all_leaves_only_the_degree_records_out_of_scope(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify-all", "--report", str(report)]) == 0
    capsys.readouterr()
    statuses = {e["claim"]: e["status"] for e in json.loads(report.read_text())}
    assert statuses == {claim: "out-of-scope" if claim == "user/degree-records" else "pass"
                        for claim in CLAIMS}


def test_seitz_with_shipped_table(capsys):
    assert cli.main(["seitz", "--torus-table", TORUS_TABLE]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_missing_torus_table_aborts_before_running(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["seitz", "--torus-table", "/nonexistent/torus.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: torus table")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag, what", [("--torus-table", "torus table"),
                                        ("--degrees", "degree file")])
def test_an_input_path_that_is_a_directory_is_not_a_file(flag, what, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["poly", flag, str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", f"configuration error: {what} {str(tmp_path)!r} is not a file\n")


@pytest.mark.parametrize("table, key", [
    ({"2A/8/2": 5.5}, "2A/8/2"),
    ({"2A/8/2": 6561}, "2A/8/2"),
    ({"2A/x/2": "3"}, "2A/x/2"),
    ({"2A/8": "6561"}, "2A/8"),
    ({"2A/8/2": "0"}, "2A/8/2"),
    ({"2A/8/2": "-3"}, "2A/8/2"),
    ({"2A/8/2": "6561.0"}, "2A/8/2"),
    ([], None),
    ("6561", None),
])
def test_bad_torus_table_fails_the_twisted_claim(table, key, tmp_path):
    # the loader refuses the table; no claim reads one any more
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    with pytest.raises(ValueError) as exc:
        lie.load_torus_table(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    assert key is None or repr(key) in message


def test_part3_checks_every_shape_and_names_each_failure(monkeypatch):
    assert _check_part3(RunConfig()) == (
        PASS, ["shapes=1539", "ns=[9, 10, 11]", "r<=3", "failures=[]"])
    bad = lie.make_shape("O-", 11, 2, 1, [(3, 3, -1)])
    true_degree = lie.semisimple_degree
    monkeypatch.setattr(lie, "semisimple_degree",
                        lambda shape: true_degree(shape) * (1 << 200 if shape == bad else 1))
    assert _check_part3(RunConfig()) == (
        FAIL, ["shapes=1539", "ns=[9, 10, 11]", "r<=3", f"failures={[str(bad)]}"])


@pytest.mark.parametrize("argv", [
    ["rho", "--max-n", "61"],
    ["rho", "--max-n", "6"],
    ["e-of", "55", "6"],
    ["e-of", "54", "0"],
    ["analyze-group", "--group-spec", "bad-perm.json"],
    ["analyze-group", "--group-spec", "truncated.json"],
    ["analyze-group", "--group-spec", "missing.json"],
    ["analyze-group", "--group-spec", "too-big.json"],
    ["analyze-group", "--group-spec", "int-generator.json"],
    ["analyze-group", "--group-spec", "top-level-list.json"],
    ["analyze-group", "--group-spec", "str-entry.json"],
    ["verify-all", "--jobs", "0"],
    ["lie38", "--jobs", "-3"],
    ["epsilon", "--degrees", "missing.jsonl"],
    ["poly", "--degrees", "."],
    ["seitz", "--torus-table", "."],
    ["analyze-group", "--group-spec", "list-name.json"],
    ["analyze-group", "--group-spec", "bool-degree.json"],
    ["analyze-group", "--group-spec", "bool-entry.json"],
    ["analyze-group", "--group-spec", "bool-dimension.json"],
    ["analyze-group", "--group-spec", "bool-field.json"],
    ["psl2", "--report", "missing/dir/r.json"],
    ["verify-all", "--report", "."],
    ["analyze-group", "--group-spec", "c2.json", "--report", "c2.json/r.json"],
])
def test_bad_input_aborts_before_running(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # S8 has more elements than the closure limit
    s8 = [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]
    for name, spec in (("bad-perm.json", {"kind": "permutation", "degree": 3,
                                          "generators": [[0, 0, 1]]}),
                       ("too-big.json", {"kind": "permutation", "degree": 8,
                                         "generators": s8}),
                       ("int-generator.json", {"kind": "permutation", "degree": 1,
                                               "generators": [5]}),
                       ("top-level-list.json", [{"kind": "permutation", "degree": 2,
                                                 "generators": [[1, 0]]}]),
                       ("str-entry.json", {"kind": "permutation", "degree": 2,
                                           "generators": [["a", 0]]}),
                       ("list-name.json", {"name": ["x"], "kind": "permutation",
                                           "degree": 2, "generators": [[1, 0]]}),
                       # JSON booleans are not integers, though Python reads
                       # true as 1
                       ("bool-degree.json", {"kind": "permutation", "degree": True,
                                             "generators": [[0]]}),
                       ("bool-entry.json", {"kind": "permutation", "degree": 3,
                                            "generators": [[True, 0, 2]]}),
                       ("bool-dimension.json", {"kind": "matrix", "dimension": True,
                                                "field": 3, "generators": [[1]]}),
                       ("bool-field.json", {"kind": "matrix", "dimension": 1,
                                            "field": True, "generators": [[1]]}),
                       ("c2.json", {"kind": "permutation", "degree": 2,
                                    "generators": [[1, 0]]})):
        (tmp_path / name).write_text(json.dumps(spec))
    (tmp_path / "truncated.json").write_text('{"kind": "permutation", "degree"')
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("configuration error: ", "input error: "))
    assert captured.err.count("\n") == 1


REFUSED_REPORT = "/proc/self/chardeg-report.json"


@pytest.mark.skipif(not Path("/proc/self").is_dir(),
                    reason="writes a report into the /proc pseudo-filesystem")
@pytest.mark.parametrize("argv, first_line", [
    (["psl2", "--report", REFUSED_REPORT], "PASS          sec5-6/psl2-degree-sums"),
    (["analyze-group", "--group-spec", "c2.json", "--report", REFUSED_REPORT],
     "group C2: order 2"),
], ids=["claims", "analyze-group"])
def test_report_the_system_refuses_is_one_output_error(argv, first_line, tmp_path,
                                                        monkeypatch, capsys):
    # /proc/self is a directory, so the path passes the check before the
    # claims run, but no file can be created in it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c2.json").write_text(json.dumps({
        "name": "C2", "kind": "permutation", "degree": 2, "generators": [[1, 0]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(first_line)
    assert captured.err.startswith(f"output error: cannot write report {REFUSED_REPORT!r}: ")
    assert captured.err.count("\n") == 1


def test_claim_exception_is_reported_and_the_rest_still_run(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(CLAIMS, "lem5.1/extendible-witness", (broken, ()))
    report = tmp_path / "psl2.json"
    assert cli.main(["psl2", "--report", str(report)]) == 1
    assert "ERROR" in capsys.readouterr().out
    statuses = {entry["claim"]: (entry["status"], entry["witnesses"])
                for entry in json.loads(report.read_text())}
    assert statuses.pop("lem5.1/extendible-witness") == ("error", ["RuntimeError: boom"])
    assert set(statuses) == {"sec5-6/psl2-degree-sums", "lem6.2/theta2-stabilizer",
                             "thm3.1/epsilon-psl2"}
    assert all(status == "pass" for status, _ in statuses.values())


def _certificates(node):
    """Every object of a parsed report whose keys are exactly poly and from."""
    if isinstance(node, dict) and node.keys() == {"poly", "from"}:
        yield node
    elif isinstance(node, (dict, list)):
        for item in node.values() if isinstance(node, dict) else node:
            yield from _certificates(item)


def _rechecks(cert) -> bool:
    return positive_from([Fraction(c) for c in cert["poly"]], Fraction(cert["from"]))


def _lowered(cert) -> dict:
    """The certificate with its constant term lowered by 10**6."""
    return {**cert, "poly": [str(Fraction(cert["poly"][0]) - 10**6), *cert["poly"][1:]]}


def test_every_certificate_in_a_report_rechecks_from_the_json_alone(tmp_path):
    report = tmp_path / "psl2.json"
    assert cli.main(["psl2", "--report", str(report)]) == 0
    certs = list(_certificates(json.loads(report.read_text())))
    # 8, 9 and 9 epsilon-psl2 margins for q even, 3 mod 4 and 1 mod 4, and
    # the theta2-stabilizer quadratic
    assert len(certs) == 27
    assert all(_rechecks(c) for c in certs)
    assert not any(_rechecks(_lowered(c)) for c in certs)


def test_tracer_hook_points_resolve():
    # perfbench/tracer.py wraps these names; a rename breaks every traced run
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(modname, attr)
             for table in (tracer.CLI_ENTRY_POINTS, tracer.CLI_GENERATORS)
             for modname, attrs in table.items() for attr in attrs]
    hooks += [("symalt", attr) for attr in ("partitions_of", "sqrt_interval", "root_interval")]
    missing = [f"{modname}.{attr}" for modname, attr in hooks
               if not hasattr(importlib.import_module(f"chardeg.{modname}"), attr)]
    assert missing == []


def test_benchmark_command_line_passes_every_claim(tmp_path, monkeypatch, capsys):
    # perfbench/run.py runs verify-all with these flags; removing one that it
    # passes breaks every benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    inputs = run.Inputs("verify-all", 7, tmp_path)
    out = inputs.output_path("cli")
    assert cli.main(inputs.cli_args(out)) == 0
    capsys.readouterr()
    assert run.count_failed(inputs, out) == 0


def test_traced_benchmark_run_passes_every_claim(tmp_path):
    # a change that keeps every wrapped name but breaks a wrapped call fails
    # here, not only in the benchmark's traced run
    script = (
        "import contextlib, io, sys\n"
        "from pathlib import Path\n"
        "import run\n"
        "from tracer import Tracer, install\n"
        "from chardeg import cli\n"
        "install(Tracer())\n"
        "inputs = run.Inputs('verify-all', 7, Path(sys.argv[1]))\n"
        "out = inputs.output_path('traced')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(inputs.cli_args(out))\n"
        "print(code, run.count_failed(inputs, out))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(SRC)])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_tracer_installs_in_a_fresh_interpreter():
    # install also wraps class methods and groupengine functions that the
    # entry-point tables above do not list
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PERFBENCH), str(src)])}
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; install(Tracer())"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_epsilon_with_bad_degrees_file_fails(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "X", "order": 11, "degrees": [[1, 2], [2, 2]]}\n')
    assert cli.main(["epsilon", "--degrees", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_epsilon_with_good_degrees_file(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text('{"name": "PSL2_7", "order": 168, "degrees": '
                    '[[1, 1], [3, 2], [6, 1], [7, 1], [8, 1]]}\n')
    assert cli.main(["epsilon", "--degrees", str(good)]) == 0
    out = capsys.readouterr().out
    assert "epsilon=13/8" in out


def test_report_determinism(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert cli.main(["situations", "--report", str(r)]) == 0
    capsys.readouterr()
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for entry in a + b:
        entry.pop("seconds")
    assert a == b


def test_rho_subcommand_single_witness(tmp_path, capsys):
    report = tmp_path / "rho.json"
    assert cli.main(["rho", "--max-n", "7", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "thm2.1/rho-direct" in out and "n=7..87" in out
    direct = json.loads(report.read_text())[0]
    assert direct["claim"] == "thm2.1/rho-direct"
    assert direct["witnesses"][2][0] == [7, [4, 2, 1]]


def test_rho_benchmark_command_covers_7_to_74(tmp_path, capsys):
    # --max-n 50 narrows nothing: the certificates run past 74 to the tail's
    # first n, 87, and the tail covers every n from there on
    report = tmp_path / "rho.json"
    assert cli.main(["rho", "--max-n", "50", "--report", str(report)]) == 0
    capsys.readouterr()
    direct, induction = json.loads(report.read_text())
    assert direct["status"] == induction["status"] == "pass"
    assert direct["witnesses"][:2] == ["n=7..87", "failures=[]"]
    assert [n for n, _ in direct["witnesses"][2]] == list(range(7, 88))
    assert induction["witnesses"][0] == "every n>=87"


def test_rho_tail_certificates_recheck_from_the_report_alone(tmp_path, capsys):
    report = tmp_path / "rho.json"
    assert cli.main(["rho", "--report", str(report)]) == 0
    capsys.readouterr()
    certs = list(_certificates(json.loads(report.read_text())))
    assert len(certs) == 3 and all(c["from"] == "7/4" for c in certs)
    assert all(_rechecks(c) for c in certs)
    assert not any(_rechecks(_lowered(c)) for c in certs)


@pytest.mark.parametrize("k", range(3))
def test_rho_tail_claim_fails_with_a_certificate_lowered(k, monkeypatch):
    polys = symalt.rho_tail_polynomials()
    name = list(polys)[k]
    polys[name] = [polys[name][0] - 10**6, *polys[name][1:]]
    monkeypatch.setattr(symalt, "rho_tail_polynomials", lambda: polys)
    [report] = run_claims(["thm2.1/rho-induction"], RunConfig())
    assert report.status == FAIL
    assert report.witnesses[-1] == f"failures={[name]}"
    assert report.witnesses[2][name]["poly"][0] == str(polys[name][0])


@pytest.mark.parametrize("n, bad_lam", [
    (8, (4, 2, 1, 1)),   # self-conjugate, though 8 * 90**8 > (8!)**3
    (10, (5, 3, 2, 1)),  # the certificate of 11, large enough for 10
    (7, (6, 1)),         # degree 6: 8 * 6**8 < (7!)**3
    (30, None),          # no certificate at all
])
def test_rho_direct_checks_every_certificate(n, bad_lam, monkeypatch):
    certs = dict(symalt.rho_certificates())
    if bad_lam is None:
        del certs[n]
    else:
        certs[n] = bad_lam
    monkeypatch.setattr(symalt, "rho_certificates", lambda: list(certs.items()))
    [report] = run_claims(["thm2.1/rho-direct"], RunConfig())
    assert report.status == "fail"
    assert report.witnesses[1] == f"failures={[n]}"


def _composition_claim(monkeypatch, e_min, terms):
    monkeypatch.setattr("chardeg.claims.COMPOSITION_E_MIN", e_min)
    monkeypatch.setattr("chardeg.claims.COMPOSITION_TERMS", terms)
    [report] = run_claims(["lem3.5/composition-bound"], RunConfig())
    return report


def _bump(factor, monomial):
    return {**factor, monomial: factor[monomial] + 1}


def test_composition_claim_fails_when_any_coefficient_changes(monkeypatch):
    mutants = [(_bump(COMPOSITION_E_MIN, m), COMPOSITION_TERMS) for m in COMPOSITION_E_MIN]
    for k, term in enumerate(COMPOSITION_TERMS):
        for i, factor in enumerate(term):
            for m in factor:
                bumped = term[:i] + (_bump(factor, m),) + term[i + 1:]
                mutants.append((COMPOSITION_E_MIN,
                                COMPOSITION_TERMS[:k] + (bumped,) + COMPOSITION_TERMS[k + 1:]))
    assert len(mutants) == 3 + 14
    for e_min, terms in mutants:
        report = _composition_claim(monkeypatch, e_min, terms)
        assert report.status == FAIL, terms
        assert "('identity', " in report.witnesses[-1]


def test_composition_claim_needs_the_degree_bound_and_the_signs(monkeypatch):
    # b(b - 1)(b - 2) vanishes on the grid but has degree 3 in bN
    vanishing = ({"bN": 1}, {"bN": 1, "1": -1}, {"bN": 1, "1": -2})
    report = _composition_claim(monkeypatch, COMPOSITION_E_MIN, COMPOSITION_TERMS + (vanishing,))
    assert report.status == FAIL and "('degree', 'bN')" in report.witnesses[-1]
    # the square expanded is the same polynomial, but no term shows its sign
    expanded = ({"eN*eN*bQ*bQ": 1},), ({"eN*bQ*bN*eQ": -2},), ({"bN*bN*eQ*eQ": 1},)
    report = _composition_claim(monkeypatch, COMPOSITION_E_MIN, expanded + COMPOSITION_TERMS[1:])
    assert (report.status, report.witnesses[-1]) == (FAIL, "failures=['sign']")
    assert _composition_claim(monkeypatch, COMPOSITION_E_MIN, COMPOSITION_TERMS).status == PASS


@pytest.mark.parametrize("order, degrees, reason", [
    # d = 3 gives e = 15/3 - 3 = 2, and 15 > 2**4 - 2**3
    (15, [[3, 1], [1, 6]], "X: degree 3, e=2, order 15 > e^4-e^3 = 8"),
    (5, [[2, 1], [1, 1]], "X: degree 2 does not divide order 5"),
])
def test_degree_record_breaking_the_quartic_bound_fails(order, degrees, reason,
                                                       tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"name": "X", "order": order, "degrees": degrees}) + "\n")
    assert cli.main(["epsilon", "--degrees", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and reason in out


def test_claim_registry_is_consistent():
    # verify-all runs CLAIMS itself; every narrower subcommand names its ids
    assert cli.SUBCOMMAND_CLAIMS["verify-all"] is None
    for name, subset in cli.SUBCOMMAND_CLAIMS.items():
        assert name == "verify-all" or set(subset) <= set(CLAIMS), name


def test_parallel_jobs_agree_with_serial(capsys):
    # gagola-arithmetic builds groups, so the pool forks after numpy loads
    claims = ["lem3.2/euler-tail", "lem3.5/composition-bound", "lem7.1/gagola-arithmetic"]
    serial = run_claims(claims, RunConfig(jobs=1))
    parallel = run_claims(claims, RunConfig(jobs=2))
    assert [(r.claim, r.status, r.witnesses) for r in serial] == \
        [(r.claim, r.status, r.witnesses) for r in parallel]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing
    and maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, pool_sizes", [(1000, [3]), (2, [2]), (1, [])])
def test_worker_pool_is_capped_at_the_number_of_claims(jobs, pool_sizes, monkeypatch):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    claims = ["lem3.2/euler-tail", "lem3.5/composition-bound", "lem5.1/extendible-witness"]
    reports = run_claims(claims, RunConfig(jobs=jobs))
    assert sizes == pool_sizes
    assert [(r.claim, r.status) for r in reports] == [(c, "pass") for c in claims]


def test_gagola_claims_build_each_witness_group_once(monkeypatch):
    from chardeg import groupengine

    built = []
    build = groupengine.build_example_group
    monkeypatch.setattr(groupengine, "build_example_group",
                        lambda family, q: built.append((family, q)) or build(family, q))
    _witness_group.cache_clear()
    try:
        reports = run_claims(cli.SUBCOMMAND_CLAIMS["gagola"], RunConfig())
    finally:
        _witness_group.cache_clear()
    assert [r.status for r in reports] == ["pass", "pass"]
    assert built == [("isaacs_K", q) for q in WITNESS_QS]


def test_run_claims_rejects_fewer_than_one_job():
    with pytest.raises(ValueError, match="jobs"):
        run_claims(["lem3.2/euler-tail"], RunConfig(jobs=0))

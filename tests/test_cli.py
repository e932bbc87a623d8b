import argparse
import contextlib
import inspect
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ck_spectra import VerificationFailure, emit_gcg, parse_graph, running_example
from ck_spectra import cli, errors, graph_core, ideals, tails, topology

from .oracles import bundle_chain


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("gcg") / "fixture.gcg"
    path.write_text(emit_gcg(running_example()))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- exit codes ------------------------------------------------------------------


def test_check_reports_k_violation_with_exit_zero(tmp_path, capsys):
    path = tmp_path / "loop.gcg"
    path.write_text("vertex a; edge a -> a;\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "condition K: no (vertex a has exactly one simple cycle)" in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.gcg"
    path.write_text("vertex a\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "parse error: 2:1" in err


@pytest.mark.parametrize(
    "data, position",
    [
        ("vertex a, b;\nedge a -> b * ²;\n".encode(), "2:15"),  # int() rejects '²'
        (b"vertex a;\n# caf\xc3\xa9\nedge a -> \xff a;\n", "3:11"),  # not UTF-8
        (b"vertex a;\r\n\xc3(", "2:1"),  # a cut multibyte sequence, after CRLF
        (b"vertex a;\redge a -> b;\r", "2:11"),  # a lone CR ends the line
    ],
    ids=["superscript-count", "bad-byte", "cut-sequence", "lone-cr"],
)
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bad_count_and_bad_bytes_exit_two(data, position, source, tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "bad.gcg"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "check", "-" if source == "stdin" else str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {position}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_file_line_endings_read_as_text_mode_reads_them(tmp_path, capsys):
    path = tmp_path / "cr.gcg"
    path.write_bytes(b"vertex a;\rvertex a;")
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (2, "parse error: 2:8: vertex 'a' already declared\n")


def test_precondition_violation_exits_three(tmp_path, capsys):
    path = tmp_path / "loop.gcg"
    path.write_text("vertex a; edge a -> a;\n")
    code, _, err = run(capsys, "spec", str(path))
    assert code == 3 and "Condition (K)" in err


def test_bad_quotient_set_exits_three(fixture_path, capsys):
    code, _, err = run(capsys, "quotient", "--H", "y", fixture_path)
    assert code == 3 and "saturated" in err


def test_size_limit_exits_four(tmp_path, capsys):
    # 25 sinks are 25 disjoint tails with 2^25 unions: past the default cap
    # of 2^20 ideals, refused once the unions pass it
    names = ", ".join(f"v{i}" for i in range(25))
    path = tmp_path / "big.gcg"
    path.write_text(f"vertex {names};\n")
    code, _, err = run(capsys, "ideals", str(path))
    assert code == 4 and "limit" in err


@pytest.mark.parametrize(
    "argv",
    [[command, *limit] for command in ("ideals", "verify") for limit in (["--limit", "-1"], ["--limit=-1"])]
    + [["verify", "--exhaustive-limit", "-1"], ["verify", "--exhaustive-limit=-1"]],  # not "always sample"
    ids=" ".join,
)
def test_negative_limit_is_a_usage_error(argv, fixture_path, capsys):
    assert cli._parse_exact([*argv, fixture_path]) is None
    with pytest.raises(SystemExit) as stop:
        cli.main([*argv, fixture_path])
    assert stop.value.code == 2
    assert f"argument {argv[1].partition('=')[0]}: invalid count value: '-1'" in capsys.readouterr().err


def test_verification_failure_exits_one(fixture_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise VerificationFailure("forced", counterexample=())

    monkeypatch.setattr(cli, "verify_homeomorphism", boom)
    code, _, err = run(capsys, "verify", fixture_path)
    assert code == 1 and "counterexample" in err


def test_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nope.gcg")
    assert code == 3


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("ea", "--set", "a,b", "--mult", "0"), 2),
        (("ea", "--set", "a,b", "--mult", "x"), 2),
        (("ea", "--set", "1,a-b"), 3),
        (("ea", "--set", "a,b,c,d,e"), 3),
        (("random", "--seed", "1", "--n", "-3"), 2),
        (("random", "--seed", "1", "--n", "4", "--density", "-1"), 2),
        (("random", "--seed", "1", "--n", "4", "--density", "nan"), 2),
        (("random", "--seed", "1", "--n", "4", "--omega-prob", "2"), 2),
    ],
)
def test_rejected_gen_input_exits_with_its_documented_code(argv, expected, capsys):
    try:
        code = cli.main(["gen", *argv])
    except SystemExit as stop:  # argparse usage errors
        code = stop.code
    err = capsys.readouterr().err
    assert code == expected
    # one message line, after the usage block (which argparse wraps at the
    # terminal width: `gen random` has a two-line usage at 80 columns)
    *usage, message = err.strip().splitlines()
    assert "Traceback" not in err
    assert all(line.startswith(("usage:", " ")) for line in usage)
    assert (": error: " if code == 2 else "precondition violation: ") in message


def test_internal_error_exits_five(fixture_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "cmd_check", boom)
    code, _, err = run(capsys, "check", fixture_path)
    assert (code, err) == (5, "internal error: RuntimeError: forced\n")


# Each error class the package raises, with no subclass of its own, and the
# exit code that the module docstring of ``cli`` gives it.
ERROR_EXIT_CODES = {
    "VerificationFailure": 1,
    "DuplicateLabel": 2,
    "UndeclaredVertex": 2,
    "UnknownVertex": 3,
    "InvalidPath": 3,
    "NotAMaximalTail": 3,
    "NotSaturatedHereditary": 3,
    "ConditionKRequired": 3,
    "SizeLimitExceeded": 4,
}


def leaf_errors(cls=errors.CkSpectraError):
    subclasses = cls.__subclasses__()
    return [leaf for sub in subclasses for leaf in leaf_errors(sub)] if subclasses else [cls]


def test_error_exit_table_lists_every_leaf_error():
    assert sorted(cls.__name__ for cls in leaf_errors()) == sorted(ERROR_EXIT_CODES)


@pytest.mark.parametrize("name, expected", ERROR_EXIT_CODES.items())
def test_each_package_error_exits_with_its_documented_code(name, expected, fixture_path, capsys, monkeypatch):
    error = getattr(errors, name)
    exc = error(1, 2, "forced") if issubclass(error, errors.ParseError) else error("forced")

    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_check", boom)
    code, out, err = run(capsys, "check", fixture_path)
    assert (code, out) == (expected, "")
    assert err.count("\n") == 1 and err.rstrip("\n").endswith(str(exc)), err


# -- command output ------------------------------------------------------------------


def test_prim_lists_five_points(fixture_path, capsys):
    code, out, _ = run(capsys, "prim", fixture_path)
    assert code == 0
    assert "points (5):" in out
    assert "FR:x = return vertex x" in out
    assert "Hausdorff: no" in out and "T0: yes" in out
    # the five primitive ideals, one per point
    for pair_text in (
        "(H={t, u, v, x, y, z}, S={})",
        "(H={t, y, z}, S={w, x})",
        "(H={y, z}, S={w, x})",
        "(H={t}, S={})",
        "(H={t, y, z}, S={w})",
    ):
        assert f"ideal: {pair_text}" in out


def test_closure_of_t4_agrees(fixture_path, capsys):
    code, out, _ = run(capsys, "closure", "--points", "T4", fixture_path)
    assert code == 0
    assert "graph-side closure (4): FR:x, T1, T2, T4" in out
    assert "agreement: yes" in out


def test_closure_unknown_point_exits_three(fixture_path, capsys):
    code, _, err = run(capsys, "closure", "--points", "T9", fixture_path)
    assert code == 3 and "unknown point" in err


def test_closure_points_skip_blank_items_like_every_comma_list(fixture_path, capsys):
    plain = run(capsys, "closure", "--points", "T4", fixture_path)
    assert run(capsys, "closure", "--points", "T4,", fixture_path) == plain
    assert run(capsys, "closure", "--points", " , T4 ,,", fixture_path) == plain


def test_closure_names_the_first_unknown_point_in_sorted_order(fixture_path, capsys):
    code, _, err = run(capsys, "closure", "--points", "T9,T4,FR:q", fixture_path)
    assert code == 3
    assert err == "precondition violation: unknown point 'FR:q'; points are: T1, T2, T3, T4, FR:x\n"


def test_closure_on_a_graph_without_points_says_none_are_known(tmp_path, capsys):
    path = tmp_path / "empty.gcg"
    path.write_text("")
    code, out, err = run(capsys, "closure", "--points", "T1", str(path))
    assert (code, out) == (3, "")
    assert err == "precondition violation: unknown point 'T1'; points are: (none)\n"


def test_closure_prim_space_and_empty_input(fixture_path, capsys):
    code, out, _ = run(capsys, "closure", "--space", "prim", "--points", "FR:x", fixture_path)
    assert code == 0 and "agreement: yes" in out
    code, out, _ = run(capsys, "closure", "--points", "", fixture_path)
    assert code == 0 and "graph-side closure (0): (none)" in out


def test_ideals_table(fixture_path, capsys):
    code, out, _ = run(capsys, "ideals", fixture_path)
    assert code == 0
    assert "admissible pairs: 12" in out
    assert "prime ideals: 5" in out
    assert "DISAGREE" not in out
    assert "primitive (finite-return vertex x)" in out


def test_verify_fixture_passes(fixture_path, capsys):
    code, out, _ = run(capsys, "verify", fixture_path)
    assert code == 0
    assert "all checks passed" in out


def test_verify_runs_each_whole_graph_scan_once(fixture_path, capsys):
    scans = {
        inspect.unwrap(fn).__code__: name
        for name, fn in (
            ("mt", tails._cluster_masks),
            ("sat_her", ideals.saturated_hereditary_sets),
            ("record", ideals._verify_record),
        )
    }
    walk = ideals._walk.__code__
    runs, walks = Counter(), set()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in scans:
            runs[scans[frame.f_code]] += 1
        elif event == "call" and frame.f_code is walk:  # also on each resumption
            walks.add(frame)

    sys.setprofile(count)
    try:
        code, _, _ = run(capsys, "verify", fixture_path)
    finally:
        sys.setprofile(None)
    assert code == 0
    # one walk over the pairs, kept as one record that both steps of verify read
    assert runs == {"mt": 1, "sat_her": 1, "record": 1} and len(walks) == 1


def test_verify_decides_each_fact_once(fixture_path, capsys):
    bodies = {
        inspect.unwrap(fn).__code__: name
        for name, fn in (
            ("kuratowski", topology.check_kuratowski),
            ("classify", ideals._direct_verdict),
            ("csp", graph_core.has_csp),
            ("quotient graph", ideals.quotient_graph),
        )
    }
    mt_body = tails._mt_holds.__code__
    runs = Counter()
    mt_masks, mt_callers = [], set()

    def count(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in bodies:
            runs[bodies[frame.f_code]] += 1
        elif frame.f_code is mt_body:
            mt_masks.append(frame.f_locals["mask"])
            mt_callers.add(frame.f_back.f_code.co_name)

    sys.setprofile(count)
    try:
        code, _, _ = run(capsys, "verify", fixture_path)
    finally:
        sys.setprofile(None)
    assert code == 0
    # one sweep per side, one direct verdict per admissible pair; no graph is
    # asked for a countable separating set, and no quotient graph is built
    assert len(ideals.admissible_pairs(running_example())) == 12
    assert runs == {"kuratowski": 2, "classify": 12}
    # MT1-MT3 are decided once per distinct mask, with no memo: each cluster
    # is the complement of an H whose pair keeps no breaking vertex, so the
    # cluster check and realization read the direct route's verdict on it
    g = running_example()
    complements = {
        g.full_mask & ~h
        for h, s in ideals.admissible_pairs(g)
        if h != g.full_mask and s == ideals._breaking_masked(g, h)
    }
    assert set(tails._cluster_masks(g)) < complements
    assert sorted(mt_masks) == sorted(complements)
    assert mt_callers == {"_direct_verdict"}


def test_verify_keeps_pairs_and_points_as_masks(fixture_path, capsys):
    def bodies(fn):
        """The code of ``fn`` and of every function defined inside it."""
        found, todo = set(), [inspect.unwrap(fn).__code__]
        while todo:
            code = todo.pop()
            found.add(code)
            todo += [c for c in code.co_consts if inspect.iscode(c)]
        return found

    cores = (
        ideals._verify_record,
        ideals._walk,
        ideals._direct_verdict,
        ideals._quotient_verdict,
        ideals.admissible_pairs,
        ideals.saturated_hereditary_sets,
    )
    inside = set().union(*map(bodies, cores)) | bodies(topology._ideal_kernel) | bodies(topology.check_kuratowski)
    names_body = graph_core.Graph.names.__code__
    callers = Counter()

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is names_body:
            f = frame.f_back
            while f is not None and f.f_code not in inside:
                f = f.f_back
            callers[f.f_code.co_name if f else "elsewhere"] += 1

    sys.setprofile(watch)
    try:
        code, _, _ = run(capsys, "verify", fixture_path)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert set(callers) == {"elsewhere"}, callers


@pytest.mark.parametrize(
    "argv", [["spec"], ["prim", "--json"], ["closure", "--points", "T4"], ["tails", "--json"]], ids=" ".join
)
def test_point_commands_turn_no_names_back_into_masks(argv, fixture_path, capsys):
    # the points are read from one table of vertex masks, so no command
    # builds a mask from vertex names after parsing
    mask_body, calls = graph_core.Graph.mask.__code__, Counter()

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is mask_body:
            calls[frame.f_back.f_code.co_name] += 1

    sys.setprofile(watch)
    try:
        code, _, _ = run(capsys, *argv, fixture_path)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert not calls, calls


def test_verify_validates_no_enumerated_pair(fixture_path, capsys):
    # an enumerated pair is admissible by construction and stays a pair of
    # masks, in `ideals` as in `verify`
    mask_body, check_body = graph_core.Graph.mask.__code__, inspect.unwrap(ideals._check_admissible).__code__
    cores = {
        "_check_admissible",
        "saturated_hereditary_sets",
        "admissible_pairs",
        "_walk",
        "_verify_record",
        "_quotient_frame",
        "_direct_verdict",
    }
    for command in ("verify", "ideals"):
        callers, validated = Counter(), []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code is mask_body:
                callers[frame.f_back.f_code.co_name] += 1
            elif event == "call" and frame.f_code is check_body:
                validated.append(frame.f_locals["pair"])

        sys.setprofile(watch)
        try:
            code, _, _ = run(capsys, command, fixture_path)
        finally:
            sys.setprofile(None)
        assert code == 0, command
        assert validated == [], command
        assert not cores & callers.keys(), (command, callers)


def test_ideals_without_condition_K_prints_one_line():
    # through a real process, where a library warning would reach stderr
    result = subprocess.run(
        [sys.executable, "-m", "ck_spectra.cli", "ideals", "-"],
        input="vertex a; edge a -> a;\n",
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "precondition violation: Condition (K) fails: vertex a has exactly one simple cycle\n"


def test_a_closed_stdout_exits_quietly(tmp_path, capsys):
    # the reader takes one line and goes, as `| head -1` does; the rest of the
    # output, megabytes of points, is far more than a pipe buffer holds
    code, text, _ = run(capsys, "gen", "random", "--seed", "3", "--n", "1000", "--density", "0.001")
    path = tmp_path / "sparse.gcg"
    path.write_text(text)
    with subprocess.Popen(
        [sys.executable, "-m", "ck_spectra.cli", "spec", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ) as proc:
        assert proc.stdout.readline() == b"points (596):\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert (code, proc.returncode, err) == (0, cli.EXIT_CLOSED_PIPE, b"")


@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_condition_K_comes_before_the_limit(command, tmp_path, capsys):
    # 21 single loops: 21 disjoint tails with 2^21 unions, past the default
    # cap of 2^20 ideals, and no vertex has (K)
    names = [f"v{i}" for i in range(21)]
    path = tmp_path / "loops.gcg"
    path.write_text(f"vertex {', '.join(names)};\n" + "".join(f"edge {v} -> {v};\n" for v in names))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert err == "precondition violation: Condition (K) fails: vertex v0 has exactly one simple cycle\n"


def test_ideals_past_two_to_the_twenty_saturated_hereditary_sets_exits_four(tmp_path, capsys):
    # 21 disjoint double-loop vertices are 21 tails with 2^21 unions, each
    # the complement of a saturated hereditary set; the union closure stops
    # past the default cap of 2^20 ideals instead of running out of memory
    names = [f"v{i}" for i in range(21)]
    path = tmp_path / "loops.gcg"
    path.write_text(f"vertex {', '.join(names)};\n" + "".join(f"edge {v} -> {v} * 2;\n" for v in names))
    code, out, err = run(capsys, "ideals", str(path))
    assert (code, out) == (4, "")
    assert err == (
        "size limit: the unions of the first 21 of 21 tails number more than 1048576, "
        "and so do the saturated hereditary sets\n"
    )


@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_past_two_to_the_twenty_admissible_pairs_exits_four(command, tmp_path, capsys):
    # 26 vertices and 28 saturated hereditary sets, but H = {h} of the chain
    # has 24 breaking vertices and so 2^24 pairs: the running total stops
    # before they are expanded instead of running out of memory
    path = tmp_path / "chain24.gcg"
    path.write_text(emit_gcg(bundle_chain(24)))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (4, "")
    assert err == "size limit: the first 3 of 28 saturated hereditary sets have over 1048576 pairs\n"


@pytest.mark.parametrize(
    "limit, err",
    [
        ("12", ""),
        ("11", "size limit: the first 6 of 6 saturated hereditary sets have over 11 pairs\n"),
        ("5", "size limit: the unions of the first 4 of 4 tails number more than 5, and so do the saturated hereditary sets\n"),
    ],
)
@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_limit_counts_the_ideals(command, limit, err, fixture_path, capsys):
    # the fixture has 6 saturated hereditary sets and 12 pairs: --limit 12
    # lists them all, 11 stops at the pairs and 5 already at the sets
    code, out, got = run(capsys, command, "--limit", limit, fixture_path)
    assert (code, got) == ((0, "") if not err else (4, err))
    assert bool(out) == (not err)


@pytest.mark.parametrize("name", ["chain20x20-s1", "chorded1500"])
@pytest.mark.parametrize("command", ["ideals", "verify"])
def test_enumeration_of_many_vertices_but_few_ideals_needs_no_limit(command, name, capsys):
    # 400 and 1,500 vertices with 21 and 2 ideals: the default cap counts ideals
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "large-sparse" / f"{name}.gcg"
    code, _, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["verify", "ideals"])
def test_enumeration_keeps_one_table_and_no_per_pair_or_per_H_verdicts(command, capsys, monkeypatch):
    # 12 disjoint double-loop vertices: 2^12 saturated hereditary sets, one
    # pair each.  The pairs are walked once and nothing is kept per pair or
    # per H: no verdict, no frame, no breaking vertices and no MT1-MT3 test.
    # verify keeps one record of the walk, with its 12 prime pairs.
    names = [f"v{i}" for i in range(12)]
    g = parse_graph(f"vertex {', '.join(names)};\n" + "".join(f"edge {v} -> {v} * 2;\n" for v in names))
    monkeypatch.setattr(cli, "_load", lambda path: g)
    code, _, _ = run(capsys, command, "loops.gcg")
    assert code == 0
    slots = {slot.rpartition(".")[2] for slot in g.__dict__ if slot.startswith("_cache:")}
    per_mask = {"_classified", "_breaking_masked", "_mt_holds", "_direct_verdict", "_quotient_frame", "_quotient_verdict"}
    assert not per_mask & slots
    assert ("_verify_record" in slots) == (command == "verify")
    if command == "verify":
        record = ideals._verify_record(g, ideals.DEFAULT_ENUMERATION_LIMIT)
        assert len(record.prime) == len(record.tails) == 12
        assert (record.disagree, record.without_l) == (None, None)
    rows = list(ideals._walk(g))
    assert [pair for pair, *_ in rows] == ideals.admissible_pairs(g) == [(h, 0) for h in ideals.saturated_hereditary_sets(g)]
    assert len(rows) == 2**12


@pytest.mark.parametrize(
    "argv", [["check"], ["tails"], ["ideals"], ["spec"], ["verify"], ["verify", "--exhaustive-limit", "2"]], ids=" ".join
)
def test_commands_keep_no_edge_table_or_subset_pool_on_the_graph(argv, capsys, monkeypatch):
    # the vertex classes and Condition (L) read the masks and the bundles, and
    # each sweep draws its subsets from the seed, sampled past the exhaustive limit
    g = running_example()
    monkeypatch.setattr(cli, "_load", lambda path: g)
    code, _, _ = run(capsys, *argv, "fixture.gcg")
    assert code == 0
    assert "edge_mult" not in g.__dict__ and not hasattr(g, "edge_mult")
    assert "_pool" not in {slot.rpartition(".")[2] for slot in g.__dict__ if slot.startswith("_cache:")}


@pytest.mark.parametrize("name", ["lattice-rich/fixture", "random-k/r14-s2"])
@pytest.mark.parametrize("command", ["check", "tails", "ideals", "spec", "verify"])
def test_each_command_searches_its_graph_once(command, name, capsys, monkeypatch):
    # the (K) guard, reachability and every quotient's frame all read Graph.condensation
    search, calls = graph_core.strong_components, []

    def counting(*args):
        calls.append(args)
        return search(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("strong_components") is search:
            monkeypatch.setattr(module, "strong_components", counting)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / f"{name}.gcg"
    code, _, _ = run(capsys, command, str(path))
    assert (code, len(calls)) == (0, 1)


def test_verify_peaks_under_200_bytes_per_saturated_hereditary_set(capsys, monkeypatch):
    # 14 disjoint double-loop vertices: 2^14 saturated hereditary sets, one
    # pair each.  verify walks the pairs once and keeps only the 14 prime
    # ones, so its peak holds the sets and no row or memo entry per pair.
    names = [f"v{i}" for i in range(14)]
    g = parse_graph(f"vertex {', '.join(names)};\n" + "".join(f"edge {v} -> {v} * 2;\n" for v in names))
    monkeypatch.setattr(cli, "_load", lambda path: g)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        code, _, _ = run(capsys, "verify", "loops.gcg")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (peak - before) / 2**14 < 200


# -- planted faults: the two classification routes stay independent -----------------


def test_verify_catches_a_direct_route_that_ignores_MT3(fixture_path, capsys, monkeypatch):
    # MT1 and MT2 hold on the complement of every saturated hereditary set,
    # so MT3 is the axiom that decides the direct verdict.  A direct route
    # that looked its complements up instead of evaluating them would not
    # notice this fault, and verify would pass.
    real = tails._mt_faults
    monkeypatch.setattr(ideals, "_mt_holds", lambda g, mask: real(g, mask)[:2] == (None, None))
    code, out, _ = run(capsys, "ideals", fixture_path)
    assert code == 0 and "[DISAGREE]" in out
    code, out, err = run(capsys, "verify", fixture_path)
    assert code == 1
    assert err == "verification counterexample: image of the point map differs from the prime-classified pairs\n"


def test_verify_catches_a_quotient_without_sink_copies(fixture_path, capsys, monkeypatch):
    # both facts read off the frame as if no breaking vertex were kept
    for name in ("_quotient_has_L", "_quotient_one_terminal"):
        real = getattr(ideals, name)
        monkeypatch.setattr(ideals, name, lambda frame, kept, real=real: real(frame, 0))
    code, out, err = run(capsys, "verify", fixture_path)
    assert code == 1 and "homeomorphism: ok" in out
    assert err.startswith("verification counterexample: classification routes disagree")


def test_verify_catches_a_one_terminal_test_that_accepts_two_kept_vertices(fixture_path, capsys, monkeypatch):
    # the constant-time test without its one-kept-vertex check: H = {t, y, z}
    # keeping w and x passes, as x lies in the frame's one terminal component
    monkeypatch.setattr(
        ideals,
        "_quotient_one_terminal",
        lambda frame, kept: kept & frame.common != 0 if kept else frame.terminal == 1,
    )
    code, out, err = run(capsys, "verify", fixture_path)
    assert code == 1 and "homeomorphism: ok" in out
    assert err.startswith("verification counterexample: classification routes disagree")


# -- planted faults: each check of verify reports its own failure -------------------


def test_verify_reports_a_kuratowski_failure(fixture_path, capsys, monkeypatch):
    def empty_closure(g, side="graph"):
        return topology.SpecSpace(topology.spec_points(g), lambda masks: [0] * len(masks), "spec")

    monkeypatch.setattr(cli, "spec_space", empty_closure)
    code, out, err = run(capsys, "verify", fixture_path)
    assert code == 1 and "homeomorphism: ok" in out
    assert err == (
        "verification counterexample: kuratowski axioms fail for spec/graph: "
        "('extensive', frozenset({ClusterPoint(members=frozenset({'w'}))}), None)\n"
    )


def test_verify_reports_a_realization_that_does_not_round_trip(fixture_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_tail_mask", lambda g, path: 0)
    code, _, err = run(capsys, "verify", fixture_path)
    assert (code, err) == (1, "verification counterexample: realization does not round-trip\n")


def test_verify_reports_a_quotient_without_condition_L(fixture_path, capsys, monkeypatch):
    # The fault fires only on quotients that are not downward directed, which
    # are not prime either way: the two routes still agree, and only the (L)
    # check can see it.
    real = ideals._quotient_has_L
    monkeypatch.setattr(
        ideals, "_quotient_has_L", lambda frame, kept: real(frame, kept) and ideals._quotient_one_terminal(frame, kept)
    )
    code, out, err = run(capsys, "verify", fixture_path)
    assert code == 1 and "tail realization round-trip: ok" in out
    assert err == "verification counterexample: a quotient of a Condition-(K) graph violates (L)\n"


def test_verify_reports_a_point_map_that_is_not_injective(fixture_path, capsys, monkeypatch):
    # every point maps to the same pair
    monkeypatch.setattr(topology, "_h_masks", lambda g: [(0, 0)] * len(topology.spec_points(g)))
    code, _, err = run(capsys, "verify", fixture_path)
    assert (code, err) == (1, "verification counterexample: point-to-ideal map is not injective\n")


def without_a_tail(monkeypatch, planted):
    """Plant in the record that cmd_verify reads a direct route that did not
    find ``planted`` to be a maximal tail."""
    real = ideals._verify_record
    monkeypatch.setattr(
        cli, "_verify_record", lambda g, limit: real(g, limit)._replace(tails=real(g, limit).tails - {planted})
    )


def test_verify_reports_a_cluster_that_is_not_a_maximal_tail(fixture_path, capsys, monkeypatch):
    # only verify's own cluster check sees the fault: verify_homeomorphism
    # reads the real record, so the homeomorphism and the sweeps pass
    g = parse_graph(Path(fixture_path).read_text())
    planted = g.mask("tuvwx")
    assert planted in tails._cluster_masks(g)
    without_a_tail(monkeypatch, planted)
    code, out, err = run(capsys, "verify", fixture_path)
    assert (code, err) == (1, "verification counterexample: a cluster is not a maximal tail\n")
    assert "primitive = prime points: ok" in out and "tails equal clusters" not in out


def test_verify_counterexample_names_the_cluster_that_is_not_a_maximal_tail(fixture_path, monkeypatch):
    g = parse_graph(Path(fixture_path).read_text())
    without_a_tail(monkeypatch, g.mask("tuvwx"))
    with pytest.raises(VerificationFailure, match="a cluster is not a maximal tail") as failure:
        cli.cmd_verify(cli._parse(["verify", fixture_path]))
    assert failure.value.counterexample == frozenset("tuvwx")


def test_verify_reports_primitive_points_that_are_not_dense(fixture_path, capsys, monkeypatch):
    real = topology.graph_closure
    monkeypatch.setattr(topology, "graph_closure", lambda g, xs: real(g, xs) - {topology.spec_points(g)[0]})
    code, _, err = run(capsys, "verify", fixture_path)
    assert (code, err) == (1, "verification counterexample: primitive points are not dense\n")


def test_verify_checks_condition_L_once_per_graph(fixture_path, capsys):
    # each H's frame is built once, for the verdicts and the (L) line of all its pairs
    body = inspect.unwrap(ideals._quotient_frame).__code__
    built = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is body:
            built.append(frame.f_locals["hmask"])

    sys.setprofile(record)
    try:
        code, _, _ = run(capsys, "verify", fixture_path)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert sorted(built) == sorted(ideals.saturated_hereditary_sets(parse_graph(Path(fixture_path).read_text())))


def test_verify_folds_each_swept_subset_once_per_side(capsys, monkeypatch):
    # the homeomorphism sweep and both Kuratowski passes read one closure
    # table per kernel: each of the 4,096 subsets is folded once per side, from
    # its parent's union, and each distinct union is scanned once
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "lattice-rich" / "dag8-s1.gcg"
    g = parse_graph(path.read_text())
    assert len(topology.spec_points(g)) == 12
    kernels = {side: inspect.getclosurevars(getattr(topology, f"_{side}_kernel")(g)).nonlocals for side in ("graph", "ideal")}
    scans = {k["scan"].__code__: side for side, k in kernels.items()}
    folds = {side: inspect.getclosurevars(k["unions"]).nonlocals for side, k in kernels.items()}
    seen = {"graph": Counter(), "ideal": Counter()}
    block_reads = Counter()

    class Block(list):  # an 8-point block's table of unions, counting its reads
        def __getitem__(self, i):
            block_reads[self.at + (i,)] += 1
            return super().__getitem__(i)

    for side, k in folds.items():
        blocks = k["blocks"]
        for j, block in enumerate(blocks):
            blocks[j] = Block(block)
            blocks[j].at = (side, j)

    def record(frame, event, arg):
        if event == "call" and frame.f_code in scans:
            seen[scans[frame.f_code]][frame.f_locals.get("key", frame.f_locals.get("fold"))] += 1

    monkeypatch.setattr(cli, "_load", lambda p: g)
    sys.setprofile(record)
    try:
        code, out, _ = run(capsys, "verify", str(path))
    finally:
        sys.setprofile(None)
    assert code == 0 and "kuratowski spec/ideal: ok (subsets=4096, union pairs=256)" in out
    for side, k in folds.items():
        power, table = k["power"], k["table"]
        assert len(power) == 4096, side  # a list indexed by mask, so one union per subset
        assert all(power[m] == power[m & m - 1] | table[(m & -m).bit_length() - 1] for m in range(1, 4096)), side
        assert len(seen[side]) == 114 and set(seen[side].values()) == {1}, side
    # the blocks serve only the density check's closure of every point, asked
    # before the sweep: one read of each block at the bits of 4095
    assert block_reads == {("graph", 0, 255): 1, ("graph", 1, 15): 1}


def test_verify_refuses_an_exhaustive_sweep_above_2_to_the_20_subsets(tmp_path, capsys):
    # 60 points: a chain of 60 two-vertex blocks, perfbench/make_corpus.py's chain_text(60, 2, 1)
    rng = random.Random(1)
    blocks = [(f"s{b}_0", f"s{b}_1") for b in range(60)]
    lines = ["vertex " + ", ".join(v for block in blocks for v in block) + ";"]
    for b, (u, v) in enumerate(blocks):
        lines += [f"edge {u} -> {v} * 2;", f"edge {v} -> {u};"]
        if b + 1 < len(blocks):
            lines.append(f"edge {rng.choice((u, v))} -> {rng.choice(blocks[b + 1])};")
    path = tmp_path / "chain60.gcg"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "--limit", "5000", "--exhaustive-limit", "100", str(path))
    assert (code, out) == (4, "")
    assert err == "size limit: an exhaustive sweep of 60 points is 2^60 subsets, above 2^20\n"


def test_verify_sweeps_every_subset_of_17_points(capsys):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "lattice-rich" / "dag12-s2.gcg"
    code, out, _ = run(capsys, "verify", "--exhaustive-limit", "30", str(path))
    assert code == 0
    assert "(points=17, prime pairs=17, spec subsets=131072, prim subsets=131072)" in out
    assert "kuratowski prim/ideal: ok (subsets=131072, union pairs=256)" in out


def test_spec_honours_a_limit_above_the_default(tmp_path, capsys):
    names = [f"v{i}" for i in range(21)]  # spec takes no --limit at any size
    path = tmp_path / "chain.gcg"
    path.write_text(
        f"vertex {', '.join(names)};\n"
        + "".join(f"edge {a} -> {b};\n" for a, b in zip(names, names[1:]))
    )
    code, out, err = run(capsys, "spec", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("points (1):\n")


def test_tails_output_shows_realizations(fixture_path, capsys):
    code, out, _ = run(capsys, "tails", fixture_path)
    assert code == 0
    assert "maximal tails (4):" in out
    assert "finite-return vertices: {x}" in out
    assert "realized by: w" in out


def test_quotient_output(fixture_path, capsys):
    code, out, _ = run(capsys, "quotient", "--H", "t,y,z", "--S", "w", fixture_path)
    assert code == 0
    assert "vertex u, v, w, x, x_prime;" in out
    assert "# sink copy: x_prime = x'" in out


GOLDEN_FIXTURE_GCG = """\
vertex t, u, v, w, x, y, z;
edge u -> t;
edge u -> v * inf;
edge v -> x;
edge w -> x;
edge w -> y * inf;
edge x -> t;
edge g: x -> u;
edge f: x -> x;
edge x -> y * inf;
edge x -> z;
edge y -> z;
edge d: z -> z;
edge e: z -> z;
"""


def test_fixture_gcg_golden_file():
    assert emit_gcg(running_example()) == GOLDEN_FIXTURE_GCG


def test_output_stable_across_hash_seeds(fixture_path):
    import os
    import subprocess
    import sys

    import ck_spectra

    # A minimal environment, so the hash seed is the only thing that varies;
    # PYTHONPATH points the child at the same copy of the package under test.
    package_root = os.path.dirname(os.path.dirname(ck_spectra.__file__))

    def run_with_seed(seed, command):
        return subprocess.run(
            [sys.executable, "-m", "ck_spectra.cli", command, fixture_path],
            capture_output=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": package_root,
            },
        )

    for command in ("prim", "ideals", "verify"):
        a, b = run_with_seed("1", command), run_with_seed("4242", command)
        assert a.returncode == b.returncode == 0, (
            command,
            a.stderr.decode(errors="replace"),
            b.stderr.decode(errors="replace"),
        )
        assert a.stdout == b.stdout, command


def test_byte_identical_output_across_runs(fixture_path, capsys):
    commands = [
        ("check",),
        ("tails",),
        ("ideals",),
        ("spec",),
        ("prim",),
        ("closure", "--points", "T4,FR:x"),
        ("verify",),
        ("export", "--json"),
        ("export", "--dot"),
        ("check", "--json"),
        ("tails", "--json"),
        ("quotient", "--json", "--H", "t,y,z", "--S", "w"),
        ("closure", "--json", "--points", "T4,FR:x"),
    ]
    for cmd in commands:
        first = run(capsys, *cmd, fixture_path)
        second = run(capsys, *cmd, fixture_path)
        assert first == second, cmd


ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"


def help_golden(name: str) -> bytes:
    """The expected help text; from 3.13 on, argparse keeps the top usage
    line's trailing ``...`` beside the subcommand choices."""
    if sys.version_info >= (3, 13) and name in ("top", "usage-error"):
        name += "-3.13"
    return (GOLDEN_DIR / "help" / f"{name}.txt").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--json"),
        ("tails", "--json"),
        ("quotient", "--json", "--H", "t,y,z", "--S", "w"),
        ("closure", "--json", "--points", "T4,FR:x"),
        ("ideals", "--json"),
        ("spec", "--json"),
        ("prim", "--json"),
        ("export", "--json"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_output_matches_its_golden_file(argv, fixture_path, capsys):
    code, out, err = run(capsys, *argv, fixture_path)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{argv[0]}.json").read_bytes()


HELP_CASES = {
    "top": ("--help",),
    **{
        name: (*name.split("-"), "--help")
        for name in (
            "check", "tails", "ideals", "quotient", "spec", "prim", "closure", "verify",
            "gen", "gen-fixture", "gen-ea", "gen-random", "export",
        )
    },
}


@pytest.mark.parametrize("name", HELP_CASES)
def test_help_matches_its_golden_file(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(HELP_CASES[name]))
    out = capsys.readouterr()
    assert (exit_.value.code, out.err) == (0, "")
    assert out.out.encode("utf-8") == help_golden(name)


def test_usage_error_matches_its_golden_file(capsys, monkeypatch):
    # the top-level usage, with every subcommand, though argv names one
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check", "--bogus", "x"])
    out = capsys.readouterr()
    assert (exit_.value.code, out.out) == (2, "")
    assert out.err.encode("utf-8") == help_golden("usage-error")


def test_plain_spellings_build_no_argparse_parser(fixture_path, capsys, monkeypatch):
    made, built = [], []
    real_init, real_build = argparse.ArgumentParser.__init__, cli.build_parser

    def record_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def record_build():
        built.append(True)
        return real_build()

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record_init)
    monkeypatch.setattr(cli, "build_parser", record_build)
    assert run(capsys, "check", fixture_path)[0] == 0
    assert run(capsys, "gen", "random", "--seed", "3", "--n", "5")[0] == 0
    assert run(capsys, "verify", fixture_path)[0] == 0
    assert (made, built) == ([], [])
    # help and usage errors come from the full parser, which lists every subcommand
    for argv in (["check", "--bogus", fixture_path], ["check", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert len(built) == 2 and made.count("ck-spectra") == 2
    # a spelling the table does not read is still accepted, through argparse
    code, out, _ = run(capsys, "verify", fixture_path, "--exhaustive-lim=4")
    assert (code, out.endswith("all checks passed\n"), len(built)) == (0, True, 3)


VALUES = (
    "0", "3", "12", "-1", "-3", "1.5", "0.3", "1e0", "nan", "inf", "x", "", " 7 ", "0x10",
    "1_000", "spec", "prim", "both", "a,b", "t,y,z", "-", "--", "--json",
)
GOOD_VALUES = ("0", "1", "3", "0.5", "inf", "a,b")
STRAYS = ("-", "--", "-h", "--help", "--version", "--bogus", "-x", "g.gcg", "other.gcg", "")
ENTRIES = [entry for entry in cli._COMMANDS if entry[1] is not None]


def accepts(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def command_lines(entry):
    """Plain spellings of ``entry``, in any order, with a few tokens mixed in:
    option strings, their abbreviations and --opt=value forms, stray flags and
    paths, and values that each converter accepts or rejects."""
    words, _, _, takes_path, options = entry
    plain = [st.sampled_from([[["g.gcg"]], [["g.gcg"]], [["-"]], []] if takes_path else [[]])]
    for flag, keywords in options.items():
        if keywords.get("action"):
            plain.append(st.sampled_from([[], [[flag]], [[flag], [flag]]]))
        else:
            good = [v for v in keywords.get("choices", GOOD_VALUES) if accepts(keywords.get("type", str), v)]
            plain.append(st.sampled_from([[], *([[flag, v]] for v in good)]))
    flags = st.sampled_from(sorted(options) or ["--json"])
    value = st.sampled_from(VALUES)
    piece = st.one_of(
        flags.map(lambda f: [f]),
        st.tuples(flags, value).map(list),
        st.tuples(flags, st.integers(3, 12), value).map(lambda t: [t[0][: t[1]], t[2]]),
        st.tuples(flags, value).map(lambda t: [f"{t[0]}={t[1]}"]),
        st.sampled_from(STRAYS).map(lambda s: [s]),
    )
    noise = st.just([]) | piece.map(lambda p: [p]) | st.lists(piece, min_size=2, max_size=3)
    parts = st.tuples(*plain, noise).map(lambda groups: [part for group in groups for part in group])
    head = st.sampled_from([words, words, words, words[:1], (words[0][:-1], *words[1:])])
    return st.tuples(head, parts.flatmap(st.permutations)).map(
        lambda t: [*t[0], *(token for part in t[1] for token in part)]
    )


LINES = {entry[0]: command_lines(entry) for entry in ENTRIES}
FULL_PARSER = cli.build_parser()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: "-".join(entry[0]))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_parser_agrees_with_argparse_or_declines(entry, data):
    argv = data.draw(LINES[entry[0]])
    exact = cli._parse_exact(argv)
    if exact is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                full = FULL_PARSER.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{argv}: argparse refuses what the exact parser read: {err.getvalue()}")
        assert vars(exact) == vars(full), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"], ["check"], ["gen"], ["gen", "random", "--seed", "1"], ["chec", "g"],
        ["check", "-h"], ["check", "--help"], ["check", "-x"], ["check", "--", "g"],
        ["check", "--js", "g"], ["check", "--json=1", "g"], ["check", "g", "h"], ["gen", "fixture", "g"],
        ["verify", "--exh", "3", "g"], ["verify", "--seed", "-1", "g"], ["verify", "--seed", "g"],
        ["verify", "--seed", "x", "g"], ["verify", "g", "--limit"], ["closure", "--space", "both", "g"],
        ["quotient", "--H", "-", "g"], ["gen", "ea", "--set", "a", "--mult", "0"],
        ["gen", "random", "--seed", "1", "--n", "3", "--density", "nan"],
    ],
    ids=" ".join,
)
def test_exact_parser_declines_help_abbreviations_and_rejected_values(argv):
    assert cli._parse_exact(argv) is None


def readme_command_lines():
    """The ck-spectra calls of the README's "Command line" block."""
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    for line in block.split("```", 1)[0].strip().splitlines():
        for call in line.split("#", 1)[0].split("|"):
            words = shlex.split(call.split(">", 1)[0])
            assert words[0] == "ck-spectra", line
            yield words[1:]


def test_benchmark_ops_and_readme_examples_take_the_exact_path():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    readme = list(readme_command_lines())
    assert readme
    for argv in [op.split(" ") for op in expected] + readme:
        exact = cli._parse_exact(argv)
        assert exact is not None, argv
        assert vars(exact) == vars(FULL_PARSER.parse_args(argv)), argv


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command pays for its imports; -S keeps site hooks from loading them instead
    probe = "import sys, ck_spectra.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# -- generation and export -------------------------------------------------------------


def test_gen_fixture_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "fixture")
    assert code == 0
    assert parse_graph(out) == running_example()


def test_gen_ea_and_random_parse_back(capsys):
    code, out, _ = run(capsys, "gen", "ea", "--set", "a,b", "--mult", "inf")
    assert code == 0 and "edge v_a -> v_a_b * inf;" in out
    code, out, _ = run(capsys, "gen", "random", "--seed", "3", "--n", "5")
    assert code == 0
    g = parse_graph(out)
    assert len(g.vertices) == 5
    code, out2, _ = run(capsys, "gen", "random", "--seed", "3", "--n", "5")
    assert out == out2


def test_gen_random_allow_non_k(capsys):
    # with the repair skipped, some seed in range produces a K violation
    from ck_spectra import condition_K

    found = False
    for seed in range(30):
        code, out, _ = run(capsys, "gen", "random", "--seed", str(seed), "--n", "5", "--allow-non-k")
        if not condition_K(parse_graph(out)):
            found = True
            break
    assert found


def test_export_json_schema(fixture_path, capsys):
    code, out, _ = run(capsys, "export", "--json", fixture_path)
    payload = json.loads(out)
    assert payload["schema"] == "ck-spectra/graph/1"
    assert payload["vertices"][0] == "t"
    assert {"label": "f", "src": "x", "dst": "x", "mult": 1} in payload["bundles"]
    assert {"label": None, "src": "u", "dst": "v", "mult": "inf"} in payload["bundles"]


def test_export_dot(fixture_path, capsys):
    code, out, _ = run(capsys, "export", "--dot", fixture_path)
    assert code == 0
    assert out.startswith("digraph E {")
    assert '"u" -> "v" [label="∞"];' in out


@pytest.mark.parametrize("argv", [["export"], ["quotient", "--H", "t,y,z", "--S", "w"]], ids=" ".join)
def test_json_wins_over_dot(argv, fixture_path, capsys):
    # given both flags, either command prints the bytes of --json alone
    alone = run(capsys, *argv, "--json", fixture_path)
    assert alone[0] == 0 and alone[1].startswith("{")
    assert run(capsys, *argv, "--json", "--dot", fixture_path) == alone
    assert run(capsys, *argv, "--dot", "--json", fixture_path) == alone


def test_export_builds_no_edge_table(capsys, monkeypatch):
    # the one walk that builds succ_mask, pred_mask and omega_succ waits for a reader
    g = running_example()
    monkeypatch.setattr(cli, "_load", lambda path: g)
    for flag in ("--json", "--dot"):
        assert run(capsys, "export", flag, "fixture.gcg")[0] == 0
    assert not {"succ_mask", "pred_mask", "omega_succ"} & g.__dict__.keys()


def test_empty_graph_exports_valid_dot():
    from ck_spectra import Graph, emit_dot

    assert emit_dot(Graph([])) == "digraph E {\n  rankdir=LR;\n}\n"


def test_quotient_dot_marks_sink_copies(fixture_path, capsys):
    code, out, _ = run(capsys, "quotient", "--H", "t,y,z", "--S", "w", "--dot", fixture_path)
    assert code == 0
    assert 'label="x′"' in out


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("vertex é;\n".encode())))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and "sinks: {é}" in out


def test_spec_json_output(fixture_path, capsys):
    code, out, _ = run(capsys, "spec", "--json", fixture_path)
    payload = json.loads(out)
    assert payload["schema"] == "ck-spectra/spec/1"
    assert len(payload["points"]) == 5
    assert [p["name"] for p in payload["points"]] == ["T1", "T2", "T3", "T4", "FR:x"]
    # every point carries the closure of its singleton and its ideal
    for point in payload["points"]:
        assert point["name"] in point["closure"]
        assert set(point["ideal"]) == {"h", "s"}
    assert payload["t0"] is True and payload["hausdorff"] is False

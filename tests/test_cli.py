import argparse
from pathlib import Path

import pytest

from repstab.cli import _read, build_parser, dispatch, main
import repstab.e2 as e2_module


def run(*argv):
    return dispatch(list(argv))


def test_branch_worked_example():
    code, text = run("branch", "--lambda", "3,2,1", "--n", "7")
    assert code == 0
    assert text.splitlines() == ["4,2,1\t1", "3,3,1\t1", "3,2,2\t1", "3,2,1,1\t1"]


def test_branch_verify_passes():
    code, text = run("branch", "--lambda", "1,1", "--n", "4", "--verify")
    assert code == 0
    assert text.splitlines()[-1] == "verify\tPASS"


def test_branch_verify_above_cap_refuses_before_building(monkeypatch):
    import repstab.cli

    def unbuilt(*args):
        raise AssertionError("specht_module built before the claims cap was checked")

    monkeypatch.setattr(repstab.cli, "specht_module", unbuilt)
    code, text = run("branch", "--lambda", "3,2,1", "--n", "9", "--verify")
    assert (code, text) == (2, "error: verify_claims capped at n = 8")


def test_branch_budget_refuses_before_building(monkeypatch, capsys):
    import repstab.cli

    def unbuilt(*args):
        raise AssertionError("specht_module built before the budget was checked")

    # I_7(M^(3,2,1)) has 420 tabloids
    monkeypatch.setenv("REPSTAB_BUDGET", "419")
    monkeypatch.setattr(repstab.cli, "specht_module", unbuilt)
    assert repstab.cli.main(["branch", "--lambda", "3,2,1", "--n", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == (
        "error: I_n(M^lambda) for lambda = 3,2,1, n = 7 has 420 tabloids, "
        "over the 419-element budget (raise REPSTAB_BUDGET to override)\n"
    )
    assert "Traceback" not in err


def test_branch_budget_covers_the_monotonicity_level(monkeypatch):
    # I_5(M^(2,1)) has 30 tabloids and I_6(M^(2,1)) 60; --verify also builds
    # level n + 1
    monkeypatch.setenv("REPSTAB_BUDGET", "30")
    assert run("branch", "--lambda", "2,1", "--n", "5")[0] == 0
    code, text = run("branch", "--lambda", "2,1", "--n", "5", "--verify")
    assert code == 2 and "n = 6 has 60 tabloids" in text
    monkeypatch.setenv("REPSTAB_BUDGET", "60")
    assert run("branch", "--lambda", "2,1", "--n", "5", "--verify")[0] == 0


@pytest.mark.parametrize("command", ["monotone", "stable"])
def test_sequence_budget_checks_n_max(monkeypatch, command):
    import repstab.stability

    # I_5(M^(1)) has 5 tabloids
    monkeypatch.setenv("REPSTAB_BUDGET", "5")
    assert run(command, "--lambda", "1", "--n-max", "5")[0] == 0

    def unbuilt(*args):
        raise AssertionError("specht_module built before the budget was checked")

    monkeypatch.setenv("REPSTAB_BUDGET", "4")
    monkeypatch.setattr(repstab.stability, "specht_module", unbuilt)
    code, text = run(command, "--lambda", "1", "--n-max", "5")
    assert code == 2
    assert text.startswith("error: I_n(M^lambda) for lambda = 1, n = 5 has 5 tabloids")
    assert text.endswith("(raise REPSTAB_BUDGET to override)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["branch", "--lambda", "99999999999999999999", "--n", "3"], "ambient 3 too small for (99999999999999999999,)"),
        (["stable", "--lambda", "99999999999999999999", "--n-max", "3"], "window [99999999999999999999, 3]"),
        (["branch", "--lambda", "5000000000", "--n", "3"], "ambient 3 too small for (5000000000,)"),
    ],
    ids=["branch-huge", "stable-huge", "branch-large"],
)
def test_a_partition_larger_than_n_is_refused_in_one_line(argv, message, capsys):
    # the budget check counts no tabloid of a shape that does not fit in n
    # (no factorial of |lambda|), and the command then refuses
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.startswith("error: ") and message in out and out.count("\n") == 1
    assert "Traceback" not in err


def test_tabloid_module_dim_of_a_shape_that_does_not_fit_is_zero():
    from repstab.specht import tabloid_module_dim

    assert tabloid_module_dim((99999999999999999999,), 3) == 0
    assert tabloid_module_dim((2, 2), 3) == 0
    assert tabloid_module_dim((3, 2, 1), 7) == 420


@pytest.mark.parametrize(
    "argv",
    [
        ["branch", "--lambda", "100000", "--n", "10000000"],
        ["monotone", "--lambda", "100000", "--n-max", "10000000"],
        ["branch", "--lambda", "1000000", "--n", "100000000"],
    ],
    ids=["branch", "monotone", "branch-larger"],
)
def test_an_over_budget_module_is_refused_before_its_count_is_formed(argv, capsys):
    # the count has hundreds of thousands of digits; the refusal stops at the
    # first running count past the budget and names no count
    assert main(argv) == 2
    out, err = capsys.readouterr()
    lam, n = argv[2], argv[4]
    assert out == (
        f"error: I_n(M^lambda) for lambda = {lam}, n = {n} has more than 200000 tabloids, "
        "over the 200000-element budget (raise REPSTAB_BUDGET to override)\n"
    )
    assert "Traceback" not in err


def test_tabloid_counts_increase_to_the_count():
    from math import factorial

    from repstab.partitions import partitions_of
    from repstab.specht import tabloid_counts

    for k in range(7):
        for lam in partitions_of(k):
            for n in range(k, 10):
                counts = list(tabloid_counts(lam, n))
                assert counts[0] == 1 and all(a < b for a, b in zip(counts, counts[1:]))
                expected = factorial(n) // factorial(n - k)
                for part in lam:
                    expected //= factorial(part)
                assert counts[-1] == expected, (lam, n)
    assert list(tabloid_counts((2, 2), 3)) == [0]


def test_chartable_n10_golden(capsys):
    assert main(["chartable", "--n", "10"]) == 0
    golden = Path(__file__).parent / "golden" / "chartable_n10.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_chartable_n1():
    code, text = run("chartable", "--n", "1")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2  # header + single row
    assert lines[1].split() == ["1", "1"]


def test_betti_golden():
    code, text = run("betti", "--manifold", "torus", "--n", "4", "--i", "4")
    assert (code, text) == (0, "4")


def test_betti_env_budget(monkeypatch):
    # color-betti with mu != 0 checks its largest block space, here 4! keys
    # (a block of five points), before solving any block space
    def refuse(*args):
        raise AssertionError("a block space was solved before the budget was checked")

    monkeypatch.setattr(e2_module, "block_space", refuse)
    monkeypatch.setenv("REPSTAB_BUDGET", "10")
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "5", "--i", "4")
    assert (code, text) == (
        2,
        "error: colored block spaces for n = 5, i = 4 reach 24 keys, over the "
        "10-element budget (raise REPSTAB_BUDGET to override)",
    )
    monkeypatch.undo()
    monkeypatch.setenv("REPSTAB_BUDGET", "24")
    assert run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "5", "--i", "4") == (0, "17")


def test_betti_bad_env_budget(monkeypatch):
    monkeypatch.setenv("REPSTAB_BUDGET", "abc")
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "4", "--i", "4")
    assert code == 2
    assert text.startswith("error: ") and "REPSTAB_BUDGET" in text


def test_betti_builds_no_page(monkeypatch):
    # unordered Betti numbers never enumerate a page cell, so no budget applies;
    # the explicit torus page at n = 7 has 604800 elements
    monkeypatch.setenv("REPSTAB_BUDGET", "10")
    code, text = run("betti", "--manifold", "torus", "--n", "7", "--i", "4")
    assert (code, text) == (0, "7")


def test_betti_at_large_n_needs_no_deep_recursion():
    # 1200 singleton blocks: the pattern search places every copy of one
    # block signature in one step, so its depth stays below the recursion limit
    assert run("betti", "--manifold", "s2", "--n", "1200", "--i", "0") == (0, "1")


def test_closed_form_counts_at_large_n():
    # the graded-symmetric powers are polynomial in n: the odd-dimensional
    # count and the closed-form check of every invariant cell
    assert run("betti", "--manifold", "s3", "--n", "200", "--i", "3") == (0, "1")
    assert run("betti", "--manifold", "torus", "--n", "1000", "--i", "1") == (0, "2")


def test_color_betti_builds_no_page(monkeypatch):
    # the explicit torus page at n = 7 has 604800 elements; the largest
    # block space in degree 3 has 3! keys
    monkeypatch.setenv("REPSTAB_BUDGET", "10")
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "7", "--i", "3")
    assert (code, text) == (0, "15")


def test_color_betti_dim_one_exits_2(tmp_path):
    path = tmp_path / "s1.desc"
    path.write_text("name s1\ndim 1\nflag single_differential\nclass 1 0\nclass t 1\ndiag 1 t 1\ndiag t 1 -1\n")
    code, text = run("color-betti", "--manifold", str(path), "--mu", "1", "--n", "2", "--i", "1")
    assert (code, text) == (2, "error: s1: the E2 bigrading (p, q(d-1)) needs dim >= 2, got 1")


def test_color_betti():
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "3", "--i", "1")
    assert code == 0
    assert text.isdigit()


def test_ranges_golden():
    code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", "4")
    assert code == 0
    for line in text.splitlines():
        page, stable, mono = line.split("\t")
        assert stable == "n >= 2(p+q)"
        assert mono == "n >= 2(p+q-1)"
    code, text = run("ranges", "--m", "4", "--ell", "0", "--pages", "2")
    assert text == "2\tn >= 4(p+q)\tn >= 4(p+q-1)"
    code, text = run("ranges", "--m", "1", "--ell", "1", "--pages", "2")
    assert text == "2\tn >= p+q+1\tn >= p+q"


def test_ranges_rational_m():
    code, text = run("ranges", "--m", "1/3", "--ell", "3", "--pages", "2")
    assert code == 0
    assert text == "2\tn >= (1/3)(p+q+3)\tn >= (1/3)(p+q+2)"


def test_ranges_rejects_nonpositive_m():
    code, text = run("ranges", "--m", "0", "--ell", "0")
    assert code == 2


def test_ranges_rejects_too_few_pages():
    for pages in ("-1", "1"):
        code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", pages)
        assert code == 2
        assert text == f"ranges: need pages >= 2, got {pages}"


def test_ranges_rejects_too_many_pages():
    # every page past 2 repeats page 2, and the table is refused before it is built
    from repstab.cli import MAX_PAGES

    for pages in (MAX_PAGES + 1, 10**12):
        code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", str(pages))
        assert (code, text) == (2, f"ranges: need pages <= {MAX_PAGES}, got {pages}")
    code, text = run("ranges", "--m", "2", "--ell", "0", "--pages", str(MAX_PAGES))
    assert code == 0 and len(text.splitlines()) == MAX_PAGES - 1


def test_ranges_for_rejects_negative_degree():
    code, text = run("ranges-for", "--manifold", "torus", "--i", "-1")
    assert (code, text) == (2, "error: need i >= 0, got -1")


def test_ranges_for():
    code, text = run("ranges-for", "--manifold", "torus", "--i", "3")
    rows = dict(line.split("\t") for line in text.splitlines())
    assert rows["ordered"] == "n >= 12"
    assert rows["unordered"] == "n >= 4"


def test_arnold_output():
    code, text = run("arnold", "--m", "3", "--d", "2")
    assert code == 0
    assert "poincare\t1 + 3t + 2t^2" in text
    assert "top_irrep\t2,1\t1" in text


def test_e2_explicit_agreement():
    code, text = run("e2", "--manifold", "s2", "--n", "2", "--explicit")
    assert code == 0
    assert "explicit\tagree" in text


def test_e2_rejects_negative_n():
    for extra in ((), ("--explicit",)):
        code, text = run("e2", "--manifold", "torus", "--n", "-1", *extra)
        assert (code, text) == (2, "error: need n >= 0, got -1")


def test_monotone_command():
    code, text = run("monotone", "--lambda", "1", "--n-max", "4")
    assert code == 0
    assert all(line.endswith("ok") for line in text.splitlines())


def test_stable_command():
    code, text = run("stable", "--lambda", "1", "--n-max", "5")
    assert code == 0
    assert text.splitlines()[-1].startswith("stable_from\t2")


def test_stable_short_window_exits_2():
    code, text = run("stable", "--lambda", "2", "--n-max", "2")
    assert code == 2
    assert text == "error: window [2, 2] has no map to check"


def test_monotone_empty_window_exits_2():
    code, text = run("monotone", "--lambda", "1", "--n-max", "1")
    assert code == 2
    assert text == "error: window [1, 1] has no map to check"


def test_unknown_subcommand_exits_2():
    code, _ = run("frobnicate")
    assert code == 2


def test_bad_manifold_exits_2():
    code, text = run("betti", "--manifold", "nowhere", "--n", "2", "--i", "1")
    assert code == 2
    assert "error" in text
    assert run("betti", "--manifold", "nosuch", "--n", "1", "--i", "0") == (
        2,
        "error: no descriptor file or bundled name 'nosuch'",
    )


def test_directory_as_manifold_exits_2(tmp_path):
    code, text = run("betti", "--manifold", str(tmp_path), "--n", "2", "--i", "1")
    assert code == 2
    assert text.startswith(f"error: cannot read descriptor {str(tmp_path)!r}")


def test_color_betti_rejects_negative_degree():
    code, text = run("color-betti", "--manifold", "torus", "--mu", "1", "--n", "2", "--i", "-1")
    assert (code, text) == (2, "error: need n, i >= 0")


def test_bad_partition_exits_2():
    code, text = run("branch", "--lambda", "1,2", "--n", "4")
    assert code == 2


def test_deterministic_output():
    a = run("e2", "--manifold", "torus", "--n", "3")
    b = run("e2", "--manifold", "torus", "--n", "3")
    assert a == b


def test_pretty_format():
    code, text = run("--format", "pretty", "ranges", "--m", "2", "--ell", "0", "--pages", "2")
    assert code == 0
    assert "\t" not in text


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repstab.cli", "betti", "--manifold", "torus", "--n", "3", "--i", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_betti_zero_denominator_exits_2(tmp_path):
    path = tmp_path / "bad.desc"
    path.write_text("dim 2\nclass 1 0\nclass a 1\nclass b 1\nclass pt 2\nmul a b pt 1/0\n")
    code, text = run("betti", "--manifold", str(path), "--n", "2", "--i", "1")
    assert code == 2
    assert text == f"error: {path}:6: cannot parse 'mul a b pt 1/0'"


def test_e2_explicit_without_diagonal_exits_2(tmp_path):
    path = tmp_path / "r2.desc"
    path.write_text("name r2\ndim 2\nclass 1 0\n")
    assert run("e2", "--manifold", str(path), "--n", "2")[0] == 0  # closed-form dims need no diagonal
    code, text = run("e2", "--manifold", str(path), "--n", "2", "--explicit")
    assert (code, text) == (2, "error: r2 has no diagonal class")


def test_e2_dim_one_exits_2(tmp_path):
    path = tmp_path / "s1.desc"
    path.write_text("name s1\ndim 1\nclass 1 0\nclass t 1\ndiag 1 t 1\ndiag t 1 -1\n")
    for extra in ((), ("--explicit",)):
        code, text = run("e2", "--manifold", str(path), "--n", "2", *extra)
        assert (code, text) == (2, "error: s1: the E2 bigrading (p, q(d-1)) needs dim >= 2, got 1")


COMMANDS = (
    "chartable", "branch", "monotone", "stable", "ranges",
    "arnold", "e2", "betti", "color-betti", "ranges-for",
)


def test_help_lists_every_command(capsys):
    assert run("--help") == (0, "")
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert f"    {name}" in out
    for name in COMMANDS:
        assert run(name, "--help") == (0, "")
        assert capsys.readouterr().out.startswith(f"usage: repstab {name} [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["betti"],
        ["betti", "--manifold", "torus", "--n", "x", "--i", "1"],
        ["--format", "bogus", "betti", "--manifold", "torus", "--n", "2", "--i", "1"],
        ["--format", "e2", "betti", "--manifold", "torus", "--n", "2", "--i", "1"],
        ["e2", "--manifold", "torus", "--n", "3", "--extra"],
        ["ranges", "--m", "2", "--ell", "0", "betti"],
        ["--help", "betti"],
        ["betti", "--help", "--n", "x"],
    ],
)
def test_parse_output_is_the_full_parsers(argv, capsys):
    code, text = run(*argv)
    out, err = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert (code, text) == ((0, "") if exc.value.code == 0 else (2, "usage error"))
    assert (out, err) == capsys.readouterr()
    assert out or err


def test_valid_command_builds_no_parser(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    assert run("--format", "pretty", "betti", "--manifold", "torus", "--n", "4", "--i", "4") == (0, "4")
    assert built == []


def test_valid_command_imports_no_argparse():
    import subprocess
    import sys

    code = (
        "import sys, repstab.cli as c\n"
        "assert c.main(['betti', '--manifold', 'torus', '--n', '2', '--i', '2']) == 0\n"
        "assert not {'argparse', 'gettext'} & set(sys.modules), sorted(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_loads_no_dataclasses_typing_or_tempfile():
    # -S: without site, which on some hosts preloads these modules itself
    import os
    import subprocess
    import sys

    code = (
        "import sys, repstab.cli, repstab.characters, repstab.manifolds\n"
        "assert repstab.manifolds.load_manifold('torus').name == 'torus'\n"
        "heavy = ['dataclasses', 'inspect', 'typing', 'tempfile', 'importlib.resources', 'argparse']\n"
        "print(sorted(set(heavy) & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_closed_pipe_prints_no_traceback():
    # the answer (about 160 kB) outgrows the pipe, so the write after the
    # reader closes fails
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "repstab.cli", "e2", "--manifold", "torus", "--n", "60"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"p\tq\tdim\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, ""), err  # no BrokenPipeError traceback


# The README's examples, the CI entry-point checks and the benchmark's queries
WELL_FORMED = [
    "chartable --n 5",
    "branch --lambda 3,2,1 --n 7",
    "branch --lambda 2,1 --n 6 --verify",
    "monotone --lambda 2 --n-max 6",
    "stable --lambda 2 --n-max 7",
    "ranges --m 2 --ell 0 --pages 5",
    "arnold --m 4 --d 3",
    "e2 --manifold torus --n 3 --explicit",
    "betti --manifold torus --n 4 --i 4",
    "betti --manifold torus --n 7 --i 4",
    "color-betti --manifold s3 --mu 1 --n 4 --i 3",
    "ranges-for --manifold torus --i 3",
    "betti --manifold torus --n 30 --i 8",
    "betti --manifold torus --n 20 --i 6",
    "e2 --manifold s2 --n 4 --explicit",
    "color-betti --manifold torus --mu 1 --n 12 --i 3",
    "color-betti --manifold torus --mu 1,1 --n 16 --i 4",
    "branch --lambda 1 --n 8 --verify",
    "branch --lambda 3,2,1 --n 9 --verify",
    "monotone --lambda 3,2,1 --n-max 8",
    "stable --lambda 2,1 --n-max 8",
    "--format pretty ranges --m 2 --ell 0",
    "--format tsv ranges --m 1/3 --ell 3 --pages 2",
    *[f"betti --manifold torus --n {n} --i {min(n, 4)}" for n in range(2, 7)],
    *[f"betti --manifold {m} --n {n} --i {i}" for m, i in (("s2", 1), ("cp1", 3)) for n in range(2, 7)],
    *[f"e2 --manifold {m} --n {n} --explicit" for m in ("torus", "s2") for n in range(2, 6)],
    *[f"color-betti --manifold torus --mu 1 --n {n} --i 3" for n in range(3, 6)],
    *[f"color-betti --manifold s2 --mu 2 --n {n} --i 3" for n in range(4, 6)],
    *[f"branch --lambda {lam} --n {n} --verify" for lam in ("1", "2", "1,1", "3", "2,1", "1,1,1") for n in (5, 6)],
    *[f"monotone --lambda {lam} --n-max 6" for lam in ("1", "2", "1,1", "2,1")],
    *[f"stable --lambda {lam} --n-max 7" for lam in ("1", "2", "1,1", "2,1")],
]


def perturbations(argv: list[str]) -> list[list[str]]:
    """Spellings of argv that a well-formed query does not use: most are
    usage errors, some the full parser accepts all the same."""
    head = 2 if argv[0] == "--format" else 0
    command, options = argv[: head + 1], argv[head + 1:]
    flag = options[0]
    value = options[1] if len(options) > 1 and not options[1].startswith("--") else None
    out = [
        command + options[2 if value else 1:],
        argv + options[:2 if value else 1],
        command + ["--format", "pretty"] + options,
        command + ["--"] + options,
        argv + ["--"],
        argv + ["-h"],
        argv + ["extra"],
        command + [flag[:-1]] + options[1:],
        ["--format"] + argv[head:],
        ["--format=pretty"] + argv[head:],
        ["--form", "pretty"] + argv[head:],
    ]
    if value:
        out.append(command + [f"{flag}={value}"] + options[2:])
        out.append(command + options[:1])
    for old, new in (("--manifold", "--man"), ("--lambda", "--lam")):
        if old in argv:
            out.append([new if arg == old else arg for arg in argv])
    if "--n" in argv:
        at = argv.index("--n") + 1
        for bad in ("-1", "+3", "1_0", " 3", "x", "3.0", ""):
            out.append(argv[:at] + [bad] + argv[at + 1:])
    return out


@pytest.mark.parametrize("text", WELL_FORMED)
def test_read_is_the_full_parser(text, capsys):
    argv = text.split()
    assert _read(argv) is not None
    for case in [argv] + perturbations(argv):
        try:
            expected = vars(build_parser().parse_args(case))
        except SystemExit:
            expected = None
        capsys.readouterr()
        got = _read(case)
        assert got is None or vars(got) == expected, case
    assert vars(_read(argv)) == vars(build_parser().parse_args(argv))

"""The command line as a process, with every warning an error.

Each check here needs a process of its own: a rerun in a fresh process,
the ``python -m soprolab.harness.cli`` entry, the modules a run loads, a
warning raised where the CLI cannot see it (a file left open is reported
when it is collected, outside any ``try``), an error the CLI does not
catch, which would end the process with a traceback, or a BLAS thread
count, fixed when numpy loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soprolab

SRC = str(Path(soprolab.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI = [sys.executable, "-m", "soprolab.harness.cli"]
TINY = ("dim = 4\nn_agents = 3\nper_agent = 10\ntest_size = 5\nbatch_g = 2\nbatch_s = 2\n"
        "max_iters = 3\n")
# The tolerances of the reference solve and of CG, which the series runs to.
REFERENCE_TOL, CG_TOL = 1e-12, 1e-13


def environment(**extra):
    """A fresh process's environment: this tree's package first, every
    warning an error, as tier-1's filterwarnings makes the numerical ones,
    and one BLAS thread, as the benchmark uses, unless ``extra`` says
    otherwise.  Two processes side by side then share two cores."""
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONWARNINGS": "error",
            "OPENBLAS_NUM_THREADS": "1", **extra}


# --------------------------------------------------- reruns in new processes

# 200 agents at the config's average degree 2 store 600 of the 40000
# entries of P, and the exchange is the CSR product; the tiny network's is
# the dense product.  DSGD and DSGT mix with a Metropolis matrix that has
# the entries of P, so they take its form.
RERUNS = {
    "st_sopro": (["st_sopro"], "dense"),
    "sopro": (["sopro"], "dense"),
    "dsgd": (["dsgd", "--step-size", "0.1"], "dense"),
    "dsgt": (["dsgt", "--step-size", "0.1"], "dense"),
    "st_sopro-200": (["st_sopro", "--n-agents", "200", "--per-agent", "5"], "csr"),
    "dsgd-200": (["dsgd", "--step-size", "0.1", "--n-agents", "200", "--per-agent", "5"], "csr"),
    "dsgt-200": (["dsgt", "--step-size", "0.1", "--n-agents", "200", "--per-agent", "5"], "csr"),
}


@pytest.mark.parametrize("flags, exchange", RERUNS.values(), ids=RERUNS)
def test_a_rerun_in_a_fresh_process_writes_the_same_bytes(flags, exchange, tmp_path):
    # Each round's batches are a pure function of (seed, round, purpose),
    # so two runs of two seeds each, under two str hash seeds, write the
    # same header and rows and the same seed-averaged CSV.  The header
    # records --out, so each run writes to "out" under a directory of its
    # own.  The two run side by side.
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    argv = [*CLI, "run", "--config", str(config), "--seeds", "2", "--algorithm", *flags,
            "--out", "out"]
    runs = []
    for hash_seed in ("1", "2"):
        (tmp_path / hash_seed).mkdir()
        runs.append(subprocess.Popen(
            argv, cwd=tmp_path / hash_seed, env=environment(PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    for run in runs:
        _, err = run.communicate()
        assert (run.returncode, err) == (0, "")
    algorithm = flags[0]
    names = [f"{algorithm}_mean.csv", f"{algorithm}_seed000.jsonl", f"{algorithm}_seed001.jsonl"]
    first, second = (tmp_path / hash_seed / "out" for hash_seed in ("1", "2"))
    assert sorted(p.name for p in first.iterdir()) == names
    assert sorted(p.name for p in second.iterdir()) == names
    assert (first / names[0]).read_bytes() == (second / names[0]).read_bytes()
    for name in names[1:]:
        # The last line, the summary, holds wall-clock values.
        lines = (first / name).read_bytes().splitlines()[:-1]
        assert len(lines) == 5  # the header and rounds 0-3
        assert lines == (second / name).read_bytes().splitlines()[:-1]
        assert json.loads(lines[0])["topology"]["exchange"] == exchange


# ------------------------------------------------ every command in one process

# Reads a JSON list of argument lists from stdin and runs each through
# cli.main, in order, in this one process.  Prints one JSON line a command:
# its status, what it printed (a warning reported at collection included)
# and the scipy modules loaded so far, each named by its package.
ONE_PROCESS = """
import contextlib, gc, io, json, sys
from soprolab.harness.cli import main

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
        gc.collect()
    scipy = {".".join(m.split(".")[:2]) for m in sys.modules if m.split(".")[0] == "scipy"}
    print(json.dumps({"status": status, "out": out.getvalue(), "err": err.getvalue(),
                      "scipy": sorted(scipy), "sparse": "soprolab.sparse" in sys.modules}))
"""


def one_hot_text(rows=40):
    """3 of 12 columns set in every row."""
    return "".join(f"{(-1) ** k:+d} {1 + k % 4}:1 {5 + 3 * k % 4}:1 {9 + 7 * k % 4}:1\n"
                   for k in range(rows))


def four_of_ten_text(rows=40):
    """4 of 10 columns set in every row: denser than the one-hot file."""
    return "".join(f"{(-1) ** k:+d} {1 + k % 3}:1 {4 + k % 2}:1 {6 + k % 3}:1 {9 + k % 2}:1\n"
                   for k in range(rows))


# Inputs that are refused with one error line and no output directory.
REFUSED = {
    # A topology file of 4 agents for the 3-agent config.
    "path4": ["--topology-file", "{path4}"],
    "path4-dsgt": ["--topology-file", "{path4}", "--algorithm", "dsgt", "--step-size", "0.1"],
    "master_seed": ["--master-seed", "-1"],
    "per_agent": ["--per-agent", "0"],
    "lambda_reg": ["--lambda-reg", "0"],
    "utf8": ["--dataset", "{utf8}"],
    "int64": ["--dataset", "{int64}"],
    # A non-finite feature value, refused by the set-up, not the parser.
    "nan": ["--dataset", "{nan}", "--dim", "12"],
    "x0_mode": ["--x0-mode", "bogus"],
}


def commands(tmp):
    """Every command, by name, in the order they run: first each run (so
    that the loaded modules after them are the row path's), then the
    reference solves, certificates and tuning, then the refusals."""
    files = {
        "one_hot": one_hot_text(), "four_of_ten": four_of_ten_text(),
        "nan": "+1 1:1 3:nan\n",
        "triangle": "3 3\n0 1 1.0\n1 2 0.5\n0 2 2.0\n",
        "path4": "4 3\n0 1 1.0\n1 2 1.0\n2 3 1.0\n",
        "int64": "+1 1:1\n-1 2:1 99999999999999999999:1\n",
        # The last point changes a key build_problem reads, so tune builds a
        # second problem for it.
        "grid": "step_size=0.1\nstep_size=0.5\nstep_size=0.5 n_agents=4\n",
        "tiny": TINY,
    }
    paths = {name: tmp / name for name in [*files, "utf8"]}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["utf8"].write_bytes(b"+1 1:1\n-1 2:1 \xff\n")
    base = ["--config", str(paths["tiny"])]
    one_hot = [*base, "--dataset", str(paths["one_hot"]), "--dim", "12"]
    four = [*base, "--dataset", str(paths["four_of_ten"]), "--dim", "10"]
    # 13 samples an agent make the local sets larger than d = 12.
    wide = [*one_hot, "--per-agent", "13"]
    step = ["--step-size", "0.1"]
    runs = {
        "st_sopro": base,
        "sopro": [*base, "--algorithm", "sopro"],
        "dsgt": [*base, "--algorithm", "dsgt", *step],
        # A baseline draws no Hessian batch, so its batch_s is not checked:
        # 99 is outside 1..per_agent, and the run succeeds.
        "dsgd-batch_s": [*base, "--algorithm", "dsgd", *step, "--batch-s", "99"],
        "dsgt-batch_s": [*base, "--algorithm", "dsgt", *step, "--batch-s", "99"],
        "200": [*base, "--n-agents", "200", "--per-agent", "5"],
        "one_hot": one_hot,
        "one_hot-dsgt": [*one_hot, "--algorithm", "dsgt", *step],
        "four_of_ten": four,
        "wide": wide,
        "wide-sopro": [*wide, "--algorithm", "sopro"],
        "wide-dsgt": [*wide, "--algorithm", "dsgt", *step],
        "triangle": [*base, "--topology-file", str(paths["triangle"])],
    }
    named = {f"run {name}": ["run", *flags, "--out", str(tmp / "runs" / name)]
             for name, flags in runs.items()}
    for name, flags in {"tiny": base, "one_hot": one_hot, "four_of_ten": four,
                        "wide": wide}.items():
        named[f"reference {name}"] = ["reference", *flags]
        named[f"certify {name}"] = ["certify", *flags]
    named["tune"] = ["tune", *base, "--algorithm", "dsgd", "--target-error", "7",
                     "--grid", str(paths["grid"])]
    for name, flags in REFUSED.items():
        flags = [f.format(**paths) for f in flags]
        named[f"refused run {name}"] = ["run", *base, *flags, "--out", str(tmp / "refused" / name)]
    for flags in (["--batch-g", "0"], ["--x0-mode", "bogus"], ["--algorithm", "dsgd"]):
        named[f"refused certify {' '.join(flags)}"] = ["certify", *base, *flags]
    # A proximal run's certificate keys are refused before set-up.
    for flags in (["--eta-s", "2"], ["--mu", "-1"], ["--c1", "0"]):
        for command in ("run", "certify"):
            named[f"refused {command} {' '.join(flags)}"] = [
                command, *base, *flags, "--out", str(tmp / "refused" / f"{command}{flags[0]}")]
    return named


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The directory the commands wrote into, and each command's argv and
    result, by name."""
    tmp = tmp_path_factory.mktemp("cli")
    named = commands(tmp)
    done = subprocess.run(
        [sys.executable, "-c", ONE_PROCESS], input=json.dumps(list(named.values())),
        env=environment(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(results) == len(named)
    return tmp, {name: {"argv": argv, **r} for (name, argv), r in zip(named.items(), results)}


def header(path):
    with open(path) as f:
        return json.loads(f.readline())


def test_every_command_that_should_succeed_prints_no_warning(session):
    _, results = session
    for name, result in results.items():
        if not name.startswith("refused"):
            assert (name, result["status"], result["err"]) == (name, 0, "")


def test_each_run_writes_its_trace_and_mean_csv(session):
    tmp, results = session
    for name, result in results.items():
        if name.startswith("run "):
            argv = result["argv"]
            algorithm = argv[argv.index("--algorithm") + 1] if "--algorithm" in argv else "st_sopro"
            out = tmp / "runs" / name[4:]
            assert sorted(p.name for p in out.iterdir()) == [
                f"{algorithm}_mean.csv", f"{algorithm}_seed000.jsonl"], name
            first = header(out / f"{algorithm}_seed000.jsonl")
            assert first["config"]["algorithm"] == algorithm
            assert first["reference"].keys() == {"grad_norm", "iterations", "hessians"}
            assert result["out"].splitlines()[0] == f"wrote {out / f'{algorithm}_seed000.jsonl'}"


def test_row_path_runs_load_soprolab_sparse_and_none_of_scipys_subpackages(session):
    # Every CSR product runs in scipy's compiled kernels, loaded from their
    # file (soprolab.sparse), and the sigmoid is numpy's: a run on the row
    # path, synthetic or parsed, with a dense or CSR exchange, by a
    # proximal method or a baseline, loads no scipy module at all.
    _, results = session
    runs = {name: (r["sparse"], r["scipy"]) for name, r in results.items()
            if name.startswith("run ")}
    assert runs == dict.fromkeys(runs, (True, []))


def series_terms(rho):
    """The least ``k`` with ``rho^(k+1) <= CG_TOL / (1 + rho)``."""
    return next(k for k in range(10**4) if rho ** (k + 1) <= CG_TOL / (1 + rho))


@pytest.mark.parametrize("name, algorithm", [("st_sopro", "st_sopro"), ("sopro", "sopro"),
                                             ("wide", "st_sopro"), ("wide-sopro", "sopro")])
def test_a_proximal_trace_names_its_series_run_to_cgs_tolerance(session, name, algorithm):
    # Every run here uses certified alphas, whose shift dwarfs the curvature
    # (rho < 1): the Neumann series, with no separate step name.  The wide
    # runs' local sets are larger than d.
    tmp, _ = session
    engine = header(tmp / "runs" / name / f"{algorithm}_seed000.jsonl")["engine"]
    assert engine == {"solve": "series", "terms": series_terms(engine["rho_bound"]),
                      "rho_bound": engine["rho_bound"]}
    assert engine["rho_bound"] < 1


def test_a_run_on_a_weighted_edge_list_records_the_files_edges(session):
    tmp, _ = session
    assert header(tmp / "runs" / "triangle" / "st_sopro_seed000.jsonl")["topology"]["n_edges"] == 3


def test_the_reference_solve_reaches_its_tolerance_and_counts_its_hessians(session):
    # On the synthetic sets, and through the set-up's chunked readers of
    # parsed sets: one-hot, denser, and larger than d.
    _, results = session
    for name in ("tiny", "one_hot", "four_of_ten", "wide"):
        lines = dict(ln.split(" = ", 1) for ln in results[f"reference {name}"]["out"].splitlines())
        assert float(lines["grad_norm"]) <= REFERENCE_TOL, name
        assert 1 <= int(lines["hessians_formed"]) <= int(lines["newton_iterations"]), name


def test_certify_prints_a_rate_and_tune_a_best_point(session):
    _, results = session
    for name in ("tiny", "one_hot", "four_of_ten", "wide"):
        lines = dict(ln.split(" = ", 1) for ln in results[f"certify {name}"]["out"].splitlines())
        assert lines["n_agents"] == "3" and float(lines["delta_s"]) > 0, name
    assert results["tune"]["out"].splitlines()[-1].startswith("best: {")


def test_a_refused_input_prints_one_error_line_and_writes_nothing(session):
    tmp, results = session
    for name, result in results.items():
        if name.startswith("refused"):
            assert result["status"] == 1, name
            assert result["err"].count("\n") == 1 and result["err"].startswith("error: "), name
    assert not (tmp / "refused").exists()
    assert results["refused certify --algorithm dsgd"]["err"] == (
        "error: algorithm 'dsgd' has no certificate\n")
    assert results["refused run utf8"]["err"] == "error: line 2: non-ASCII byte 0xff\n"


# ------------------------------------- refusals and edge cases, one process each

# A file that is not UTF-8 is refused by its reader, naming the line of the
# first byte that does not decode, in one error line and no traceback.
UNDECODABLE = {
    "topology": (["run", "--config", "{config}", "--topology-file", "{file}",
                  "--out", "{tmp}/out"],
                 b"3 2\n0 1 1.0\n1 2 \xff1.0\n", "line 3: invalid UTF-8 byte 0xff"),
    "config": (["run", "--config", "{file}", "--out", "{tmp}/out"],
               b"dim = 4\n# caf\xe9\nn_agents = 3\n", "line 2: invalid UTF-8 byte 0xe9"),
    "grid": (["tune", "--config", "{config}", "--algorithm", "dsgd", "--target-error", "7",
              "--grid", "{file}"],
             b"step_size=0.1\nstep_size=\xff\n", "line 2: invalid UTF-8 byte 0xff"),
}


@pytest.mark.parametrize("argv, data, message", UNDECODABLE.values(), ids=UNDECODABLE)
def test_a_file_that_is_not_utf8_is_refused_in_one_error_line(argv, data, message, tmp_path):
    config, bad = tmp_path / "tiny.cfg", tmp_path / "bad"
    config.write_text(TINY)
    bad.write_bytes(data)
    argv = [a.format(config=config, file=bad, tmp=tmp_path) for a in argv]
    done = subprocess.run([*CLI, *argv], env=environment(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


# Bounds on rho at which CG's a-priori cap is not defined (sqrt(1 + rho)
# rounds to 1): a shift of 1e17, and rows with labels but no features.
TINY_BOUNDS = {
    "mu": (["--mu", "1e17"], None),
    "featureless": (["--dataset", "{file}", "--dim", "4"], "".join(
        f"{(-1) ** k:+d}\n" for k in range(40)).encode()),
}


@pytest.mark.parametrize("flags, data", TINY_BOUNDS.values(), ids=TINY_BOUNDS)
def test_a_run_at_a_bound_too_small_for_cgs_cap_takes_the_series_with_no_term(
        flags, data, tmp_path):
    config, dataset = tmp_path / "tiny.cfg", tmp_path / "rows.txt"
    config.write_text(TINY)
    if data is not None:
        dataset.write_bytes(data)
    argv = ["run", "--config", str(config), *(f.format(file=dataset) for f in flags),
            "--max-iters", "3", "--out", str(tmp_path / "out")]
    done = subprocess.run([*CLI, *argv], env=environment(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    engine = header(tmp_path / "out" / "st_sopro_seed000.jsonl")["engine"]
    assert (engine["solve"], engine["terms"]) == ("series", 0)
    assert engine["rho_bound"] <= 7.77e-16


# --------------------------------------------------------- two BLAS threads


def test_golden_traces_hold_their_tolerance_on_two_blas_threads():
    # The golden files are compared at a relative tolerance, not bitwise,
    # so that another BLAS thread count still passes them.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(GOLDEN)],
        env=environment(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "skipped" not in done.stdout.splitlines()[-1]

"""Layers load on first use: a CLI subcommand runs only the layers it reads
from, and every way of reaching the package still finds what it names."""

import importlib.util
import json
import os
import textwrap

import pytest

import eigensplit

from conftest import SRC

PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")

# prints the exit code, then the package files whose module code ran
_RUN_AND_RECORD = textwrap.dedent("""
    import contextlib, io, os, sys
    package, argv = sys.argv[1], sys.argv[2:]
    ran = []

    def record(event, args):
        if event == "exec":
            path = os.path.abspath(getattr(args[0], "co_filename", ""))
            if os.path.dirname(path) == package:
                ran.append(os.path.basename(path)[:-3])

    sys.addaudithook(record)
    from eigensplit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print(rc, *sorted(ran))
""")

_ENTRY = {"__init__", "cli", "errors", "padic"}
_UNITS = {"series", "formal_groups", "cyclotomic", "kummer"}


@pytest.mark.parametrize("argv, layers", [
    (["teich", "--prime", "5"], set()),
    (["teich", "--prime", "5", "--cache-dir", "{cache}"], set()),
    (["kummer", "--prime", "5", "--cache-dir", "{cache}"], _UNITS),
    (["lvalues", "--prime", "7", "--char", "4", "--at", "3",
      "--cache-dir", "{cache}"], {"lfunctions"}),
    (["duality", "--prime", "5", "--from", "-8", "--to", "16"],
     {"lfunctions", "homotopy"}),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_subcommand_runs_only_its_layers(python, tmp_path, argv, layers):
    argv = [a.format(cache=tmp_path) for a in argv]
    r = python("-c", _RUN_AND_RECORD, os.path.join(SRC, "eigensplit"), *argv)
    rc, *ran = r.stdout.decode().split()
    assert (rc, r.stderr) == ("0", b"")
    assert set(ran) == _ENTRY | layers


# prints the exit code and whether the csv module was loaded
_RUN_AND_CHECK_CSV = textwrap.dedent("""
    import contextlib, io, sys
    from eigensplit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[1:])
    print(rc, "csv" in sys.modules)
""")


@pytest.mark.parametrize("argv, loaded", [
    (["teich", "--prime", "5", "--format", "json"], "False"),
    (["lvalues", "--prime", "7", "--char", "4", "--at", "3",
      "--format", "json"], "False"),
    (["teich", "--prime", "5", "--format", "csv"], "True"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_only_a_csv_run_loads_csv(python, argv, loaded):
    r = python("-c", _RUN_AND_CHECK_CSV, *argv)
    assert (r.stdout.decode().split(), r.stderr) == (["0", loaded], b"")


def test_tracer_finds_every_layer_after_importing_the_cli(python):
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import eigensplit.cli
        sys.path.insert(0, {PERFBENCH!r})
        import tracer
        for mod, attr, _ in tracer.FUNCTIONS:
            getattr(sys.modules["eigensplit." + mod], attr)
        for mod, cls, attr, _ in tracer.METHODS:
            getattr(getattr(sys.modules["eigensplit." + mod], cls), attr)
        t = tracer.Tracer()
        tracer.install(t)
        with contextlib.redirect_stdout(io.StringIO()):
            eigensplit.cli.main(["lvalues", "--prime", "7", "--char", "4",
                                 "--at", "3"])
            eigensplit.cli.main(["duality", "--prime", "5", "--from", "-8",
                                 "--to", "16"])
        print(json.dumps(sorted(t.aggregate())))
    """)
    r = python("-c", code)
    assert r.returncode == 0, r.stderr.decode()
    # the wrappers sit where the CLI looks its layers up
    assert {"cli.main", "lfunctions.lp_value",
            "homotopy.verify_main_duality"} <= set(json.loads(r.stdout))


def test_tracer_installs_in_a_fresh_process(python):
    # with nothing imported first: install loads every layer itself, and a
    # renamed wrapped name fails here instead of in a traced benchmark run
    r = python("-c", f"import sys; sys.path.insert(0, {PERFBENCH!r}); "
                     "import tracer; tracer.install(tracer.Tracer())")
    assert (r.returncode, r.stderr) == (0, b"")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_still_exist():
    # the benchmark is frozen: every name its tracer wraps and its query
    # kinds import must survive a change to the package
    def layer(mod):
        return importlib.import_module(f"eigensplit.{mod}")

    tracer = _load_perfbench("tracer")
    for mod, attr, _ in tracer.FUNCTIONS:
        assert hasattr(layer(mod), attr), (mod, attr)
    for mod, cls, attr, _ in tracer.METHODS:
        assert attr in vars(getattr(layer(mod), cls)), (mod, cls, attr)
    _load_perfbench("kinds")


def test_star_import_binds_all():
    namespace = {}
    exec("from eigensplit import *", namespace)
    assert set(eigensplit.__all__) <= set(namespace)
    assert set(eigensplit.__all__) <= set(dir(eigensplit))
    assert namespace["lp_value"] is eigensplit.lfunctions.lp_value
    with pytest.raises(AttributeError):
        eigensplit.no_such_name


def test_module_run_warns_nothing(python):
    r = python("-W", "error", "-m", "eigensplit.cli", "teich", "--prime", "5")
    assert (r.returncode, r.stderr) == (0, b"")

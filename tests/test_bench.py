import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

import rlsa.bench
from rlsa import SamplerConfig, read_instance, write_instance
from rlsa.bench import (
    PRESETS,
    ExperimentConfig,
    _build_parser,
    _write_json,
    config_from_args,
    load_reference_energies,
    main,
    parse_generate_spec,
    run_experiment,
    verify_record,
)

from oracles import triangle


def write_k3(tmp_path, name="k3.dimacs"):
    path = tmp_path / name
    path.write_text(write_instance(triangle(), "dimacs"))
    return path


def read_record(outdir, stem):
    with open(outdir / f"{stem}.result.json", encoding="utf-8") as fh:
        return json.load(fh)


def strip_wall_time(path):
    record = json.loads(path.read_text())
    record.pop("wall_time_s", None)
    return json.dumps(record, sort_keys=True)


# -- presets -----------------------------------------------------------------

def test_preset_table():
    assert PRESETS["mis-rb-small"] == dict(problem="mis", tau0=0.01, d=5, chains=200, steps=300, beta=1.02)
    assert PRESETS["mis-rb-large"] == dict(problem="mis", tau0=0.01, d=5, chains=200, steps=500, beta=1.02)
    assert PRESETS["mis-er-small"] == dict(problem="mis", tau0=0.01, d=20, chains=200, steps=500, beta=1.001)
    assert PRESETS["mis-er-large"] == dict(problem="mis", tau0=0.01, d=20, chains=200, steps=5000, beta=1.001)
    assert PRESETS["mcl-rb-small"] == dict(problem="mcl", tau0=4.0, d=2, chains=200, steps=100, beta=1.02)
    assert PRESETS["mcl-rb-large"] == dict(problem="mcl", tau0=4.0, d=2, chains=200, steps=500, beta=1.02)
    assert PRESETS["mcut-ba-small"] == dict(problem="mcut", tau0=5.0, d=20, chains=200, steps=200, beta=1.02)
    assert PRESETS["mcut-ba-large"] == dict(problem="mcut", tau0=5.0, d=20, chains=200, steps=500, beta=1.02)


# -- flags and presets ---------------------------------------------------------

def parse(argv):
    return config_from_args(_build_parser().parse_args(argv))


REQUIRED = ["--problem", "mis", "--instance", "k3.dimacs",
            "--tau0", "0.01", "--d", "2", "--steps", "10", "--chains", "2"]


def test_every_flag_lands_in_its_field():
    # no valid config sets both d and alpha, nor both instance and generate
    common = ["--tau0", "0.3", "--steps", "11", "--chains", "5", "--beta", "1.5",
              "--epsilon", "0.001", "--seed", "9", "--out", "results", "--trajectory",
              "--ref-energies", "refs.txt", "--threads", "3", "--qubo-linear", "lin.txt",
              "--qubo-scale", "0.25"]
    expected = dict(tau0=0.3, steps=11, chains=5, beta=1.5, epsilon=0.001, seed=9,
                    out="results", trajectory=True, ref_energies="refs.txt", threads=3,
                    qubo_linear="lin.txt", qubo_scale=0.25)
    cases = [
        (["--problem", "mcut", "--instance", "g.txt", "--kernel", "normalized", "--d", "4"],
         dict(problem="mcut", instance="g.txt", generate=None, kernel="normalized", d=4,
              alpha=None)),
        (["--problem", "qubo", "--generate", "er:5:0.5", "--kernel", "ld", "--alpha", "0.2"],
         dict(problem="qubo", instance=None, generate="er:5:0.5", kernel="ld", d=None, alpha=0.2)),
    ]
    defaults = asdict(ExperimentConfig(problem="mis"))
    changed = set()
    for flags, own in cases:
        values = asdict(parse(flags + common))
        assert values == {**expected, **own}
        changed.update(name for name, value in values.items() if value != defaults[name])
    assert changed == {f.name for f in fields(ExperimentConfig)}
    # every flag but --preset names a field
    flags = vars(_build_parser().parse_args([]))
    assert set(flags) - {"preset"} == {f.name for f in fields(ExperimentConfig)}


def test_unset_flags_take_the_dataclass_defaults():
    values = asdict(parse(REQUIRED))
    given = dict(problem="mis", instance="k3.dimacs", tau0=0.01, d=2, steps=10, chains=2)
    for f in fields(ExperimentConfig):
        assert values[f.name] == given.get(f.name, f.default), f.name
    # the sampler's own defaults are the CLI's
    for name in ("epsilon", "kernel", "seed"):
        assert values[name] == getattr(SamplerConfig, name)


def test_preset_fills_only_unset_fields():
    preset = PRESETS["mis-er-small"]
    cfg = parse(["--instance", "k3.dimacs", "--preset", "mis-er-small",
                 "--steps", "7", "--beta", "1.5", "--seed", "4"])
    assert (cfg.problem, cfg.tau0, cfg.d, cfg.chains) == (
        preset["problem"], preset["tau0"], preset["d"], preset["chains"])
    assert (cfg.steps, cfg.beta, cfg.seed) == (7, 1.5, 4)
    assert cfg.epsilon == SamplerConfig.epsilon and cfg.alpha is None
    # explicit flags win over every preset field, --problem included
    cfg = parse(["--instance", "k3.dimacs", "--preset", "mis-er-small", "--problem", "mcl",
                 "--tau0", "2", "--d", "3", "--chains", "6", "--steps", "8", "--beta", "1.1"])
    assert (cfg.problem, cfg.tau0, cfg.d, cfg.chains, cfg.steps, cfg.beta) == (
        "mcl", 2.0, 3, 6, 8, 1.1)
    # a kernel that takes no d never sees the preset's
    cfg = parse(["--instance", "k3.dimacs", "--preset", "mis-er-small",
                 "--kernel", "ld", "--alpha", "0.1"])
    assert cfg.d is None and cfg.alpha == 0.1 and cfg.tau0 == preset["tau0"]


def test_sampler_config_carries_every_sampler_field():
    for rate in (dict(d=3), dict(kernel="ld", alpha=0.2)):
        cfg = ExperimentConfig(problem="mis", instance="k3.dimacs", tau0=0.5, steps=7,
                               chains=4, seed=8, epsilon=0.01, **rate)
        scfg = cfg.sampler_config()
        for f in fields(SamplerConfig):
            assert getattr(scfg, f.name) == getattr(cfg, f.name), f.name


# -- single-instance runs -------------------------------------------------------

def test_k3_with_preset_gives_objective_one(tmp_path):
    # presets whose d exceeds the instance size are capped per instance
    instance = write_k3(tmp_path)
    for preset in ("mis-rb-small", "mis-er-small"):
        out = tmp_path / f"out-{preset}"
        code = main(["--instance", str(instance), "--preset", preset,
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        record = read_record(out, "k3")
        assert record["objective"] == 1
        assert record["violation"] == 0
        assert record["best_energy"] == -1.0
        assert record["problem"] == "mis"
        assert sum(record["best_x"]) == 1


def test_record_echoes_the_capped_d_that_ran(tmp_path, monkeypatch):
    ran = []

    def recording_run(model, cfg, workers):
        ran.append(cfg.d)
        return real_run(model, cfg, workers=workers)

    real_run = rlsa.bench.run_rlsa
    monkeypatch.setattr(rlsa.bench, "run_rlsa", recording_run)
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--preset", "mis-er-small",
                 "--steps", "20", "--out", str(out)]) == 0
    assert ran == [3]
    assert read_record(out, "k3")["config"]["d"] == 3


def test_result_record_validates_against_model(tmp_path):
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
                 "--d", "2", "--steps", "50", "--chains", "8", "--out", str(out)]) == 0
    record = read_record(out, "k3")
    verify_record(record, read_instance(instance))
    assert isinstance(record["decode_flips"], int) and record["decode_flips"] >= 0
    assert record["decode_gain"] >= 0.0


def test_trajectory_csv(tmp_path):
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.5",
                 "--d", "1", "--steps", "40", "--chains", "4", "--out", str(out),
                 "--trajectory"]) == 0
    lines = (out / "k3.trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,tau,best_energy,mean_energy,mean_flips,improved"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.5
    best = [float(line.split(",")[2]) for line in lines[1:]]
    assert (np.diff(best) <= 0).all()
    improved = [int(line.split(",")[5]) for line in lines[1:]]
    assert all(0 <= c <= 4 for c in improved)


def test_trajectory_gap_column_with_references(tmp_path):
    instance = write_k3(tmp_path)
    refs = tmp_path / "refs.txt"
    refs.write_text("# optimal energies\nk3 -1.0\n")
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
                 "--d", "1", "--steps", "30", "--chains", "8", "--out", str(out),
                 "--trajectory", "--ref-energies", str(refs)]) == 0
    lines = (out / "k3.trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,tau,best_energy,mean_energy,mean_flips,improved,primal_gap"
    gaps = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(0.0 <= g <= 1.0 for g in gaps)
    assert gaps[-1] == 0.0


def test_reference_file_parsing(tmp_path):
    refs = tmp_path / "refs.txt"
    refs.write_text("a -3.5\n# comment\n\nb 2\n")
    assert load_reference_energies(refs) == {"a": -3.5, "b": 2.0}
    refs.write_text("a\n")
    with pytest.raises(ValueError, match="line 1"):
        load_reference_energies(refs)


@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_non_finite_reference_energy_fails_before_writing(tmp_path, capsys, energy):
    instance = write_k3(tmp_path)
    refs = tmp_path / "refs.txt"
    refs.write_text(f"# optimal energies\nk3 {energy}\n")
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
                 "--d", "1", "--steps", "10", "--chains", "2", "--out", str(out),
                 "--trajectory", "--ref-energies", str(refs)]) == 1
    assert not out.exists()
    assert f"refs.txt: line 2: bad energy '{energy}'" in capsys.readouterr().err
    refs.write_text("a -inf\n")
    with pytest.raises(ValueError, match="line 1"):
        load_reference_energies(refs)


def _solve_k3_with_references(tmp_path, text):
    instance = write_k3(tmp_path)
    refs = tmp_path / "refs.txt"
    refs.write_text(text)
    out = tmp_path / "out"
    status = main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
                   "--d", "1", "--steps", "10", "--chains", "2", "--out", str(out),
                   "--trajectory", "--ref-energies", str(refs)])
    return status, out


def test_reference_name_given_twice_fails_before_writing(tmp_path, capsys):
    status, out = _solve_k3_with_references(tmp_path, "k3x -1.0\nk3 -1\nk3 -2\n")
    assert status == 1
    assert not out.exists()
    assert "refs.txt: line 3: 'k3' repeats line 2" in capsys.readouterr().err
    with pytest.raises(ValueError, match="line 3: 'k3' repeats line 2"):
        load_reference_energies(tmp_path / "refs.txt")


def test_reference_name_matching_no_instance_fails_before_writing(tmp_path, capsys, monkeypatch):
    import rlsa.bench as bench

    def no_solving(*args, **kwargs):
        raise AssertionError("solved despite an unknown reference name")

    monkeypatch.setattr(bench, "run_rlsa", no_solving)
    status, out = _solve_k3_with_references(tmp_path, "k3x -1.0\n")
    assert status == 1
    assert not out.exists()
    assert "refs.txt: no instance named k3x" in capsys.readouterr().err


def test_json_artifacts_refuse_nan(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError):
        _write_json(path, {"mean_primal_gap": float("nan")})
    assert list(tmp_path.iterdir()) == []


# -- determinism ------------------------------------------------------------------

def test_same_config_same_bytes_modulo_wall_time(tmp_path):
    instance = write_k3(tmp_path)
    args = ["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
            "--d", "2", "--steps", "60", "--chains", "8", "--seed", "11",
            "--trajectory"]
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert strip_wall_time(out1 / "k3.result.json") == strip_wall_time(out2 / "k3.result.json")
    assert (out1 / "k3.trajectory.csv").read_bytes() == (out2 / "k3.trajectory.csv").read_bytes()


def test_thread_count_does_not_change_artifacts(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    args = ["--generate", "er:40:0.2", "--problem", "mis", "--tau0", "0.01",
            "--d", "3", "--steps", "40", "--chains", "8", "--seed", "3",
            "--trajectory"]
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
    stem = "er-n40-p0.2-seed3"
    assert strip_wall_time(out1 / f"{stem}.result.json") == strip_wall_time(out2 / f"{stem}.result.json")
    assert (out1 / f"{stem}.trajectory.csv").read_bytes() == (out2 / f"{stem}.trajectory.csv").read_bytes()


# -- generated instances ------------------------------------------------------------

def test_parse_generate_spec():
    name, g = parse_generate_spec("er:30:0.2", seed=5)
    assert name == "er-n30-p0.2-seed5"
    assert g.num_nodes == 30
    name, g = parse_generate_spec("ba:30:2", seed=5)
    assert g.num_edges == 2 * 28
    with pytest.raises(ValueError):
        parse_generate_spec("er:30", seed=0)
    with pytest.raises(ValueError):
        parse_generate_spec("ws:30:2", seed=0)


def test_generated_instance_names_are_canonical():
    # one graph, one name, however its numbers are written
    name, g = parse_generate_spec("er:30:0.2", seed=0)
    for spec in ("er:30:0.20", "ER:30:.2", "er:030:2e-1"):
        other, h = parse_generate_spec(spec, seed=0)
        assert other == name == "er-n30-p0.2-seed0", spec
        assert np.array_equal(h.edge_array(), g.edge_array())
    assert parse_generate_spec("BA:030:02", seed=1)[0] == "ba-n30-m2-seed1"


def test_generated_instance_run_records_source(tmp_path):
    out = tmp_path / "out"
    assert main(["--generate", "ba:20:2", "--problem", "mcut", "--tau0", "5",
                 "--d", "4", "--steps", "50", "--chains", "8", "--out", str(out)]) == 0
    record = read_record(out, "ba-n20-m2-seed0")
    assert record["instance_source"] == "ba:20:2"
    assert record["objective"] > 0


# -- batch mode ----------------------------------------------------------------------

def test_batch_directory_with_summary(tmp_path):
    instances = tmp_path / "instances"
    instances.mkdir()
    from rlsa import generate_er

    for i in range(3):
        g = generate_er(12, 0.3, seed=i)
        (instances / f"er{i}.txt").write_text(write_instance(g, "edge-list"))
    out = tmp_path / "out"
    assert main(["--instance", str(instances), "--problem", "mis", "--tau0", "0.01",
                 "--d", "2", "--steps", "60", "--chains", "8", "--out", str(out)]) == 0
    for i in range(3):
        assert (out / f"er{i}.result.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 3
    assert summary["mean_objective"] > 0
    assert summary["mean_primal_gap"] is None


def test_batch_summary_includes_gap_when_references_present(tmp_path):
    instances = tmp_path / "instances"
    instances.mkdir()
    for name in ("a", "b"):
        (instances / f"{name}.dimacs").write_text(write_instance(triangle(), "dimacs"))
    refs = tmp_path / "refs.txt"
    refs.write_text("a -1.0\nb -1.0\n")
    out = tmp_path / "out"
    assert main(["--instance", str(instances), "--problem", "mis", "--tau0", "0.01",
                 "--d", "1", "--steps", "40", "--chains", "8", "--out", str(out),
                 "--ref-energies", str(refs)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_primal_gap"] == 0.0


def test_batch_rejects_files_sharing_a_stem_before_writing(tmp_path, capsys):
    # g.dimacs and g.txt would both write g.result.json
    instances = tmp_path / "instances"
    instances.mkdir()
    (instances / "g.dimacs").write_text(write_instance(triangle(), "dimacs"))
    (instances / "g.txt").write_text(write_instance(triangle(), "edge-list"))
    (instances / "h.txt").write_text(write_instance(triangle(), "edge-list"))
    out = tmp_path / "out"
    assert main(["--instance", str(instances), "--problem", "mis", "--tau0", "0.01",
                 "--d", "1", "--steps", "10", "--chains", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(instances / "g.dimacs") in err and str(instances / "g.txt") in err
    assert not out.exists()


# -- qubo -----------------------------------------------------------------------------

def test_qubo_run_via_cli(tmp_path):
    instance = write_k3(tmp_path)
    linear = tmp_path / "linear.txt"
    linear.write_text("-1\n-1\n-1\n")
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "qubo",
                 "--qubo-linear", str(linear), "--qubo-scale", "0.51",
                 "--tau0", "0.01", "--d", "2", "--steps", "60", "--chains", "8",
                 "--out", str(out)]) == 0
    record = read_record(out, "k3")
    assert record["objective"] is None
    assert record["violation"] == 0
    assert record["best_energy"] == -1.0
    verify_record(record, read_instance(instance))


def test_qubo_record_verifies_from_anywhere_without_its_linear_file(tmp_path, monkeypatch):
    # the record keeps the coefficients its model used, so neither the
    # working directory nor the linear file matters once it is written
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run_dir.mkdir()
    elsewhere.mkdir()
    instance = write_k3(run_dir)
    monkeypatch.chdir(run_dir)
    (run_dir / "lin.txt").write_text("-1\n-0.0\n0.25\n")
    assert main(["--instance", "k3.dimacs", "--problem", "qubo", "--qubo-linear", "lin.txt",
                 "--qubo-scale", "0.51", "--tau0", "0.01", "--d", "2", "--steps", "20",
                 "--chains", "4", "--out", "out"]) == 0
    (run_dir / "lin.txt").unlink()
    monkeypatch.chdir(elsewhere)
    record = read_record(run_dir / "out", "k3")
    assert record["qubo_linear_values"] == [-1.0, -0.0, 0.25]
    verify_record(record, read_instance(instance))
    record["best_energy"] += 1.0
    with pytest.raises(ValueError, match="stored energy"):
        verify_record(record, read_instance(instance))
    del record["qubo_linear_values"]
    with pytest.raises(ValueError):
        verify_record(record, read_instance(instance))


def test_records_of_the_benchmark_shape_verify():
    # a record of only problem, config.beta and the checked fields, as the
    # benchmark builds it, verifies; its beta reaches the model
    record = {"problem": "mis", "config": {"beta": 2.0}, "best_x": [1, 0, 0],
              "violation": 0, "objective": 1, "best_energy": -1.0}
    verify_record(record, triangle())
    record["config"]["beta"] = 1.0
    with pytest.raises(ValueError, match="beta must exceed 1"):
        verify_record(record, triangle())


def test_verify_record_rejects_a_nan_energy():
    # abs(energy - nan) > tol is False, so the check must reject NaN itself
    record = {"problem": "mis", "config": {}, "best_x": [1, 0, 0],
              "violation": 0, "objective": 1, "best_energy": -1.0}
    verify_record(record, triangle())
    record["best_energy"] = float("nan")
    with pytest.raises(ValueError, match="stored energy nan"):
        verify_record(record, triangle())


@pytest.mark.parametrize("field", ["problem", "config", "best_x", "violation", "objective",
                                   "best_energy"])
def test_verify_record_names_a_missing_field(field):
    record = {"problem": "mis", "config": {}, "best_x": [1, 0, 0],
              "violation": 0, "objective": 1, "best_energy": -1.0}
    del record[field]
    with pytest.raises(ValueError, match=f"record lacks {field}"):
        verify_record(record, triangle())


@pytest.mark.parametrize("field, bad", [
    ("problem", None), ("problem", 3),
    ("config", None), ("config", [2.0]),
    ("best_x", None), ("best_x", "100"), ("best_x", [1, None, 0]), ("best_x", [[1, 0, 0]]),
    ("violation", None), ("violation", "0"), ("violation", 0.0),
    ("objective", "1"), ("objective", 1.0), ("objective", True),
    ("best_energy", None), ("best_energy", "-1.0"),
])
def test_verify_record_rejects_a_field_of_the_wrong_type(field, bad):
    record = {"problem": "mis", "config": {}, "best_x": [1, 0, 0],
              "violation": 0, "objective": 1, "best_energy": -1.0}
    verify_record(record, triangle())
    record[field] = bad
    with pytest.raises(ValueError, match=f"record field {field} .*, got {re.escape(repr(bad))}$"):
        verify_record(record, triangle())


# -- error handling ------------------------------------------------------------------

def test_unreadable_instance_fails_cleanly(tmp_path, capsys):
    code = main(["--instance", str(tmp_path / "missing.txt"), "--problem", "mis",
                 "--tau0", "0.01", "--d", "2", "--steps", "10", "--chains", "2"])
    assert code == 1
    assert "missing.txt" in capsys.readouterr().err


def test_missing_hyperparameters_fail_before_solving(tmp_path, capsys):
    instance = write_k3(tmp_path)
    code = main(["--instance", str(instance), "--problem", "mis"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--tau0" in err and "--d" in err
    # the kernel's row of the flip-rule table says which rate it needs
    code = main(["--instance", str(instance), "--problem", "mis", "--kernel", "ld",
                 "--tau0", "0.01", "--steps", "10", "--chains", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "--d" not in err


def test_invalid_hyperparameters_fail_before_solving(tmp_path):
    instance = write_k3(tmp_path)
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "-1",
                 "--d", "2", "--steps", "10", "--chains", "2"]) == 2
    assert main(["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
                 "--d", "0", "--steps", "10", "--chains", "2"]) == 2


def test_instance_and_generate_are_mutually_exclusive(tmp_path):
    instance = write_k3(tmp_path)
    assert main(["--instance", str(instance), "--generate", "er:5:0.5",
                 "--problem", "mis", "--tau0", "0.01", "--d", "2",
                 "--steps", "10", "--chains", "2"]) == 2


def test_qubo_requires_linear_file(tmp_path):
    instance = write_k3(tmp_path)
    assert main(["--instance", str(instance), "--problem", "qubo",
                 "--tau0", "0.01", "--d", "2", "--steps", "10", "--chains", "2"]) == 2


def test_ld_solver_via_cli(tmp_path):
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    assert main(["--instance", str(instance), "--problem", "mis", "--kernel", "ld",
                 "--alpha", "0.1", "--tau0", "0.01", "--steps", "60",
                 "--chains", "8", "--out", str(out)]) == 0
    record = read_record(out, "k3")
    assert record["config"]["kernel"] == "ld"
    assert record["config"]["alpha"] == 0.1
    assert "d" not in record["config"] and "solver" not in record
    assert record["objective"] == 1
    # a preset's d is left out for ld; an explicit --d is rejected
    preset = ["--instance", str(instance), "--preset", "mis-rb-small", "--kernel", "ld",
              "--alpha", "0.1", "--steps", "20", "--chains", "4"]
    assert main(preset + ["--out", str(tmp_path / "preset")]) == 0
    assert main(preset + ["--d", "2", "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("threads", [1.5, True, 0])
def test_bad_thread_count_fails_before_writing(tmp_path, threads):
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    cfg = ExperimentConfig(problem="mis", instance=str(instance), tau0=0.01, d=2,
                           steps=10, chains=2, out=str(out), threads=threads)
    assert run_experiment(cfg) != 0
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--problem", "mis", "--beta", "0.9"],
    ["--problem", "mcl", "--beta", "1.0"],
    ["--problem", "mis", "--beta", "nan"],
    ["--problem", "mcut", "--beta", "-1"],
    ["--problem", "mcut", "--beta", "inf"],
    ["--problem", "qubo", "--qubo-scale", "nan"],
], ids=["mis-below-1", "mcl-at-1", "nan", "negative", "inf", "qubo-scale-nan"])
def test_bad_beta_fails_before_writing(tmp_path, flags):
    instance = write_k3(tmp_path)
    linear = tmp_path / "linear.txt"
    linear.write_text("0.5\n-1.0\n0.25\n")
    out = tmp_path / "out"
    args = ["--instance", str(instance), "--tau0", "0.01", "--d", "2", "--steps", "10",
            "--chains", "2", "--qubo-linear", str(linear), "--out", str(out)]
    assert main(args + flags) == 2
    assert not out.exists()


def test_interrupted_write_leaves_whole_artifacts(tmp_path, monkeypatch):
    instance = write_k3(tmp_path)
    out = tmp_path / "out"
    args = ["--instance", str(instance), "--problem", "mis", "--tau0", "0.01",
            "--d", "2", "--steps", "20", "--chains", "4", "--out", str(out)]
    assert main(args) == 0
    whole = (out / "k3.result.json").read_text()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"problem": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", failing_dump)
    assert main(args + ["--seed", "5"]) == 1
    assert (out / "k3.result.json").read_text() == whole
    assert sorted(p.name for p in out.iterdir()) == ["k3.result.json"]

"""Tests for the differential fuzzing farm.

The farm's *absence of divergences* on healthy code is covered by the
smoke run; the machinery that matters when something breaks — detection,
shrinking, reproducer persistence and replay — is exercised by rigging
one side of a differential (via monkeypatching) and checking that the
farm notices, minimizes and round-trips the reproducer.
"""

import json
from types import SimpleNamespace

import pytest

from repro.sim import fuzzfarm
from repro.sim.fuzzfarm import (ENCODINGS, Divergence, FarmConfig,
                                FarmReport, build_fuzz_netlist,
                                persist_divergences, random_stimulus,
                                replay_reproducer, run_farm,
                                shrink_stimulus)
from repro.sim.oracle import SimulatorOracle, Stimulus, default_oracle


def small_config(**kw):
    base = dict(batch=16, depth=4, seed=0, rounds=1, bmc_depth=3,
                scalar_lanes=2, explicit_lanes=1)
    base.update(kw)
    return FarmConfig(**base)


class TestWorkloads:
    @pytest.mark.parametrize("seed", range(5))
    def test_netlists_validate_and_are_deterministic(self, seed):
        a = build_fuzz_netlist(seed)
        b = build_fuzz_netlist(seed)
        a.validate()
        assert a.fingerprint() == b.fingerprint()
        assert {"hit", "seen_hit", "t_in_range"} <= set(a.properties)

    def test_stimulus_respects_declared_state(self):
        import random
        d = build_fuzz_netlist(3)
        rng = random.Random(1)
        for _ in range(20):
            s = random_stimulus(d, rng, 4)
            assert len(s.inputs) == 4
            for name in s.init_latches:
                assert d.latches[name].init is None
            for mem, words in s.init_memories.items():
                assert d.memories[mem].init is None
                assert not (set(words) & set(d.memories[mem].init_words))


class TestFarmRuns:
    def test_healthy_smoke_no_divergence(self):
        report = run_farm(small_config(rounds=2))
        assert report.ok
        assert report.rounds == 2
        assert report.sim_trials == 32
        assert report.bmc_trials == len(ENCODINGS) * 3 * 2
        assert report.trials > report.sim_trials + report.bmc_trials
        assert "0 divergences" in report.summary()

    def test_min_trials_termination(self):
        report = run_farm(small_config(rounds=None, min_trials=50,
                                       run_bmc=False))
        assert report.trials >= 50
        assert report.rounds >= 2

    def test_default_config_runs_one_round(self):
        report = run_farm(small_config(rounds=None, run_bmc=False))
        assert report.rounds == 1

    def test_detects_sim_divergence(self, monkeypatch, tmp_path):
        """Rig the trace comparison: every scalar lane check 'diverges',
        the farm must report, shrink and persist reproducers."""
        monkeypatch.setattr(fuzzfarm, "traces_equal", lambda a, b: False)
        report = run_farm(small_config(run_bmc=False,
                                       out_dir=str(tmp_path)))
        assert not report.ok
        assert len(report.divergences) == 2  # one per sampled scalar lane
        for div in report.divergences:
            assert div.kind == "scalar-vs-vector"
            # The rigged predicate always holds, so shrinking reaches the
            # all-zero single-cycle minimum.
            assert len(div.stimulus["inputs"]) == 1
            assert all(v == 0 for v in div.stimulus["inputs"][0].values())
        assert len(report.artifacts) == 2
        data = json.loads((tmp_path / report.artifacts[0].split("/")[-1]
                           ).read_text())
        assert data["kind"] == "scalar-vs-vector"
        # Replayed against the *real* semantics it no longer diverges.
        monkeypatch.undo()
        assert replay_reproducer(report.artifacts[0]) is False


class TestShrinkStimulus:
    def test_minimizes_under_predicate(self):
        d = build_fuzz_netlist(1)
        stim = Stimulus(
            inputs=[{n: (1 << i.width) - 1 for n, i in d.inputs.items()}
                    for _ in range(6)],
            init_latches={"noise": 3},
            init_memories={m.name: {0: 1, 1: 1} for m in d.memories.values()
                           if m.init is None})
        # Preserve "cycle count >= 2 and we0@1 is odd".
        def pred(s):
            return len(s.inputs) >= 2 and s.inputs[1]["we0"] % 2 == 1
        out = shrink_stimulus(stim, pred)
        assert pred(out)
        assert len(out.inputs) == 2
        assert out.inputs[1]["we0"] == 1
        # Everything irrelevant to the predicate is zeroed/dropped.
        assert all(v == 0 for v in out.inputs[0].values())
        assert all(v == 0 for n, v in out.inputs[1].items() if n != "we0")
        assert all(v == 0 for v in out.init_latches.values())
        assert all(not words for words in out.init_memories.values())

    def test_preserves_original_on_no_shrink(self):
        stim = Stimulus(inputs=[{"a": 1}])
        out = shrink_stimulus(stim, lambda s: s.inputs[0]["a"] == 1)
        assert out.inputs == [{"a": 1}]


class TestReproducers:
    def test_bmc_kind_roundtrip(self, tmp_path):
        div = Divergence(kind="bmc-verdict", seed=2, detail="synthetic",
                         prop="hit", encoding="hybrid", bmc_depth=4)
        paths = persist_divergences([div], str(tmp_path))
        assert len(paths) == 1
        # Healthy code: the synthetic BMC divergence does not reproduce.
        assert replay_reproducer(paths[0]) is False

    def test_explicit_kind_roundtrip(self, tmp_path):
        d = build_fuzz_netlist(0)
        import random
        stim = random_stimulus(d, random.Random(0), 3)
        div = Divergence(kind="explicit-vs-vector", seed=0,
                         detail="synthetic", prop="hit",
                         stimulus=stim.to_dict())
        [path] = persist_divergences([div], str(tmp_path))
        assert replay_reproducer(path) is False

    def test_cli_replay(self, tmp_path, capsys):
        div = Divergence(kind="bmc-verdict", seed=1, detail="synthetic",
                         prop="hit", encoding="gates", bmc_depth=3)
        [path] = persist_divergences([div], str(tmp_path))
        assert fuzzfarm.main(["--replay", path]) == 0
        assert "no longer diverges" in capsys.readouterr().out

    def test_bmc_replay_uses_recorded_depth(self, tmp_path, monkeypatch):
        """A reproducer found at ``--bmc-depth 6`` must replay at 6: the
        rigged explicit model disagrees only from depth 6 on.  Files
        without a recorded depth replay at the old fixed bound 4."""
        import repro.bmc
        bounds = []

        def fake_verify(design, prop, options):
            bounds.append(options.max_depth)
            if not options.use_emm and options.max_depth >= 6:
                return SimpleNamespace(status="cex", depth=6)
            return SimpleNamespace(status="bounded", depth=options.max_depth)

        monkeypatch.setattr(repro.bmc, "verify", fake_verify)
        div = Divergence(kind="bmc-verdict", seed=1, detail="synthetic",
                         prop="hit", encoding="hybrid", bmc_depth=6)
        [path] = persist_divergences([div], str(tmp_path))
        assert replay_reproducer(path) is True
        assert bounds == [6, 6]
        old = tmp_path / "old.json"
        data = json.loads(open(path).read())
        del data["bmc_depth"]
        old.write_text(json.dumps(data))
        bounds.clear()
        assert replay_reproducer(str(old)) is False
        assert bounds == [4, 4]


class TestCli:
    def test_clean_run_exit_zero(self, capsys):
        code = fuzzfarm.main(["--batch", "8", "--depth", "3", "--rounds", "1",
                              "--no-bmc"])
        assert code == 0
        assert "fuzzfarm:" in capsys.readouterr().out

    def test_report_dataclass_defaults(self):
        r = FarmReport()
        assert r.ok and r.trials == 0


class TestOracleConsistency:
    """The farm's own cross-checks, run directly as assertions."""

    @pytest.mark.parametrize("seed", range(3))
    def test_vector_explicit_scalar_agree(self, seed):
        import random
        d = build_fuzz_netlist(seed)
        rng = random.Random(seed)
        stimuli = [random_stimulus(d, rng, 5) for _ in range(8)]
        fast = default_oracle(d)
        scalar = SimulatorOracle(d)
        from repro.sim.oracle import ExplicitOracle
        explicit = ExplicitOracle(d)
        for s in stimuli:
            for prop in d.properties:
                got = fast.check(prop, s)
                assert (got.failed, got.cycle) == \
                    (lambda v: (v.failed, v.cycle))(scalar.check(prop, s))
                assert (got.failed, got.cycle) == \
                    (lambda v: (v.failed, v.cycle))(explicit.check(prop, s))

"""Failure-injection tests: the library must fail loudly and precisely.

Every public API boundary is probed with malformed or out-of-contract
input; the assertions pin both the exception type and (where it matters)
that no state was corrupted along the way.
"""

import pytest

from repro.core.clustering import Clustering
from repro.core.generation import pc_pivot
from repro.crowd.cache import ScriptedAnswers
from repro.crowd.oracle import CrowdOracle
from repro.crowd.persistence import JournalingAnswerFile
from repro.datasets.schema import GoldStandard, Record, canonical_pair
from repro.pruning.candidate import CandidateSet
from tests.conftest import make_candidates, scripted_oracle


class TestCrowdBoundary:
    def test_unscripted_pair_fails_before_stats_are_charged(self):
        oracle = scripted_oracle({(0, 1): 0.9})
        with pytest.raises(KeyError):
            oracle.ask(5, 6)
        # The failed batch must not have been partially accounted.
        assert oracle.stats.pairs_issued == 0

    def test_mixed_batch_with_missing_answer_fails_atomically(self):
        oracle = scripted_oracle({(0, 1): 0.9})
        with pytest.raises(KeyError):
            oracle.ask_batch([(0, 1), (5, 6)])
        assert not oracle.knows(5, 6)
        assert oracle.stats.iterations == 0

    def test_gold_standard_unknown_record(self):
        gold = GoldStandard({0: 0})
        with pytest.raises(KeyError):
            gold.entity(99)
        with pytest.raises(KeyError):
            gold.is_duplicate(0, 99)

    def test_self_pair_rejected_everywhere(self):
        with pytest.raises(ValueError):
            canonical_pair(3, 3)
        answers = ScriptedAnswers({(0, 1): 0.5})
        with pytest.raises(ValueError):
            answers.confidence(3, 3)


class TestAlgorithmBoundary:
    def test_pivot_rejects_edges_to_unknown_records(self):
        """Candidate pairs referencing records outside R must fail at graph
        construction, not mid-clustering."""
        candidates = make_candidates({(0, 99): 0.8})
        oracle = scripted_oracle({(0, 99): 1.0})
        with pytest.raises(ValueError):
            pc_pivot([0, 1], candidates, oracle, seed=0)

    def test_clustering_rejects_unknown_record_queries(self):
        clustering = Clustering([{0, 1}])
        with pytest.raises(KeyError):
            clustering.cluster_of(7)
        with pytest.raises(KeyError):
            clustering.members(12345)

    def test_merge_of_dead_cluster_rejected(self):
        clustering = Clustering([{0}, {1}, {2}])
        survivor = clustering.merge(clustering.cluster_of(0),
                                    clustering.cluster_of(1))
        dead = ({clustering.cluster_of(0), clustering.cluster_of(1)}
                - {survivor})
        # All records now live in `survivor`; the absorbed id is gone.
        with pytest.raises(KeyError):
            clustering.members(next(iter(
                {0, 1, 2} - set(clustering.cluster_ids)
            ), 999))

    def test_empty_record_set_is_fine(self):
        candidates = CandidateSet(pairs=(), machine_scores={}, threshold=0.3)
        clustering = pc_pivot([], candidates, scripted_oracle({}), seed=0)
        assert len(clustering) == 0


class TestDatasetBoundary:
    def test_record_ids_must_be_unique(self):
        from repro.datasets.schema import Dataset
        with pytest.raises(ValueError):
            Dataset(
                name="dup",
                records=[Record(1, "a"), Record(1, "b")],
                gold=GoldStandard({1: 0}),
            )

    def test_scale_zero_rejected_by_all_generators(self):
        from repro.datasets.registry import dataset_names, generate
        for name in dataset_names():
            with pytest.raises(ValueError):
                generate(name, scale=0)


class TestPersistenceBoundary:
    def test_truncated_json_rejected(self, tmp_path):
        from repro.crowd.persistence import load_answers
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1, "answers": [[0, 1')
        with pytest.raises(Exception):  # json decode or ValueError
            load_answers(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        from repro.crowd.persistence import load_answers
        with pytest.raises(OSError):
            load_answers(tmp_path / "nope.json")

    def test_confidence_outside_unit_interval_rejected(self, tmp_path):
        import json
        from repro.crowd.persistence import load_answers
        path = tmp_path / "bad_conf.json"
        path.write_text(json.dumps({
            "version": 1, "num_workers": 3, "answers": [[0, 1, 1.4]],
        }))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            load_answers(path)

    def test_duplicate_pairs_rejected(self, tmp_path):
        import json
        from repro.crowd.persistence import load_answers
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "version": 1, "num_workers": 3,
            "answers": [[0, 1, 0.8], [1, 0, 0.2]],
        }))
        with pytest.raises(ValueError, match="duplicate"):
            load_answers(path)

    def test_self_pair_rejected(self, tmp_path):
        import json
        from repro.crowd.persistence import load_answers
        path = tmp_path / "self.json"
        path.write_text(json.dumps({
            "version": 1, "num_workers": 3, "answers": [[2, 2, 0.8]],
        }))
        with pytest.raises(ValueError, match="self-pair"):
            load_answers(path)

    def test_failed_save_leaves_existing_file_untouched(self, tmp_path):
        from repro.crowd.persistence import load_answers, save_answers

        class Explodes:
            num_workers = 3

            def confidence(self, a, b):
                if (a, b) == (2, 3):
                    raise RuntimeError("crowd went away")
                return 0.8

        path = tmp_path / "answers.json"
        save_answers(Explodes(), [(0, 1)], path)
        before = path.read_text()
        with pytest.raises(RuntimeError):
            save_answers(Explodes(), [(0, 1), (2, 3)], path)
        # Atomic write: the crash mid-save never touched the real file,
        # and no temp litter replaces it.
        assert path.read_text() == before
        assert load_answers(path).confidence(0, 1) == 0.8

    def test_dataset_csv_with_blank_text_loads(self, tmp_path):
        from repro.datasets.io import load_dataset
        path = tmp_path / "blank.csv"
        path.write_text("record_id,entity_id,text\n0,0,\n1,0,x\n")
        dataset = load_dataset(path)
        assert dataset.record(0).text == ""


def _fault_platform(seed, fault_model, **kwargs):
    from repro.crowd.platform import PlatformSimulator
    from repro.crowd.worker import DifficultyModel
    from repro.crowd.workforce import Workforce
    defaults = dict(pairs_per_hit=4, assignments_per_hit=3,
                    concurrent_workers=8, seed=seed)
    defaults.update(kwargs)
    return PlatformSimulator(
        workforce=Workforce(size=30, seed=seed),
        gold=GoldStandard({record: record // 2 for record in range(12)}),
        difficulty=DifficultyModel(easy_error=0.1),
        fault_model=fault_model,
        **defaults,
    )


_FAULT_PAIRS = [(a, b) for a in range(12) for b in range(a + 1, 12)
                if a // 2 == b // 2 or (a + b) % 3 == 0]


class TestFaultScenarios:
    """Deterministic fault-injection scenarios (ISSUE: robustness)."""

    def test_abandonment_scenario_is_reproducible(self):
        from repro.crowd.faults import ABANDONED, FaultModel
        fault = FaultModel(abandonment_probability=0.5, max_reposts=10,
                           backoff_base_seconds=1.0)
        runs = [_fault_platform(2, fault).post_batch(_FAULT_PAIRS)
                for _ in range(2)]
        assert runs[0].fault_events == runs[1].fault_events
        assert any(e.kind == ABANDONED for e in runs[0].fault_events)
        assert runs[0].confidences == runs[1].confidences

    def test_timeout_scenario_is_reproducible(self):
        from repro.crowd.faults import TIMEOUT, FaultModel
        fault = FaultModel(timeout_seconds=30.0, max_reposts=50,
                           backoff_base_seconds=1.0)
        runs = [
            _fault_platform(3, fault, mean_seconds_per_hit=40.0)
            .post_batch(_FAULT_PAIRS)
            for _ in range(2)
        ]
        assert any(e.kind == TIMEOUT for e in runs[0].fault_events)
        assert runs[0].fault_events == runs[1].fault_events

    def test_outage_scenario_stalls_all_work(self):
        from repro.crowd.faults import FaultModel
        fault = FaultModel(outages=((0.0, 300.0),))
        receipt = _fault_platform(4, fault).post_batch(_FAULT_PAIRS)
        assert all(a.started_at >= 300.0 for a in receipt.assignments)

    def test_zero_fault_model_reproduces_platform_byte_for_byte(self):
        """Property: a null FaultModel is indistinguishable from no model."""
        from repro.crowd.faults import FaultModel
        for seed in range(3):
            for batch in (_FAULT_PAIRS[:7], _FAULT_PAIRS):
                plain = _fault_platform(seed, None).post_batch(batch)
                null = _fault_platform(
                    seed, FaultModel.none()).post_batch(batch)
                assert plain.confidences == null.confidences
                assert plain.completed_at == null.completed_at
                assert plain.cost_cents == null.cost_cents
                assert plain.assignments == null.assignments


class _Killed(Exception):
    pass


class _KillSwitch:
    """Crash the process (well, the run) after N crowd batches."""

    def __init__(self, inner, batches_before_crash):
        self._inner = inner
        self._left = batches_before_crash

    @property
    def num_workers(self):
        return self._inner.num_workers

    def confidence_batch(self, pairs):
        if self._left == 0:
            raise _Killed()
        self._left -= 1
        return self._inner.confidence_batch(pairs)

    def drain_fault_counters(self):
        return self._inner.drain_fault_counters()

    def degraded_pairs(self):
        return self._inner.degraded_pairs()

    def skip_batches(self, count):
        self._inner.skip_batches(count)


def _faulty_platform_run():
    """A restaurant instance and a factory for identically seeded
    fault-injecting platform answer files."""
    from repro.crowd.faults import FaultModel
    from repro.crowd.platform import PlatformAnswerFile, PlatformSimulator
    from repro.crowd.workforce import Workforce
    from repro.datasets.registry import generate
    from repro.experiments.configs import PRUNING_THRESHOLD, difficulty_model
    from repro.pruning.candidate import build_candidate_set
    from repro.similarity.composite import jaccard_similarity_function

    dataset = generate("restaurant", scale=0.1, seed=3)
    candidates = build_candidate_set(
        dataset.records, jaccard_similarity_function(),
        threshold=PRUNING_THRESHOLD,
    )
    fault = FaultModel.default()

    def make_answers():
        workforce = Workforce(
            size=60, seed=3, spam_fraction=fault.spam_fraction,
            adversarial_fraction=fault.adversarial_fraction,
        )
        platform = PlatformSimulator(
            workforce, dataset.gold, difficulty_model("restaurant"),
            concurrent_workers=10, seed=3, fault_model=fault,
        )
        return PlatformAnswerFile(
            platform, fallback=lambda pair: candidates.score(*pair)
        )

    return dataset, candidates, make_answers


class TestCrashResume:
    def test_killed_run_resumes_to_identical_result(self, tmp_path):
        """Kill run_acd mid-flight; --resume must reproduce the
        uninterrupted ACDResult exactly."""
        from repro.core.acd import run_acd

        dataset, candidates, make_answers = _faulty_platform_run()
        reference = run_acd(dataset.record_ids, candidates, make_answers(),
                            seed=11)

        journal = tmp_path / "acd.wal"
        with pytest.raises(_Killed):
            with JournalingAnswerFile(_KillSwitch(make_answers(), 2),
                                      journal) as answers:
                run_acd(dataset.record_ids, candidates, answers, seed=11)
        assert journal.exists()

        with JournalingAnswerFile(make_answers(), journal) as answers:
            resumed = run_acd(dataset.record_ids, candidates, answers,
                              seed=11)
        assert (resumed.clustering.as_sets()
                == reference.clustering.as_sets())
        assert resumed.stats.snapshot() == reference.stats.snapshot()
        assert resumed.generation_stats == reference.generation_stats
        assert resumed.refinement_stats == reference.refinement_stats

    @pytest.mark.parametrize(
        "kill_at", ("first-round", "mid-generation", "end-of-generation",
                    "mid-refinement", "finish"))
    def test_journal_resume_is_byte_identical(self, tmp_path, kill_at):
        """A journaled run over a stateful, fault-injecting platform
        killed anywhere — after generation's first journaled round,
        halfway through generation, as refinement starts, inside
        refinement, or not at all — resumes to the uninterrupted
        ACDResult, fault counters included: each crowd batch is asked of
        the platform once, and journaled with its own counters."""
        from repro.core.acd import run_acd

        dataset, candidates, make_answers = _faulty_platform_run()
        reference = run_acd(dataset.record_ids, candidates, make_answers(),
                            seed=11)
        generation = int(reference.generation_stats["iterations"])
        total = int(reference.stats.iterations)
        assert 2 < generation < total
        calls = {"first-round": 1, "mid-generation": generation // 2,
                 "end-of-generation": generation,
                 "mid-refinement": (generation + total) // 2,
                 "finish": total}[kill_at]

        journal = tmp_path / "acd.wal"
        with JournalingAnswerFile(_KillSwitch(make_answers(), calls),
                                  journal) as answers:
            if calls < total:
                with pytest.raises(_Killed):
                    run_acd(dataset.record_ids, candidates, answers,
                            seed=11)
            else:
                run_acd(dataset.record_ids, candidates, answers, seed=11)
        with JournalingAnswerFile(make_answers(), journal) as answers:
            assert answers.journal.num_batches == calls
            resumed = run_acd(dataset.record_ids, candidates, answers,
                              seed=11)
        assert resumed.clustering.to_state() == \
            reference.clustering.to_state()
        assert resumed.stats.snapshot() == reference.stats.snapshot()
        assert resumed.generation_stats == reference.generation_stats
        assert resumed.refinement_stats == reference.refinement_stats
        assert resumed.pivot_diagnostics == reference.pivot_diagnostics

    def test_journal_without_resume_changes_nothing(self, tmp_path):
        """A journaled run produces the same ACDResult as an unjournaled
        one — the WAL is pure insurance."""
        from repro.core.acd import run_acd
        from repro.crowd.cache import AnswerFile
        from repro.crowd.worker import WorkerPool
        from repro.datasets.registry import generate
        from repro.experiments.configs import (
            PRUNING_THRESHOLD,
            difficulty_model,
        )
        from repro.pruning.candidate import build_candidate_set
        from repro.similarity.composite import jaccard_similarity_function

        dataset = generate("restaurant", scale=0.1, seed=3)
        candidates = build_candidate_set(
            dataset.records, jaccard_similarity_function(),
            threshold=PRUNING_THRESHOLD,
        )

        def make_answers():
            return AnswerFile(dataset.gold, WorkerPool(
                difficulty=difficulty_model("restaurant"), num_workers=3,
            ))

        plain = run_acd(dataset.record_ids, candidates, make_answers(),
                        seed=11)
        with JournalingAnswerFile(make_answers(),
                                  tmp_path / "run.wal") as answers:
            journaled = run_acd(dataset.record_ids, candidates, answers,
                                seed=11)
        assert journaled.clustering.as_sets() == plain.clustering.as_sets()
        assert journaled.stats.snapshot() == plain.stats.snapshot()


class TestJournalConfigFingerprint:
    """Resuming a journal recorded under different run settings must fail
    fast, before a single replayed answer can leak across experiments."""

    CONFIG = {"dataset": "restaurant", "scale": 0.1, "seed": 3,
              "method": "ACD"}

    def _new_journal(self, tmp_path, config):
        from repro.crowd.persistence import AnswerJournal
        with AnswerJournal(tmp_path / "run.wal", num_workers=3,
                           config=config) as journal:
            journal.append_batch({(0, 1): 0.9})
        return tmp_path / "run.wal"

    def test_matching_config_resumes(self, tmp_path):
        from repro.crowd.persistence import AnswerJournal
        path = self._new_journal(tmp_path, self.CONFIG)
        with AnswerJournal(path, num_workers=3,
                           config=dict(self.CONFIG)) as journal:
            assert journal.get((0, 1)) == 0.9
            assert journal.config == self.CONFIG

    def test_mismatched_config_names_the_differing_keys(self, tmp_path):
        from repro.crowd.persistence import AnswerJournal
        path = self._new_journal(tmp_path, self.CONFIG)
        other = dict(self.CONFIG, scale=0.5, seed=4)
        with pytest.raises(ValueError, match="scale, seed"):
            AnswerJournal(path, num_workers=3, config=other)

    def test_extra_or_missing_keys_also_mismatch(self, tmp_path):
        from repro.crowd.persistence import AnswerJournal
        path = self._new_journal(tmp_path, self.CONFIG)
        missing_key = {k: v for k, v in self.CONFIG.items()
                       if k != "method"}
        with pytest.raises(ValueError, match="method"):
            AnswerJournal(path, num_workers=3, config=missing_key)

    def test_headerless_config_journal_accepts_any_caller_config(
            self, tmp_path):
        # Journals written before the fingerprint existed carry no config;
        # they must keep resuming (the operator is on their own there).
        from repro.crowd.persistence import AnswerJournal
        path = self._new_journal(tmp_path, config=None)
        with AnswerJournal(path, num_workers=3,
                           config=self.CONFIG) as journal:
            assert journal.get((0, 1)) == 0.9

    def test_caller_without_config_resumes_and_inherits_recorded(
            self, tmp_path):
        from repro.crowd.persistence import AnswerJournal
        path = self._new_journal(tmp_path, self.CONFIG)
        with AnswerJournal(path, num_workers=3) as journal:
            assert journal.config == self.CONFIG

    def test_malformed_config_header_rejected(self, tmp_path):
        import json
        from repro.crowd.persistence import AnswerJournal
        path = tmp_path / "bad.wal"
        path.write_text(json.dumps(
            {"journal": 1, "num_workers": 3, "config": "not-a-dict"}
        ) + "\n")
        with pytest.raises(ValueError, match="config"):
            AnswerJournal(path, num_workers=3, config=self.CONFIG)

    def test_journaling_answer_file_forwards_config(self, tmp_path):
        from repro.crowd.persistence import (
            AnswerJournal,
            JournalingAnswerFile,
        )
        path = self._new_journal(tmp_path, self.CONFIG)
        source = ScriptedAnswers({(0, 1): 0.9}, num_workers=3)
        other = dict(self.CONFIG, dataset="paper")
        with pytest.raises(ValueError, match="dataset"):
            JournalingAnswerFile(source, path, config=other)
        wrapped = JournalingAnswerFile(source, path,
                                       config=dict(self.CONFIG))
        assert wrapped.resumed_answers == 1
        wrapped.close()

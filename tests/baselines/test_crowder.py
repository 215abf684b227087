"""Tests for repro.baselines.crowder (CrowdER+)."""

from repro.baselines.crowder import crowder_plus
from repro.crowd.oracle import CrowdOracle
from repro.eval.metrics import f1_score
from tests.conftest import make_candidates, scripted_oracle


class TestCost:
    def test_crowdsources_entire_candidate_set(self, tiny_restaurant):
        oracle = CrowdOracle(tiny_restaurant.answers)
        crowder_plus(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                     oracle)
        assert oracle.stats.pairs_issued == len(tiny_restaurant.candidates)

    def test_exactly_one_crowd_iteration(self, tiny_restaurant):
        oracle = CrowdOracle(tiny_restaurant.answers)
        crowder_plus(tiny_restaurant.record_ids, tiny_restaurant.candidates,
                     oracle)
        assert oracle.stats.iterations == 1


class TestClustering:
    def test_confirmed_pairs_merge(self):
        candidates = make_candidates({(0, 1): 0.9, (2, 3): 0.9})
        oracle = scripted_oracle({(0, 1): 1.0, (2, 3): 0.2})
        clustering = crowder_plus(range(4), candidates, oracle)
        assert clustering.together(0, 1)
        assert not clustering.together(2, 3)

    def test_net_negative_merge_rejected(self):
        """A single positive edge between two otherwise-contradicted groups
        must not merge them (this is the robustness TransM lacks)."""
        # 0-1 strongly dup; 2-3 strongly dup; cross evidence: one wrong
        # positive (1,2), two strong negatives (0,2), (1,3), (0,3).
        candidates = make_candidates({
            (0, 1): 0.9, (2, 3): 0.9, (1, 2): 0.5,
            (0, 2): 0.5, (1, 3): 0.5, (0, 3): 0.5,
        })
        oracle = scripted_oracle({
            (0, 1): 1.0, (2, 3): 1.0, (1, 2): 0.9,
            (0, 2): 0.0, (1, 3): 0.0, (0, 3): 0.0,
        })
        clustering = crowder_plus(range(4), candidates, oracle)
        assert clustering.together(0, 1)
        assert clustering.together(2, 3)
        assert not clustering.together(1, 2)

    def test_strongest_evidence_merged_first(self):
        """Sorted-neighborhood ordering: the 0.9 pair commits before the
        0.6 pair can pull a record elsewhere."""
        candidates = make_candidates({(0, 1): 0.9, (1, 2): 0.9})
        oracle = scripted_oracle({(0, 1): 0.9, (1, 2): 0.6})
        clustering = crowder_plus(range(3), candidates, oracle)
        assert clustering.together(0, 1)
        # (1,2) merge considered after: cross evidence (0,2) pruned -> 0,
        # so benefit = (2*0.6-1) + (2*0-1) = -0.8 -> rejected.
        assert not clustering.together(1, 2)

    def test_highest_accuracy_on_real_instance(self, tiny_paper):
        """CrowdER+ should beat bare PC-Pivot on the hard dataset."""
        from repro.core.generation import pc_pivot
        crowder_oracle = CrowdOracle(tiny_paper.answers)
        crowder = crowder_plus(tiny_paper.record_ids, tiny_paper.candidates,
                               crowder_oracle)
        pivot_oracle = CrowdOracle(tiny_paper.answers)
        pivot = pc_pivot(tiny_paper.record_ids, tiny_paper.candidates,
                         pivot_oracle, seed=0)
        gold = tiny_paper.dataset.gold
        assert f1_score(crowder, gold) > f1_score(pivot, gold)

"""Brute-force oracle: image-table verdicts, cross-checks, seeded fuzzing."""
import json
import math

import numpy as np
import pytest

import ncyclepp.families as families
import ncyclepp.oracle as oracle
import ncyclepp.polyperm as polyperm
from ncyclepp.criteria import CriterionVerdict, additive_criterion
from ncyclepp.errors import BadParams, HypothesisViolated
from ncyclepp.families import (
    FamilyInstance, build_jieguo, build_xh_lambda, build_xq_h_alpha,
)
from ncyclepp.oracle import (
    cross_check, exhaustive_verdict, random_family_fuzz,
)
from ncyclepp.field import NcycleInternal
from ncyclepp.polyperm import CycleReport, SparsePoly

from conftest import field, naive_cycle_type


class TestExhaustiveVerdict:
    def test_identity_is_every_cycle_length(self):
        ctx = field(7, 1)
        v = exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 1), [1, 2, 5])
        assert v.bijective and v.order == 1
        assert v.is_ncycle_at == {1: True, 2: True, 5: True}
        assert v.cycle_type == {1: 7}

    def test_quintic_power_map(self):
        ctx = field(7, 1)
        v = exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 5), [2, 3])
        assert v.order == 2
        assert v.is_ncycle_at == {2: True, 3: False}

    def test_non_bijection(self):
        ctx = field(7, 1)
        v = exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 3), [2, 3])
        assert not v.bijective
        assert v.order is None
        assert v.is_ncycle_at == {2: False, 3: False}
        assert v.cycle_type == {}

    def test_congruence_trinomial_instance(self):
        inst = build_jieguo(64, 25, 5, ctx=field(2, 12))
        v = exhaustive_verdict(inst.ctx, inst.fn, [3])
        assert v.is_ncycle_at == {3: True}
        assert v.order == 3

    def test_rejects_out_of_field_values(self):
        ctx = field(5, 1)
        with pytest.raises(BadParams):
            exhaustive_verdict(ctx, lambda v: v + np.int64(5), [1])
        with pytest.raises(BadParams):
            exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 1), [0])

    def test_matches_independent_cycle_walk(self):
        # two-implementation invariant: same orders and cycle types as a
        # walk that shares no code with the library
        rng = np.random.default_rng(5)
        for p, n in ((2, 4), (3, 3), (5, 2)):
            ctx = field(p, n)
            for _ in range(6):
                imgs = np.array(rng.permutation(ctx.order), dtype=np.int64)
                cycle_type = naive_cycle_type(imgs.tolist())
                order = math.lcm(*(length for length, _ in cycle_type))
                v = exhaustive_verdict(ctx, imgs, [2, 3, order])
                assert v.order == order
                assert v.cycle_type == dict(cycle_type)
                assert v.is_ncycle_at[order]
                assert v.is_ncycle_at[2] == (2 % order == 0)
                assert v.is_ncycle_at[3] == (3 % order == 0)

    @pytest.mark.parametrize("n", [8, 17])   # 2^8 also walks, 2^17 does not
    def test_wrong_composition_raises(self, monkeypatch, n):
        # the second opinion: f^n = id must agree with n % order == 0
        ctx = field(2, n)
        monkeypatch.setattr(oracle, "functional_power", lambda f, k: f)
        with pytest.raises(NcycleInternal, match="direct composition"):
            exhaustive_verdict(ctx, SparsePoly.monomial(ctx, ctx.order - 2),
                               [2])

    def test_walk_checks_the_engine_up_to_2_16(self, monkeypatch):
        # x^8 over GF(2^12) has order 4; an engine that reports order 2
        # agrees with f^4 = id, so only the walk can tell
        ctx = field(2, 12)
        assert ctx.order <= oracle.WALK_CHECK_MAX
        wrong = CycleReport(True, 2, ((1, 64), (2, 2016)), 64)
        monkeypatch.setattr(oracle, "cycle_structure", lambda pm: wrong)
        with pytest.raises(NcycleInternal, match="cycle walk"):
            exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 8), [4])

    @pytest.mark.parametrize("n,cycle,walked", [
        (8, 720720, [256]), (8, 2, [256]), (17, 2, [])])
    def test_cycle_structure_runs_once(self, monkeypatch, n, cycle, walked):
        # the engine runs once at every field size, whatever the claimed
        # length; the walk checks it up to 2^16 points only
        ctx = field(2, n)
        engine, walks = [], []
        real_engine, real_walk = oracle.cycle_structure, oracle._walked_cycles
        monkeypatch.setattr(oracle, "cycle_structure", lambda pm:
                            engine.append(pm.ctx.order) or real_engine(pm))
        monkeypatch.setattr(oracle, "_walked_cycles", lambda imgs:
                            walks.append(len(imgs)) or real_walk(imgs))
        v = exhaustive_verdict(ctx, SparsePoly.monomial(ctx, ctx.order - 2),
                               [cycle])
        assert engine == [ctx.order] and walks == walked
        assert v.order == 2 and v.is_ncycle_at[cycle]

    def test_chunked_evaluation_matches_one_slice(self, monkeypatch):
        ctx = field(2, 12)
        inst = build_jieguo(64, 25, 5, ctx=ctx)
        whole = exhaustive_verdict(ctx, inst.fn, [3])
        monkeypatch.setattr(polyperm, "EVAL_CHUNK", 512)   # 8 slices
        chunked = exhaustive_verdict(ctx, inst.fn, [3])
        assert chunked.to_json() == whole.to_json()

    def test_json_shape_is_stable(self):
        ctx = field(5, 1)
        v = exhaustive_verdict(ctx, SparsePoly.monomial(ctx, 1), [2])
        doc = v.to_json()
        assert doc == {"bijective": True, "order": 1,
                       "is_ncycle_at": {"2": True}, "cycle_type": {"1": 5},
                       "domain_size": 5}
        assert "elapsed" not in doc and v.elapsed >= 0.0


class TestCrossCheck:
    def test_agreement_on_true(self):
        rep = cross_check(build_jieguo(64, 25, 5, ctx=field(2, 12)))
        assert rep.status == "AGREE" and rep.agree
        assert rep.criterion_holds and rep.oracle_is_ncycle

    def test_agreement_on_false(self):
        rep = cross_check(build_xq_h_alpha(4, 1, ctx=field(2, 6)))
        assert rep.status == "AGREE"
        assert rep.criterion_holds is False and not rep.oracle_is_ncycle

    def test_involution_gets_spectral_third_opinion(self):
        inst = build_xh_lambda(field(5, 2), "involution_cor", sub_degree=1)
        rep = cross_check(inst)
        assert rep.status == "AGREE" and rep.walsh_checked
        assert not cross_check(inst, walsh=False).walsh_checked

    def test_spectral_skipped_above_walsh_cap(self):
        inst = build_xh_lambda(field(3, 8), "involution_cor", sub_degree=1)
        rep = cross_check(inst)
        assert rep.status == "AGREE" and not rep.walsh_checked

    def test_hypothesis_failure_is_not_a_disagreement(self):
        ctx = field(3, 2)
        psi = SparsePoly.make(ctx, [(ctx.neg_idx(1), 1), (1, 3)])
        inst = FamilyInstance(
            family="additive", ctx=ctx, params={}, claimed_n=3,
            poly=None, fn=lambda xs: xs, map_form="x",
            check=lambda: additive_criterion(
                ctx, SparsePoly.monomial(ctx, 2), psi,
                SparsePoly.make(ctx, []), 3))
        rep = cross_check(inst)
        assert rep.status == "HYPOTHESIS_FAILED"
        assert rep.criterion_holds is None

    def test_lying_criterion_is_caught(self):
        # x^3 over GF(5) has order 2, so a claimed 3-cycle must disagree
        ctx = field(5, 1)
        inst = FamilyInstance(
            family="fake", ctx=ctx, params={}, claimed_n=3,
            poly=None, fn=SparsePoly.monomial(ctx, 3).eval_vec,
            map_form="x^3",
            check=lambda: CriterionVerdict(True, None, 4))
        rep = cross_check(inst)
        assert rep.status == "DISAGREE"
        assert rep.detail

    def test_spectral_contradiction_names_the_exhaustive_order(self, monkeypatch):
        inst = build_xh_lambda(field(5, 2), "involution_cor", sub_degree=1)
        flip = lambda ctx, fn: (not walsh_flag(ctx, fn)[0], None)
        walsh_flag = oracle.walsh_involution_test
        monkeypatch.setattr(oracle, "walsh_involution_test", flip)
        rep = cross_check(inst)
        assert rep.status == "DISAGREE" and rep.walsh_checked
        assert rep.criterion_holds and rep.oracle_is_ncycle
        assert rep.detail == ("spectral involution verdict contradicts the "
                              "exhaustive order")

    def test_report_serialization(self):
        doc = cross_check(build_xq_h_alpha(4, 1, ctx=field(2, 6))).to_json()
        assert doc["status"] == "AGREE"
        assert doc["oracle"]["bijective"] is False
        assert set(doc) == {"family", "claimed_n", "status",
                            "criterion_holds", "oracle_is_ncycle", "oracle",
                            "walsh_checked", "detail"}


class TestFuzz:
    def test_empty_run(self):
        s = random_family_fuzz("involution_cor", 0, 0)
        assert s.trials == () and s.comparisons == 0
        assert s.counts() == {}
        lines = s.to_json_lines()
        assert len(lines) == 1 and "summary" in json.loads(lines[0])

    def test_involution_family_agrees(self):
        s = random_family_fuzz("involution_cor", 0, 50)
        assert len(s.trials) == 50
        assert s.disagreements == () and s.failures == ()
        assert s.comparisons >= 25

    def test_invalid_tuples_rejected(self):
        s = random_family_fuzz("abc_cor", 0, 40)
        assert s.failures == ()
        assert all(t.outcome == "rejected"
                   for t in s.trials if t.kind == "invalid")

    @pytest.mark.parametrize("fam", sorted(oracle.FUZZ_FAMILIES))
    def test_every_family_runs_clean(self, fam):
        s = random_family_fuzz(fam, 1, 25)
        assert s.failures == ()
        assert s.disagreements == ()
        assert s.comparisons > 0

    @pytest.mark.parametrize("fam", ["additive", "shift", "involution_cor"])
    def test_fuzz_never_expands_the_poly(self, monkeypatch, fam):
        # the builders defer poly and no fuzz trial reads it
        deferred, expanded = [], []
        compose = families.poly_compose

        class Spy(families.Deferred):
            def __init__(self, build):
                deferred.append(1)
                super().__init__(build)

        monkeypatch.setattr(families, "Deferred", Spy)
        monkeypatch.setattr(families, "poly_compose",
                            lambda f, g: expanded.append(1) or compose(f, g))
        s = random_family_fuzz(fam, 1, 60)
        assert s.failures == () and s.comparisons > 0
        assert deferred and not expanded

    def test_seed_determinism(self):
        a = random_family_fuzz("shift", 9, 20).to_json_lines()
        b = random_family_fuzz("shift", 9, 20).to_json_lines()
        assert a == b
        for line in a:
            json.loads(line)

    def test_rejects_bad_arguments(self):
        with pytest.raises(BadParams):
            random_family_fuzz("no_such_family", 0, 5)
        with pytest.raises(BadParams):
            random_family_fuzz("shift", 0, -1)

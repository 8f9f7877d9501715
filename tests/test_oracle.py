"""Brute-force oracle: image-table verdicts, cross-checks, seeded fuzzing."""
import dataclasses
import hashlib
import inspect
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import ncyclepp.families as families
import ncyclepp.oracle as oracle
import ncyclepp.polyperm as polyperm
from ncyclepp.criteria import CriterionVerdict, additive_criterion
import ncyclepp.field as field_mod
from ncyclepp.errors import BadParams, CapExceeded, HypothesisViolated
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

    @pytest.mark.parametrize("run", [
        lambda ctx, fn: exhaustive_verdict(ctx, fn, [2]),
        lambda ctx, fn: polyperm.cycle_report_for_fn(ctx, fn)],
        ids=["exhaustive_verdict", "cycle_report_for_fn"])
    def test_whole_field_arrays_are_budgeted_before_the_first(self, monkeypatch, run):
        # 16 bytes a point beside the field's tables, int32 exp and log here
        ctx = field(2, 10)
        need = 16 * 1024 + 8 * 1023 + 4   # exp has q - 1 entries
        calls = []

        def fn(xs):
            calls.append(len(xs))
            return xs

        monkeypatch.setattr(field_mod, "_memory_bytes", lambda: need - 1)
        with pytest.raises(CapExceeded, match="whole-field arrays of GF.2.10. take about"):
            run(ctx, fn)
        assert calls == []
        monkeypatch.setattr(field_mod, "_memory_bytes", lambda: need)
        run(ctx, fn)
        assert calls == [1024]

    @pytest.mark.parametrize("run", [
        lambda ctx, fn: exhaustive_verdict(ctx, fn, [2]),
        lambda ctx, fn: polyperm.cycle_report_for_fn(ctx, fn)],
        ids=["exhaustive_verdict", "cycle_report_for_fn"])
    @pytest.mark.parametrize("text", ["x^(q-2)", "x^4"])
    def test_whole_field_arrays_peak_at_18_bytes_a_point(self, run, text):
        # int32 image table, labels and jumps: 13 and 17 bytes a point
        # (tracemalloc), 25 and 33 when they were int64
        ctx = field(2, 20)
        poly = SparsePoly.from_text(ctx, text, {"q": ctx.order})
        tracemalloc.start()
        try:
            run(ctx, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * ctx.order, peak / ctx.order

    @pytest.mark.parametrize("run", [
        lambda ctx, fn: exhaustive_verdict(ctx, fn, [2]),
        lambda ctx, fn: polyperm.cycle_report_for_fn(ctx, fn)],
        ids=["exhaustive_verdict", "cycle_report_for_fn"])
    @pytest.mark.parametrize("text,bound", [("x^(q-2)", 9), ("x^4", 16.5), ("x^7", 16.5)])
    def test_whole_field_checks_hold_no_whole_field_temporary(self, run, text, bound):
        # f^n = id and the stop tests are scanned slice by slice, and the
        # runs counted so: x^(q-2) holds its table and f^2 (8.57 bytes a
        # point), x^4 and x^7 the engine's four tables (16.07)
        ctx = field(2, 20)
        poly = SparsePoly.from_text(ctx, text, {"q": ctx.order})
        tracemalloc.start()
        try:
            run(ctx, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * ctx.order, peak / ctx.order

    @pytest.mark.parametrize("shape", [
        "identity", "one q-cycle", "random", "40000-cycle and 3-cycle", "x^(q-2)"])
    def test_cycles_that_cross_slice_edges(self, shape):
        # 2^17 points are four EVAL_CHUNK slices: runs of sorted labels
        # that cross a slice's edge are carried into the next slice
        ctx = field(2, 17)
        q, rng = ctx.order, np.random.default_rng(27)
        assert q == 4 * polyperm.EVAL_CHUNK
        images = np.arange(q)
        if shape == "one q-cycle":
            images = np.roll(images, 1)
        elif shape == "random":
            images = rng.permutation(q)
        elif shape == "40000-cycle and 3-cycle":
            # on points past the first slice, whose points are all fixed
            pts = polyperm.EVAL_CHUNK + rng.permutation(q - polyperm.EVAL_CHUNK)
            for cyc in (pts[:40_000], pts[40_000:40_003]):
                images[cyc] = np.roll(cyc, -1)
        elif shape == "x^(q-2)":
            images = polyperm.as_images(ctx, SparsePoly.monomial(ctx, q - 2))
        walked = oracle._walked_cycles(images.tolist())
        order = math.lcm(*walked)
        rep = polyperm.cycle_structure(polyperm.PermMap(ctx, images))
        assert rep == CycleReport(True, order, tuple(sorted(walked.items())),
                                  walked.get(1, 0))
        assert polyperm.cycle_report_for_fn(ctx, images) == rep
        v = exhaustive_verdict(ctx, images, [2, order])
        assert v.cycle_type == walked and v.order == order
        assert v.is_ncycle_at == {2: 2 % order == 0, order: True}

    def test_non_bijection_fixed_points_across_slice_edges(self):
        ctx = field(2, 17)
        q = ctx.order
        images = np.arange(q)
        chunk = polyperm.EVAL_CHUNK
        moved = [0, 5, chunk - 1, chunk, 3 * chunk + 7, q - 1]
        images[moved] = 1   # 1 is reached seven times, and 0 is not reached
        fixed = sum(i == v for i, v in enumerate(images.tolist()))
        assert fixed == q - len(moved)
        rep = polyperm.cycle_report_for_fn(ctx, images)
        assert rep == CycleReport(False, None, (), fixed)

    @pytest.mark.parametrize("run", [
        lambda ctx, fn: exhaustive_verdict(ctx, fn, [2]),
        lambda ctx, fn: polyperm.cycle_report_for_fn(ctx, fn)],
        ids=["exhaustive_verdict", "cycle_report_for_fn"])
    def test_memory_error_inside_is_cap_exceeded(self, run):
        def fn(xs):
            raise MemoryError

        with pytest.raises(CapExceeded, match="whole-field arrays of GF.2.10. do not fit"):
            run(field(2, 10), fn)


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
            fn=lambda xs: xs, map_form="x",
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
            fn=SparsePoly.monomial(ctx, 3).eval_vec,
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
        # the builders leave poly to its first read and no fuzz trial reads
        # it: instances are built, no expansion runs and no poly is cached
        built, expanded = [], []
        compose = families.poly_compose

        class Spy(families.FamilyInstance):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(families, "FamilyInstance", Spy)
        monkeypatch.setattr(families, "poly_compose",
                            lambda f, g: expanded.append(1) or compose(f, g))
        s = random_family_fuzz(fam, 1, 60)
        assert s.failures == () and s.comparisons > 0
        assert built and not expanded
        assert not any("poly" in vars(inst) for inst in built)

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


def _leaves(obj):
    """The plain values a memo key is made of: tuples and the frozen
    parameter dataclasses are opened, anything else is a leaf."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from _leaves(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name))
    else:
        yield obj


class TestFuzzMemo:
    @staticmethod
    def spy(monkeypatch):
        """Record each recipe _run_build gets, each builder call and each
        cross_check call, and each outcome _run_build returns."""
        log = {"runs": [], "builds": [], "checks": [], "outcomes": []}
        run_build, check = oracle._run_build, oracle.cross_check

        def counted_run(kind, build):
            log["runs"].append(oracle._recipe(kind, build))
            result = run_build(kind, lambda: log["builds"].append(1) or build())
            log["outcomes"].append(result)
            return result

        def counted_check(inst, walsh=True):
            log["checks"].append(1)
            return check(inst, walsh)

        monkeypatch.setattr(oracle, "_run_build", counted_run)
        monkeypatch.setattr(oracle, "cross_check", counted_check)
        return log

    @pytest.mark.parametrize("fam", sorted(oracle.FUZZ_FAMILIES))
    def test_each_distinct_recipe_is_built_and_checked_once(self, monkeypatch,
                                                            fam):
        log = self.spy(monkeypatch)
        s = random_family_fuzz(fam, 3, 150)
        assert s.failures == ()
        runs = log["runs"]
        assert len(runs) == len(set(runs)) == len(log["builds"]) < len(s.trials)
        # a clean run has no build_error, so every non-invalid recipe is
        # cross-checked, and only those
        assert len(log["checks"]) == sum(1 for invalid, *_ in runs
                                         if not invalid)
        assert s.distinct == sum(1 for outcome, _ in log["outcomes"]
                                 if outcome in oracle.FuzzTrial.COMPARED)
        assert s.distinct <= s.comparisons

    def test_recipes_keep_what_the_params_leave_out(self):
        # shift's i_zero line and additive's psi_shape line leave out whether
        # the subfield of GF(2^6) is GF(2) or GF(4), and of GF(3^4) GF(3) or GF(9)
        def recipes(sampler, field_label, params):
            rng, found = random.Random(0), {}
            for _ in range(3000):
                kind, ctx, got, build = sampler(rng)
                if got == params and f"GF({ctx.p}^{ctx.n})" == field_label:
                    found[oracle._recipe(kind, build)] = build.keywords
            return found

        shift = recipes(oracle._sample_shift, "GF(2^6)",
                        {"variant": "power_g2", "i": 0})
        assert {kw["sub_degree"] for kw in shift.values()} == {1, 2}
        additive = recipes(oracle._sample_additive, "GF(3^4)",
                           {"variant": "trace_g1", "psi": "x^2"})
        assert sorted(kw["sub_degree"] for kw in additive.values()) == [1, 2]

    def test_shift_recipes_leave_delta_out_only_when_invalid(self):
        # build_shift rejects an invalid tuple whatever delta is, so two
        # invalid recipes that differ only in delta share a key; two valid
        # ones build different maps and keep apart
        class Recorded(random.Random):
            def randrange(self, *args):
                got = super().randrange(*args)
                self.draws.append((args, got))
                return got

        groups: dict[tuple, dict] = {}
        for seed in range(400):
            rng = Recorded(seed)
            rng.draws = []
            kind, ctx, _, build = oracle._sample_shift(rng)
            delta = next(got for args, got in rng.draws if args == (0, ctx.order))
            rest = sorted((k, v) for k, v in build.keywords.items() if k != "delta")
            key = (kind, build.func, build.args, tuple(rest))
            groups.setdefault(key, {})[delta] = oracle._recipe(kind, build)
        for kind in ("invalid", "valid"):
            apart = [g for key, g in groups.items() if key[0] == kind and len(g) >= 2]
            assert len(apart) >= 3
            for g in apart:
                assert len(set(g.values())) == (1 if kind == "invalid" else len(g))

    @pytest.mark.parametrize("fam", ["shift", "additive", "jieguo"])
    def test_the_memo_lives_for_one_call(self, monkeypatch, fam):
        from test_fuzz_golden import GOLDEN, TRIALS
        log = self.spy(monkeypatch)
        counts = []
        for seed in (0, 1, 0):
            lines = random_family_fuzz(fam, seed, TRIALS).to_json_lines()
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            assert digest == GOLDEN[(fam, seed)]
            counts.append(len(log["runs"]) - sum(counts))
        assert counts[2] == counts[0] > 0

    def test_keys_and_values_hold_only_plain_values(self, monkeypatch):
        log = self.spy(monkeypatch)
        for fam in sorted(oracle.FUZZ_FAMILIES):
            random_family_fuzz(fam, 2, 40)
        plain = (int, str, type(None), field_mod.FieldCtx)
        for invalid, func, *args in log["runs"]:
            assert isinstance(invalid, bool) and inspect.isfunction(func)
            for leaf in _leaves(tuple(args)):
                assert isinstance(leaf, plain), leaf
                assert not isinstance(leaf, (np.ndarray, SparsePoly))
        for outcome, detail in log["outcomes"]:
            assert isinstance(outcome, str) and isinstance(detail, str)

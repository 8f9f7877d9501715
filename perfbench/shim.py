"""Traced child process for the benchmark.

    python perfbench/shim.py TRACE_OUT.json <ncyclepp cli arguments>

Imports ``ncyclepp.cli``, wraps the public functions of each layer in
timing spans, runs ``ncyclepp.cli.main`` on the arguments and writes the
per-layer totals of this process to TRACE_OUT.json.  stdout and the exit
code are the CLI's own.

A span's ``_s`` total is self time: the span's wall time minus the time of
the wrapped spans it called.  Work in functions that are not wrapped counts
as self time of the nearest wrapped caller.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

# Totals written per process, summed over a pass by run.py: name -> unit.
PER_LAYER = {
    "field.make_field_s": "s", "field.make_field_calls": "count",
    "field.vadd_s": "s", "field.vadd_elems": "count",
    "field.vmul_s": "s", "field.vmul_elems": "count",
    "field.vpow_s": "s", "field.vpow_elems": "count",
    "field.vneg_s": "s", "field.vneg_elems": "count",
    "field.vtrace_s": "s", "field.vtrace_elems": "count",
    "field.subfield_indices_s": "s", "field.subfield_indices_elems": "count",
    "field.scalar_calls": "count",
    "polyperm.eval_vec_s": "s", "polyperm.eval_vec_calls": "count",
    "polyperm.eval_vec_elems": "count",
    "polyperm.symbolic_s": "s", "polyperm.symbolic_calls": "count",
    "polyperm.cycle_structure_s": "s",
    "families.build_s": "s", "families.build_calls": "count",
    "criteria.check_s": "s", "criteria.calls": "count",
    "criteria.domain_points": "count", "criteria.field_points": "count",
    "oracle.exhaustive_s": "s", "oracle.exhaustive_points": "count",
    "oracle.cross_check_s": "s", "oracle.cross_criterion_s": "s",
    "oracle.cross_exhaustive_s": "s",
    "oracle.fuzz_s": "s",
    "walsh.involution_s": "s", "walsh.cells": "count",
    "cli.main_s": "s",
}

VECTOR_OPS = ("vadd", "vmul", "vpow", "vneg", "vtrace", "subfield_indices")
SCALAR_OPS = ("add_idx", "neg_idx", "sub_idx", "mul_idx", "inv_idx",
              "pow_idx", "frob_idx", "trace_idx")
SYMBOLIC = ("poly_add", "poly_mul", "poly_pow", "poly_compose", "poly_frob")
BUILDERS = ("build_additive", "build_jieguo", "build_rs_2to3m", "build_shift",
            "build_trace_theta", "build_xh_lambda", "build_xq_h_alpha")
CRITERIA = ("monomial_ncycle", "frobenius_twist_ncycle", "xh_lambda_criterion",
            "additive_criterion", "shift_criterion", "rs_triple_criterion",
            "rs_single_criterion", "agw_commute_check")


class Tracer:
    """Self-time spans and counters for one process."""

    def __init__(self) -> None:
        self.totals = dict.fromkeys(PER_LAYER, 0)
        self.stack = [0.0]
        self.in_criterion = 0
        self.in_cross_check = 0

    def span(self, fn, layer: str, after=None, calls: bool = True):
        """Wrap fn so that its self time adds to ``<layer>_s`` and, when
        calls is set, each call to ``<layer>_calls``.  after(args, result,
        seconds) runs on each successful return."""
        totals, stack = self.totals, self.stack
        time_key, calls_key = layer + "_s", layer + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                totals[time_key] += dt - inner
                if calls:
                    totals[calls_key] += 1
            if after is not None:
                after(args, result, dt)
            return result
        return wrapper

    def counter(self, fn, key: str):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def elems(self, key: str, arg: int | None = None):
        def after(args, result, dt):
            self.totals[key] += int(np.size(result if arg is None
                                            else args[arg]))
        return after

    def criterion(self, fn):
        """Criterion entry points call one another; only the outermost call
        counts, with its quantified domain against the field size."""
        def after(args, result, dt):
            if self.in_criterion > 1:
                return
            domain = getattr(result, "domain_size", None)
            if domain is not None:
                ctx = args[0] if hasattr(args[0], "order") else args[0].ctx
                self.totals["criteria.domain_points"] += int(domain)
                self.totals["criteria.field_points"] += ctx.order
            if self.in_cross_check:
                self.totals["oracle.cross_criterion_s"] += dt

        inner = self.span(fn, "criteria.check", after, calls=False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_criterion += 1
            if self.in_criterion == 1:
                self.totals["criteria.calls"] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.in_criterion -= 1
        return wrapper

    def walsh_cells(self, args, result, dt):
        self.totals["walsh.cells"] += args[0].order ** 2

    def exhaustive(self, args, result, dt):
        self.totals["oracle.exhaustive_points"] += args[0].order
        if self.in_cross_check:
            self.totals["oracle.cross_exhaustive_s"] += dt

    def cross_check(self, fn):
        inner = self.span(fn, "oracle.cross_check", calls=False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_cross_check += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.in_cross_check -= 1
        return wrapper


def _replace(modules, cls_or_mod, name: str, make) -> None:
    """Replace attribute name of a class, or a module function together with
    every module-level alias of it (``from .x import f`` copies)."""
    if inspect.isclass(cls_or_mod):
        raw = inspect.getattr_static(cls_or_mod, name)
        if isinstance(raw, staticmethod):
            setattr(cls_or_mod, name, staticmethod(make(raw.__func__)))
        else:
            setattr(cls_or_mod, name, make(raw))
        return
    original = getattr(cls_or_mod, name)
    wrapped = make(original)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns the wrapped CLI main."""
    from ncyclepp import (cli, criteria, families, field, oracle, polyperm,
                          walsh)
    modules = [m for n, m in sys.modules.items()
               if n == "ncyclepp" or n.startswith("ncyclepp.")]
    span = tracer.span

    _replace(modules, field, "make_field",
             lambda f: span(f, "field.make_field"))
    for name in VECTOR_OPS:
        _replace(modules, field.FieldCtx, name,
                 lambda f, n=name: span(f, f"field.{n}",
                                        tracer.elems(f"field.{n}_elems"),
                                        calls=False))
    for name in SCALAR_OPS:
        _replace(modules, field.FieldCtx, name,
                 lambda f: tracer.counter(f, "field.scalar_calls"))

    _replace(modules, polyperm.SparsePoly, "eval_vec",
             lambda f: span(f, "polyperm.eval_vec",
                            tracer.elems("polyperm.eval_vec_elems", 1)))
    _replace(modules, polyperm.SparsePoly, "make",
             lambda f: span(f, "polyperm.symbolic"))
    for name in SYMBOLIC:
        _replace(modules, polyperm, name,
                 lambda f: span(f, "polyperm.symbolic"))
    _replace(modules, polyperm, "cycle_structure",
             lambda f: span(f, "polyperm.cycle_structure", calls=False))

    for name in BUILDERS:
        _replace(modules, families, name,
                 lambda f: span(f, "families.build"))
    for name in CRITERIA:
        _replace(modules, criteria, name, tracer.criterion)
    _replace(modules, families.FamilyInstance, "criterion", tracer.criterion)

    _replace(modules, oracle, "exhaustive_verdict",
             lambda f: span(f, "oracle.exhaustive", tracer.exhaustive,
                            calls=False))
    _replace(modules, oracle, "cross_check", tracer.cross_check)
    _replace(modules, oracle, "random_family_fuzz",
             lambda f: span(f, "oracle.fuzz", calls=False))

    _replace(modules, walsh, "walsh_involution_test",
             lambda f: span(f, "walsh.involution", tracer.walsh_cells,
                            calls=False))
    return span(cli.main, "cli.main", calls=False)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        return cli_main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.totals, fh)


if __name__ == "__main__":
    sys.exit(main())

"""Run-time probes around the public functions of each fuzzfix layer.

The tracer replaces each target with a wrapper at run time (the source
tree is never edited) and restores the originals on ``uninstall``. A
traced run has two passes:

- The leaf round: one round of the workload in which the hot leaves
  (``LEAVES``, called up to 25 million times a round) are wrapped with a
  probe that counts calls per caller and times the leaf's self time, and
  every other target only marks the caller stack. Leaf counts, leaf
  times per call and calls per caller come from this round.
- The timed pass: whole rounds for the run's seconds with every target
  but the leaves wrapped. For each wrapped call it keeps the call count,
  the inclusive time and the self time (its span minus the spans of
  wrapped calls it made), counts caller -> callee edges, and records a
  span (id, parent id, job, name, start, end); spans are kept in memory
  up to ``SPAN_CAP`` and written out when the run ends, aggregates cover
  every call. The leaves run unwrapped here, so their time is charged to
  their callers' self time at its true cost rather than at the cost of a
  probe several times dearer than ``phi.eval`` itself.

Times still include some of the probes' own cost (a clock read and the
forwarded call inside each measured interval, and the bookkeeping of
wrapped callees in a caller's self time; README.md gives the share per
metric), so per-layer times are comparable only between traced runs;
the benchmark's end-to-end metrics come from untraced runs only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, class or None, attribute). Functions that other
# modules import by name are patched wherever that name is bound.
TARGETS = (
    ("cli.parse_config", "fuzzfix.cli", None, "parse_config"),
    ("cli.run", "fuzzfix.cli", None, "run"),
    ("cli.render_report", "fuzzfix.cli", None, "render_report"),
    ("fmspace.threshold", "fuzzfix.fmspace", None, "threshold"),
    ("fmspace.membership", "fuzzfix.fmspace", "FuzzyMetric", "membership"),
    ("fmspace.finite_space", "fuzzfix.fmspace", "FiniteSpace", "__post_init__"),
    ("fmspace.verify_fm_axioms", "fuzzfix.fmspace", None, "verify_fm_axioms"),
    ("fmspace.is_cauchy_window", "fuzzfix.fmspace", None, "is_cauchy_window"),
    ("tnorm.combine", "fuzzfix.tnorm", "TNorm", "combine"),
    ("tnorm.verify_tnorm_axioms", "fuzzfix.tnorm", None, "verify_tnorm_axioms"),
    ("phi.ensure_phi_class", "fuzzfix.phi", None, "ensure_phi_class"),
    ("phi.horizon", "fuzzfix.phi", None, "horizon"),
    ("phi.verify_phi_class", "fuzzfix.phi", None, "verify_phi_class"),
    ("phi.eval", "fuzzfix.phi", "LinearPhi", "eval"),
    ("phi.eval", "fuzzfix.phi", "RationalPhi", "eval"),
    ("phi.eval", "fuzzfix.phi", "InducedPhi", "eval"),
    ("phi.eval", "fuzzfix.phi", "TablePhi", "eval"),
    ("maps.apply", "fuzzfix.maps", "AffineMap", "apply"),
    ("maps.apply", "fuzzfix.maps", "ConstantMap", "apply"),
    ("maps.apply", "fuzzfix.maps", "TableMap", "apply"),
    ("maps.apply", "fuzzfix.maps", "AffineBijection", "apply"),
    ("maps.apply", "fuzzfix.maps", "PermutationBijection", "apply"),
    ("maps.apply", "fuzzfix.maps", "InverseComposite", "apply"),
    ("maps.invert_apply", "fuzzfix.maps", "AffineBijection", "invert_apply"),
    ("maps.invert_apply", "fuzzfix.maps", "PermutationBijection", "invert_apply"),
    ("contraction.check_g_phi", "fuzzfix.contraction", None, "check_g_phi"),
    ("contraction.sample_pairs", "fuzzfix.contraction", None, "sample_pairs"),
    ("solver.solve_coincidence", "fuzzfix.solver", None, "solve_coincidence"),
    ("multivalued.select_successor", "fuzzfix.multivalued", None, "select_successor"),
    ("multivalued.solve_inclusion", "fuzzfix.multivalued", None, "solve_inclusion"),
)

# Called so often that a full probe would cost more than the call: the
# timed pass leaves them unwrapped and the leaf round counts them.
LEAVES = frozenset(("phi.eval", "fmspace.membership", "tnorm.combine", "maps.apply", "maps.invert_apply"))

# Work read off return values, so ratios are taken where the work happens.
WORK = {
    "contraction.check_g_phi": ("contraction.pairs", lambda r: r.checked_pairs),
    "solver.solve_coincidence": ("solver.iterations", lambda r: r.iterations),
}

# Spans kept in memory and written out; aggregates cover every call.
SPAN_CAP = 50000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.work = defaultdict(int)
        self.spans = []
        self.spans_total = 0
        # From the leaf round: (innermost wrapped caller that is not a
        # leaf, leaf) -> calls, and the self seconds of each leaf.
        self.leaf_edges = defaultdict(int)
        self.leaf_time = defaultdict(float)
        self.job = -1
        self._stack = []
        self._leaf_stack = []
        self._next_id = 0
        self._patches = []

    # -- installation

    def install(self, leaf_round: bool) -> None:
        """Wrap the targets for the timed pass, or for the leaf round."""
        for name, module_name, class_name, attr in TARGETS:
            if name in LEAVES:
                if not leaf_round:
                    continue
                wrap = self._wrap_leaf
            else:
                wrap = self._wrap_frame if leaf_round else self._wrap
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, wrap(name, original))
                continue
            original = getattr(module, attr)
            probe = wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "fuzzfix" or mod_name.startswith("fuzzfix.")) and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, probe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, probe) -> None:
        setattr(owner, attr, probe)
        self._patches.append((owner, attr, original))

    def _wrap_leaf(self, name: str, fn):
        stack = self._stack
        leaves = self._leaf_stack
        clock = time.perf_counter
        edges = self.leaf_edges
        seconds = self.leaf_time

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [0.0]
            leaves.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                leaves.pop()
                seconds[name] += elapsed - frame[0]
                edges[(stack[-1][0] if stack else None, name)] += 1
                if leaves:
                    # A leaf called from a leaf (maps.apply from a g-transformed
                    # membership): the outer leaf's self time excludes this
                    # call and its bookkeeping.
                    leaves[-1][0] += clock() - start

        return probe

    def _wrap_frame(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack.append((name,))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return probe

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.inclusive[name] += elapsed
                tracer.self_time[name] += elapsed - frame[2]
                parent_id = None
                if parent is not None:
                    parent[2] += elapsed
                    parent_id = parent[1]
                    tracer.edges[(parent[0], name)] += 1
                tracer.spans_total += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[1], parent_id, tracer.job, name, start, end))
            if work is not None:
                tracer.work[work[0]] += work[1](result)
            return result

        return probe

    # -- results

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls[name]
        return self.inclusive[name] / calls * scale if calls else 0.0

    def leaf_calls(self, name: str) -> int:
        return sum(n for (_, leaf), n in self.leaf_edges.items() if leaf == name)

    def leaf_per_call(self, name: str, scale: float) -> float:
        calls = self.leaf_calls(name)
        return self.leaf_time[name] / calls * scale if calls else 0.0

    def per_layer_metrics(self, rounds: int) -> dict:
        """Every per-layer metric, with counts given per round of the workload.

        ``rounds`` counts the rounds of the timed pass; leaf counts come
        from the single leaf round. Times per call are inclusive, except
        for the leaves (membership, invert_apply), which are self time;
        contraction.pair_us and solver.step_us are the self time of the
        loop per unit of work, leaves included. A layer the workload
        never calls reads 0.
        """
        pairs = self.work["contraction.pairs"]
        iterations = self.work["solver.iterations"]

        def per_round(count):
            return count / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "cli.parse_config_ms": (self.per_call("cli.parse_config", 1e3), "ms"),
            "cli.render_report_us": (self.per_call("cli.render_report", 1e6), "us"),
            "fmspace.threshold_us": (self.per_call("fmspace.threshold", 1e6), "us"),
            "fmspace.threshold_calls": (per_round(self.calls["fmspace.threshold"]), "count"),
            "fmspace.membership_us": (self.leaf_per_call("fmspace.membership", 1e6), "us"),
            "fmspace.membership_calls": (self.leaf_calls("fmspace.membership"), "count"),
            "fmspace.finite_space_ms": (self.per_call("fmspace.finite_space", 1e3), "ms"),
            "fmspace.verify_fm_axioms_ms": (self.per_call("fmspace.verify_fm_axioms", 1e3), "ms"),
            "fmspace.is_cauchy_window_us": (self.per_call("fmspace.is_cauchy_window", 1e6), "us"),
            "tnorm.combine_calls": (self.leaf_calls("tnorm.combine"), "count"),
            "tnorm.verify_tnorm_axioms_ms": (self.per_call("tnorm.verify_tnorm_axioms", 1e3), "ms"),
            "phi.ensure_phi_class_ms": (self.per_call("phi.ensure_phi_class", 1e3), "ms"),
            "phi.horizon_ms": (self.per_call("phi.horizon", 1e3), "ms"),
            "phi.eval_calls": (self.leaf_calls("phi.eval"), "count"),
            "phi.verify_phi_class_ms": (self.per_call("phi.verify_phi_class", 1e3), "ms"),
            "maps.invert_apply_us": (self.leaf_per_call("maps.invert_apply", 1e6), "us"),
            "maps.apply_calls": (self.leaf_calls("maps.apply"), "count"),
            "contraction.pair_us": (ratio(self.self_time["contraction.check_g_phi"], pairs) * 1e6, "us"),
            "contraction.membership_per_pair": (
                ratio(self.leaf_edges[("contraction.check_g_phi", "fmspace.membership")], per_round(pairs)),
                "ratio",
            ),
            "contraction.sample_pairs_ms": (self.per_call("contraction.sample_pairs", 1e3), "ms"),
            "solver.step_us": (ratio(self.self_time["solver.solve_coincidence"], iterations) * 1e6, "us"),
            "solver.iterations": (per_round(iterations), "count"),
            "multivalued.select_successor_us": (self.per_call("multivalued.select_successor", 1e6), "us"),
            "multivalued.solve_inclusion_ms": (self.per_call("multivalued.solve_inclusion", 1e3), "ms"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def layer_self_seconds(self) -> dict:
        """Self time of the timed pass summed per layer (the module part of
        each span name); a leaf's time is in its caller's layer."""
        layers = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".")[0]] += seconds
        return dict(sorted(layers.items(), key=lambda item: -item[1]))

    def dump(self, rounds: int) -> dict:
        return {
            "rounds": rounds,
            "layer_self_s": self.layer_self_seconds(),
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "self_s": self.self_time[name],
                    "inclusive_s": self.inclusive[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "leaf_round": {
                "leaves": {
                    name: {"calls": self.leaf_calls(name), "self_s": self.leaf_time[name]}
                    for name in sorted(self.leaf_time)
                },
                "edges": [[a, b, n] for (a, b), n in sorted(self.leaf_edges.items(), key=str)],
            },
            "work": dict(self.work),
            "spans_total": self.spans_total,
            "span_fields": ["id", "parent", "job", "name", "start", "end"],
            "spans": self.spans,
        }

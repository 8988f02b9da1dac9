"""Span tracing around the public functions of each cqpkit layer.

A function is wrapped where its caller looks it up: ``explore`` finds
``step`` as a global of ``cqpkit.semantics``, and ``semantics`` finds
``apply_gate`` as an attribute of ``cqpkit.qstate``. So ``substitute`` and
``free_names`` are counted only where ``semantics`` calls them, not in
their own recursion.

Each wrapped call records one span: name, start, end, parent span and
operation id, kept in compact arrays and written out when the run ends.
Spans inside one operation (one ``check_equivalence`` or one
``run_sampled``) share its id; other spans carry -1. Per name the tracer
also keeps calls, total seconds and self seconds, where self time is a
span's duration minus the time covered by wrapped calls inside it.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

import numpy as np

from cqpkit import congruence, equiv, qstate, semantics, syntax, typecheck


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # seconds, not counting the speed probe's own time
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.peak_qubits = 0
        self.op = -1
        self._next_op = 0
        self._stack: list[list] = []  # open spans: [span index, name id, child seconds]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, nid: int) -> bool:
        return any(frame[1] == nid for frame in self._stack)

    def wrap(self, owner, attr: str, name: str, *, starts_op=False, observe=None, rename=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``observe(args, result)`` sees each successful call; ``rename(result)``
        may give the span another name once the result is known.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack

        def wrapped(*args, **kwargs):
            if starts_op:
                self.op = self._next_op
                self._next_op += 1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, nid, t0, starts_op)
                raise
            self._close(frame, nid if rename is None else self.name_id(rename(result)), t0, starts_op)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapped)

    def _close(self, frame, nid: int, t0: float, ends_op: bool):
        t1 = self.clock()
        self._stack.pop()
        idx = frame[0]
        self.span_name[idx] = nid
        self.span_end[idx] = t1
        d = t1 - t0
        if self._stack:
            self._stack[-1][2] += d
        self.calls[nid] += 1
        self.total_s[nid] += d
        self.self_s[nid] += d - frame[2]
        if ends_op:
            self.op = -1

    def snapshot(self) -> dict:
        """Cumulative totals, flat: ``<name>.calls``, ``<name>.s``,
        ``<name>.self_s`` and the extra counts."""
        out = dict(self.counts)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.total_s[i]
            out[f"{name}.self_s"] = self.self_s[i]
        return out

    def write(self, path: Path):
        """Write every span to ``path`` (.npz) with its name table beside it."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )
        path.with_suffix(".names.json").write_text(json.dumps(self.names) + "\n")


def install(tracer: Tracer):
    """Wrap the public functions of every layer at their lookup points."""

    def peak(args, _result):
        tracer.peak_qubits = max(tracer.peak_qubits, args[0].num_qubits)

    def explored(_args, plts):
        tracer.count("semantics.edges", len(plts.edges))
        tracer.count("semantics.nondet_states", sum(s.kind == "nondet" for s in plts.states))

    run_id = tracer.name_id("semantics.run")

    def stepped(_args, transitions):
        tracer.count("semantics.step.transitions", len(transitions))
        if tracer.inside(run_id):
            tracer.count("semantics.run.offered", len(transitions))

    def ran(_args, trace):
        tracer.count("semantics.run.taken", len(trace))

    w = tracer.wrap
    w(syntax, "parse_program", "syntax.parse")
    w(typecheck, "parse_signatures", "syntax.parse")
    w(semantics, "substitute", "syntax.substitute")
    w(semantics, "free_names", "syntax.free_names")
    w(typecheck, "typecheck_program", "typecheck.check")
    w(semantics, "explore", "semantics.explore", observe=explored)
    w(semantics, "step", "semantics.step", observe=stepped)
    w(semantics, "canonical_key", "semantics.canonical_key")
    w(semantics.Configuration, "check_ownership", "semantics.ownership")
    w(semantics, "run_sampled", "semantics.run", starts_op=True, observe=ran)
    w(qstate, "apply_gate", "qstate.apply_gate", observe=peak)
    w(qstate, "measure", "qstate.measure", observe=peak)
    w(qstate, "reduced_density_matrix", "qstate.reduced_density_matrix", observe=peak)
    w(qstate, "states_equal_up_to_global_phase", "qstate.phase_compare", observe=peak)
    w(equiv, "check_equivalence", "equiv.check", starts_op=True)
    w(equiv, "branching_bisim", "equiv.bisim",
      rename=lambda v: "equiv.bisim" if v.equivalent else "equiv.bisim_refuted")
    w(equiv, "labels_match", "equiv.labels_match")
    w(congruence, "generate_context", "congruence.generate")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(v, peak_qubits: int) -> dict:
    """Per-layer metrics from ``v(key)``, the figure for one set-up plus one round."""
    merges = v("semantics.canonical_key.calls") - v("semantics.nondet_states")
    m = {
        "syntax.parse.s": (v("syntax.parse.s"), "s"),
        "syntax.substitute.calls": (v("syntax.substitute.calls"), "count"),
        "syntax.substitute.s": (v("syntax.substitute.s"), "s"),
        "syntax.free_names.calls": (v("syntax.free_names.calls"), "count"),
        "syntax.free_names.s": (v("syntax.free_names.s"), "s"),
        "typecheck.check.calls": (v("typecheck.check.calls"), "count"),
        "typecheck.check.s": (v("typecheck.check.s"), "s"),
        "semantics.explore.calls": (v("semantics.explore.calls"), "count"),
        "semantics.explore.s": (v("semantics.explore.s"), "s"),
        "semantics.edges": (v("semantics.edges"), "count"),
        "semantics.step.calls": (v("semantics.step.calls"), "count"),
        "semantics.step.self_s": (v("semantics.step.self_s"), "s"),
        "semantics.step.transitions": (v("semantics.step.transitions"), "count"),
        "semantics.canonical_key.calls": (v("semantics.canonical_key.calls"), "count"),
        "semantics.canonical_key.s": (v("semantics.canonical_key.s"), "s"),
        "semantics.intern.merges": (merges, "count"),
        "semantics.intern.probe_hit_ratio": (_ratio(merges, v("qstate.phase_compare.calls")), "ratio"),
        "semantics.ownership.calls": (v("semantics.ownership.calls"), "count"),
        "semantics.ownership.s": (v("semantics.ownership.s"), "s"),
        "semantics.run.taken_ratio": (
            _ratio(v("semantics.run.taken"), v("semantics.run.offered")), "ratio"),
        "qstate.peak_qubits": (peak_qubits, "qubits"),
        "equiv.check.calls": (v("equiv.check.calls"), "count"),
        "equiv.check.s": (v("equiv.check.s"), "s"),
        "equiv.instantiations": (v("equiv.bisim.calls") + v("equiv.bisim_refuted.calls"), "count"),
        "equiv.bisim.s": (v("equiv.bisim.s"), "s"),
        "equiv.bisim_refuted.s": (v("equiv.bisim_refuted.s"), "s"),
        "equiv.labels_match.calls": (v("equiv.labels_match.calls"), "count"),
        "congruence.generate.s": (v("congruence.generate.s"), "s"),
    }
    for op in ("apply_gate", "measure", "reduced_density_matrix", "phase_compare"):
        m[f"qstate.{op}.calls"] = (v(f"qstate.{op}.calls"), "count")
        m[f"qstate.{op}.s"] = (v(f"qstate.{op}.s"), "s")
    return m

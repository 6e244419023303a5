"""Span recorders installed around causal_lab functions from outside.

A target names one function and every module or class attribute through
which other code calls it (`transport.dinic_max_flow` is the name the
ordering check calls, `maxflow.dinic_max_flow` the definition).  While
installed, each attribute holds a wrapper that records a span; `uninstall`
puts the original objects back.  Nothing in the package changes, and the
untraced run installs nothing.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans.  A function that is
already open gets no nested span, so recursive calls are timed once, at
the outermost call.  Time spent in the tracer itself (bookkeeping and
counting) is subtracted from every span that encloses it.
"""
from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

import lib


@dataclass
class Target:
    span: str                       # span name, e.g. "maxflow.dinic_max_flow"
    where: list[tuple[str, str]]    # (owner path, attribute)
    count: Callable | None = None   # (args, kwargs, result) -> {name: int}
    # a function whose traced callees do most of its work reports as
    # "<span>.self_s", which says plainly that the figure is not its total
    partial: bool = False

    @property
    def metric(self) -> str:
        return self.span + (".self_s" if self.partial else ".s")


@dataclass
class Tracer:
    targets: list[Target]
    spans: list = field(default_factory=list)   # (name, net_s, parent)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _open: Counter = field(default_factory=Counter)
    _debt: float = 0.0
    _paused: bool = False
    _saved: list = field(default_factory=list)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            for owner_path, attr in target.where:
                owner = resolve(owner_path)
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    repl = staticmethod(self._wrap(target, original.__func__))
                else:
                    repl = self._wrap(target, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, repl)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the harness's own checks) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, count = target.span, target.count
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if tracer._open[name] or tracer._paused:
                tracer._debt += perf_counter() - enter
                return fn(*args, **kwargs)
            tracer._open[name] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            debt0 = tracer._debt
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.spans[idx] = (name, t1 - t0 - (tracer._debt - debt0),
                                     parent)
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            tracer._debt += (t0 - enter) + (perf_counter() - t1)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name over all recorded spans."""
        child = defaultdict(float)
        for name, net, parent in self.spans:
            if parent >= 0:
                child[parent] += net
        out: dict[str, float] = defaultdict(float)
        for i, (name, net, _) in enumerate(self.spans):
            out[name] += net - child[i]
        return dict(out)


def resolve(path: str):
    """'transport' -> module; 'region.Region' -> class in that module."""
    mod, _, cls = path.partition(".")
    owner = getattr(lib, mod)
    return getattr(owner, cls) if cls else owner


# -- work counts from public data ---------------------------------------------


def _support_size(m) -> int:
    return len(m.atoms) if m.is_atomic else int(m.weights_flat.size)


def _denominator(c) -> int:
    if isinstance(c, float):
        return c.as_integer_ratio()[1]
    return Fraction(c).denominator


def _network_counts(args, kwargs, net):
    mu, nu = args[0], args[1]
    den = math.lcm(*(_denominator(c) for c in net.left_caps + net.right_caps))
    return {"transport.edges": net.num_edges,
            "transport.left_nodes": net.num_left,
            "transport.right_nodes": net.num_right,
            "transport.pruned_zero": _support_size(mu) + _support_size(nu)
            - net.num_left - net.num_right,
            "transport.lift_bits": den.bit_length()}


def _dinic_counts(args, kwargs, result):
    return {"maxflow.dinic_max_flow.calls": 1, "maxflow.arcs": len(args[1])}


def _bruteforce_counts(args, kwargs, verdict):
    n = sum(1 for _, w in args[0].atoms if w > 0)
    return {"transport.bruteforce_subsets": 2 ** n}


def _boxes_in(args, kwargs, region):
    boxes = args[0] if args else kwargs["boxes"]
    return {"region.from_boxes.boxes_in": len(boxes)}


def _cone_pairs(args, kwargs, mask):
    return {"spacetime.point_cone_pairs": len(args[0]) * len(args[3])}


def _ce_method(args, kwargs, verdict):
    return {"conditions.ce_method." + verdict.method: 1}


def _fft_points(args, kwargs, psi):
    return {"quantum.fft_points": args[0].n}


def _lattice(args, kwargs, proto):
    lat, dim = args[2], args[0].cs.dim
    points = lat.q_points ** dim + lat.p_points ** dim
    return {"protocol.lattice_points": points,
            "protocol.senders": len(proto.senders)}


TARGETS = [
    Target("maxflow.dinic_max_flow",
           [("transport", "dinic_max_flow"), ("maxflow", "dinic_max_flow")],
           _dinic_counts),
    Target("transport.build_flow_network",
           [("transport", "build_flow_network")], _network_counts),
    Target("transport.check_ce_maxflow",
           [("transport", "check_ce_maxflow"),
            ("conditions", "check_ce_maxflow")], partial=True),
    Target("transport.check_ce_bruteforce",
           [("transport", "check_ce_bruteforce"),
            ("conditions", "check_ce_bruteforce")], _bruteforce_counts),
    Target("region.from_boxes", [("region.Region", "from_boxes")], _boxes_in),
    Target("region.point_boxes", [("region.Region", "point_boxes")]),
    Target("region.contains_points", [("region.Region", "contains_points")]),
    Target("spacetime.causal_future_on_slice",
           [("spacetime", "causal_future_on_slice"),
            ("conditions", "causal_future_on_slice")]),
    Target("spacetime.point_cone_membership",
           [("spacetime", "point_cone_membership"),
            ("transport", "point_cone_membership")], _cone_pairs),
    Target("measure.restricted", [("measure.SliceMeasure", "restricted")]),
    Target("measure.mass", [("measure.SliceMeasure", "mass")]),
    Target("measure.restriction_distance",
           [("measure", "restriction_distance"),
            ("conditions", "restriction_distance")]),
    Target("measure.from_atoms", [("measure.SliceMeasure", "from_atoms")]),
    Target("conditions.evaluate_conditions",
           [("conditions", "evaluate_conditions")], partial=True),
    Target("conditions.check_ce", [("conditions", "check_ce")], _ce_method),
    Target("conditions.find_ns_witness", [("conditions", "find_ns_witness")]),
    Target("quantum.evolve",
           [("quantum", "evolve_schrodinger_free"),
            ("quantum", "evolve_relativistic"),
            ("quantum", "evolve_dirac_1p1")], _fft_points),
    Target("quantum.born_measure", [("quantum", "born_measure")]),
    Target("protocol.construct_protocol",
           [("protocol", "construct_protocol")], _lattice),
    Target("protocol.audit_protocol", [("protocol", "audit_protocol")]),
    Target("protocol.simulate_signalling",
           [("protocol", "simulate_signalling")]),
    Target("cli.Scenario", [("cli.Scenario", "__init__")]),
    Target("cli.canonical_json", [("cli", "canonical_json")]),
]

COUNT_METRICS = (
    "maxflow.dinic_max_flow.calls", "maxflow.arcs",
    "transport.edges", "transport.left_nodes", "transport.right_nodes",
    "transport.pruned_zero", "transport.lift_bits",
    "transport.bruteforce_subsets", "region.from_boxes.boxes_in",
    "spacetime.point_cone_pairs", "conditions.ce_method.bruteforce",
    "conditions.ce_method.maxflow", "quantum.fft_points",
    "protocol.lattice_points", "protocol.senders",
    "cli.record_bytes", "cli.csv_bytes",
)

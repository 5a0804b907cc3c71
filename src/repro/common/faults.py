"""Seeded fault plans: one draw discipline behind every fault vocabulary.

The engine (:class:`~repro.engine.faulty.FaultPlan`), the IR backends
(:class:`~repro.ir.faults.BackendFaultPlan`) and the serving path
(:class:`~repro.serve.faults.ServeFaultPlan`) inject different kinds of
adversity, but decide them the same way. A vocabulary is a
:class:`SeededFaultPlan` subclass that only declares its table of
:class:`FaultKind` rows; this module owns everything else.

The decision at ordinal ``n`` (a 1-based call or frame counter) is drawn
from ``default_rng((seed, n))``: each kind, in table order, fires when
``n`` is in its forced set or ``rng.uniform() < rate``; the first kind
that fires names the fault, a firing kind appends its drawn parameters,
and a terminal kind ends the loop. The schedule is therefore a pure
function of the plan -- any process that rebuilds the plan from
:meth:`SeededFaultPlan.to_dict` computes the identical schedule, and a
retried operation (next ordinal) sees fresh draws.
"""

from collections import namedtuple

import numpy as np

#: One fault kind of a vocabulary. ``name`` is the decision's ``fault``
#: value, ``knob`` its spec/CLI name, ``rate`` and ``forced`` the plan
#: attributes (constructor keywords) holding its probability and its
#: forced ordinals (``None``: the kind cannot be forced). A
#: ``terminal`` kind ends the draw loop when it fires; a ``spill_only``
#: kind is drawn only in ``spill`` mode. ``draw(plan, rng, resolution)``
#: returns the fault's parameters as a dict (``None``: it has none).
FaultKind = namedtuple(
    "FaultKind", "name knob rate forced terminal spill_only draw",
    defaults=(None, True, False, None))


class SeededFaultPlan:
    """Declarative, seeded fault plan over a vocabulary's kind table.

    Subclasses set :attr:`KINDS` (in draw order), :attr:`ORDINAL`,
    :attr:`DEFAULT_KNOB` and optionally :attr:`EXTRA`. Rates are
    independent per-ordinal probabilities in ``[0, 1]``; the forced
    ordinal sets fire their kind regardless of the rate.
    """

    #: The vocabulary's :class:`FaultKind` rows, in draw order.
    KINDS = ()
    #: Decision key naming the ordinal (``"call"`` or ``"frame"``).
    ORDINAL = "call"
    #: Knob a bare-float spec sets; it leads the vocabulary order.
    DEFAULT_KNOB = None
    #: Optional ``(name, default, minimum)`` of one non-rate knob.
    EXTRA = None

    def __init__(self, *, seed=0, **kwargs):
        kinds = self._vocabulary()
        for kind in kinds:
            rate = float(kwargs.pop(kind.rate, 0.0))
            if not 0.0 <= rate <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r"
                                 % (kind.rate, rate))
            setattr(self, kind.rate, rate)
        if self.EXTRA is not None:
            name, default, minimum = self.EXTRA
            value = float(kwargs.pop(name, default))
            if value < minimum:
                raise ValueError("%s must be >= %g" % (name, minimum))
            setattr(self, name, value)
        self.seed = int(seed)
        for kind in kinds:
            if kind.forced:
                setattr(self, kind.forced, frozenset(
                    int(o) for o in kwargs.pop(kind.forced, ())))
        if kwargs:
            raise TypeError("%s got unexpected keyword arguments %s"
                            % (type(self).__name__, sorted(kwargs)))

    @classmethod
    def _vocabulary(cls):
        """The kinds with the default knob's first, the rest in draw
        order: the order of the constructor, :meth:`to_dict` and
        :meth:`describe`."""
        return sorted(cls.KINDS, key=lambda k: k.knob != cls.DEFAULT_KNOB)

    @classmethod
    def knobs(cls):
        """Spec knob -> constructor keyword, in vocabulary order."""
        knobs = {kind.knob: kind.rate for kind in cls._vocabulary()}
        if cls.EXTRA is not None:
            knobs[cls.EXTRA[0]] = cls.EXTRA[0]
        return knobs

    def _forced_count(self):
        return sum(len(getattr(self, k.forced))
                   for k in self.KINDS if k.forced)

    @property
    def is_clean(self):
        """True when the plan injects nothing at all."""
        return not any(getattr(self, k.rate) for k in self.KINDS) \
            and not self._forced_count()

    @classmethod
    def parse(cls, spec, seed=0):
        """Build a plan from a spec string: a single float (the
        :attr:`DEFAULT_KNOB` rate) or a comma list of ``knob=value``
        pairs over :meth:`knobs`, e.g. ``"crash=0.2,corrupt=0.1"``."""
        knobs = cls.knobs()
        try:
            return cls(seed=seed, **{knobs[cls.DEFAULT_KNOB]: float(spec)})
        except (TypeError, ValueError):
            pass
        kwargs = {}
        for item in str(spec).split(","):
            if not item.strip():
                continue
            name, _, value = item.partition("=")
            name = name.strip()
            if name not in knobs:
                raise ValueError(
                    "unknown %s knob %r (expected one of %s)"
                    % (cls.__name__, name, ", ".join(sorted(knobs))))
            kwargs[knobs[name]] = float(value)
        return cls(seed=seed, **kwargs)

    def to_dict(self):
        """JSON-safe form; :meth:`from_dict` round-trips it exactly."""
        kinds = self._vocabulary()
        out = {kind.rate: getattr(self, kind.rate) for kind in kinds}
        if self.EXTRA is not None:
            out[self.EXTRA[0]] = getattr(self, self.EXTRA[0])
        out["seed"] = self.seed
        for kind in kinds:
            if kind.forced:
                out[kind.forced] = sorted(getattr(self, kind.forced))
        return out

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a plan serialized by :meth:`to_dict` (e.g. in another
        process); the rebuilt plan injects the identical schedule."""
        return cls(**payload)

    def fault_at(self, ordinal, mode="execute", resolution=None):
        """The decision taken at ``ordinal``: a JSON-safe dict with the
        ordinal under :attr:`ORDINAL`, ``fault`` (a kind's name or
        ``None``) and the drawn parameters of every kind that fired.

        ``mode="spill"`` also draws the spill-only kinds, whose
        parameters need the spilled dimension's ``resolution``.
        """
        if mode not in ("execute", "spill"):
            raise ValueError("mode must be 'execute' or 'spill'")
        spill = mode == "spill"
        if spill and resolution is None and any(
                k.spill_only and getattr(self, k.rate) for k in self.KINDS):
            raise ValueError("spill schedules with spill-only faults "
                             "need resolution=")
        rng = np.random.default_rng((self.seed, ordinal))
        decision = {self.ORDINAL: ordinal, "fault": None}
        for kind in self.KINDS:
            if kind.spill_only and not spill:
                continue
            forced = kind.forced and ordinal in getattr(self, kind.forced)
            if not forced and not rng.uniform() < getattr(self, kind.rate):
                continue
            if decision["fault"] is None:
                decision["fault"] = kind.name
            if kind.draw is not None:
                decision.update(kind.draw(self, rng, resolution))
            if kind.terminal:
                break
        return decision

    def schedule(self, count, mode="execute", resolution=None):
        """The first ``count`` decisions (see :meth:`fault_at`)."""
        return [self.fault_at(o, mode=mode, resolution=resolution)
                for o in range(1, count + 1)]

    def describe(self):
        """Short summary for reports: ``knob=rate`` in vocabulary order,
        then ``forced=N`` when ordinals are forced, or ``clean``."""
        parts = ["%s=%g" % (k.knob, getattr(self, k.rate))
                 for k in self._vocabulary() if getattr(self, k.rate)]
        forced = self._forced_count()
        if forced:
            parts.append("forced=%d" % forced)
        return ",".join(parts) or "clean"

    def __repr__(self):
        return "%s(%s, seed=%d)" % (type(self).__name__, self.describe(),
                                    self.seed)

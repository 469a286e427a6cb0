"""Spans, self time and call counts, recorded by wrapping functions from outside.

A span is one call of a wrapped function, or one ``__next__`` of a generator
a wrapped generator function returned, so a generator is charged only for the
time the consumer spends waiting on it.  Each span has a name
``<layer>.<what>``; the layer is the part before the first dot.

The tracer keeps open spans on a stack and aggregates as spans close rather
than storing them: a span's self time is its duration minus the time its
child spans cover, and each closing span adds its duration to its parent's
child time.  It also counts calls per (parent span, span) edge, items each
generator span produced, and refusals: spans that end in the refusal
exception while their parent belongs to another layer, so a refusal passed up
through one layer's own calls counts once, with the whole span as its time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict


def layer_of(span: str) -> str:
    return span.partition(".")[0]


class Tracer:
    def __init__(self, clock=time.perf_counter, refusal=Exception):
        self.clock = clock
        self.refusal = refusal
        self.stack = []  # open spans as [name, start, seconds covered by children]
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span or None, span) -> spans opened
        self.items = Counter()  # generator span -> items handed to another span
        self.counts = Counter()  # named scan sizes and hits added by hooks
        self.refusals = Counter()  # layer -> refusals
        self.refusal_s = defaultdict(float)

    def enter(self, name: str):
        stack = self.stack
        self.edges[stack[-1][0] if stack else None, name] += 1
        stack.append([name, self.clock(), 0.0])

    def exit(self, error: BaseException | None = None) -> float:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.self_s[name] += dur - child
        stack = self.stack
        if stack:
            stack[-1][2] += dur
        if error is not None and isinstance(error, self.refusal):
            layer = layer_of(name)
            if not stack or layer_of(stack[-1][0]) != layer:
                self.refusals[layer] += 1
                self.refusal_s[layer] += dur
        return dur

    def calls(self, name: str) -> int:
        return sum(n for (_, span), n in self.edges.items() if span == name)

    def layer_self_s(self, layer: str) -> float:
        return sum((s for name, s in self.self_s.items() if layer_of(name) == layer), 0.0)


class _TracedIter:
    """Iterator proxy: one span per ``__next__`` of the wrapped generator."""

    __slots__ = ("_next", "_tracer", "_name")

    def __init__(self, it, tracer: Tracer, name: str):
        self._next = it.__next__
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = self._next()
        except StopIteration:
            tracer.exit()
            raise
        except BaseException as exc:
            tracer.exit(exc)
            raise
        tracer.exit()
        stack = tracer.stack
        # an item one generator span re-yields from a nested one counts once
        if not stack or stack[-1][0] != self._name:
            tracer.items[self._name] += 1
        return item


def traced(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn so each call (or each next, for a generator function) is a span.

    after(tracer, arguments, result) runs after a call returns normally, with
    the call's arguments bound to fn's parameter names.
    """
    enter, exit_ = tracer.enter, tracer.exit
    if inspect.isgeneratorfunction(fn):
        def call(*args, **kwargs):
            return _TracedIter(fn(*args, **kwargs), tracer, name)
    else:
        def call(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(exc)
                raise
            exit_()
            return result
    if after is None:
        return functools.wraps(fn)(call)
    signature = inspect.signature(fn)

    def observed(*args, **kwargs):
        result = call(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        after(tracer, bound.arguments, result)
        return result
    return functools.wraps(fn)(observed)


class Installation:
    """Wrappers installed into a package; undo() puts every original back."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)
        self.missing = []  # specs whose target no longer exists

    def undo(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self.patched)


def install(tracer: Tracer, package: str, specs, hooks=None) -> Installation:
    """Wrap each (module, attribute, span) of specs inside package.

    A dotted attribute such as ``Group.mul`` is a method, patched on its class.
    A module-level function is patched in every loaded module of the package
    that binds it, because ``from .modp import rank`` copies the binding and
    callers look the name up in their own module.
    """
    hooks = hooks or {}
    done = Installation()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for module_name, attr, span in specs:
        module = importlib.import_module(f"{package}.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(leaf) if owner is not None else None
        if not callable(original):
            done.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = traced(tracer, span, original, hooks.get(span))
        if owner_name:
            sites = [(owner, leaf)]
        else:
            sites = [(m, name) for m in modules
                     for name, value in list(vars(m).items()) if value is original]
        for site, name in sites:
            done.patched.append((site, name, original))
            setattr(site, name, wrapper)
    return done

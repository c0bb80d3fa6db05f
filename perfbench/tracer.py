"""An in-memory span tracer that wraps functions of an unmodified program.

:meth:`Tracer.install` replaces named functions and methods with timing
wrappers; :meth:`Tracer.uninstall` puts every original back, so code run
after it is exactly the code that ran before.  Nothing in the traced
program is edited or needs to know about the tracer.

Each wrapped call records one span: site, start, end, parent span and an
id.  A span whose positional arguments include a packet takes the
packet's ``uid`` as its id; spans opened under a *command* site share one
negative command id; any other span inherits its parent's id.  A
generator function's wrapper returns a proxy generator that records one
span per resumption, all with the id current when the generator was
created, so a control-plane command keeps its id across the simulated
processes that carry it out.

Self time is accounted online while spans close: a span's self time is
its duration minus the time its direct children cover.  The tracer's
own bookkeeping around each span is timed too and billed to neither the
span nor its parent, so the per-site self times, the tracer's
bookkeeping and the root's own self time sum to the root's duration.  Spans are kept in flat
``array`` columns (bounded by ``span_cap``; accounting continues past the
cap) and written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Site flags.
COUNT_ONLY = "count"  # count calls, record no span (per-element inner loops)
COMMAND = "command"  # opens a command: spans under it share a command id

_clock = time.perf_counter


class HookError(Exception):
    """A hook names a function that the program does not have."""


class Site:
    """One wrapped function and everything measured at it."""

    __slots__ = ("index", "layer", "target", "flags", "inclusive", "probe",
                 "calls", "self_s", "children")

    def __init__(self, index: int, layer: str, target: str, flags: Tuple[str, ...],
                 inclusive: Optional[str], probe: Optional[Callable[..., None]]):
        self.index = index
        self.layer = layer
        self.target = target
        self.flags = flags
        #: name of the inclusive-time total this site feeds, outermost call only.
        self.inclusive = inclusive
        #: ``probe(counters, args, result)`` run after each call.
        self.probe = probe
        self.calls = 0
        #: raw self time (before the per-span residual is taken off).
        self.self_s = 0.0
        #: spans opened directly under this site's spans.
        self.children = 0


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:func"`` → (owner, attr, fn)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise HookError(f"{target}: {attr!r} is not defined on {owner!r}")
    fn = vars(owner)[attr]
    if not inspect.isfunction(fn):
        raise HookError(f"{target}: not a plain function ({type(fn).__name__})")
    return owner, attr, fn


class Tracer:
    """Wraps hook sites, records spans, accounts self time per site."""

    def __init__(self, packet_type: type, module_prefix: str,
                 span_cap: int = 1_000_000):
        self.packet_type = packet_type
        #: modules whose globals are searched for aliases of wrapped functions.
        self.module_prefix = module_prefix
        self.span_cap = span_cap
        self.sites: List[Site] = []
        self.counters: Dict[str, float] = {}
        self.inclusive: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: sites :meth:`install` could not find, with the reason.
        self.missing: List[str] = []
        self._next_command = 0
        # frame: [site, start, child_s, span_index, span_id, outermost, begun, children]
        self._stack: List[List[Any]] = [[None, 0.0, 0.0, -1, 0, False, 0.0, 0]]
        self.root_s = 0.0
        self._root_raw_self_s = 0.0
        self._root_children = 0
        #: wrapper cost per span that lands in the caller, from :meth:`calibrate`.
        self.residual_s = 0.0
        #: tracer time spent inside the root but outside every span.
        self.bookkeeping_s = 0.0
        self.spans_dropped = 0
        self._sites_col = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._ids = array("q")

    # -- installation ------------------------------------------------------

    def add_site(self, layer: str, target: str, flags: Tuple[str, ...] = (),
                 inclusive: Optional[str] = None,
                 probe: Optional[Callable[..., None]] = None) -> Site:
        site = Site(len(self.sites), layer, target, flags, inclusive, probe)
        self.sites.append(site)
        return site

    def install(self) -> None:
        """Wrap every site; on any failure restore what was already wrapped.

        A site whose function the program no longer has is skipped and
        listed in :attr:`missing`, so a refactor that renames one entry
        point loses that site's numbers, not the whole traced run.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        try:
            for site in self.sites:
                try:
                    owner, attr, fn = resolve(site.target)
                except (HookError, ImportError, AttributeError) as exc:
                    self.missing.append(f"{site.target}: {exc}")
                    continue
                wrapper = self._wrap(site, fn)
                for holder, name in self._aliases(owner, attr, fn):
                    self._patches.append((holder, name, fn))
                    setattr(holder, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._patches:
            holder, name, fn = self._patches.pop()
            setattr(holder, name, fn)

    def patched_locations(self) -> List[Tuple[Any, str, Any]]:
        """(holder, attribute, original) for every location wrapped now."""
        return list(self._patches)

    def _aliases(self, owner: Any, attr: str, fn: Any) -> Iterator[Tuple[Any, str]]:
        yield owner, attr
        if inspect.isclass(owner):
            return
        # A module function is also reachable through every
        # ``from module import name`` binding made at import time.
        for name, module in sorted(sys.modules.items()):
            if module is owner or not name.startswith(self.module_prefix):
                continue
            for alias, value in sorted(vars(module).items()):
                if value is fn:
                    yield module, alias

    # -- the wrappers ----------------------------------------------------------

    def _wrap(self, site: Site, fn: Callable[..., Any]) -> Callable[..., Any]:
        if COUNT_ONLY in site.flags:
            def counted(*args: Any, **kwargs: Any) -> Any:
                site.calls += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        open_, close = self._open, self._close
        probe = site.probe

        if inspect.isgeneratorfunction(fn):
            steps, span_id = self._steps, self._span_id

            def generator(*args: Any, **kwargs: Any) -> Any:
                gen = fn(*args, **kwargs)
                proxy = steps(site, gen, span_id(site, args))
                proxy.__name__ = gen.__name__
                proxy.__qualname__ = gen.__qualname__
                return proxy
            return functools.wraps(fn)(generator)

        def call(*args: Any, **kwargs: Any) -> Any:
            open_(site, args, 0)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                close(probe, args, result)
            return result
        return functools.wraps(fn)(call)

    def _span_id(self, site: Site, args: Tuple[Any, ...]) -> int:
        packet_type = self.packet_type
        for arg in args:
            if isinstance(arg, packet_type):
                return arg.uid
        inherited = self._stack[-1][4]
        if COMMAND in site.flags and inherited >= 0:
            self._next_command += 1
            return -self._next_command
        return inherited

    def _steps(self, site: Site, gen: Any, sid: int) -> Any:
        """Drive ``gen`` exactly as ``yield from`` would, one span per step."""
        open_, close = self._open, self._close
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            open_(site, (), sid)
            item = None
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    thrown, error = error, None
                    item = gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                close(None, (), item)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                error, value = exc, None

    # The span's own clock starts after the bookkeeping in _open and stops
    # before the bookkeeping in _close; the bookkeeping is billed to
    # ``bookkeeping_s``, neither to the span nor to its parent.

    def _open(self, site: Site, args: Tuple[Any, ...], sid: int) -> None:
        begun = _clock()
        site.calls += 1
        if not sid:
            sid = self._span_id(site, args)
        stack = self._stack
        index = len(self._starts)
        if index < self.span_cap:
            self._sites_col.append(site.index)
            self._starts.append(begun)
            self._ends.append(begun)
            self._parents.append(stack[-1][3])
            self._ids.append(sid)
        else:
            index = -1
            self.spans_dropped += 1
        outermost = False
        key = site.inclusive
        if key is not None:
            depth = self._depth.get(key, 0)
            outermost = depth == 0
            self._depth[key] = depth + 1
        frame = [site, 0.0, 0.0, index, sid, outermost, begun, 0]
        stack.append(frame)
        frame[1] = start = _clock()
        if index >= 0:
            self._starts[index] = start

    def _close(self, probe: Optional[Callable[..., None]], args: Tuple[Any, ...],
               result: Any) -> None:
        end = _clock()
        stack = self._stack
        site, start, child_s, index, _sid, outermost, begun, children = stack.pop()
        duration = end - start
        site.self_s += duration - child_s
        site.children += children
        if index >= 0:
            self._ends[index] = end
        key = site.inclusive
        if key is not None:
            self._depth[key] -= 1
            if outermost:
                self.inclusive[key] = self.inclusive.get(key, 0.0) + duration
        if probe is not None:
            probe(self.counters, args, result)
        finished = _clock()
        parent = stack[-1]
        parent[2] += finished - begun
        parent[7] += 1
        self.bookkeeping_s += (start - begun) + (finished - end)

    # -- the root span -----------------------------------------------------------

    def run_root(self, body: Callable[[], Any]) -> Any:
        """Run ``body`` under the root span; returns its result."""
        if len(self._stack) != 1:
            raise RuntimeError("root span opened inside another span")
        base = self._stack[0]
        base[2] = 0.0
        base[7] = 0
        start = _clock()
        try:
            return body()
        finally:
            end = _clock()
            if len(self._stack) != 1:
                raise RuntimeError(f"{len(self._stack) - 1} spans left open")
            self.root_s += end - start
            self._root_raw_self_s += (end - start) - base[2]
            self._root_children += base[7]

    # -- results -----------------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        """Self time per layer, the per-span residual taken off each caller."""
        totals: Dict[str, float] = {}
        for site in self.sites:
            own = site.self_s - self.residual_s * site.children
            totals[site.layer] = totals.get(site.layer, 0.0) + own
        return totals

    @property
    def root_self_s(self) -> float:
        """Root time outside every span and outside the tracer's bookkeeping."""
        return self._root_raw_self_s - self.residual_s * self._root_children

    @property
    def overhead_in_root_s(self) -> float:
        """Tracer time inside the root: bookkeeping plus the wrappers' residual."""
        spans = self._root_children + sum(site.children for site in self.sites)
        return self.bookkeeping_s + self.residual_s * spans

    def calibrate(self, calls: int = 20000) -> float:
        """Measure :attr:`residual_s`: a wrapper's cost that its caller pays.

        Times an empty loop and a loop of wrapped calls to a no-op; what
        the wrapped loop costs beyond the empty one, its bookkeeping and
        its spans (which include the call of the no-op itself) is paid by
        the caller, once per span.  Run before :meth:`install`; it leaves
        no spans behind.
        """
        def noop(arg: Any) -> None:
            return None

        probe_site = Site(-1, "", "calibration", (), None, None)
        wrapped = self._wrap(probe_site, noop)
        saved = (self.bookkeeping_s, self.span_cap)
        self.span_cap = 0
        try:
            start = _clock()
            for _ in range(calls):
                pass
            loop = _clock() - start
            before = self.bookkeeping_s
            start = _clock()
            for _ in range(calls):
                wrapped(calls)
            traced = _clock() - start
            bookkeeping = self.bookkeeping_s - before
        finally:
            self.bookkeeping_s, self.span_cap = saved
            self.spans_dropped -= calls
            self._stack[0][2] = 0.0
            self._stack[0][7] = 0
        spans_s = probe_site.self_s
        self.residual_s = max(0.0, (traced - loop - bookkeeping - spans_s) / calls)
        return self.residual_s

    def calls(self, *targets: str) -> int:
        """Summed call count of the named sites."""
        wanted = set(targets)
        unknown = wanted - {site.target for site in self.sites}
        if unknown:
            raise KeyError(f"no such sites: {sorted(unknown)}")
        return sum(site.calls for site in self.sites if site.target in wanted)

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def write_spans(self, path: str) -> None:
        """Write spans as gzip'd TSV: index, site, start, end, parent, id.

        Times are seconds since the first span; ids are ``p<uid>`` for
        packets, ``c<n>`` for commands and ``-`` for none.  Site names
        are listed first as ``#site`` lines.
        """
        origin = self._starts[0] if self._starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for site in self.sites:
                out.write(f"#site\t{site.index}\t{site.layer}\t{site.target}\n")
            for i in range(len(self._starts)):
                sid = self._ids[i]
                label = f"p{sid}" if sid > 0 else (f"c{-sid}" if sid < 0 else "-")
                out.write(
                    f"{i}\t{self._sites_col[i]}\t{self._starts[i] - origin:.9f}\t"
                    f"{self._ends[i] - origin:.9f}\t{self._parents[i]}\t{label}\n"
                )
